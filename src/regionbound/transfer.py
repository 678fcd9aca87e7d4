"""The ReLU-layer B matrix.

Every stage of a network maps the region-dimension histogram to a new
one (see ``regionbound.engine``).  Rank limits are clips and max-pooling
and skip/residual wrappers are diagonal scalings; only a ReLU layer
needs a matrix.  For n' hyperplanes, column j of B is
clip(gamma(j, n'), j): the pieces an n'-hyperplane cut makes of one
j-dimensional region, none of dimension above j.  B is therefore upper
triangular, and it is stored by its structure, not by its entries:

* the diagonal;
* the binomial row C(n', i): off the diagonal, row i of B equals
  C(n', i) on the suffix j >= max(i+1, n'-i+1) ("ours") or
  j >= max(i+1, n'-i) ("serra");
* for "ours" only, a band G of what is left, stored by column:
  column j of G covers rows (n'-j)/2 <= i <= min(n'-j, j-1), and is
  empty unless 3j >= n'+2.  It is about n'^2/12 entries in all.

Proof.  clip(., j) keeps the entries i < j of gamma(j, n') and moves
the rest onto the diagonal, so off the diagonal, entry (i, j) is
gamma(j, n')[i] with i < j.  The "serra" closed form in
``regionbound.gamma`` makes it C(n', i) for i >= n'-j and 0 otherwise:
a suffix of row i, and no band.  For "ours" and 2 <= j < n', the
closed form makes it C(n', i) for i > n'-j, again a suffix.  For
i <= n'-j, set s = 2i - (n'-j) and a = j-2+s; the entry is 0 for
s < 0 and C(a, j-2) + 2*C(a, j-1) otherwise (at i = n'-j this is the
closed form's i = k case, with a = n'-2).  It can be nonzero only for
(n'-j)/2 <= i <= n'-j, which with i < j is the band column.  The entry
is L_j[s] of ``regionbound.gamma``, and Pascal's rule makes L_{j+1} the
running sum of L_j, so after one closed-form column each band column is
one ``accumulate``: about 2n'^2/9 big-int additions in all.  The other
columns fit: column 0 has no off-diagonal entry, entry 0 of column 1 is
0 for n' >= 2 by the first-layer seed, and column n' is row n' of
Pascal's triangle, whose entry 0 (that is 1) is its band column while
the rest lies on the suffixes.  Each diagonal entry is gamma_norm(j, n')
minus the off-diagonal sum of column j.

So B^T w costs O(n') big-int products for "serra": entry j is
diag[j]*w[j] plus a range sum of C(n', i)*w[i], taken from prefix sums,
because the binomial rows that reach column j are a contiguous range.
"ours" adds the dot product of each band column j with the entries of
w at its rows, about n'^2/12 products in all against n'^2/2 for the
dense triangle.

Because B is upper triangular, entries 0..m-1 of B^T w read only the
leading m-block: rows and columns below m.  A ReLU stage at d_eff = e
has m = min(e, n') + 1.  The block needs the first m binomials and the
band columns j < m; a binomial suffix reaches it only when
n' + shift < 2(m-1).  So when n' >= 3e - 1 ("ours") or n' >= 2e
("serra") the block is the scaling diag(gamma_norm(j, n')), j <= e.
The gamma provider keeps one block per n' (``GammaProvider.b_matrix``)
under its lock and cap, and rebuilds it only when a larger one is asked
for.

A block also yields the two ends of B that the engine reads, with no
product: column j, rows 0..j, is its diagonal entry, C(n', i) on the
binomial suffix rows n'+shift-j <= i < j, and band column j; and the
sums of columns 0..k, gamma_norm(j, n') by the definition of the
diagonal, are the prefix sums of its binomial row, which
``gamma.Norms`` reads.  All entries are exact non-negative integers;
``BMatrix.dense_rows`` lists them row by row, and ``regionbound.cli``
writes them as text.
"""
from __future__ import annotations

from itertools import accumulate
from operator import add, mul, sub
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .gamma import GammaProvider


class BMatrix:
    """Leading m-block of the B matrix for n' hyperplanes: square, upper
    triangular, big integers, stored as its diagonal, the binomial row
    with its suffix rule, and the band columns below m.

    Off the diagonal, row i is ``binom[i]`` on columns
    j >= max(i+1, n'-i+shift), and ``band`` holds (j, lo, entries) with
    entries lo, lo+1, ... of column j, for consecutive columns j.  B^T
    takes and returns vectors of at most m entries.
    """

    __slots__ = ("nprime", "diag", "binom", "shift", "band")

    def __init__(self, nprime: int, diag: list[int], binom: list[int],
                 shift: int, band: list[tuple[int, int, tuple[int, ...]]]):
        self.nprime = nprime
        self.diag = diag
        self.binom = binom
        self.shift = shift
        self.band = band

    @property
    def rows(self) -> int:
        return len(self.diag)

    @property
    def cols(self) -> int:
        return len(self.diag)

    def _fits(self, k: int) -> None:
        if k > self.rows:
            raise ValueError(f"vector of length {k} does not fit "
                             f"{self.rows}x{self.cols} transform")

    def column(self, j: int) -> list[int]:
        """Column j, rows 0..j: C(n', i) on the binomial suffix rows
        n'+shift-j <= i < j, the band column j, and the diagonal entry."""
        self._fits(j + 1)
        lo = min(j, max(0, self.nprime + self.shift - j))
        col = [0] * lo + self.binom[lo:j] + [self.diag[j]]
        if self.band and j >= self.band[0][0]:
            _, i, g = self.band[j - self.band[0][0]]
            col[i:i + len(g)] = g
        return col

    def dense_rows(self) -> Iterator[list[int]]:
        """Rows 0..m-1, each made as it is read.  Row i meets band column
        j exactly for n'-2i <= j <= n'-i and j > i: the rows
        (n'-j)/2 <= i <= min(n'-j, j-1) of column j."""
        n, m = self.nprime, self.rows
        first = self.band[0][0] if self.band else m
        for i, (d, c) in enumerate(zip(self.diag, self.binom)):
            start = max(i + 1, n - i + self.shift)
            row = ([0] * i + [d] + [0] * (min(start, m) - i - 1)
                   + [c] * (m - start))
            for j in range(max(first, n - 2 * i, i + 1), min(n - i + 1, m)):
                _, lo, g = self.band[j - first]
                row[j] = g[i - lo]
            yield row

    def transposed(self, w: list[int]) -> list[int]:
        """Exact product B^T w, with len(w) entries: entry j reads only
        rows i <= j."""
        k = len(w)
        self._fits(k)
        out = list(map(mul, self.diag, w))
        tail = self.nprime + self.shift
        # column j collects the binomial suffixes of rows tail-j <= i < j,
        # which exist for j > tail/2
        lo = tail // 2 + 1
        if lo < k:
            # prefix[i] = sum of C(n', r) * w[r] over r < i
            prefix = [0, *accumulate(map(mul, self.binom, w))]
            out[lo:] = map(add, out[lo:], map(
                sub, prefix[lo:k], prefix[tail - k + 1:tail - lo + 1][::-1]))
        for j, lo, g in self.band:
            if j >= k:
                break
            out[j] += sum(map(mul, g, w[lo:lo + len(g)]))
        return out


def b_matrix(provider: GammaProvider, nprime: int,
             m: int | None = None) -> BMatrix:
    """ReLU-layer matrix: column j is clip(gamma(j, nprime), j).

    ``m`` asks for the leading block of size m, rows and columns below
    m; ``None`` asks for the whole matrix, m = nprime + 1.  The provider
    keeps one block per nprime and may return a larger one than asked
    for: the same object on every call that it covers."""
    if nprime < 1:
        raise ValueError("no hyperplanes")
    if m is None:
        m = nprime + 1
    if not 1 <= m <= nprime + 1:
        raise ValueError(f"block size {m} outside 1..{nprime + 1}")
    return provider.b_matrix(nprime, m)
