"""The ReLU-layer B matrix.

Every stage of a network maps the region-dimension histogram to a new
one (see ``regionbound.engine``).  Rank limits are clips and max-pooling
and skip/residual wrappers are diagonal scalings; only a ReLU layer
needs a matrix.  For n' hyperplanes, column j of B is
clip(gamma(j, n'), j): the pieces an n'-hyperplane cut makes of one
j-dimensional region, none of dimension above j.  B is therefore upper
triangular, and it is stored by its row structure, not by its entries:

* the diagonal;
* the binomial row C(n', i): off the diagonal, row i of B equals
  C(n', i) on the suffix j >= max(i+1, n'-i+1) ("ours") or
  j >= max(i+1, n'-i) ("serra");
* for "ours" only, a band G of what is left: row i of G covers
  j in [max(i+1, n'-2i), n'-i], at most i+1 entries.

Proof.  clip(., j) keeps the entries i < j of gamma(j, n') and moves
the rest onto the diagonal, so off the diagonal, entry (i, j) is
gamma(j, n')[i] with i < j.  The "serra" closed form in
``regionbound.gamma`` makes it C(n', i) for i >= n'-j and 0 otherwise:
a suffix of row i, and no band.  For "ours" and 2 <= j < n', the
closed form makes it C(n', i) for i > n'-j, again a suffix.  For
i <= n'-j, set s = 2i - (n'-j) and a = j-2+s; the entry is 0 for
s < 0 and C(a, j-2) + 2*C(a, j-1) otherwise (at i = n'-j this is the
closed form's i = k case, with a = n'-2).  It can be nonzero only for
n'-2i <= j <= n'-i, which with i < j is the band.  The other columns
fit: column 0 has no off-diagonal entry, entry 0 of column 1 is 0 for
n' >= 2 by the first-layer seed, and column n' is row n' of Pascal's
triangle, whose entry 0 (that is 1) is row 0 of the band while the rest
lies on the suffixes.  Each diagonal entry is gamma_norm(j, n') minus
the off-diagonal sum of column j.

So B h costs O(n') big-int products for "serra": row i is
diag[i]*h[i] + C(n', i) times a suffix sum of h.  "ours" adds one dot
product per band row, about n'^2/12 products in all against n'^2/2 for
the dense triangle.  B^T w uses prefix sums of C(n', i)*w[i], because
the binomial rows that reach column j are a contiguous range.  B is
built once per gamma provider and n' (``GammaProvider.b_matrix``) and
kept under the provider's lock and column cap.  All entries are exact
non-negative integers.
"""
from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import add, mul, sub
from typing import TYPE_CHECKING

from .histogram import Histogram

if TYPE_CHECKING:
    from .gamma import GammaProvider


class BMatrix:
    """Square upper-triangular matrix of big integers, stored as its
    diagonal, the binomial row with its suffix rule, and a band.

    Off the diagonal, row i is ``binom[i]`` on columns
    j >= max(i+1, n'-i+shift), and ``band[i] = (lo, entries)`` holds
    entries lo, lo+1, ... where it has any (rows past len(band) have
    none).
    """

    __slots__ = ("diag", "binom", "shift", "band")

    def __init__(self, diag: list[int], binom: list[int], shift: int,
                 band: list[tuple[int, tuple[int, ...]]]):
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

    def _dense_rows(self) -> list[list[int]]:
        n1 = len(self.diag)
        rows = []
        for i, (d, c) in enumerate(zip(self.diag, self.binom)):
            start = max(i + 1, n1 - 1 - i + self.shift)
            row = [0] * i + [d] + [0] * (start - i - 1) + [c] * (n1 - start)
            if i < len(self.band):
                lo, g = self.band[i]
                row[lo:lo + len(g)] = g
            rows.append(row)
        return rows

    def render(self) -> str:
        """Rows of space-separated decimals (appendix matrix layout)."""
        return "\n".join(" ".join(map(str, row))
                         for row in self._dense_rows())

    def apply(self, h: Histogram) -> Histogram:
        """Exact product B h, one row at a time from the row structure."""
        hs = h.entries
        m = len(hs)
        if m > self.cols:
            raise ValueError(f"histogram of length {m} does not fit "
                             f"{self.rows}x{self.cols} transform")
        # rows i >= m are 0: B is upper triangular and h[j] = 0 for j >= m
        out = list(map(mul, self.diag, hs))
        suffix = list(accumulate(reversed(hs)))[::-1]  # h[j] + ... + h[m-1]
        n = len(self.diag) - 1
        tail = n + self.shift
        # row i's binomial suffix starts at max(i+1, tail-i), which is
        # tail-i below mid; it reaches h for tail-m < i < m-1
        lo, hi = max(0, tail - m + 1), m - 1
        if lo < hi:
            mid = min(max((tail + 1) // 2, lo), hi)
            starts = chain(range(tail - lo, tail - mid, -1),
                           range(mid + 1, hi + 1))
            out[lo:hi] = map(add, out[lo:hi], map(
                mul, self.binom[lo:hi], map(suffix.__getitem__, starts)))
        # band row i reaches h for (n-m)/2 < i < m-1
        band = self.band
        for i in range(max(0, (n - m) // 2 + 1), min(len(band), hi)):
            lo, g = band[i]
            out[i] += sum(map(mul, g, hs[lo:lo + len(g)]))
        return Histogram(out)

    def transposed(self, w: list[int]) -> list[int]:
        """Exact product B^T w; w may be shorter than a column."""
        n1 = len(self.diag)
        m = min(len(w), n1)
        out = list(map(mul, self.diag, w)) + [0] * (n1 - m)
        # prefix[k] = sum of C(n', i) * w[i] over i < k
        prefix = [0, *accumulate(map(mul, self.binom, w))]
        tail = n1 - 1 + self.shift
        # column j collects the binomial suffixes of rows
        # tail-j <= i < min(j, m), which exist for j > tail/2, j > tail-m
        lo = max(tail // 2 + 1, tail - m + 1)
        if lo < n1:
            ends = chain(range(lo, m), repeat(m, n1 - max(lo, m)))
            out[lo:] = map(add, out[lo:], map(
                sub, map(prefix.__getitem__, ends),
                prefix[tail - n1 + 1:tail - lo + 1][::-1]))
        for (lo, g), x in zip(self.band, w):
            if x:
                hi = lo + len(g)
                out[lo:hi] = map(add, out[lo:hi], map(mul, g, repeat(x)))
        return out


def b_matrix(provider: GammaProvider, nprime: int) -> BMatrix:
    """ReLU-layer matrix: column j is clip(gamma(j, nprime), j).

    The same object is returned for every call with this provider and
    nprime."""
    if nprime < 1:
        raise ValueError("no hyperplanes")
    return provider.b_matrix(nprime)
