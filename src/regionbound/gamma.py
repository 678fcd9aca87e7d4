"""Tables of per-layer region histograms for the two bound variants.

``gamma(variant, n, nprime)`` bounds the activation histogram of an
n-dimensional space cut by nprime hyperplanes in the tail-sum order:
each sum_{i>=J} of the histogram is at most that of gamma(n, nprime).
Entry by entry it need not be: relu(x), relu(x-1) on a line give
(1,1,1) against gamma(1, 2) = (0,2,1).  Both variants have a per-entry
closed form, so any single gamma(n, nprime) is built without its
predecessors.

"serra" has entry i equal to C(nprime, i) for i >= nprime - n, else 0.

"ours" is gamma(0, m) = unit(m) and gamma(1, m) = the first-layer seed.
For 2 <= n <= m, with k = m - n, entry i is

* C(m, i) for i > k,
* C(n-2+s, n-2) + 2*C(n-2+s, n-1) for i <= k, where s = 2i - k,
  and 0 when s < 0.

This solves the recursion gamma(n, m) = gamma(n-1, m-1) + gamma(n, m-1)
shifted up one index: along its lattice paths i - (m - n) is fixed,
paths with i < k end on the n=1 seed, and the hockey-stick identity sums
them.  The entry i = k, 2*C(m-2, n-1) + C(m-2, n-2), is the same form
at s = k, and at n = m the form gives row m of Pascal's triangle.

The binomial row of nprime steps exactly from C(nprime, 0) = 1.  Below
it, "ours" has one identity: with V(n, a) = C(a, n-2) + 2*C(a, n-1) and
L_n[t] = V(n, n-2+t), entry i <= k of gamma(n, m) is L_n[2i - k] (0 for
2i < k), and L_n is the running sum of L_{n-1}:

    L_n[t] = L_n[t-1] + L_{n-1}[t]  (t >= 1),  L_n[0] = 1.

Proof: Pascal's rule on both binomials gives V(n, a) = V(n, a-1) +
V(n-1, a-1), and V(n, n-2) = 1.  With C(a, -1) = 0 the chain starts at
the first-layer seed, L_1 = (1, 2, 2, ...).  A column is made one
gamma(n, nprime) at a time, L_n being one ``accumulate`` of L_{n-1} cut
to t <= k: about nprime^2/2 additions, holding a few rows, never the
whole column.  Only the CLI ``gamma`` command reads columns.

The engine needs only the ReLU-layer B matrix, whose off-diagonal
entries these closed forms make C(nprime, i) on a suffix of each row,
plus for "ours" a band of about nprime^2/12 entries, whose column j is
entries of L_j (see ``regionbound.transfer``), and of B only the
leading block of order min(d_eff, nprime).  The provider builds a block
of order m-1 without a column: O(m) big-int steps for "serra", plus for
"ours" one closed-form L_j and one ``accumulate`` per band column, at
most about 2*nprime^2/9 additions.  It keeps one block per nprime.  The
engine also reads column j of B (``b_column``) and the partial sums
gamma_norm(j, nprime) = sum_{s<=j} C(nprime, s), which are B's column
sums and the max-pooling factors.  One ``Norms`` object gives them: one
entry, a running sum with no list, or the prefix list.  Both ends are
read from the provider's block when that covers the index and are
otherwise stepped from binomials in O(j), never building a block for
them.  Column j is gamma_norm(j, nprime) times unit(j) when
``diagonal_column`` holds.
"""
from __future__ import annotations

import threading
from enum import Enum
from itertools import accumulate
from math import comb
from typing import Iterator

from .transfer import BMatrix

DEFAULT_COLUMN_CAP = 4096


class GammaVariant(str, Enum):
    OURS = "ours"
    SERRA = "serra"


class ColumnCapExceeded(Exception):
    """What a layer of nprime hyperplanes would build exceeds the
    provider's cap: its gamma column or whole B matrix (order nprime), or
    the leading block of B that the engine reads (order min(d_eff,
    nprime))."""

    def __init__(self, nprime: int, cap: int, order: int):
        block = f" (B block of order {order})" if order < nprime else ""
        super().__init__(f"layer width n'={nprime} exceeds cap {cap}{block}")
        self.nprime = nprime
        self.cap = cap


# -- binomials (exact multiplicative steps) -----------------------------------

def _binomials(n: int, nprime: int) -> Iterator[int]:
    """C(nprime, s) for s = 0..n by C(nprime, s+1) = C(nprime, s) *
    (nprime - s) // (s + 1), exact and 0 from s = nprime on."""
    if n < 0 or nprime < 0:
        raise ValueError("negative arguments")
    term = 1
    yield term
    for s in range(n):
        term = term * (nprime - s) // (s + 1)
        yield term


def gamma_norm(n: int, nprime: int) -> int:
    """Total mass of gamma(n, nprime): sum_{s<=min(n,nprime)} C(nprime, s),
    summed as the binomials are made, keeping no list."""
    return sum(_binomials(min(n, nprime), nprime))


# -- seeds and closed forms ----------------------------------------------------

def _ours_run(n: int, t: int, stop: int) -> list[int]:
    """L_n[t], L_n[t+2], ... at indices below ``stop``: entry i <= k of
    the "ours" gamma(n, nprime) is L_n[2i - k], and 0 where 2i < k (see
    the module docstring).

    L_1 = (1, 2, 2, ...) is the first-layer seed.  For n >= 2, L_n[t] =
    C(a, t) + 2*C(a, t-1) = u*(n-1+2t)/(n-1) at a = n-2+t, with u = C(a, t)
    stepped exactly by C(a+2, t+2) = u*(a+1)*(a+2)/((t+1)*(t+2)).
    """
    if n == 1:
        return [2 - (s == 0) for s in range(t, stop, 2)]
    run, u = [], comb(n - 2 + t, t)
    for t in range(t, stop, 2):
        run.append(u * (n - 1 + 2 * t) // (n - 1))
        u = u * ((n - 1 + t) * (n + t)) // ((t + 1) * (t + 2))
    return run


def b_column(nprime: int, ours: bool, j: int) -> list[int]:
    """Column j of the ReLU-layer B matrix, clip(gamma(j, nprime), j),
    0 <= j <= nprime: entries i < j of gamma(j, nprime), then their sum
    taken from gamma_norm(j, nprime); O(j) big-int steps, no block."""
    row, k = list(_binomials(j, nprime)), nprime - j  # C(nprime, 0..j)
    if not ours:
        off = [0] * min(k, j) + row[k:j]
    elif j:  # rows i < j of gamma(j, nprime) reach t = 2i - k <= 2j-2-k
        off = ([0] * min((k + 1) // 2, j) + _ours_run(
            j, k % 2, min(k, 2 * j - 2 - k) + 1) + row[k + 1:j])
    else:  # gamma(0, nprime) = unit(nprime) has no entry below index 0
        off = []
    return off + [sum(row) - sum(off)]


def diagonal_column(nprime: int, ours: bool, j: int) -> bool:
    """Whether column j of B is gamma_norm(j, nprime) * unit(j), every
    off-diagonal entry of ``b_column`` being 0: exactly when
    3j < nprime + 2 ("ours") or 2j <= nprime ("serra")."""
    return 3 * j < nprime + 2 if ours else 2 * j <= nprime


def _b_matrix(nprime: int, ours: bool, m: int) -> BMatrix:
    """The leading m-block of B for nprime hyperplanes, 1 <= m <= nprime+1,
    from its structure (see ``regionbound.transfer``), built from
    binomials with no gamma column.

    It needs the first m binomials and their prefix sums
    gamma_norm(j, nprime), j < m, and for "ours" the band columns
    (nprime+2)/3 <= j < m: L_j[2i - nprime + j] for the rows i from
    (nprime-j)/2 on, each L_j after the first one ``accumulate`` of the
    last, cut to t <= nprime - j.
    """
    n = nprime
    binom = list(_binomials(m - 1, n))
    norms = list(accumulate(binom))  # norms[j] = gamma_norm(j, n)
    off = [0] * m  # off-diagonal sum of each column
    band: list[tuple[int, int, tuple[int, ...]]] = []
    if ours and m > (n + 4) // 3:
        # run is L_j up to t = k = n - j, as for the gamma column; band
        # column j reads it up to t = min(k, 2j-2-k)
        start = (n + 4) // 3
        run = [0] * (n - start + 1)
        run[::2], run[1::2] = (_ours_run(start, t, len(run)) for t in (0, 1))
        for j in range(start, m):
            k = n - j
            col = tuple(run[k % 2:min(k, 2 * j - 2 - k) + 1:2])
            off[j] = sum(col)
            band.append((j, (k + 1) // 2, col))
            run = list(accumulate(run[:k]))
    shift = 1 if ours else 0
    # rows n+shift-j <= i < j of column j hold C(n, i)
    for j in range(max(1, (n + shift) // 2 + 1), m):
        first = n + shift - j
        off[j] += norms[j - 1] - (norms[first - 1] if first > 0 else 0)
    diag = [g - o for g, o in zip(norms, off)]
    return BMatrix(n, diag, binom, shift, band)


def _column_rows(nprime: int, ours: bool) -> Iterator[tuple[int, ...]]:
    row = list(_binomials(nprime, nprime))
    yield (0,) * nprime + (1,)  # gamma(0, nprime), in both variants
    run = [1] + [2] * (nprime - 1)  # L_n up to t = nprime - n, from L_1
    for n in range(1, nprime + 1):
        k = nprime - n
        if ours:
            yield tuple([0] * ((k + 1) // 2) + run[k % 2::2] + row[k + 1:])
            run = list(accumulate(run[:k]))
        else:
            yield tuple([0] * k + row[k:])


class GammaProvider:
    """Streams gamma columns for one variant under a width cap, and caches
    one block of the ReLU-layer B matrix per width.

    A column is made afresh, row by row, on every call and not kept; only
    the CLI ``gamma`` command asks for one.  The engine reads only leading
    blocks of B, which are built from binomials, with no gamma column, under
    the provider's lock and cap.  A block is rebuilt, larger, only when
    a larger one is asked for; a smaller one is served from it.  Column
    j of B, and through ``Norms`` its column sums, are read from the
    block held for nprime when it covers the index, and are otherwise
    built from binomials; the provider keeps neither and builds no block
    for them.
    """

    def __init__(self, variant: GammaVariant | str = GammaVariant.OURS,
                 cap: int = DEFAULT_COLUMN_CAP):
        self.variant = GammaVariant(variant)
        if cap < 1:
            raise ValueError("cap must be positive")
        self.cap = cap
        self._b_matrices: dict[int, BMatrix] = {}
        self._lock = threading.Lock()

    def check(self, nprime: int, order: int) -> None:
        """Raise ``ColumnCapExceeded`` if what a layer of nprime
        hyperplanes builds at this order exceeds the cap."""
        if nprime < 1:
            raise ValueError("no hyperplanes")
        if order > self.cap:
            raise ColumnCapExceeded(nprime, self.cap, order)

    def column(self, nprime: int) -> Iterator[tuple[int, ...]]:
        """gamma(n, nprime) for n = 0..nprime, each as its nprime+1
        entries, made from the closed forms as they are read.  The cap is
        checked now, before the first row."""
        self.check(nprime, nprime)
        return _column_rows(nprime, self.variant is GammaVariant.OURS)

    def _cached(self, nprime: int, j: int) -> BMatrix | None:
        """The cached block for nprime if it covers index j; builds none."""
        b = self._b_matrices.get(nprime)
        return b if b is not None and b.rows > j else None

    def b_column(self, nprime: int, j: int) -> list[int]:
        """Column j of B for nprime, rows 0..j: read from the cached block
        when it covers j, else built from binomials (``b_column``).  No
        block is built."""
        b = self._cached(nprime, j)
        if b is not None:
            return b.column(j)
        return b_column(nprime, self.variant is GammaVariant.OURS, j)

    def b_matrix(self, nprime: int, m: int) -> BMatrix:
        """A cached leading block of the ReLU-layer B matrix for nprime
        (see ``regionbound.transfer``) with at least m rows, 1 <= m <=
        nprime+1.  Its order m-1, the largest index, is checked against
        the cap."""
        b = self._b_matrices.get(nprime)
        if b is not None and b.rows >= m:
            return b
        self.check(nprime, m - 1)
        with self._lock:
            b = self._b_matrices.get(nprime)
            if b is None or b.rows < m:
                b = self._b_matrices[nprime] = _b_matrix(
                    nprime, self.variant is GammaVariant.OURS, m)
        return b


class Norms:
    """gamma_norm(j, nprime) for j = 0..e: the column sums of B and the
    max-pooling factors.  Indexing streams one entry with no list, and
    iterating yields the prefix list.  Both sum the binomial row of
    ``provider``'s cached block of B for nprime when that covers the
    index, and otherwise step the binomials; no block is built."""

    __slots__ = ("nprime", "e", "provider")

    def __init__(self, nprime: int, e: int,
                 provider: GammaProvider | None = None):
        self.nprime, self.e, self.provider = nprime, e, provider

    def __getitem__(self, j: int) -> int:
        b = self.provider and self.provider._cached(self.nprime, j)
        return gamma_norm(j, self.nprime) if b is None else sum(
            b.binom[:j + 1])

    def __iter__(self) -> Iterator[int]:
        b = self.provider and self.provider._cached(self.nprime, self.e)
        return accumulate(_binomials(self.e, self.nprime) if b is None
                          else b.binom[:self.e + 1])
