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

Both closed forms are stepped exactly, with no Pascal's triangle: the
binomial row of nprime steps from C(nprime, 0) = 1, and the
entries i <= k of each "ours" gamma(n, m) step from one ``math.comb``.
A column therefore costs O(nprime^2) big-int multiply-divides.  It is
made one gamma(n, nprime) at a time from the binomial row, so reading
it holds O(nprime^2) bits, a few rows' worth, never the whole column.
Only the CLI ``gamma`` command reads columns.

The engine needs only the ReLU-layer B matrix, whose off-diagonal
entries these closed forms make C(nprime, i) on a suffix of each row,
plus for "ours" a band of about nprime^2/12 entries, whose column j is
entries of gamma(j, nprime) as ``_ours_lower`` steps them (see
``regionbound.transfer``), and of B only the leading block of order
min(d_eff, nprime).  The provider builds a block of order m-1 from
those binomials directly, in O(m) big-int steps for "serra" and at
most O(m^2) for "ours", without a column, and keeps one block per
nprime.  The engine also reads the two ends of B, column j
(``b_column``) and the column sums (``gamma_norms``), and one column
sum (``gamma_norm``, a running sum with no list); the provider reads
them from its block when that covers the index and otherwise steps
them from binomials in O(j), never building a block for them.
Column j is gamma_norm(j, nprime) times unit(j) when
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


def gamma_norms(nmax: int, nprime: int) -> list[int]:
    """[gamma_norm(n, nprime) for n = 0..nmax]."""
    return list(accumulate(_binomials(nmax, nprime)))


def gamma_norm(n: int, nprime: int) -> int:
    """Total mass of gamma(n, nprime): sum_{s<=min(n,nprime)} C(nprime, s),
    summed as the binomials are made, keeping no list."""
    return sum(_binomials(min(n, nprime), nprime))


# -- seeds and closed forms ----------------------------------------------------

def first_layer_gamma(n: int) -> list[int]:
    """Tightest one-dimensional-input seed for n hyperplanes ("ours"),
    entries 0..n."""
    if n < 1:
        raise ValueError("need at least one hyperplane")
    zeros = (n + 1) // 2 - 1
    return [0] * zeros + [n % 2] + [2] * (n // 2) + [1]


def _ours_lower(n: int, nprime: int, stop: int | None = None) -> list[int]:
    """Entries 0..k of the "ours" gamma(n, nprime), 1 <= n <= nprime,
    k = nprime - n (see the module docstring), or only the first ``stop``.

    For n = 1 they are the first-layer seed's.  Otherwise entry i is 0
    where s = 2i - k < 0, else t*(2a-n+3)/(n-1) with a = n-2+s and
    t = C(a, n-2); t starts from one ``math.comb`` and steps
    C(a+2, n-2) = t*(a+1)*(a+2) / ((a-n+3)*(a-n+4)) exactly.
    """
    k = nprime - n
    count = k + 1 if stop is None else min(stop, k + 1)
    if n == 1:
        return first_layer_gamma(nprime)[:count]
    entries = [0] * min((k + 1) // 2, count)
    a = n - 2 + k % 2
    t = comb(a, n - 2)
    for _ in range(count - len(entries)):
        entries.append(t * (2 * a - n + 3) // (n - 1))
        t = t * ((a + 1) * (a + 2)) // ((a - n + 3) * (a - n + 4))
        a += 2
    return entries


def b_column(nprime: int, ours: bool, j: int) -> list[int]:
    """Column j of the ReLU-layer B matrix, clip(gamma(j, nprime), j),
    0 <= j <= nprime: entries i < j of gamma(j, nprime), then their sum
    taken from gamma_norm(j, nprime); O(j) big-int steps, no block."""
    row, k = list(_binomials(j, nprime)), nprime - j  # C(nprime, 0..j)
    if not ours:
        off = [0] * min(k, j) + row[k:j]
    elif j:
        off = _ours_lower(j, nprime, j) + row[k + 1:j]
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
    ``gamma_norms(m-1, nprime)``, and for "ours" the band columns
    (nprime+2)/3 <= j < m: the entries from row (nprime-j)/2 on that
    ``_ours_lower`` steps for gamma(j, nprime).
    """
    n = nprime
    binom = list(_binomials(m - 1, n))
    norms = list(accumulate(binom))  # norms[j] = gamma_norm(j, n)
    off = [0] * m  # off-diagonal sum of each column
    band: list[tuple[int, int, tuple[int, ...]]] = []
    if ours:
        for j in range((n + 4) // 3, m):
            lo = (n - j + 1) // 2
            col = tuple(_ours_lower(j, n, j)[lo:])
            off[j] = sum(col)
            band.append((j, lo, col))
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
    for n in range(1, nprime + 1):
        k = nprime - n
        if ours:
            yield tuple(_ours_lower(n, nprime) + row[k + 1:])
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
    j of B and its column sums are read from the block held for nprime
    when it covers the index, and are otherwise built from binomials;
    the provider keeps neither and builds no block for them.
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

    def b_column(self, nprime: int, j: int) -> list[int]:
        """Column j of B for nprime, rows 0..j: read from the cached block
        when it covers j, else built from binomials (``b_column``).  No
        block is built."""
        b = self._b_matrices.get(nprime)
        if b is not None and b.rows > j:
            return b.column(j)
        return b_column(nprime, self.variant is GammaVariant.OURS, j)

    def norm(self, nprime: int, j: int) -> int:
        """gamma_norm(j, nprime), read as ``column_sums`` reads it."""
        b = self._b_matrices.get(nprime)
        if b is not None and b.rows > j:
            return sum(b.binom[:j + 1])
        return gamma_norm(j, nprime)

    def column_sums(self, nprime: int, k: int) -> list[int]:
        """Sums of columns 0..k of B for nprime, ``gamma_norms(k,
        nprime)``: read from the cached block when it covers k, else
        built from binomials.  No block is built."""
        b = self._b_matrices.get(nprime)
        if b is not None and b.rows > k:
            return b.column_sums(k)
        return gamma_norms(k, nprime)

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
