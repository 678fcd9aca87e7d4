"""Bound evaluation over resolved stage sequences.

Each stage becomes one linear map from histogram to histogram, and the
bound is the mass of the input unit(n0) after all of them,
1^T M_L ... M_1 unit(n0).  Maps are built at d_eff = min(n0, every clip
so far), the largest index at which the histogram can hold mass; the
ambient dimension never changes a bound and is not tracked.  A stage
map is a short list of three primitives: ``clip(k)``, a diagonal
``scale(f)`` and the ReLU layer's B matrix (``regionbound.transfer``):

* ReLU ``dense`` with n_out units: [clip(n_out), B];
* ``linear`` of rank r, and ``dense`` without ReLU (rank n_out):
  [clip(min(d_eff, r, n_out))];
* ``maxpool``: [scale(gamma_norm(n, c)), clip(n_out)];
* ``skip``/``residual``: [scale(f)], f[j] being the body's mass on
  unit(j), the column sums of the body's matrix; both keep d_eff,
  because a scaling moves no mass.

Each primitive applies its transpose on d_eff + 1 entries: clip(k) maps
w to v[i] = w[min(i, k)], a scaling is its own transpose and B^T takes
one dot product per column.  So f is 1^T M_L ... M_1, found by one
transposed pass over the body from the all-ones vector; a nested skip
is one more scaling.  The pass carries the ones as None, which clips
keep, so the first other primitive knows its input is all ones without
reading it: a scaling returns its factors, and B^T returns B's column
sums, gamma_norm(j, n_out), since B's diagonal is defined as gamma_norm
minus the column's off-diagonal sum.

The bound walks unit(n0) through the primitives of every stage as a
pair (c, j) standing for c*unit(j), while each keeps it a unit: a
clip(k) sets j = min(j, k), a scaling sets c = c*f[j], and B sets
c = c*gamma_norm(j, n_out) when its column j is diagonal
(``gamma.diagonal_column``).  At the first B whose column j is not, the
bound is c*<column j, w>, w being the transposed pass over the
primitives after it; if no B stops the walk, the bound is c.  No
histogram is built.  Column j and the column sums come from the gamma
provider, which reads them from the block of B it holds for n_out when
that block covers the index, and otherwise builds them from binomials
in O(j) steps, building no block.  B^T of any other vector reads the
leading (min(d_eff, n_out) + 1)-block of B.  A ReLU stage checks that
block's order against the provider's cap when its map is built and
fetches the block only for such a product.  The gamma provider keeps
one block per width, so a provider passed to repeated ``evaluate``
calls shares them.  All arithmetic is exact.
"""
from __future__ import annotations

import decimal
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import transfer
from .archspec import ResolvedStage, mlp, resolve
from .gamma import (DEFAULT_COLUMN_CAP, GammaProvider, GammaVariant,
                    diagonal_column, gamma_norms)


@dataclass(frozen=True)
class BoundReport:
    """An exact bound and its variant.  ``scientific``, the rendered
    bound, is computed on first access."""

    bound: int
    variant: GammaVariant
    _digits: int = field(default=4, repr=False)

    @cached_property
    def scientific(self) -> str:
        return scientific(self.bound, self._digits)


def scientific(n: int, digits: int = 4) -> str:
    """Render an exact integer as "m.mmm x 10^e" with the given mantissa digits."""
    if digits < 1:
        raise ValueError("need at least one mantissa digit")
    if n < 0:
        raise ValueError("bounds are non-negative")
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        d = +decimal.Decimal(n)
    return _mantissa(d, digits)


def exact(n: int) -> str:
    """All decimal digits of an integer.  Unlike ``str``, this has no
    4,300-digit limit, which the parsers keep for their input."""
    return str(decimal.Decimal(n))


def format_ratio(ratio: Fraction, digits: int = 4) -> str:
    """Decimal rendering of an exact rational, scientific when large."""
    with decimal.localcontext() as ctx:
        ctx.prec = max(digits, 1)
        d = decimal.Decimal(ratio.numerator) / decimal.Decimal(ratio.denominator)
    exp = d.adjusted()
    if 0 <= exp < digits + 3:
        with decimal.localcontext() as ctx:
            ctx.prec = max(digits, exp + 1)
            d = decimal.Decimal(ratio.numerator) / decimal.Decimal(
                ratio.denominator)
        return str(d)
    return _mantissa(d, digits)


def _mantissa(d: decimal.Decimal, digits: int) -> str:
    """A Decimal already rounded to ``digits`` digits as "m.mmm×10^e"."""
    ds = "".join(str(x) for x in d.as_tuple().digits).ljust(digits, "0")
    exp = d.adjusted()
    if digits == 1:
        return f"{ds}×10^{exp}"
    return f"{ds[0]}.{ds[1:]}×10^{exp}"


class _Clip:
    """clip(k) on histograms with mass at indices up to e."""

    __slots__ = ("k", "e")

    def __init__(self, k: int, e: int):
        self.k = k
        self.e = e

    def transposed(self, w: list[int] | None) -> list[int] | None:
        if w is None:  # all ones stay all ones
            return None
        k, e = self.k, self.e
        return w[:e + 1] if k >= e else w[:k] + [w[k]] * (e + 1 - k)


class _Scale:
    """Entry n times factors[n]; factors covers every index of the input."""

    __slots__ = ("factors",)

    def __init__(self, factors: list[int]):
        self.factors = factors

    def transposed(self, w: list[int] | None) -> list[int]:
        if w is None:  # all ones
            return list(self.factors)
        return [x * f for x, f in zip(w, self.factors)]


class _ReLU:
    """B for n' hyperplanes on histograms with mass at indices up to k.
    Column j and the column sums come from the provider; the block is
    fetched only for a real product (see above)."""

    __slots__ = ("provider", "nprime", "k")

    def __init__(self, provider: GammaProvider, nprime: int, k: int):
        provider.check(nprime, k)  # the block's order, as if it were built
        self.provider = provider
        self.nprime = nprime
        self.k = k

    def diagonal(self, j: int) -> bool:
        return diagonal_column(self.nprime,
                               self.provider.variant is GammaVariant.OURS, j)

    def norm(self, j: int) -> int:
        """gamma_norm(j, n'), the sum of column j."""
        return self.provider.column_sums(self.nprime, j)[j]

    def column(self, j: int) -> list[int]:
        return self.provider.b_column(self.nprime, j)

    def transposed(self, w: list[int] | None) -> list[int]:
        if w is None:  # all ones: the column sums
            return self.provider.column_sums(self.nprime, self.k)
        return transfer.b_matrix(self.provider, self.nprime,
                                 self.k + 1).transposed(w)


_Op = _Clip | _Scale | _ReLU


def _stage_map(stage: ResolvedStage, e: int, provider: GammaProvider,
               halved_c: bool) -> tuple[list[_Op], int]:
    """One stage's primitives at d_eff = e, plus d_eff after the stage."""
    if stage.kind == "dense" and stage.relu:
        n_out = stage.n_out
        k = min(e, n_out)
        return [_Clip(n_out, e), _ReLU(provider, n_out, k)], k
    if stage.kind in ("dense", "linear"):
        # clip to the rank (at most n_out without a ReLU, which makes no
        # cuts); embedding into n_out dimensions is a no-op
        rank = stage.rank if stage.kind == "linear" else stage.n_out
        k = min(e, rank, stage.n_out)
        return [_Clip(k, e)], k
    if stage.kind == "maxpool":
        # a maxout layer with n_out units of rank k cuts like
        # c = (k^2 - k) * n_out hyperplanes; halved_c takes c/2, the
        # smaller constant of the max-pooling proof
        if stage.k < 2:
            raise ValueError("degenerate maxout")
        n_out = stage.n_out
        c = (stage.k * stage.k - stage.k) * n_out
        if halved_c:
            c //= 2
        return [_Scale(gamma_norms(e, c)), _Clip(n_out, e)], min(e, n_out)
    if stage.kind in ("skip", "residual"):
        # entry j is the number of regions the body carves out of one
        # j-dimensional region; concatenating or adding the input back
        # restores each region's dimension to j
        body, _ = _stage_maps(stage.body, e, provider, halved_c)
        return [_Scale(_column_sums(body, e))], e
    raise ValueError(f"unknown stage kind '{stage.kind}'")


def _stage_maps(stages: Sequence[ResolvedStage], e: int,
                provider: GammaProvider,
                halved_c: bool) -> tuple[list[_Op], int]:
    """The primitives of all the stages, in order, starting at d_eff = e,
    plus d_eff after them."""
    ops: list[_Op] = []
    for stage in stages:
        stage_ops, e = _stage_map(stage, e, provider, halved_c)
        ops.extend(stage_ops)
    return ops, e


def _column_sums(ops: Sequence[_Op], e: int) -> list[int]:
    """1^T M for the product M of the primitives, which start at d_eff =
    e: the transposed pass from the all-ones vector.  The pass carries
    the ones as None, which clips keep, until a scaling or B reads them."""
    w = None
    for op in reversed(ops):
        w = op.transposed(w)
    return [1] * (e + 1) if w is None else w


def evaluate(stages: Sequence[ResolvedStage], variant: GammaVariant | str,
             n0: int, *, provider: GammaProvider | None = None,
             halved_c: bool = False, digits: int = 4) -> BoundReport:
    """Exact upper bound on the number of linear regions of the network.

    ``provider`` supplies the blocks of B, under its own cap on their
    order; by default a fresh one with the default cap."""
    variant = GammaVariant(variant)
    if provider is None:
        provider = GammaProvider(variant)
    elif provider.variant is not variant:
        raise ValueError("provider variant does not match requested variant")
    ops, _ = _stage_maps(stages, n0, provider, halved_c)
    # walk c*unit(j) from unit(n0) while each primitive keeps it a unit
    c, j = 1, n0
    for i, op in enumerate(ops):
        if isinstance(op, _Clip):
            j = min(j, op.k)
        elif isinstance(op, _Scale):
            c *= op.factors[j]
        elif op.diagonal(j):
            c *= op.norm(j)
        else:  # c times column j, met by the transposed pass of the rest
            w = _column_sums(ops[i + 1:], op.k)
            c *= sum(map(mul, w, op.column(j)))
            break
    return BoundReport(c, variant, digits)


def compare(stages: Sequence[ResolvedStage], n0: int, *,
            gamma_cap: int = DEFAULT_COLUMN_CAP, halved_c: bool = False,
            digits: int = 4) -> tuple[BoundReport, BoundReport, str]:
    """Bounds for both variants plus the exact serra/ours ratio."""
    ours, serra = (evaluate(stages, v, n0,
                            provider=GammaProvider(v, cap=gamma_cap),
                            halved_c=halved_c, digits=digits)
                   for v in (GammaVariant.OURS, GammaVariant.SERRA))
    ratio = Fraction(serra.bound, ours.bound)
    return ours, serra, format_ratio(ratio, digits)


def sweep(n0: int, widths: Iterable[int], depths: Iterable[int], *,
          gamma_cap: int = DEFAULT_COLUMN_CAP,
          digits: int = 4) -> Iterator[tuple[int, int, int, int, int, str]]:
    """Rows (n0, ni, k, bound_ours, bound_serra, ratio), width-major then
    depth, each made when it is read; ``depths`` is iterated once per
    width."""
    ours_provider = GammaProvider(GammaVariant.OURS, cap=gamma_cap)
    serra_provider = GammaProvider(GammaVariant.SERRA, cap=gamma_cap)
    for ni in widths:
        for k in depths:
            stages = resolve(mlp(n0, ni, k))
            bo = evaluate(stages, GammaVariant.OURS, n0,
                          provider=ours_provider).bound
            bs = evaluate(stages, GammaVariant.SERRA, n0,
                          provider=serra_provider).bound
            yield n0, ni, k, bo, bs, format_ratio(Fraction(bs, bo), digits)


SWEEP_HEADER = "n0,ni,k,bound_ours,bound_serra,ratio"


def sweep_csv(rows: Iterable[tuple]) -> Iterator[str]:
    """The CSV lines of ``sweep`` rows, each made when it is read.  The
    header comes with the first row, so an error in making that row
    comes before any text."""
    head = SWEEP_HEADER + "\n"
    for n0, ni, k, bo, bs, ratio in rows:
        yield f"{head}{n0},{ni},{k},{exact(bo)},{exact(bs)},{ratio}\n"
        head = ""
    if head:
        yield head
