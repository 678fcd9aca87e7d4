"""Bound evaluation over resolved stage sequences.

Each stage becomes one linear map from histogram to histogram, and the
bound is the mass of the input unit(n0) after all of them,
1^T M_L ... M_1 unit(n0).  Maps are built at d_eff = min(n0, every clip
so far), the largest index at which the histogram can hold mass; the
ambient dimension never changes a bound and is not tracked.  A stage
map is a short list of three primitives: ``clip(k)``, a diagonal
``scale(f)`` and the ReLU layer's B matrix (``regionbound.transfer``):

* ``dense`` with n_out units: [clip(n_out)], plus B if it has a ReLU
  (conv, avgpool and unpool lower to it; d_eff never exceeds a stage's
  n_in, so a clip to n_out is the clip to the map's rank);
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

The bound walks unit(n0) as a pair (c, j) standing for c*unit(j),
mapping each stage when it is reached and reading one entry of each
primitive: a clip(k) sets j = min(j, k), a scaling sets c = c*f[j], and
B sets c = c*gamma_norm(j, n_out), streamed with no list once per run
of equal stages, when its column j is diagonal
(``gamma.diagonal_column``).  At the first B whose column j is not, the
rest is mapped and the bound is c*<column j, w>, w being its transposed
pass, or c*gamma_norm(j, n_out) while that is all ones; if no B stops
the walk, the bound is c.  No histogram is built.  A skip body stays
one eager pass, since the benchmark pins the blocks of B it fetches
(ROADMAP item 1).  Every partial sum gamma_norm(j, n') that a stage
reads, one norm, the column sums or a max-pooling factor, comes from a
``gamma.Norms`` made where it is read.  It and column j come from the
gamma provider's block of B for n_out when that covers the index, else
from binomials in O(j) steps, building no block.  B^T of any other
vector reads the leading (min(d_eff, n_out) + 1)-block of B.  A ReLU
stage checks that block's order against the provider's cap when its
map is built and fetches the block only for such a product.  The gamma
provider keeps one block per width, so a provider passed to repeated
``evaluate`` calls shares them.  All arithmetic is exact, and so are
the results: integer bounds and the ``Fraction`` serra/ours, which only
``regionbound.cli`` renders as text.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import tee
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import transfer
from .archspec import ResolvedStage, mlp, resolve
from .gamma import (DEFAULT_COLUMN_CAP, GammaProvider, GammaVariant, Norms,
                    diagonal_column)


@dataclass(frozen=True)
class BoundReport:
    """An exact bound on the number of linear regions."""

    bound: int


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

    def __init__(self, factors: list[int] | Norms):
        self.factors = factors

    def transposed(self, w: list[int] | None) -> list[int]:
        if w is None:  # all ones
            return list(self.factors)
        return [x * f for x, f in zip(w, self.factors)]


class _ReLU:
    """B for n' hyperplanes on histograms with mass at indices up to k.
    Column j comes from the provider and the column sums from ``Norms``;
    the block is fetched only for a real product (see above)."""

    __slots__ = ("provider", "nprime", "k")

    def __init__(self, provider: GammaProvider, nprime: int, k: int):
        provider.check(nprime, k)  # the block's order, as if it were built
        self.provider = provider
        self.nprime = nprime
        self.k = k

    def diagonal(self, j: int) -> bool:
        return diagonal_column(self.nprime,
                               self.provider.variant is GammaVariant.OURS, j)

    def column(self, j: int) -> list[int]:
        return self.provider.b_column(self.nprime, j)

    def transposed(self, w: list[int] | None) -> list[int]:
        if w is None:  # all ones: the column sums
            return list(Norms(self.nprime, self.k, self.provider))
        return transfer.b_matrix(self.provider, self.nprime,
                                 self.k + 1).transposed(w)


_Op = _Clip | _Scale | _ReLU


def _stage_map(stage: ResolvedStage, e: int, provider: GammaProvider,
               halved_c: bool) -> tuple[list[_Op], int]:
    """One stage's primitives at d_eff = e, plus d_eff after the stage."""
    if stage.kind == "dense":  # d_eff <= n_in: clip(n_out) clips to the rank
        k = min(e, stage.n_out)
        relu = [_ReLU(provider, stage.n_out, k)] if stage.relu else []
        return [_Clip(stage.n_out, e), *relu], k
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
        return [_Scale(Norms(c, e)), _Clip(n_out, e)], min(e, n_out)
    if stage.kind in ("skip", "residual"):
        # entry j is the number of regions the body carves out of one
        # j-dimensional region; concatenating or adding the input back
        # restores each region's dimension to j
        body, _ = _stage_maps(stage.body, e, provider, halved_c)
        f = _transposed(body)
        return [_Scale([1] * (e + 1) if f is None else f)], e
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


def _transposed(ops: Sequence[_Op],
                w: list[int] | None = None) -> list[int] | None:
    """M^T w for the product M of the primitives, None standing for the
    all-ones vector, which clips keep until a scaling or B reads it."""
    for op in reversed(ops):
        w = op.transposed(w)
    return w


def evaluate(stages: Sequence[ResolvedStage], variant: GammaVariant | str,
             n0: int, *, provider: GammaProvider | None = None,
             halved_c: bool = False) -> BoundReport:
    """Exact upper bound on the number of linear regions of the network.

    ``n0`` is the input dimension, at most the first stage's ``n_in``.
    ``provider`` supplies the blocks of B, under its own cap on their
    order; by default a fresh one with the default cap."""
    variant = GammaVariant(variant)
    if stages and n0 > stages[0].n_in:
        raise ValueError(f"n0 = {n0} exceeds the {stages[0].n_in} inputs")
    if provider is None:
        provider = GammaProvider(variant)
    elif provider.variant is not variant:
        raise ValueError("provider variant does not match requested variant")
    # walk c*unit(j) from unit(n0); last: (n', j, norm) of a diagonal B
    c, j, e, last = 1, n0, n0, None
    for i, stage in enumerate(stages):
        ops, e = _stage_map(stage, e, provider, halved_c)
        for op in ops:
            if isinstance(op, _Clip):
                j = min(j, op.k)
            elif isinstance(op, _Scale):
                c *= op.factors[j]
            elif op.diagonal(j):
                if last is None or last[:2] != (op.nprime, j):
                    last = op.nprime, j, Norms(op.nprime, j, provider)[j]
                c *= last[2]
            else:  # c times column j, met by the transposed pass of the
                # stages after this one (B ends its stage's map)
                rest, _ = _stage_maps(stages[i + 1:], e, provider, halved_c)
                w = _transposed(rest)
                c *= (Norms(op.nprime, j, provider)[j] if w is None
                      else sum(map(mul, w, op.column(j))))
                return BoundReport(c)
    return BoundReport(c)


def compare(stages: Sequence[ResolvedStage], n0: int, *,
            gamma_cap: int = DEFAULT_COLUMN_CAP, halved_c: bool = False
            ) -> tuple[BoundReport, BoundReport, Fraction]:
    """Bounds for both variants plus the exact serra/ours ratio."""
    ours, serra = (evaluate(stages, v, n0,
                            provider=GammaProvider(v, cap=gamma_cap),
                            halved_c=halved_c)
                   for v in (GammaVariant.OURS, GammaVariant.SERRA))
    return ours, serra, Fraction(serra.bound, ours.bound)


def sweep(n0: int, widths: Iterable[int], depths: Iterable[int], *,
          gamma_cap: int = DEFAULT_COLUMN_CAP
          ) -> Iterator[tuple[int, int, int, int, int]]:
    """Rows (n0, ni, k, bound_ours, bound_serra), width-major then depth,
    each made when it is read; ``depths`` is iterated once per width."""
    ours = GammaProvider(GammaVariant.OURS, cap=gamma_cap)
    serra = GammaProvider(GammaVariant.SERRA, cap=gamma_cap)
    for ni in widths:
        ks, ko, kse = tee(depths, 3)
        for k, bo, bs in zip(ks, _mlp_bounds(n0, ni, ko, ours),
                             _mlp_bounds(n0, ni, kse, serra)):
            yield n0, ni, k, bo, bs


def _mlp_bounds(n0: int, ni: int, depths: Iterable[int],
                provider: GammaProvider) -> Iterator[int]:
    """``evaluate`` of mlp(n0, ni, k) for each depth k: the walk meets the
    first B at j = e = min(n0, ni), and the hidden stages share one map,
    so the bound is <w_k, column e> for the transposed pass w_k over k - 1
    hidden stages and the readout, a chain that a smaller k restarts."""
    relu = None
    for k in depths:
        if k < 1:  # no ReLU stage, or a negative depth, which raises
            yield evaluate(resolve(mlp(n0, ni, k)), provider.variant, n0,
                           provider=provider).bound
            continue
        if relu is None:  # clip, B, then a hidden stage, then the readout
            _, relu, *step, end = _stage_maps(resolve(mlp(n0, ni, 2)), n0,
                                              provider, False)[0]
            e, depth = relu.k, k + 1
            norm, column = Norms(relu.nprime, e, provider)[e], relu.column(e)
        if k < depth:
            depth, w = 1, end.transposed(None)
        while depth < k:
            depth, w = depth + 1, _transposed(step, w)
        yield norm if w is None else sum(map(mul, w, column))
