"""Seeded workloads for the regionbound benchmark.

Each workload turns a seed into a fixed pool of operations.  The pool is
built from repeated *cycles*: one cycle covers the same strata (width
bins, depths, block kinds) for every seed, and the seed only jitters the
values inside each stratum, draws the parameters that barely change the
cost (input sizes, weights) and orders the cycle.  Different seeds
therefore give different inputs with the same cost mix, which keeps the
spread small between runs that use different seeds.

The library only ever sees the generated JSON documents.  Operations
are pure functions of their input, so a pool item run twice must give the
same result; the worker checks that as well as the invariants below.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

from regionbound import archspec, engine, oracle
from regionbound.gamma import GammaProvider, GammaVariant


def zaslavsky(n0: int, width: int) -> int:
    """Exact region count of one ReLU layer in general position:
    sum_{s <= min(n0, width)} C(width, s).  Independent of the library."""
    return sum(comb(width, s) for s in range(min(n0, width) + 1))


def _mlp_doc(n0: int, width: int, depth: int) -> str:
    blocks = [{"dense": {"out": width, "relu": True}} for _ in range(depth)]
    blocks.append({"dense": {"out": 1, "relu": False}})
    return json.dumps({"input": {"nodes": n0}, "blocks": blocks})


def _grid(rng: random.Random, lo: int, hi: int, n: int, cycle: int
          ) -> list[int]:
    """n integers evenly covering [lo, hi].  Four successive cycles take the
    four quarter-steps of the grid; the seed moves each value by at most
    one, which changes the cost of an operation by a few percent at most."""
    step = (hi - lo) / n
    phase = (cycle % 4 + 0.5) / 4
    return [min(hi, max(lo, lo + int((i + phase) * step) + rng.randint(-1, 1)))
            for i in range(n)]


def _bound_pair_checks(item: "Item", result: tuple[int, ...]) -> list[str]:
    ours, serra = result
    problems = []
    if ours > serra:
        problems.append(f"ours {ours} > serra {serra}")
    if item.exact is not None and not ours == serra == item.exact:
        problems.append(f"depth-1 bound ({ours}, {serra}) != {item.exact}")
    return problems


@dataclass
class Item:
    """One prepared operation: parsed input plus what the checks need."""

    n0: int
    stages: Any = None
    net: Any = None
    exact: int | None = None     # known exact bound (depth-1 MLPs)
    samples: int = 0             # pattern_lower_bound samples (oracle_1d)


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int        # operations per cycle; runs stop on a cycle boundary
    pool_size: int    # a whole number of cycles
    generate: Callable[[random.Random, int], list[tuple[str, dict]]]
    prepare: Callable[[str, dict], Item]
    run: Callable[[Any, Item], tuple[int, ...]]
    check: Callable[[Item, tuple[int, ...]], list[str]]
    warm: Callable[[list[Item]], Any] = lambda items: None
    fresh_state: Callable[[Any], Any] = lambda ctx: ctx


def _prepare_arch(doc: str, extra: dict) -> Item:
    spec = archspec.parse(doc)
    return Item(spec.input_nodes, stages=archspec.resolve(spec), **extra)


# -- mlp_cold: what `regionbound compare` does per file -----------------------

MLP_N0 = (1, 8, 64, 784)
MLP_DEPTHS = range(1, 7)
MLP_WIDTHS = (16, 128)


def _gen_mlp(rng: random.Random, n: int) -> list[tuple[str, dict]]:
    # A cycle has one MLP per step of a width grid.  Input sizes and depths
    # are laid over the grid in a fixed pattern (each input size meets every
    # sixth of the width range and every depth; the pattern shifts by one per
    # cycle), so that the cost mix, and with it the latency percentiles, does
    # not depend on the seed.
    out = []
    cells = len(MLP_N0) * len(MLP_DEPTHS)
    shift = 0
    while len(out) < n:
        cycle = []
        for i, w in enumerate(_grid(rng, *MLP_WIDTHS, cells, shift)):
            n0 = MLP_N0[i % len(MLP_N0)]
            k = MLP_DEPTHS[(i // len(MLP_N0) + i + shift) % len(MLP_DEPTHS)]
            exact = zaslavsky(n0, w) if k == 1 else None
            cycle.append((_mlp_doc(n0, w, k), {"exact": exact}))
        rng.shuffle(cycle)
        out.extend(cycle)
        shift += 1
    return out[:n]


def _run_compare(state, item: Item) -> tuple[int, ...]:
    ours, serra, _ = engine.compare(item.stages, item.n0)
    return ours.bound, serra.bound


MLP_COLD = Workload("mlp_cold", 24, 96, _gen_mlp, _prepare_arch, _run_compare,
                    _bound_pair_checks)


# -- sweep_warm: the `regionbound sweep` pattern ------------------------------

SWEEP_WIDTHS = (8, 64, 8)    # lo, hi, grid steps per cycle
SWEEP_DEPTHS = (1, 30, 6)


def _gen_sweep(rng: random.Random, n: int) -> list[tuple[str, dict]]:
    # A cycle is a width x depth grid, like one `regionbound sweep` call;
    # the seed draws n0, which only sizes the first M matrix, and the order.
    out = []
    c = 0
    while len(out) < n:
        cycle = []
        for w in _grid(rng, *SWEEP_WIDTHS, c):
            for k in _grid(rng, *SWEEP_DEPTHS, c):
                n0 = rng.randint(2, 64)
                exact = zaslavsky(n0, w) if k == 1 else None
                cycle.append((_mlp_doc(n0, w, k), {"exact": exact}))
        rng.shuffle(cycle)
        out.extend(cycle)
        c += 1
    return out[:n]


def _shared_providers(ctx) -> dict[GammaVariant, GammaProvider]:
    return {v: GammaProvider(v) for v in GammaVariant}


def _run_shared(providers, item: Item) -> tuple[int, ...]:
    return tuple(engine.evaluate(item.stages, v, item.n0,
                                 provider=providers[v]).bound
                 for v in (GammaVariant.OURS, GammaVariant.SERRA))


SWEEP_WARM = Workload("sweep_warm", 48, 192, _gen_sweep, _prepare_arch,
                      _run_shared, _bound_pair_checks,
                      fresh_state=_shared_providers)


# -- skip_warm: skip/residual segment composition -----------------------------

SKIP_WIDTHS = (32, 48, 64, 96)
SKIP_BUILTINS = ("unet_small", "ae_small", "resnet_small")


def _gen_skip(rng: random.Random, n: int) -> list[tuple[str, dict]]:
    # A cycle has every (block kind, body depth, first width) once; body
    # widths walk through SKIP_WIDTHS from an offset that advances by one per
    # cycle, so every four cycles have the same mix of shapes for any seed.
    # The seed draws the input sizes and the order.
    out = []
    offset = 0
    while len(out) < n:
        offset += 1
        cycle = []
        for kind in ("skip", "residual"):
            for depth in (2, 3, 4):
                for p, pre in enumerate(SKIP_WIDTHS):
                    body = [SKIP_WIDTHS[(p + j + offset) % len(SKIP_WIDTHS)]
                            for j in range(1, depth + 1)]
                    if kind == "residual":
                        body[-1] = pre
                    blocks = [
                        {"dense": {"out": pre, "relu": True}},
                        {kind: {"body": [{"dense": {"out": w, "relu": True}}
                                         for w in body]}},
                        {"dense": {"out": 1, "relu": False}}]
                    doc = {"input": {"nodes": rng.randint(2, 64)},
                           "blocks": blocks}
                    cycle.append((json.dumps(doc), {}))
        for name in SKIP_BUILTINS:
            doc = archspec.render(archspec.builtin(name))
            cycle.append((json.dumps(doc), {}))
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:n]


def _warm_providers(items: list[Item]) -> dict[GammaVariant, GammaProvider]:
    """Build every gamma column the pool will ask for, as set-up work."""
    widths = set()

    def visit(stages):
        for st in stages:
            if st.kind == "dense" and st.relu:
                widths.add(st.n_out)
            visit(st.body)

    for item in items:
        visit(item.stages)
    providers = _shared_providers(None)
    for p in providers.values():
        for w in sorted(widths):
            p.column(w)
    return providers


SKIP_WARM = Workload("skip_warm", 27, 108, _gen_skip, _prepare_arch,
                     _run_shared, _bound_pair_checks, warm=_warm_providers)


# -- oracle_1d: exact 1-D region counts against the bound ---------------------

ORACLE_WIDTHS = range(4, 17)
ORACLE_DEPTHS = (1, 2, 3, 4)
ORACLE_SAMPLES = 40


def _rational(rng: random.Random) -> str:
    p = rng.choice([x for x in range(-9, 10) if x])
    return f"{p}/{rng.randint(1, 9)}"


def _gen_oracle(rng: random.Random, n: int) -> list[tuple[str, dict]]:
    # A cycle has every (width, depth) once, so the seed changes the weights
    # and the order but not the sizes.  Region counts, and with them the
    # cost, still vary with the weights; 52 nets per cycle average that out.
    out = []
    while len(out) < n:
        cycle = []
        for width in ORACLE_WIDTHS:
            for depth in ORACLE_DEPTHS:
                layers, n_in = [], 1
                for _ in range(depth):
                    layers.append({
                        "weights": [[_rational(rng) for _ in range(n_in)]
                                    for _ in range(width)],
                        "bias": [_rational(rng) for _ in range(width)],
                        "relu": True})
                    n_in = width
                layers.append({"weights": [[_rational(rng)
                                            for _ in range(n_in)]],
                               "bias": [_rational(rng)], "relu": False})
                # a quarter of the nets, spread over widths and depths
                samples = ORACLE_SAMPLES if (width + depth) % 4 == 0 else 0
                exact = zaslavsky(1, width) if depth == 1 else None
                cycle.append((json.dumps({"input": 1, "layers": layers}),
                              {"samples": samples, "exact": exact}))
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:n]


def _prepare_net(doc: str, extra: dict) -> Item:
    net = oracle.net_from_json(doc)
    # the architecture `regionbound oracle` bounds the net with
    blocks = tuple(archspec.Dense(layer.n_out, layer.relu)
                   for layer in net.layers)
    stages = archspec.resolve(archspec.NetworkSpec(net.n0, blocks))
    return Item(net.n0, stages=stages, net=net, **extra)


def _run_oracle(state, item: Item) -> tuple[int, ...]:
    count = oracle.count_regions_1d(item.net).count
    bound = engine.evaluate(item.stages, GammaVariant.OURS, item.n0).bound
    sampled = -1
    if item.samples:
        sampled = oracle.pattern_lower_bound(item.net, item.samples,
                                             seed=0).count
    return count, bound, sampled


def _oracle_checks(item: Item, result: tuple[int, ...]) -> list[str]:
    count, bound, sampled = result
    problems = []
    if count > bound:
        problems.append(f"exact count {count} > bound {bound}")
    if sampled > bound:
        problems.append(f"sampled count {sampled} > bound {bound}")
    if item.exact is not None and bound != item.exact:
        problems.append(f"depth-1 bound {bound} != {item.exact}")
    return problems


ORACLE_1D = Workload("oracle_1d", 52, 208, _gen_oracle, _prepare_net,
                     _run_oracle, _oracle_checks)


REGISTRY = {w.name: w for w in (MLP_COLD, SWEEP_WARM, SKIP_WARM, ORACLE_1D)}
assert all(w.pool_size % w.cycle == 0 for w in REGISTRY.values())
