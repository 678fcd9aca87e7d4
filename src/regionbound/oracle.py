"""Independent ground truth for bound soundness checks.

Exact region counting for 1-input networks by breakpoint propagation, and
a sampling lower bound on activation regions (distinct activation
patterns) for any input dimension.

Weights and biases are ``Fraction``s, but both counters run on plain
integers.  Each call multiplies a layer by L, the lcm of its weight and
bias denominators, giving integer ``W·L`` and ``bias·L``.  The sweep keeps
every unit's (slope, intercept) on every interval multiplied by one common
scale S > 0, the product of the L's so far; the next layer's pair is
``(Σ W·L·a, Σ W·L·b + bias·L·S)`` at scale L·S.  Because S is positive and
the same for every interval and unit, nothing that is compared changes: a
root is still -b/a, the unit is active at p/q (q > 0) iff ``a·p + b·q > 0``,
a unit crosses zero inside an interval iff its signs at the two ends are
strictly opposite, and two intervals carry equal scaled pairs iff they
carry equal rational ones.  The sampler does the same with inputs drawn as
integers over 10**6.

Breakpoints are integer pairs (p, q) with q > 0 and gcd(p, q) = 1, so equal
points are equal tuples.  A ReLU layer's new breakpoints are the roots
strictly inside each interval, so they are spliced into that interval
alone: a dict maps each root to its units (coincident units merge), and
the roots are sorted by the exact key p·(D/q), D the lcm of their q's.
Activity is read once per interval, at the integer midpoint of its first
sub-interval; no ``Fraction`` is built.  Each unit is affine on the
interval with its root strictly inside, so it changes sign exactly once,
there: it turns on if its slope is positive and off otherwise.  Only the
first sub-interval keeps its clamped pair and pays the full product with
the next layer's W; each later one is stored as its flips (u, ±a, ±b), and
the next layer adds ±(a, b)·W[:, u] per flip to its left neighbour's
result.  All pairs share one positive scale, so that sum is exactly the
full product's pair.
"""
from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul


class OracleError(Exception):
    pass


@dataclass(frozen=True)
class Layer:
    weights: tuple[tuple[Fraction, ...], ...]  # n_out x n_in
    bias: tuple[Fraction, ...]
    relu: bool

    @property
    def n_out(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ConcreteNet:
    """Network with exact rational parameters."""

    n0: int
    layers: tuple[Layer, ...]

    def __post_init__(self):
        d = self.n0
        for i, layer in enumerate(self.layers):
            if not layer.weights:
                raise OracleError(f"layer {i} has no units")
            for r, row in enumerate(layer.weights):
                if len(row) != d:
                    raise OracleError(f"layer {i} row {r} has {len(row)} "
                                      f"weights, but the layer expects {d} "
                                      f"inputs")
            if len(layer.bias) != layer.n_out:
                raise OracleError(f"layer {i} bias length mismatch")
            d = layer.n_out


@dataclass(frozen=True)
class RegionCount:
    count: int
    method: str  # sweep1d | pattern_sample
    exact: bool
    activation_histogram: tuple[int, ...] | None = None


# Fraction("1e999999999") would build a 400 MB integer; cap the exponent at
# Python's default limit on the digits of a decimal integer string.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")
_MAX_EXPONENT = 4300


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            exp = _EXPONENT.search(value)
            if exp and int(exp.group(1).replace("_", "")) > _MAX_EXPONENT:
                raise OracleError(f"exponent too large in {value!r}")
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise OracleError(f"not a rational number: {value!r}") from None
    raise OracleError(f"weights must be integers or rational strings, "
                      f"got {value!r}")


def net_from_json(text: str | dict) -> ConcreteNet:
    """Net description: {"input": n0, "layers": [{"weights", "bias", "relu"}]}."""
    if isinstance(text, str):
        try:
            doc = json.loads(text)
        except ValueError as exc:  # also integers past Python's digit limit
            raise OracleError(f"malformed JSON: {exc}") from None
        except RecursionError:
            raise OracleError("net document is nested too deeply") from None
    else:
        doc = text
    if not isinstance(doc, dict) or set(doc) != {"input", "layers"}:
        raise OracleError("net document needs exactly 'input' and 'layers'")
    n0 = doc["input"]
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 1:
        raise OracleError("input must be a positive integer")
    if not isinstance(doc["layers"], list):
        raise OracleError("layers must be a list")
    # a weight string repeated in the document is parsed once
    parsed: dict[str, Fraction] = {}

    def frac(value) -> Fraction:
        if not isinstance(value, str):
            return _frac(value)
        f = parsed.get(value)
        if f is None:
            f = parsed[value] = _frac(value)
        return f

    layers = []
    for i, ldoc in enumerate(doc["layers"]):
        if not isinstance(ldoc, dict) or set(ldoc) != {"weights", "bias", "relu"}:
            raise OracleError(f"layer {i} needs weights, bias and relu")
        rows, bias = ldoc["weights"], ldoc["bias"]
        if not isinstance(rows, list) or not all(isinstance(r, list)
                                                 for r in rows):
            raise OracleError(f"layer {i}: weights must be a list of rows")
        if not isinstance(bias, list):
            raise OracleError(f"layer {i}: bias must be a list")
        weights = tuple(tuple(frac(x) for x in row) for row in rows)
        bias = tuple(frac(x) for x in bias)
        if not isinstance(ldoc["relu"], bool):
            raise OracleError(f"layer {i}: relu must be a boolean")
        layers.append(Layer(weights, bias, ldoc["relu"]))
    return ConcreteNet(n0, tuple(layers))


# -- exact 1-D sweep ------------------------------------------------------------

def _midpoint(lo: tuple[int, int], hi: tuple[int, int]) -> tuple[int, int]:
    """Interior point (p, q), q > 0, of the interval between projective ends."""
    (pl, ql), (ph, qh) = lo, hi
    if not ql:
        return (ph - qh, qh) if qh else (0, 1)
    if not qh:
        return pl + ql, ql
    return pl * qh + ph * ql, 2 * ql * qh


def _scaled(layer: Layer) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """(L, W·L, bias·L) with L the lcm of the layer's denominators."""
    rows = [[x.as_integer_ratio() for x in row] for row in layer.weights]
    bias = [x.as_integer_ratio() for x in layer.bias]
    lcm = math.lcm(*(q for row in rows for _, q in row), *(q for _, q in bias))
    weights = [tuple(p * (lcm // q) for p, q in row) for row in rows]
    return lcm, weights, [p * (lcm // q) for p, q in bias]


def _map(weights: list[tuple[int, ...]], bias: list[int], pieces: list
         ) -> list[tuple[list[int], list[int]]]:
    """Every interval's next-layer pair (W·slopes, W·intercepts + bias).

    A piece is an interval's (slopes, intercepts), or the list of flips
    (u, da, db) that add (da, db) to unit u of its left neighbour's pair;
    each flip adds (da, db)·W[:, u] to the neighbour's result.
    """
    cols = list(zip(*weights))
    out = []
    for piece in pieces:
        if type(piece) is list:
            slopes, icepts = out[-1]
            for u, da, db in piece:
                col = cols[u]
                slopes = [s + w * da for s, w in zip(slopes, col)]
                icepts = [c + w * db for c, w in zip(icepts, col)]
        else:
            slopes = [sum(map(mul, wrow, piece[0])) for wrow in weights]
            icepts = [sum(map(mul, wrow, piece[1])) + b
                      for wrow, b in zip(weights, bias)]
        out.append((slopes, icepts))
    return out


def count_regions_1d(net: ConcreteNet,
                     domain: tuple[Fraction, Fraction] | None = None
                     ) -> RegionCount:
    """Exact count of maximal intervals on which the network is affine.

    Counts full-dimensional (positive-length) intervals only; coincident
    breakpoints collapse.  ``domain`` restricts to an open interval.
    """
    if net.n0 != 1:
        raise OracleError("1-D oracle only")
    if domain is not None and domain[0] >= domain[1]:
        raise OracleError("empty domain")
    # increasing breakpoints (p, q): q > 0, gcd(p, q) = 1
    bps: list[tuple[int, int]] = []
    # one piece per interval (see _map); all pairs share one positive scale
    pieces: list = [([1], [0])]
    scale = 1
    first_layer_hist: tuple[int, ...] | None = None
    for li, layer in enumerate(net.layers):
        lcm, weights, bias = _scaled(layer)
        bias = [b * scale for b in bias]
        scale *= lcm
        pairs = _map(weights, bias, pieces)
        if not layer.relu:
            pieces = pairs
            continue
        # interval i runs from ends[i] to ends[i + 1]; q = 0 is -inf or +inf
        ends = [(-1, 0), *bps, (1, 0)]
        bps, pieces, actives = [], [], []
        for (slopes, icepts), lo, hi in zip(pairs, ends, ends[1:]):
            (pl, ql), (ph, qh) = lo, hi
            roots: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
            for u, (a, b) in enumerate(zip(slopes, icepts)):
                # strictly opposite signs at the ends: the root -b/a lies
                # strictly inside this interval (never when a = 0)
                if (a * pl + b * ql) * (a * ph + b * qh) < 0:
                    g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
                    # its flip there: the unit turns on iff a > 0
                    roots.setdefault((-b // g, a // g), []).append(
                        (u, a, b) if a > 0 else (u, -a, -b))
            d = math.lcm(*(q for _, q in roots))
            order = sorted(roots, key=lambda r: r[0] * (d // r[1]))
            p, q = _midpoint(lo, order[0] if order else hi)
            active = [a * p + b * q > 0 for a, b in zip(slopes, icepts)]
            n_active = sum(active)
            actives.append(n_active)
            pieces.append(([a if on else 0 for a, on in zip(slopes, active)],
                           [b if on else 0 for b, on in zip(icepts, active)]))
            for root in order:
                pieces.append(roots[root])
                n_active += sum(1 if slopes[u] > 0 else -1
                                for u, _, _ in roots[root])
                actives.append(n_active)
            bps += order
            bps.append(hi)
        bps.pop()  # +inf
        if li == 0:
            first_layer_hist = tuple(actives.count(j)
                                     for j in range(max(actives) + 1))
    if net.layers and net.layers[-1].relu:
        # the identity map turns the flips back into full pairs
        w = net.layers[-1].n_out
        pieces = _map([tuple(int(r == c) for c in range(w)) for r in range(w)],
                      [0] * w, pieces)
    if domain is not None:
        (lp, lq), (hp, hq) = (x.as_integer_ratio() for x in domain)
        pieces = [piece for i, piece in enumerate(pieces)
                  if (i == 0 or bps[i - 1][0] * hq < hp * bps[i - 1][1])
                  and (i == len(bps) or bps[i][0] * lq > lp * bps[i][1])]
    count = 1
    for prev, cur in zip(pieces, pieces[1:]):
        if prev != cur:
            count += 1
    return RegionCount(count, "sweep1d", exact=True,
                       activation_histogram=first_layer_hist)


# -- sampling lower bound ---------------------------------------------------------

def pattern_lower_bound(net: ConcreteNet, samples: int, seed: int, *,
                        box: tuple[int, int] = (-10, 10)) -> RegionCount:
    """Number of distinct activation patterns on seeded pseudo-random inputs.

    A lower bound on the number of activation regions, the sets of inputs
    that share one pattern, and not on the number of linear regions: the
    net is affine on each activation region, but neighbouring ones can
    carry the same affine map.  For example, relu(x) and relu(-x) read
    out with weights 0 and 0 give two patterns and one linear region.
    The engine's bounds count activation regions, so the count must not
    exceed them either.
    """
    if samples < 1:
        raise OracleError("need at least one sample")
    rng = random.Random(seed)
    lo, hi = box
    denom = 10 ** 6
    # every sample is drawn as integers over denom; the scale of each
    # layer's pre-activations is the same for all samples
    layers = []
    scale = denom
    for layer in net.layers:
        lcm, weights, bias = _scaled(layer)
        layers.append((weights, [b * scale for b in bias], layer.relu))
        scale *= lcm
    patterns = set()
    for _ in range(samples):
        x = [rng.randint(lo * denom, hi * denom) for _ in range(net.n0)]
        pattern = []
        for weights, bias, relu in layers:
            pre = [sum(map(mul, wrow, x)) + b
                   for wrow, b in zip(weights, bias)]
            if relu:
                pattern.append(tuple(p > 0 for p in pre))
                x = [p if p > 0 else 0 for p in pre]
            else:
                x = pre
        patterns.add(tuple(pattern))
    return RegionCount(len(patterns), "pattern_sample", exact=False)

