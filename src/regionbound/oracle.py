"""Independent ground truth for bound soundness checks.

Exact region counting for 1-input networks by breakpoint propagation, a
sampling lower bound on activation patterns for any input dimension, and
the explicit single-layer construction that attains the first-layer
histogram bound.

Weights and biases are ``Fraction``s, but both counters run on plain
integers.  Each call multiplies a layer by L, the lcm of its weight and
bias denominators, giving integer ``W·L`` and ``bias·L``.  The sweep keeps
every unit's (slope, intercept) on every interval multiplied by one common
scale S > 0, the product of the L's so far; the next layer's pair is
``(Σ W·L·a, Σ W·L·b + bias·L·S)`` at scale L·S.  Because S is positive and
the same for every interval and unit, nothing that is compared changes: a
root is still ``Fraction(-b, a)``, the unit is active at p/q (q > 0) iff
``a·p + b·q > 0``, a unit crosses zero inside an interval iff its signs at
the two ends are strictly opposite, and two intervals carry equal scaled
pairs iff they carry equal rational ones.  The sampler does the same with
inputs drawn as integers over 10**6.  Only breakpoints stay ``Fraction``s.
"""
from __future__ import annotations

import bisect
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .histogram import Histogram


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
    activation_histogram: Histogram | None = None


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

def _representative(bps: list[Fraction], i: int) -> Fraction:
    """Interior point of the i-th interval of the line split at bps."""
    if not bps:
        return Fraction(0)
    if i == 0:
        return bps[0] - 1
    if i == len(bps):
        return bps[-1] + 1
    return (bps[i - 1] + bps[i]) / 2


def _split(bps, affs, new_points):
    """Re-split intervals at additional breakpoints, carrying affines over."""
    merged = sorted(set(bps) | set(new_points))
    if merged == bps:
        return bps, affs
    out = []
    for i in range(len(merged) + 1):
        rep = _representative(merged, i)
        old = bisect.bisect_right(bps, rep)
        out.append(affs[old])
    return merged, out


def _scaled(layer: Layer) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """(L, W·L, bias·L) with L the lcm of the layer's denominators."""
    lcm = math.lcm(*(x.denominator for row in layer.weights for x in row),
                   *(x.denominator for x in layer.bias))
    weights = [tuple(x.numerator * (lcm // x.denominator) for x in row)
               for row in layer.weights]
    bias = [x.numerator * (lcm // x.denominator) for x in layer.bias]
    return lcm, weights, bias


def count_regions_1d(net: ConcreteNet,
                     domain: tuple[Fraction, Fraction] | None = None
                     ) -> RegionCount:
    """Exact count of maximal intervals on which the network is affine.

    Counts full-dimensional (positive-length) intervals only; coincident
    breakpoints collapse.  ``domain`` restricts to an open interval.
    """
    if net.n0 != 1:
        raise OracleError("1-D oracle only")
    bps: list[Fraction] = []
    # per interval: (slopes, intercepts) of the current layer's units, all
    # multiplied by the same positive scale
    affs: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((1,), (0,))]
    scale = 1
    first_layer_hist: Histogram | None = None
    for li, layer in enumerate(net.layers):
        lcm, weights, bias = _scaled(layer)
        bias = [b * scale for b in bias]
        scale *= lcm
        affs = [
            (tuple(sum(map(mul, wrow, slopes)) for wrow in weights),
             tuple(sum(map(mul, wrow, icepts)) + b
                   for wrow, b in zip(weights, bias)))
            for slopes, icepts in affs
        ]
        if layer.relu:
            # interval i runs from ends[i] to ends[i + 1], each a projective
            # point (p, q) standing for p/q; q = 0 is -inf or +inf.  A unit
            # crosses zero inside an interval iff its signs at the two ends
            # are strictly opposite (never when its slope is 0).
            ends = [(-1, 0)] + [(x.numerator, x.denominator) for x in bps] \
                + [(1, 0)]
            crossings = set()
            for (slopes, icepts), (pl, ql), (ph, qh) in zip(affs, ends,
                                                           ends[1:]):
                for a, b in zip(slopes, icepts):
                    if (a * pl + b * ql) * (a * ph + b * qh) < 0:
                        crossings.add(Fraction(-b, a))
            bps, affs = _split(bps, affs, crossings)
            clamped = []
            actives = []
            for i, (slopes, icepts) in enumerate(affs):
                rep = _representative(bps, i)
                p, q = rep.numerator, rep.denominator
                active = [a * p + b * q > 0 for a, b in zip(slopes, icepts)]
                actives.append(sum(active))
                clamped.append(
                    (tuple(a if on else 0 for a, on in zip(slopes, active)),
                     tuple(b if on else 0 for b, on in zip(icepts, active))))
            affs = clamped
            if li == 0:
                counts = [0] * (max(actives) + 1)
                for s in actives:
                    counts[s] += 1
                first_layer_hist = Histogram(counts)
    if domain is not None:
        lo, hi = domain
        if lo >= hi:
            raise OracleError("empty domain")
        keep = [i for i in range(len(bps) + 1)
                if (i == 0 or bps[i - 1] < hi) and (i == len(bps) or bps[i] > lo)]
        affs = [affs[i] for i in keep]
    count = 1
    for prev, cur in zip(affs, affs[1:]):
        if prev != cur:
            count += 1
    return RegionCount(count, "sweep1d", exact=True,
                       activation_histogram=first_layer_hist)


# -- sampling lower bound ---------------------------------------------------------

def pattern_lower_bound(net: ConcreteNet, samples: int, seed: int, *,
                        box: tuple[int, int] = (-10, 10)) -> RegionCount:
    """Number of distinct activation patterns on seeded pseudo-random inputs.

    Always a valid lower bound on the number of linear regions.
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

