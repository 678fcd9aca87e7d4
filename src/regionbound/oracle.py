"""Independent ground truth for bound soundness checks.

Exact region counting for 1-input networks by breakpoint propagation in
rational arithmetic, a sampling lower bound on activation patterns for
any input dimension, and the explicit single-layer construction that
attains the first-layer histogram bound.
"""
from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from fractions import Fraction

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

    @property
    def n_in(self) -> int:
        return len(self.weights[0]) if self.weights else 0


@dataclass(frozen=True)
class ConcreteNet:
    """Network with exact rational parameters."""

    n0: int
    layers: tuple[Layer, ...]

    def __post_init__(self):
        d = self.n0
        for i, layer in enumerate(self.layers):
            if layer.n_in != d:
                raise OracleError(
                    f"layer {i} expects {layer.n_in} inputs, got {d}")
            if len(layer.bias) != layer.n_out:
                raise OracleError(f"layer {i} bias length mismatch")
            d = layer.n_out

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(layer.n_out for layer in self.layers)


@dataclass(frozen=True)
class RegionCount:
    count: int
    method: str  # sweep1d | pattern_sample
    exact: bool
    activation_histogram: Histogram | None = None


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
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
        weights = tuple(tuple(_frac(x) for x in row) for row in rows)
        bias = tuple(_frac(x) for x in bias)
        if not isinstance(ldoc["relu"], bool):
            raise OracleError(f"layer {i}: relu must be a boolean")
        layers.append(Layer(weights, bias, ldoc["relu"]))
    return ConcreteNet(n0, tuple(layers))


def net_to_json(net: ConcreteNet) -> dict:
    return {
        "input": net.n0,
        "layers": [
            {"weights": [[str(x) for x in row] for row in layer.weights],
             "bias": [str(x) for x in layer.bias],
             "relu": layer.relu}
            for layer in net.layers
        ],
    }


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
    # per interval, per unit of the current layer: (slope, intercept)
    affs: list[tuple[tuple[Fraction, Fraction], ...]] = [
        ((Fraction(1), Fraction(0)),)]
    first_layer_hist: Histogram | None = None
    for li, layer in enumerate(net.layers):
        affs = [
            tuple(
                (sum(w * a for w, (a, _) in zip(wrow, units)),
                 sum(w * b for w, (_, b) in zip(wrow, units)) + bias)
                for wrow, bias in zip(layer.weights, layer.bias))
            for units in affs
        ]
        if layer.relu:
            crossings = set()
            for i, units in enumerate(affs):
                lo = bps[i - 1] if i > 0 else None
                hi = bps[i] if i < len(bps) else None
                for a, b in units:
                    if a == 0:
                        continue
                    root = -b / a
                    if (lo is None or root > lo) and (hi is None or root < hi):
                        crossings.add(root)
            bps, affs = _split(bps, affs, crossings)
            clamped = []
            actives = []
            for i, units in enumerate(affs):
                rep = _representative(bps, i)
                active = tuple(a * rep + b > 0 for a, b in units)
                actives.append(sum(active))
                clamped.append(tuple(
                    (a, b) if on else (Fraction(0), Fraction(0))
                    for (a, b), on in zip(units, active)))
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
    patterns = set()
    for _ in range(samples):
        x = [Fraction(rng.randint(lo * denom, hi * denom), denom)
             for _ in range(net.n0)]
        pattern = []
        for layer in net.layers:
            pre = [sum(w * xi for w, xi in zip(wrow, x)) + b
                   for wrow, b in zip(layer.weights, layer.bias)]
            if layer.relu:
                pattern.append(tuple(p > 0 for p in pre))
                x = [p if p > 0 else Fraction(0) for p in pre]
            else:
                x = pre
        patterns.add(tuple(pattern))
    return RegionCount(len(patterns), "pattern_sample", exact=False)


# -- tightness witness -------------------------------------------------------------

def build_gamma1n_witness(n: int) -> ConcreteNet:
    """One-input ReLU layer with n units attaining the first-layer bound.

    Breakpoints at 1..n; the first floor(n/2) units activate to the right
    of their breakpoint, the rest to the left.
    """
    if n < 1:
        raise OracleError("need at least one unit")
    weights = []
    bias = []
    for j in range(1, n + 1):
        if j <= n // 2:
            weights.append((Fraction(1),))
            bias.append(Fraction(-j))
        else:
            weights.append((Fraction(-1),))
            bias.append(Fraction(j))
    return ConcreteNet(1, (Layer(tuple(weights), tuple(bias), True),))
