"""Independent ground truth for bound soundness checks.

Exact region counting for 1-input networks by breakpoint propagation, and
a sampling lower bound on activation regions (distinct activation
patterns) for any input dimension.

Weights and biases are ``Fraction``s, but both counters run on plain
integers.  Each layer is multiplied by L, the lcm of its weight and bias
denominators, giving integer ``W·L`` and ``bias·L``; the two counters
share that conversion for the last net they were given.  The sweep keeps
every unit's (slope, intercept) on every interval multiplied by one common
scale S > 0, the product of the L's so far; the next layer's pair is
``(Σ W·L·a, Σ W·L·b + bias·L·S)`` at scale L·S.  Because S is positive and
the same for every interval and unit, nothing that is compared changes: a
root is still -b/a, a unit's sign at p/q (q > 0) is that of ``a·p + b·q``,
and two intervals carry equal scaled pairs iff they carry equal rational
ones.  The sampler does the same with inputs drawn as integers over 10**6.

Breakpoints are integer pairs (p, q) with q > 0 and gcd(p, q) = 1, so equal
points are equal tuples.  Every pre-activation is continuous in x, so a
ReLU layer evaluates each unit once per breakpoint (at -inf and +inf it
takes the sign of the slope, or of the intercept when the slope is 0).  A
unit crosses zero inside an interval iff its end signs are strictly
opposite; there it turns on if its slope is positive and off otherwise.
It is on in the first sub-interval iff its left-end sign is positive, or 0
with a positive right-end sign.  The roots are spliced into their interval
alone: a dict maps each to its units (coincident units merge), and two or
more are sorted by the exact key p·(D/q), D the lcm of their q's.  Only
the first sub-interval keeps its clamped pair; each later one is stored as
its flips (u, ±a, ±b), and the next layer adds ±(a, b)·W[:, u] per flip to
its left neighbour's result.  Of the full pairs, only the first takes
W·intercepts; a later one's follow by continuity from its left neighbour's
at their shared breakpoint.  No ``Fraction`` is built.
"""
from __future__ import annotations

import json
import math
import random
import re
import weakref
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

def _scaled(layer: Layer) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """(L, W·L, bias·L) with L the lcm of the layer's denominators."""
    rows = [[x.as_integer_ratio() for x in row] for row in layer.weights]
    bias = [x.as_integer_ratio() for x in layer.bias]
    lcm = math.lcm(*(q for row in rows for _, q in row), *(q for _, q in bias))
    weights = [tuple(p * (lcm // q) for p, q in row) for row in rows]
    return lcm, weights, [p * (lcm // q) for p, q in bias]


_last: tuple[weakref.ref, list] | None = None  # (last net, its _scaled rows)


def _scaled_layers(net: ConcreteNet) -> list:
    """Every layer's ``_scaled``, cached for the last net (held weakly)."""
    global _last
    last = _last
    if last is None or last[0]() is not net:
        last = _last = weakref.ref(net), [_scaled(x) for x in net.layers]
    return last[1]


def _map(weights: list[tuple[int, ...]], bias: list[int], pieces: list,
         bps: list[tuple[int, int]]) -> list[tuple[list[int], list[int]]]:
    """Every interval's next-layer pair (W·slopes, W·intercepts + bias).

    A piece is an interval's (slopes, intercepts), or the list of flips
    (u, da, db) that add (da, db) to unit u of its left neighbour's pair;
    each flip adds (da, db)·W[:, u] to the neighbour's result.  A later full
    piece takes W·slopes alone: its intercepts are its neighbour's plus
    (left slopes - slopes)·p/q at their shared breakpoint p/q, exactly.
    """
    cols = list(zip(*weights))
    out = []
    for i, piece in enumerate(pieces):
        if type(piece) is list:
            slopes, icepts = out[-1]
            for u, da, db in piece:
                col = cols[u]
                slopes = [s + w * da for s, w in zip(slopes, col)]
                icepts = [c + w * db for c, w in zip(icepts, col)]
        else:
            slopes = [sum(map(mul, wrow, piece[0])) for wrow in weights]
            if out:
                (p, q), (left, icepts) = bps[i - 1], out[-1]
                icepts = [c + (sl - s) * p // q
                          for c, sl, s in zip(icepts, left, slopes)]
            else:
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
    for li, (lcm, weights, bias) in enumerate(_scaled_layers(net)):
        bias = [b * scale for b in bias]
        scale *= lcm
        pairs = _map(weights, bias, pieces, bps)
        if not net.layers[li].relu:
            pieces = pairs
            continue
        # each unit's a·p + b·q at each end p/q (q = 0: -inf or +inf, where
        # -a, a or else b gives the sign); interval i + 1's left is i's right
        left = [-a or b for a, b in zip(*pairs[0])]
        ends, bps, pieces, actives = [*bps, (1, 0)], [], [], []
        for (slopes, icepts), hi in zip(pairs, ends):
            p, q = hi
            right = [a * p + b * q if q else a or b
                     for a, b in zip(slopes, icepts)]
            roots: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
            for u, (l, r) in enumerate(zip(left, right)):
                # strictly opposite end signs: the root -b/a lies strictly
                # inside, where the unit turns on iff it rises (l < 0)
                if l < 0 < r or r < 0 < l:
                    a, b = slopes[u], icepts[u]
                    g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
                    roots.setdefault((-b // g, a // g), []).append(
                        (u, a, b) if a > 0 else (u, -a, -b))
            order = list(roots)
            if len(order) > 1:
                d = math.lcm(*(q for _, q in order))
                order.sort(key=lambda r: r[0] * (d // r[1]))
            # on in the first sub-interval: positive at its left end, or
            # zero there (no root inside) and positive at the right end
            active = [l > 0 or l == 0 < r for l, r in zip(left, right)]
            pieces.append(([a if on else 0 for a, on in zip(slopes, active)],
                           [b if on else 0 for b, on in zip(icepts, active)]))
            pieces += (roots[root] for root in order)
            bps += order
            bps.append(hi)
            left = right
            if li == 0:
                actives.append(n_active := sum(active))
                for root in order:
                    n_active += sum(1 if slopes[u] > 0 else -1
                                    for u, _, _ in roots[root])
                    actives.append(n_active)
        bps.pop()  # +inf
        if li == 0:
            first_layer_hist = tuple(actives.count(j)
                                     for j in range(max(actives) + 1))
    if net.layers and net.layers[-1].relu:
        # the identity map turns the flips back into full pairs
        w = net.layers[-1].n_out
        pieces = _map([tuple(int(r == c) for c in range(w)) for r in range(w)],
                      [0] * w, pieces, bps)
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

_BOX = (-10, 10)  # each input coordinate is drawn from this interval


def pattern_lower_bound(net: ConcreteNet, samples: int,
                        seed: int) -> RegionCount:
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
    lo, hi = _BOX
    denom = 10 ** 6
    # every sample is drawn as integers over denom; the scale of each
    # layer's pre-activations is the same for all samples.  Layers after
    # the last ReLU layer add nothing to a pattern and are not evaluated.
    depth = max((i + 1 for i, layer in enumerate(net.layers) if layer.relu),
                default=0)
    layers = []
    scale = denom
    for (lcm, weights, bias), layer in zip(_scaled_layers(net)[:depth],
                                           net.layers):
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

