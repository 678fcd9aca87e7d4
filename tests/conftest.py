import bisect
import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb

from hypothesis import strategies as st

from regionbound import archspec, engine, oracle
from regionbound.gamma import (GammaProvider, GammaVariant, first_layer_gamma,
                               gamma_norm)


# -- histogram algebra and accessors that only tests use -----------------------


class Histogram:
    """Immutable sequence of non-negative counts, index = dimension.

    Trailing zeros are semantically irrelevant, so they are stripped on
    construction and plain structural equality gives value equality."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        es = list(entries)
        for e in es:
            if e < 0:
                raise ValueError(f"negative histogram entry: {e}")
        while es and es[-1] == 0:
            es.pop()
        object.__setattr__(self, "entries", tuple(es))

    def __setattr__(self, name, value):
        raise AttributeError("Histogram is immutable")

    @classmethod
    def unit(cls, n: int) -> "Histogram":
        """Unit-mass histogram: entry 1 at index n, zeros elsewhere."""
        return cls((0,) * n + (1,))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise IndexError("histogram indices start at 0")
        return self.entries[i] if i < len(self.entries) else 0

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Histogram({list(self.entries)})"

    def l1(self) -> int:
        return sum(self.entries)

    def clip(self, istar: int) -> "Histogram":
        """Move all mass at indices >= istar down onto index istar."""
        return Histogram(self.entries[:istar] + (sum(self.entries[istar:]),))

    def render(self, pad_to: int | None = None) -> str:
        """Canonical "(a,b,c)" text, optionally zero-padded to a length."""
        es = list(self.entries)
        if pad_to is not None:
            es += [0] * (pad_to - len(es))
        return "(" + ",".join(map(str, es)) + ")"


def parse_histogram(text: str) -> Histogram:
    """Parse the canonical "(a,b,c)" rendering."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"not a histogram literal: {text!r}")
    body = s[1:-1].strip().rstrip(",")
    if not body:
        return Histogram()
    return Histogram(int(p) for p in body.split(","))


def leq(v: Histogram, w: Histogram) -> bool:
    """Tail-sum order: every tail sum of v <= the same tail of w."""
    sv = 0
    sw = 0
    n = max(len(v.entries), len(w.entries))
    # accumulate tails from the right; check every J
    for j in range(n - 1, -1, -1):
        sv += v[j]
        sw += w[j]
        if sv > sw:
            return False
    return True


def hist_add(v: Histogram, w: Histogram) -> Histogram:
    n = max(len(v.entries), len(w.entries))
    return Histogram(v[i] + w[i] for i in range(n))


def down_move(v: Histogram) -> Histogram:
    """Shift every entry one index up; index 0 becomes 0."""
    return Histogram((0,) + v.entries)


def max_hist(vs) -> Histogram:
    """Least upper bound of a non-empty collection under the tail-sum order."""
    hs = list(vs)
    if not hs:
        raise ValueError("empty max")
    n = max(len(h) for h in hs)
    tails = [0] * (n + 1)  # tails[j] = max over inputs of tail sum from j
    acc = [0] * len(hs)
    for j in range(n - 1, -1, -1):
        for i, h in enumerate(hs):
            acc[i] += h[j]
        tails[j] = max(acc)
    return Histogram(tails[j] - tails[j + 1] for j in range(n))


def gamma_entry(provider: GammaProvider, n: int, nprime: int) -> Histogram:
    """gamma(n, nprime); for n > nprime this equals gamma(nprime, nprime)."""
    if n < 0:
        raise ValueError("negative dimension")
    return Histogram(next(islice(provider.column(nprime), min(n, nprime),
                                 None)))


def gamma_column(provider: GammaProvider, nprime: int
                 ) -> tuple[Histogram, ...]:
    """All gamma(n, nprime) for n = 0..nprime, read from the row stream."""
    return tuple(map(Histogram, provider.column(nprime)))


def net_to_json(net: oracle.ConcreteNet) -> dict:
    return {
        "input": net.n0,
        "layers": [
            {"weights": [[str(x) for x in row] for row in layer.weights],
             "bias": [str(x) for x in layer.bias],
             "relu": layer.relu}
            for layer in net.layers
        ],
    }


def widths(net: oracle.ConcreteNet) -> tuple[int, ...]:
    return tuple(layer.n_out for layer in net.layers)


def build_gamma1n_witness(n: int) -> oracle.ConcreteNet:
    """One-input ReLU layer with n >= 1 units attaining the first-layer
    bound.

    Breakpoints at 1..n; the first floor(n/2) units activate to the right
    of their breakpoint, the rest to the left.
    """
    rows = [(Fraction(1),) if j <= n // 2 else (Fraction(-1),)
            for j in range(1, n + 1)]
    bias = [Fraction(-j) if j <= n // 2 else Fraction(j)
            for j in range(1, n + 1)]
    return oracle.ConcreteNet(1, (oracle.Layer(tuple(rows), tuple(bias),
                                               True),))


def layer_of(rows, bias, relu=True) -> oracle.Layer:
    """Layer from rows of weights and a bias, each entry anything that
    ``Fraction`` reads."""
    return oracle.Layer(tuple(tuple(Fraction(x) for x in row) for row in rows),
                        tuple(Fraction(b) for b in bias), relu)


def tent_net(depth: int) -> oracle.ConcreteNet:
    """Folding net of ``depth`` >= 1 ReLU layers of two units on one input.

    The first layer is relu(x), relu(x - 1/2); every later layer applies
    weights (2, -4) and biases (0, -1/2) to both units, and the readout is
    2·h1 - 4·h2.  It has 3 regions at depth 1 and 2^depth + 2 at depths
    2..12, and its first-layer activation histogram is (1, 1, 1).
    """
    layers = [layer_of([[1], [1]], [0, "-1/2"])]
    layers += [layer_of([[2, -4], [2, -4]], [0, "-1/2"])] * (depth - 1)
    layers.append(layer_of([[2, -4]], [0], relu=False))
    return oracle.ConcreteNet(1, tuple(layers))


def serra_first_layer_gamma(n: int) -> Histogram:
    """Serra seed for one input dimension: (0,...,0,n,1)."""
    return Histogram((0,) * (n - 1) + (n, 1))


def columns_by_recursion(variant: GammaVariant, nmax: int):
    """Yield the columns (gamma(0,m), ..., gamma(m,m)) for m = 1..nmax.

    Reference for the closed forms: grows each column from the previous
    one by gamma(n,m) = gamma(n-1,m-1) + down_move(gamma(n,m-1)), keeping
    only two adjacent columns in memory.  The variant only selects the
    n=1 seed.
    """
    seed1 = (first_layer_gamma if variant is GammaVariant.OURS
             else serra_first_layer_gamma)
    col = (Histogram.unit(1), Histogram((1, 1)))
    yield col
    for m in range(2, nmax + 1):
        nxt = [Histogram.unit(m), Histogram(seed1(m))]
        for n in range(2, m):
            nxt.append(hist_add(col[n - 1], down_move(col[n])))
        # gamma(m, m-1) equals gamma(m-1, m-1) by the n > n' rule
        nxt.append(hist_add(col[m - 1], down_move(col[m - 1])))
        col = tuple(nxt)
        yield col


# -- the published bounds the paper compares against -------------------------
#
# Stated for MLPs with input dimension n0 and hidden widths n_1..n_L, from
# the papers' formulas alone: they share no code with the package.


def serra_theorem1(n0: int, widths) -> int:
    """Serra, Tjandraatmadja & Ramalingam 2018, Theorem 1: the sum over
    (j_1, ..., j_L) in J of prod_l C(n_l, j_l), where J holds the tuples
    with 0 <= j_l <= min(n0, n_1 - j_1, ..., n_{l-1} - j_{l-1}, n_l)."""
    widths = tuple(widths)

    @lru_cache(maxsize=None)
    def count(layer: int, cap: int) -> int:
        if layer == len(widths):
            return 1
        n = widths[layer]
        return sum(comb(n, j) * count(layer + 1, min(cap, n - j))
                   for j in range(min(cap, n) + 1))

    return count(0, n0)


def montufar2017(n0: int, widths) -> int:
    """Montufar 2017, "Notes on the number of linear regions of deep
    neural networks": prod_l sum_{j <= d_l} C(n_l, j), with
    d_l = min(n0, n_1, ..., n_l)."""
    total, d = 1, n0
    for n in widths:
        d = min(d, n)
        total *= sum(comb(n, j) for j in range(d + 1))
    return total


def random_mlp_spec(rng: random.Random, max_n0=16, max_width=32, max_depth=6):
    n0 = rng.randint(1, max_n0)
    depth = rng.randint(1, max_depth)
    widths = [rng.randint(1, max_width) for _ in range(depth)]
    blocks = tuple(archspec.Dense(w, True) for w in widths)
    return archspec.NetworkSpec(n0, blocks + (archspec.Dense(1, False),))


def mlp_bound(n0, widths, variant="ours"):
    blocks = tuple(archspec.Dense(w, True) for w in widths)
    spec = archspec.NetworkSpec(n0, blocks + (archspec.Dense(1, False),))
    return engine.evaluate(archspec.resolve(spec), variant, n0).bound


def random_layer(rng: random.Random, n_in: int, n_out: int, relu: bool):
    weights = tuple(
        tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5))
              for _ in range(n_in))
        for _ in range(n_out))
    bias = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                 for _ in range(n_out))
    return oracle.Layer(weights, bias, relu)


def random_concrete_net(rng: random.Random, n0=1, max_width=8, max_depth=3):
    depth = rng.randint(1, max_depth)
    widths = [rng.randint(1, max_width) for _ in range(depth)]
    layers = []
    d = n0
    for w in widths:
        layers.append(random_layer(rng, d, w, True))
        d = w
    # linear readout
    weights = tuple((tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                           for _ in range(d)),))
    layers.append(oracle.Layer(weights, (Fraction(0),), False))
    return oracle.ConcreteNet(n0, tuple(layers))


# -- Fraction reference for the oracle ------------------------------------------
#
# The exact 1-D sweep and the pattern sampler in plain Fraction arithmetic:
# what the scaled-integer oracle must reproduce exactly.  The sweep is the
# old global one (one sorted merge of all breakpoints, mapped back by
# bisect) and shares no code with the oracle.


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


def count_regions_1d_by_fractions(net: oracle.ConcreteNet, domain=None
                                  ) -> oracle.RegionCount:
    """Reference for oracle.count_regions_1d."""
    bps: list[Fraction] = []
    # per interval, per unit of the current layer: (slope, intercept)
    affs = [((Fraction(1), Fraction(0)),)]
    first_layer_hist = None
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
                first_layer_hist = tuple(counts)
    if domain is not None:
        lo, hi = domain
        keep = [i for i in range(len(bps) + 1)
                if (i == 0 or bps[i - 1] < hi) and (i == len(bps) or bps[i] > lo)]
        affs = [affs[i] for i in keep]
    count = 1
    for prev, cur in zip(affs, affs[1:]):
        if prev != cur:
            count += 1
    return oracle.RegionCount(count, "sweep1d", exact=True,
                              activation_histogram=first_layer_hist)


def pattern_lower_bound_by_fractions(net: oracle.ConcreteNet, samples: int,
                                     seed: int, box=(-10, 10)
                                     ) -> oracle.RegionCount:
    """Reference for oracle.pattern_lower_bound."""
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
    return oracle.RegionCount(len(patterns), "pattern_sample", exact=False)


# -- fuzzing documents -----------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12)


@st.composite
def one_site_broken(draw, docs, replacements=json_values):
    """A document from ``docs``; in half of the draws one value anywhere in
    it is replaced (by a draw from ``replacements``) or one key renamed."""
    doc = draw(docs)
    sites = []

    def walk(node):
        if isinstance(node, dict):
            items = list(node.items())
        elif isinstance(node, list):
            items = list(enumerate(node))
        else:
            return
        for key, child in items:
            sites.append((node, key))
            walk(child)

    walk(doc)
    if not sites or draw(st.booleans()):
        return doc
    node, key = draw(st.sampled_from(sites))
    if isinstance(node, dict) and draw(st.booleans()):
        node[draw(st.text(max_size=8))] = node.pop(key)
    else:
        node[key] = draw(replacements)
    return doc


def flatten(stages) -> tuple[archspec.ResolvedStage, ...]:
    """Splice skip/residual bodies in place of their wrappers."""
    out: list[archspec.ResolvedStage] = []
    for st in stages:
        if st.kind in ("skip", "residual"):
            out.extend(flatten(st.body))
        else:
            out.append(st)
    return tuple(out)


# -- dense-matrix reference for the engine -------------------------------------
#
# Every stage as an explicit matrix (row-major lists of ints), applied by
# plain matrix products.  Skip/residual bodies are composed into one matrix
# whose column sums give the wrapper's diagonal.


def ref_mat_vec(a, v):
    v = list(v) + [0] * (len(a[0]) - len(v))
    assert len(v) == len(a[0]), "histogram does not fit the matrix"
    return [sum(w * x for w, x in zip(row, v)) for row in a]


def ref_mat_mat(a, b):
    assert len(a[0]) == len(b), "matrix shapes do not compose"
    out = []
    for arow in a:
        acc = [0] * len(b[0])
        for w, brow in zip(arow, b):
            if w:
                for j, x in enumerate(brow):
                    acc[j] += w * x
        out.append(acc)
    return out


def ref_m_matrix(n, nprime):
    """(nprime+1) x (n+1), entry (i, j) = [i == min(j, nprime)]: clips to
    nprime when nprime < n and zero-pads otherwise."""
    return [[int(i == min(j, nprime)) for j in range(n + 1)]
            for i in range(nprime + 1)]


def ref_b_matrix(provider, nprime):
    """Row-major B: column j is clip(gamma(j, nprime), j)."""
    cols = [h.clip(j) for j, h in enumerate(gamma_column(provider, nprime))]
    return [[c[i] for c in cols] for i in range(nprime + 1)]


def b_columns(b) -> tuple[Histogram, ...]:
    """Columns of a ``transfer.BMatrix``; column j is clip(gamma(j, n'), j)."""
    return tuple(Histogram(col) for col in zip(*b._dense_rows()))


def ref_diag(values):
    return [[values[i] if i == j else 0 for j in range(len(values))]
            for i in range(len(values))]


def _ref_factors(stage, d, provider, halved_c):
    if stage.kind == "dense" and stage.relu:
        return [ref_m_matrix(d, stage.n_out),
                ref_b_matrix(provider, stage.n_out)], stage.n_out
    if stage.kind in ("dense", "linear"):
        # a dense layer without ReLU is linear of rank at most n_out
        rank = stage.rank if stage.kind == "linear" else stage.n_out
        k = min(d, rank, stage.n_out)
        return [ref_m_matrix(d, k), ref_m_matrix(k, stage.n_out)], stage.n_out
    if stage.kind == "maxpool":
        c = (stage.k * stage.k - stage.k) * stage.n_out
        if halved_c:
            c //= 2
        return [ref_diag([gamma_norm(n, c) for n in range(d + 1)]),
                ref_m_matrix(d, stage.n_out)], stage.n_out
    seg, body_out = _ref_segment(stage.body, d, provider, halved_c)
    sums = [sum(row[j] for row in seg) for j in range(d + 1)]
    return [ref_diag(sums)], (d + body_out if stage.kind == "skip" else d)


def _ref_segment(stages, d, provider, halved_c):
    t = ref_m_matrix(d, d)  # identity
    for stage in stages:
        factors, d_next = _ref_factors(stage, d, provider, halved_c)
        for f in factors:
            if len(f[0]) > len(t):
                # ambient grew (skip concatenation): zero-pad first
                t = ref_mat_mat(ref_m_matrix(len(t) - 1, len(f[0]) - 1), t)
            t = ref_mat_mat(f, t)
        d = d_next
    return t, d


def reference_per_stage(stages, variant, n0, halved_c=False):
    """(label, histogram) after every top-level stage, by dense matrices."""
    provider = GammaProvider(variant)
    h = Histogram.unit(n0)
    d = n0
    out = []
    for stage in stages:
        factors, d = _ref_factors(stage, d, provider, halved_c)
        for f in factors:
            h = Histogram(ref_mat_vec(f, h.entries))
        out.append((stage.label or stage.kind, h))
    return tuple(out)


def reference_bound(stages, variant, n0, halved_c=False):
    """The mass of unit(n0) after every stage, by dense matrices."""
    return reference_per_stage(stages, variant, n0, halved_c)[-1][1].l1()


def stage_transposed(ops, w):
    """The transpose of a list of engine primitives applied to w."""
    for op in reversed(ops):
        w = op.transposed(w)
    return w


class CountingProvider(GammaProvider):
    """A gamma provider that records (n', m) of every block of B asked of
    it, and every column ("column", n', j), column sum ("norm", n', j) and
    column-sums list ("sums", n', k) read of it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fetches: list[tuple[int, int]] = []
        self.reads: list[tuple[str, int, int]] = []

    def b_matrix(self, nprime: int, m: int):
        self.fetches.append((nprime, m))
        return super().b_matrix(nprime, m)

    def b_column(self, nprime: int, j: int):
        self.reads.append(("column", nprime, j))
        return super().b_column(nprime, j)

    def norm(self, nprime: int, j: int):
        self.reads.append(("norm", nprime, j))
        return super().norm(nprime, j)

    def column_sums(self, nprime: int, k: int):
        self.reads.append(("sums", nprime, k))
        return super().column_sums(nprime, k)


def random_stage_tree(rng: random.Random, d: int, depth: int = 3,
                      max_len: int = 3, max_width: int = 6):
    """Random stage list at input width d with nested skip/residual bodies.

    Covers every stage kind; residual bodies end on a stage of width d.
    Returns (stages, output width).
    """
    stages = []
    for _ in range(rng.randint(1, max_len)):
        kinds = ["dense", "dense_linear", "linear", "maxpool"]
        if depth > 0:
            kinds += ["skip", "residual"]
        kind = rng.choice(kinds)
        if kind in ("skip", "residual"):
            body, body_out = random_stage_tree(rng, d, depth - 1, max_len,
                                               max_width)
            if kind == "residual" and body_out != d:
                body.append(archspec.ResolvedStage(
                    "dense", body_out, d, relu=rng.random() < 0.7))
            n_out = d + body_out if kind == "skip" else d
            stages.append(archspec.ResolvedStage(kind, d, n_out,
                                                 body=tuple(body)))
            d = n_out
            continue
        n_out = rng.randint(1, max_width)
        if kind == "dense":
            stages.append(archspec.ResolvedStage("dense", d, n_out,
                                                 relu=True))
        elif kind == "dense_linear":
            stages.append(archspec.ResolvedStage("dense", d, n_out))
        elif kind == "linear":
            stages.append(archspec.ResolvedStage(
                "linear", d, n_out, rank=rng.randint(1, max(d, n_out))))
        else:
            stages.append(archspec.ResolvedStage(
                "maxpool", d, n_out, k=rng.choice([2, 4, 9])))
        d = n_out
    return stages, d
