import gc
import json
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (Histogram, build_gamma1n_witness,
                      count_regions_1d_by_fractions, gamma_entry, json_values,
                      layer_of, map_by_full_products, mlp_bound,
                      net_to_json, one_site_broken,
                      pattern_lower_bound_by_fractions, random_concrete_net,
                      random_layer, tent_net, widths)
from regionbound import archspec, engine, oracle
from regionbound.gamma import GammaProvider
from regionbound.oracle import (ConcreteNet, Layer, OracleError,
                                count_regions_1d, net_from_json,
                                pattern_lower_bound)

F = Fraction


def single_layer(points_dirs):
    """1-input ReLU layer from (breakpoint, rightward?) pairs."""
    weights, bias = [], []
    for p, right in points_dirs:
        w = F(1) if right else F(-1)
        weights.append((w,))
        bias.append(-w * F(p))
    return ConcreteNet(1, (Layer(tuple(weights), tuple(bias), True),))


class TestSweep1D:
    def test_two_distinct_breakpoints(self):
        net = single_layer([(0, True), (1, True)])
        assert count_regions_1d(net).count == 3

    def test_coincident_breakpoints_collapse(self):
        net = single_layer([(0, True), (0, False)])
        assert count_regions_1d(net).count == 2

    def test_requires_one_input(self):
        net = ConcreteNet(2, (Layer(((F(1), F(0)),), (F(0),), True),))
        with pytest.raises(OracleError, match="1-D oracle only"):
            count_regions_1d(net)

    def test_inactive_unit_merges(self):
        # unit never crosses zero: network is globally affine
        net = ConcreteNet(1, (
            Layer(((F(0),),), (F(-1),), True),
            Layer(((F(1),),), (F(0),), False),
        ))
        assert count_regions_1d(net).count == 1

    def test_narrow_deep_below_bound(self):
        rng = random.Random(2)
        best = 0
        for _ in range(60):
            net = random_concrete_net(rng, max_width=2, max_depth=2)
            if widths(net)[:-1] != (2, 1):
                continue
            best = max(best, count_regions_1d(net).count)
        assert best <= mlp_bound(1, [2, 1]) == 6

    def test_domain_restriction(self):
        net = single_layer([(0, True), (5, True)])
        full = count_regions_1d(net)
        cut = count_regions_1d(net, domain=(F(-1), F(1)))
        assert full.count == 3
        assert cut.count == 2

    def test_rescaling_invariance(self):
        rng = random.Random(13)
        for _ in range(10):
            net = random_concrete_net(rng, max_width=4, max_depth=2)
            scaled_first = Layer(
                tuple(tuple(3 * w for w in row)
                      for row in net.layers[0].weights),
                tuple(3 * b for b in net.layers[0].bias),
                net.layers[0].relu)
            scaled = ConcreteNet(1, (scaled_first,) + net.layers[1:])
            assert count_regions_1d(net).count == \
                count_regions_1d(scaled).count


def net_bound(net):
    """The "ours" bound of the architecture of a concrete net."""
    blocks = tuple(archspec.Dense(layer.n_out, layer.relu)
                   for layer in net.layers)
    stages = archspec.resolve(archspec.NetworkSpec(net.n0, blocks))
    return engine.evaluate(stages, "ours", net.n0).bound


def line_witness(n0, units):
    """input n0 -> dense 1 (linear, x_0) -> ``units`` ReLUs with
    breakpoints spread over (-10, 10) -> dense 1 (linear, all weights 1)."""
    project = Layer(((F(1),) + (F(0),) * (n0 - 1),), (F(0),), False)
    points = [F(-10) + F(20 * j + 10, units) for j in range(units)]
    relus = Layer(tuple((F(1),) for _ in points),
                  tuple(-p for p in points), True)
    readout = Layer(((F(1),) * units,), (F(0),), False)
    return ConcreteNet(n0, (project, relus, readout))


class TestInnerLinearLayer:
    """Nets whose inner layers include a dense layer without ReLU."""

    def test_exact_counts_within_bound(self):
        rng = random.Random(43)
        for _ in range(40):
            sizes = [rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 8)]
            layers, d = [], 1
            for w, relu in zip(sizes, (True, False, True)):
                layers.append(random_layer(rng, d, w, relu))
                d = w
            layers.append(random_layer(rng, d, 1, False))
            net = ConcreteNet(1, tuple(layers))
            assert count_regions_1d(net).count <= net_bound(net)

    def test_witness_meets_bound(self):
        net = line_witness(1, 20)
        assert count_regions_1d(net).count == net_bound(net) == 21

    def test_pattern_count_of_ten_input_example(self):
        # input 10 -> dense 1 (linear) -> dense 20 -> dense 1
        net = line_witness(10, 20)
        count = pattern_lower_bound(net, 2000, seed=5).count
        assert count <= net_bound(net) == 21
        assert count == 21


class TestWitness:
    def test_published_histograms(self):
        gp = GammaProvider("ours")
        cases = {4: (0, 0, 2, 2, 1), 6: (0, 0, 0, 2, 2, 2, 1), 1: (1, 1)}
        for n, expect in cases.items():
            rc = count_regions_1d(build_gamma1n_witness(n))
            assert rc.activation_histogram == expect
            assert Histogram(rc.activation_histogram) == gamma_entry(gp, 1, n)

    def test_achieves_full_count(self):
        for n in range(1, 13):
            rc = count_regions_1d(build_gamma1n_witness(n))
            assert rc.count == n + 1
            assert sum(rc.activation_histogram) == n + 1


class TestPatternSampling:
    def test_constant_zero_net(self):
        net = ConcreteNet(2, (
            Layer(((F(0), F(0)),) * 3, (F(0),) * 3, True),))
        assert pattern_lower_bound(net, 100, seed=1).count == 1

    def test_counts_activation_regions_not_linear_regions(self):
        # relu(x), relu(-x) read out with weights 0, 0: one affine piece,
        # two activation patterns
        net = ConcreteNet(1, (layer_of([[1], [-1]], [0, 0]),
                              layer_of([[0, 0]], [0], relu=False)))
        assert count_regions_1d(net).count == 1
        assert pattern_lower_bound(net, 200, seed=0).count == 2

    def test_below_engine_bound(self):
        rng = random.Random(19)
        net = random_concrete_net(rng, n0=2, max_width=4, max_depth=2)
        rc = pattern_lower_bound(net, 2000, seed=4)
        hidden = [layer.n_out for layer in net.layers if layer.relu]
        assert rc.count <= mlp_bound(2, hidden)
        assert rc.exact is False

    def test_seed_determinism(self):
        rng = random.Random(29)
        net = random_concrete_net(rng, n0=3, max_width=5, max_depth=2)
        a = pattern_lower_bound(net, 500, seed=7)
        b = pattern_lower_bound(net, 500, seed=7)
        assert a.count == b.count


rationals = (st.integers(-100, 100) | st.fractions(max_denominator=20).map(str)
             | st.sampled_from(["1e3", "-2.5", " 3/4 "]))


@st.composite
def well_formed_nets(draw):
    n0 = draw(st.integers(1, 3))
    layers = []
    d = n0
    for _ in range(draw(st.integers(0, 3))):
        width = draw(st.integers(1, 3))
        layers.append({
            "weights": draw(st.lists(st.lists(rationals, min_size=d,
                                              max_size=d),
                                     min_size=width, max_size=width)),
            "bias": draw(st.lists(rationals, min_size=width, max_size=width)),
            "relu": draw(st.booleans())})
        d = width
    return {"input": n0, "layers": layers}


# a broken value may also be a weight row of any length or a bad rational
net_docs = one_site_broken(
    well_formed_nets(),
    json_values | st.lists(rationals, max_size=4)
    | st.sampled_from(["1/0", "x", "", "1e99999", "1e-99999", 1.5]))


class TestNetJson:
    def test_roundtrip(self):
        rng = random.Random(37)
        net = random_concrete_net(rng, max_width=3, max_depth=2)
        assert net_from_json(net_to_json(net)) == net

    def test_rational_strings(self):
        doc = {"input": 1,
               "layers": [{"weights": [["3/7"]], "bias": ["-1/2"],
                           "relu": True}]}
        net = net_from_json(json.dumps(doc))
        assert net.layers[0].weights[0][0] == F(3, 7)
        assert net.layers[0].bias[0] == F(-1, 2)

    def test_bad_document(self):
        with pytest.raises(OracleError):
            net_from_json({"input": 1})

    @pytest.mark.parametrize("field, value, match", [
        ("input", True, "input must be a positive integer"),
        ("layers", "abc", "layers must be a list"),
        ("weights", 5, "weights must be a list of rows"),
        ("weights", [5], "weights must be a list of rows"),
        ("weights", [[True]], "integers or rational strings"),
        ("weights", [["x/2"]], "not a rational number"),
        ("bias", 1, "bias must be a list"),
        ("weights", [["1e5000"]], "exponent too large"),
    ])
    def test_malformed_field_rejected(self, field, value, match):
        layer = {"weights": [["1"]], "bias": ["0"], "relu": True}
        doc = {"input": 1, "layers": [layer]}
        if field in doc:
            doc[field] = value
        else:
            layer[field] = value
        with pytest.raises(OracleError, match=match):
            net_from_json(doc)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(OracleError, match="expects"):
            ConcreteNet(2, (Layer(((F(1),),), (F(0),), True),))

    @pytest.mark.parametrize("layers, match", [
        ([{"weights": [["1"], ["1", "2"]], "bias": ["0", "1"], "relu": True}],
         "layer 0 row 1 has 2 weights, but the layer expects 1 inputs"),
        ([{"weights": [["1", "2"], ["1"]], "bias": ["0", "1"], "relu": True}],
         "layer 0 row 0 has 2 weights"),
        ([{"weights": [["1"], ["2"]], "bias": ["0", "1"], "relu": True},
          {"weights": [["1", "1"], ["1"]], "bias": ["0", "0"], "relu": True}],
         "layer 1 row 1 has 1 weights, but the layer expects 2 inputs"),
        ([{"weights": [], "bias": [], "relu": True}], "layer 0 has no units"),
    ])
    def test_ragged_weights_rejected(self, layers, match):
        with pytest.raises(OracleError, match=match):
            net_from_json({"input": 1, "layers": layers})

    @pytest.mark.parametrize("layers, match", [
        # a bad string seen before is rejected again, not read from a cache
        ([{"weights": [["x/2"]], "bias": ["x/2"], "relu": True}],
         "not a rational number: 'x/2'"),
        ([{"weights": [["1/2"], ["1e5000"]], "bias": ["1/2", "1e5000"],
           "relu": True}], "exponent too large"),
        # a string seen before does not make a bool or a float acceptable
        ([{"weights": [["1"], [True]], "bias": ["1", "1"], "relu": True}],
         "integers or rational strings"),
        ([{"weights": [["1/2"], [0.5]], "bias": ["1/2", "1/2"],
           "relu": True}], "integers or rational strings"),
        # repeated good strings keep the shape checks of every layer and row
        ([{"weights": [["1/2"], ["1/2"]], "bias": ["1/2", "1/2"],
           "relu": True},
          {"weights": [["1/2", "1/2"], ["1/2"]], "bias": ["1/2", "1/2"],
           "relu": True}],
         "layer 1 row 1 has 1 weights, but the layer expects 2 inputs"),
    ])
    def test_repeated_values_rejected(self, layers, match):
        with pytest.raises(OracleError, match=match):
            net_from_json({"input": 1, "layers": layers})

    def test_repeated_strings_share_one_value(self):
        net = net_from_json({"input": 1, "layers": [
            {"weights": [["3/6"], ["-1/3"]], "bias": ["3/6", "1"],
             "relu": True},
            {"weights": [["-1/3", "3/6"]], "bias": ["1"], "relu": False}]})
        assert net.layers[0].weights == ((F(1, 2),), (F(-1, 3),))
        assert net.layers[1].weights == ((F(-1, 3), F(1, 2)),)
        assert net.layers[0].bias == (F(1, 2), F(1))

    @pytest.mark.parametrize("text", [
        '{"input": 1, "layers": [}',
        '{"input": 1' + "1" * 5000 + ', "layers": []}',
    ], ids=["syntax", "long_integer"])
    def test_unreadable_json_rejected(self, text):
        with pytest.raises(OracleError, match="malformed JSON"):
            net_from_json(text)

    @settings(max_examples=200, deadline=None)
    @given(net_docs)
    def test_fuzzed_documents(self, doc):
        for arg in (doc, json.dumps(doc)):
            try:
                net = net_from_json(arg)
            except OracleError:
                continue
            assert net.n0 == doc["input"]

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=40))
    def test_fuzzed_text(self, text):
        try:
            net_from_json(text)
        except OracleError:
            pass


def oracle_case_net(rng: random.Random, n0: int, seen: Counter) -> ConcreteNet:
    """Random rational net that takes every branch of the scaled oracle.

    Hidden layers may be linear, may have an all-zero weight row (a unit of
    slope 0) and may repeat a unit, scaled by a positive factor, so that two
    units share a breakpoint.  ``seen`` counts the cases drawn.
    """
    def rational():
        return F(rng.randint(-6, 6), rng.randint(1, 6))

    layers = []
    d = n0
    for li in range(rng.randint(1, 3)):
        width = rng.randint(1, 5)
        rows = [tuple(rational() for _ in range(d)) for _ in range(width)]
        bias = [rational() for _ in range(width)]
        if rng.random() < 0.3:
            rows[rng.randrange(width)] = (F(0),) * d
            seen["zero row"] += 1
        if rng.random() < 0.3:
            j = rng.randrange(width)
            k = F(rng.randint(1, 3), rng.randint(1, 2))
            rows.append(tuple(k * w for w in rows[j]))
            bias.append(k * bias[j])
            seen["duplicate unit"] += 1
        relu = rng.random() < 0.75
        if not relu:
            seen["linear hidden layer"] += 1
        layers.append(Layer(tuple(rows), tuple(bias), relu))
        d = len(rows)
    layers.append(Layer((tuple(rational() for _ in range(d)),), (rational(),),
                        False))
    return ConcreteNet(n0, tuple(layers))


class TestFractionReference:
    """The scaled-integer oracle against the plain Fraction sweep/sampler."""

    def test_matches_reference(self):
        rng = random.Random(41)
        seen = Counter()
        for i in range(480):
            n0 = 1 if i < 320 else 2 + i % 2
            seen[f"n0={n0}"] += 1
            net = oracle_case_net(rng, n0, seen)
            seed = rng.randrange(100)
            assert pattern_lower_bound(net, 30, seed) == \
                pattern_lower_bound_by_fractions(net, 30, seed)
            if n0 != 1:
                continue
            assert count_regions_1d(net) == count_regions_1d_by_fractions(net)
            lo = F(rng.randint(-40, 40), rng.randint(1, 4))
            domain = (lo, lo + F(rng.randint(1, 40), rng.randint(1, 4)))
            assert count_regions_1d(net, domain) == \
                count_regions_1d_by_fractions(net, domain)
        assert min(seen.values()) >= 60, seen


def float_tie_net(numerator: int) -> dict:
    """Net whose first layer has roots 1/3 (twice: x - 1/3 and its rescaled
    duplicate 3x - 1), numerator/10**18 and 1/2."""
    return {
        "input": 1,
        "layers": [
            {"weights": [["1"], ["1"], ["3"], ["-1"]],
             "bias": ["-1/3", f"-{numerator}/{10 ** 18}", "-1", "1/2"],
             "relu": True},
            {"weights": [["1", "-2", "1", "1"], ["-1", "1", "0", "2"]],
             "bias": ["0", "-1/7"], "relu": True},
            {"weights": [["1", "-3"]], "bias": ["0"], "relu": False},
        ],
    }


# numerators of roots just below and just above 1/3 that equal it as floats
FLOAT_TIE_BELOW = 333333333333333333
FLOAT_TIE_ABOVE = 333333333333333334


def oracle_1d_shaped_net(rng: random.Random) -> ConcreteNet:
    """Net of the benchmark's oracle_1d shape: width 4-16, depth 1-4, every
    weight p/q with 0 < |p| <= 9 and 1 <= q <= 9, and a linear readout."""
    def rational():
        return F(rng.choice([p for p in range(-9, 10) if p]), rng.randint(1, 9))

    width, depth = rng.randint(4, 16), rng.randint(1, 4)
    layers, d = [], 1
    for _ in range(depth):
        layers.append(Layer(
            tuple(tuple(rational() for _ in range(d)) for _ in range(width)),
            tuple(rational() for _ in range(width)), True))
        d = width
    layers.append(Layer((tuple(rational() for _ in range(d)),), (rational(),),
                        False))
    return ConcreteNet(1, tuple(layers))


class TestExactness:
    """Breakpoints that floats cannot tell apart, domains that end on
    breakpoints, and nets of the benchmark's shape, against the reference."""

    @pytest.mark.parametrize("numerator, histogram", [
        (FLOAT_TIE_BELOW, (0, 1, 1, 1, 1)),
        (FLOAT_TIE_ABOVE, (0, 1, 0, 2, 1)),
    ])
    def test_roots_equal_as_floats_stay_apart(self, numerator, histogram):
        assert float(F(numerator, 10 ** 18)) == 1 / 3
        net = net_from_json(float_tie_net(numerator))
        got = count_regions_1d(net)
        assert got.count == 5
        assert got.activation_histogram == histogram
        assert got == count_regions_1d_by_fractions(net)

    @pytest.mark.parametrize("numerator, domain, count", [
        (FLOAT_TIE_BELOW, (F(FLOAT_TIE_BELOW, 10 ** 18), F(1, 3)), 1),
        (FLOAT_TIE_BELOW, (F(1, 3), F(1, 2)), 2),
        (FLOAT_TIE_BELOW, (F(FLOAT_TIE_BELOW, 10 ** 18), F(1, 2)), 3),
        (FLOAT_TIE_BELOW, (F(-1), F(FLOAT_TIE_BELOW, 10 ** 18)), 1),
        (FLOAT_TIE_BELOW, (F(1, 2), F(2)), 1),
        (FLOAT_TIE_BELOW, (F(-1), F(2)), 5),
        (FLOAT_TIE_ABOVE, (F(1, 3), F(FLOAT_TIE_ABOVE, 10 ** 18)), 1),
        (FLOAT_TIE_ABOVE, (F(FLOAT_TIE_ABOVE, 10 ** 18), F(1, 2)), 2),
        (FLOAT_TIE_ABOVE, (F(1, 3), F(1, 2)), 3),
    ])
    def test_domain_ends_on_breakpoints(self, numerator, domain, count):
        net = net_from_json(float_tie_net(numerator))
        got = count_regions_1d(net, domain)
        assert got.count == count
        assert got == count_regions_1d_by_fractions(net, domain)

    @pytest.mark.parametrize("domain", [(F(1), F(1)), (F(2), F(1, 2))])
    def test_empty_domain(self, domain):
        net = net_from_json(float_tie_net(FLOAT_TIE_BELOW))
        with pytest.raises(OracleError, match="empty domain"):
            count_regions_1d(net, domain)

    def test_benchmark_shaped_nets_match_reference(self):
        rng = random.Random(47)
        for _ in range(60):
            net = oracle_1d_shaped_net(rng)
            assert count_regions_1d(net) == count_regions_1d_by_fractions(net)
            lo = F(rng.randint(-40, 40), rng.randint(1, 4))
            domain = (lo, lo + F(rng.randint(1, 40), rng.randint(1, 4)))
            assert count_regions_1d(net, domain) == \
                count_regions_1d_by_fractions(net, domain)
            # two first-layer breakpoints as the domain's ends
            roots = sorted({-b / w for (w,), b in zip(net.layers[0].weights,
                                                     net.layers[0].bias)})
            domain = (roots[0], roots[-1])
            assert count_regions_1d(net, domain) == \
                count_regions_1d_by_fractions(net, domain)


# no domain, and three that cut each of the nets below somewhere different
FLIP_DOMAINS = [None, (F(-1), F(1)), (F(0), F(3, 2)), (F(1, 2), F(6))]


class TestFlips:
    """Units that flip at a root shared with other units, nets that end on a
    ReLU layer, and ReLU layers after a linear one, against the reference."""

    def check(self, net, domain, counts):
        got = count_regions_1d(net, domain)
        assert got == count_regions_1d_by_fractions(net, domain)
        assert got.count == counts[FLIP_DOMAINS.index(domain)]
        return got

    @pytest.mark.parametrize("domain", FLIP_DOMAINS)
    def test_shared_root_opposite_slopes(self, domain):
        # x - 1 turns on at 1 where -2x + 2 turns off; x + 1 turns on at -1
        net = ConcreteNet(1, (
            layer_of([[1], [-2], [1]], [-1, 2, 1]),
            layer_of([[-1, -2, 1], [-2, 2, 2]], [1, 2]),
            layer_of([[-1, -3]], [0], relu=False)))
        got = self.check(net, domain, [4, 2, 3, 2])
        assert got.activation_histogram == (0, 1, 2)

    @pytest.mark.parametrize("domain", FLIP_DOMAINS)
    def test_three_units_share_a_root(self, domain):
        # x and 3x turn on at 0 where -x turns off; x - 2 turns on at 2
        net = ConcreteNet(1, (
            layer_of([[1], [-1], [3], [1]], [0, 0, 0, -2]),
            layer_of([[1, 2, -1, 1], [-1, 1, 1, -2]], ["-1/2", 1]),
            layer_of([[2, 1]], [0], relu=False)))
        got = self.check(net, domain, [4, 3, 1, 2])
        assert got.activation_histogram == (0, 1, 1, 1)

    @pytest.mark.parametrize("domain", FLIP_DOMAINS)
    def test_ends_on_relu_layer(self, domain):
        # the second layer ignores x - 5, so its pieces on either side of 5
        # are equal: one of them a full pair, the other a flip
        net = ConcreteNet(1, (
            layer_of([[1], [-1], [2], [1]], [0, 1, -3, -5]),
            layer_of([[1, 1, -1, 0], [-1, 2, 1, 0]], ["-1/2", 0])))
        got = self.check(net, domain, [7, 3, 3, 6])
        assert got.activation_histogram == (0, 2, 2, 1)

    @pytest.mark.parametrize("domain", FLIP_DOMAINS)
    def test_relu_after_linear_layer(self, domain):
        net = ConcreteNet(1, (
            layer_of([[1], [-1], [2]], [0, 1, -3]),
            layer_of([[1, -1, 1], [2, 1, -1]], ["1/2", -1], relu=False),
            layer_of([[1, 1], [1, -1], [-1, 2]], [0, "-1/2", 1]),
            layer_of([[1, 2, -1]], [0], relu=False)))
        self.check(net, domain, [7, 3, 3, 5])


@st.composite
def small_step_nets(draw):
    """1-D net with weights in {±1, ±2} and biases in {0, ±1/2, ±1}, so that
    units share roots and neighbouring pieces are often equal; any layer,
    the last included, may be linear or ReLU."""
    weight = st.sampled_from([F(-2), F(-1), F(1), F(2)])
    bias = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1)])
    layers, d = [], 1
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, 4))
        rows = tuple(tuple(draw(weight) for _ in range(d))
                     for _ in range(width))
        layers.append(Layer(rows, tuple(draw(bias) for _ in range(width)),
                            draw(st.booleans())))
        d = width
    return ConcreteNet(1, tuple(layers))


quarters = st.integers(-12, 12).map(lambda k: F(k, 4))


class TestSmallStepNets:
    @settings(max_examples=300, deadline=None)
    @given(small_step_nets(), st.none() | st.tuples(quarters, quarters))
    def test_matches_reference(self, net, domain):
        if domain is not None and domain[0] >= domain[1]:
            domain = None
        assert count_regions_1d(net, domain) == \
            count_regions_1d_by_fractions(net, domain)


class TestTentNet:
    """The folding net of ``conftest.tent_net``."""

    @pytest.mark.parametrize("depth", range(1, 13))
    def test_counts(self, depth):
        got = count_regions_1d(tent_net(depth))
        assert got.count == (3 if depth == 1 else 2 ** depth + 2)
        assert got.activation_histogram == (1, 1, 1)

    @pytest.mark.parametrize("depth", range(1, 8))
    def test_matches_reference(self, depth):
        net = tent_net(depth)
        assert count_regions_1d(net) == count_regions_1d_by_fractions(net)


def small_integer_net(rng: random.Random) -> ConcreteNet:
    """1-D net with every weight and bias in {-2..2}: zero rows, flat units
    and units with coincident roots are common; hidden layers may be
    linear."""
    def value():
        return F(rng.randint(-2, 2))

    layers, d = [], 1
    for _ in range(rng.randint(1, 4)):
        width = rng.randint(1, 5)
        layers.append(Layer(
            tuple(tuple(value() for _ in range(d)) for _ in range(width)),
            tuple(value() for _ in range(width)), rng.random() < 0.75))
        d = width
    layers.append(Layer((tuple(value() for _ in range(d)),), (value(),),
                        False))
    return ConcreteNet(1, tuple(layers))


def has_coincident_roots(layer: Layer) -> bool:
    roots = [-b / w for (w, *_), b in zip(layer.weights, layer.bias) if w]
    return len(set(roots)) < len(roots)


class TestEndSigns:
    """Units evaluated once per breakpoint: roots on breakpoints, flat units
    and zero rows, and linear layers between ReLU layers, against the
    reference."""

    def check(self, net):
        for domain in FLIP_DOMAINS:
            assert count_regions_1d(net, domain) == \
                count_regions_1d_by_fractions(net, domain)

    def test_later_root_on_earlier_breakpoint(self):
        # h0 - 1 and 1 - h0 vanish at the breakpoint 1 of relu(x - 1), and
        # 2·h0 - h1 at the breakpoint 0 of relu(x); each is 0 at one end of
        # an interval and nonzero at the other
        net = ConcreteNet(1, (
            layer_of([[1], [1]], [0, -1]),
            layer_of([[1, 0], [-1, 0], [2, -1]], [-1, 1, 0]),
            layer_of([[1, -2, 1]], [0], relu=False)))
        self.check(net)
        assert count_regions_1d(net).activation_histogram == (1, 1, 1)

    def test_flat_units_on_the_whole_line(self):
        # every first-layer unit is flat, with intercept 1, -1 and 0, and so
        # is every second-layer unit: h0 > 0, -h0 < 0 and h1 + h2 = 0
        net = ConcreteNet(1, (
            layer_of([[0], [0], [0]], [1, -1, 0]),
            layer_of([[1, 0, 0], [-1, 0, 0], [0, 1, 1]], [0, 0, 0]),
            layer_of([[1, 1, 1]], [0], relu=False)))
        self.check(net)
        got = count_regions_1d(net)
        assert (got.count, got.activation_histogram) == (1, (0, 1))

    def test_flat_units_on_both_end_intervals(self):
        # first layer: relu(x), relu(x - 1) and flat units 1, -1 and 0;
        # h0 - h1 + c is c left of 0 and c + 1 right of 1, and -h0 + h1 + c
        # is c and c - 1 there, for c in {1, 0, -1/2, -1}
        net = ConcreteNet(1, (
            layer_of([[1], [1], [0], [0], [0]], [0, -1, 1, -1, 0]),
            layer_of([[1, -1, 0, 0, 0]] * 4 + [[-1, 1, 0, 0, 0]] * 4,
                     [1, 0, "-1/2", -1] * 2),
            layer_of([[1, -1, 2, 1, -2, 1, 3, -1]], [0], relu=False)))
        self.check(net)
        assert count_regions_1d(net).activation_histogram == (0, 1, 1, 1)

    def test_all_zero_weight_rows(self):
        # the second layer's zero rows carry biases 1, -1 and 0
        net = ConcreteNet(1, (
            layer_of([[1], [-1], [0]], [0, 1, 0]),
            layer_of([[0, 0, 0], [1, 1, 0], [0, 0, 0], [0, 0, 0]],
                     [1, "-1/2", -1, 0]),
            layer_of([[2, 1, 1, 1]], [0], relu=False)))
        self.check(net)
        assert count_regions_1d(net).activation_histogram == (0, 2, 1)

    def test_linear_layers_between_relu_layers(self):
        net = ConcreteNet(1, (
            layer_of([[1], [-1], [2], [1]], [0, 1, -3, "-1/3"]),
            layer_of([[1, -1, 1, 2], [2, 1, -1, 0]], ["1/2", -1], relu=False),
            layer_of([[1, -1], [1, 2]], [0, "1/5"], relu=False),
            layer_of([[1, 1], [1, -1], [-1, 2]], [0, "-1/2", 1]),
            layer_of([[1, 2, -1]], [0], relu=False)))
        self.check(net)

    def test_small_integer_pool(self):
        rng = random.Random(59)
        coincident = 0
        for _ in range(150):
            net = small_integer_net(rng)
            coincident += has_coincident_roots(net.layers[0])
            self.check(net)
        assert coincident >= 30


class TestInheritedIntercepts:
    """``_map`` at every layer against the full-product reference."""

    def test_map_matches_full_products(self, monkeypatch):
        real, seen = oracle._map, Counter()

        def checked(weights, bias, pieces, bps):
            got = real(weights, bias, pieces, bps)
            want = map_by_full_products(weights, bias, pieces)
            assert got == want
            for i in range(1, len(pieces)):
                if type(pieces[i]) is list:
                    continue
                # the later full piece's intercepts follow by an exact
                # division at the breakpoint it shares with its neighbour
                p, q = bps[i - 1]
                (left, _), (slopes, _) = want[i - 1], want[i]
                assert all((sl - s) * p % q == 0
                           for sl, s in zip(left, slopes))
                seen["inherited"] += 1
                seen["q > 1"] += q > 1
            seen["calls"] += 1
            return got

        monkeypatch.setattr(oracle, "_map", checked)
        rng = random.Random(61)
        nets = [small_integer_net(rng) for _ in range(60)]
        nets += [oracle_1d_shaped_net(rng) for _ in range(15)]
        nets += [tent_net(5), net_from_json(float_tie_net(FLOAT_TIE_BELOW))]
        for net in nets:
            assert count_regions_1d(net) == count_regions_1d_by_fractions(net)
        assert seen["calls"] >= 200
        assert seen["inherited"] >= 600 and seen["q > 1"] >= 400, seen


class TestScaledOncePerNet:
    """The sweep and the sampler share one conversion of the last net."""

    def test_count_then_sample_scales_each_layer_once(self, monkeypatch):
        calls = []

        def counting(layer):
            calls.append(layer)
            return scaled(layer)

        scaled = oracle._scaled
        monkeypatch.setattr(oracle, "_scaled", counting)
        rng = random.Random(67)
        net, other = (oracle_1d_shaped_net(rng) for _ in range(2))
        count_regions_1d(net)
        count_regions_1d(net, (F(-1), F(1)))
        pattern_lower_bound(net, 20, seed=3)
        assert calls == list(net.layers)
        # another net is scaled afresh, and evicts the first
        assert pattern_lower_bound(other, 20, seed=3) == \
            pattern_lower_bound_by_fractions(other, 20, seed=3)
        assert count_regions_1d(net) == count_regions_1d_by_fractions(net)
        assert calls == list(net.layers + other.layers + net.layers)

    def test_a_deleted_net_is_released(self):
        net = oracle_1d_shaped_net(random.Random(71))
        count_regions_1d(net)
        ref = weakref.ref(net)
        del net
        gc.collect()
        assert ref() is None
