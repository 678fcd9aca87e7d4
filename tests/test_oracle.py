import json
import random
from fractions import Fraction

import pytest

from conftest import mlp_bound, random_concrete_net
from regionbound import oracle
from regionbound.gamma import GammaProvider
from regionbound.histogram import Histogram
from regionbound.oracle import (ConcreteNet, Layer, OracleError,
                                build_gamma1n_witness, count_regions_1d,
                                net_from_json, net_to_json,
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
            if net.widths[:-1] != (2, 1):
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


class TestWitness:
    def test_published_histograms(self):
        gp = GammaProvider("ours")
        cases = {4: (0, 0, 2, 2, 1), 6: (0, 0, 0, 2, 2, 2, 1), 1: (1, 1)}
        for n, expect in cases.items():
            rc = count_regions_1d(build_gamma1n_witness(n))
            assert rc.activation_histogram == Histogram(expect)
            assert rc.activation_histogram == gp.gamma(1, n)

    def test_achieves_full_count(self):
        for n in range(1, 13):
            rc = count_regions_1d(build_gamma1n_witness(n))
            assert rc.count == n + 1
            assert rc.activation_histogram.l1() == n + 1


class TestPatternSampling:
    def test_constant_zero_net(self):
        net = ConcreteNet(2, (
            Layer(((F(0), F(0)),) * 3, (F(0),) * 3, True),))
        assert pattern_lower_bound(net, 100, seed=1).count == 1

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
