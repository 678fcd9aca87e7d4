import decimal
import gc
import math
import random
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings

from conftest import (CountingProvider, _ref_factors, _ref_segment,
                      mlp_bound, montufar2017, random_mlp_spec,
                      random_stage_tree, ref_mat_vec, reference_bound,
                      reference_per_stage, serra_theorem1, shaped_documents,
                      stage_transposed)
from regionbound import archspec, cli, engine, gamma, transfer
from regionbound.archspec import ResolvedStage
from regionbound.gamma import ColumnCapExceeded, GammaProvider, gamma_norm


class TestSmallBounds:
    def test_one_hidden_layer_on_a_line(self):
        # two breakpoints split a line into at most 3 intervals
        assert mlp_bound(1, [2]) == 3

    def test_plane_two_cuts(self):
        assert mlp_bound(2, [2]) == 4  # Zaslavsky maximum

    def test_narrow_second_layer(self):
        # chain B_1 M_{2,1} B_2 M_{1,2} e^1, computed by hand
        assert mlp_bound(1, [2, 1]) == 6

    def test_two_wide_layers_on_a_line(self):
        # B_2 M_{2,2} B_2 M_{1,2} e^1: three 1-D regions, each cut into <= 3
        assert mlp_bound(1, [2, 2]) == 9

    def test_single_hidden_3_5(self):
        assert mlp_bound(3, [5]) == 26


class TestSingleLayerExactness:
    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_arrangement_maximum(self, variant):
        for n0 in (1, 3, 7, 12):
            for n1 in (1, 4, 9):
                expect = sum(math.comb(n1, s) for s in range(min(n0, n1) + 1))
                assert mlp_bound(n0, [n1], variant) == expect

    def test_ratio_is_one(self):
        rng = random.Random(17)
        for _ in range(20):
            n0, n1 = rng.randint(1, 20), rng.randint(1, 20)
            spec = random_mlp_spec(rng)  # burn unrelated draws consistently
            assert mlp_bound(n0, [n1], "ours") == mlp_bound(n0, [n1], "serra")


class TestDominanceAndDeterminism:
    def test_serra_never_smaller(self):
        rng = random.Random(23)
        for _ in range(25):
            spec = random_mlp_spec(rng, max_n0=10, max_width=16, max_depth=4)
            stages = archspec.resolve(spec)
            bo = engine.evaluate(stages, "ours", spec.input_nodes).bound
            bs = engine.evaluate(stages, "serra", spec.input_nodes).bound
            assert bo <= bs

    @settings(max_examples=200, deadline=None)
    @given(shaped_documents())
    def test_serra_never_smaller_on_documents(self, doc):
        # every block kind, wrappers nested three deep (ROADMAP item 4)
        spec = archspec.parse(doc)
        ours, serra, _ = engine.compare(archspec.resolve(spec),
                                        spec.input_nodes)
        assert ours.bound <= serra.bound

    def test_deterministic(self):
        spec = archspec.builtin("unet_small")
        stages = archspec.resolve(spec)
        r1 = engine.evaluate(stages, "ours", spec.input_nodes)
        r2 = engine.evaluate(stages, "ours", spec.input_nodes)
        assert r1 == r2

    def test_per_stage_mass_within_ambient(self):
        spec = archspec.mlp(3, 7, 3)
        stages = archspec.resolve(spec)
        # input dimension 3 caps every region's dimension: the reference
        # histograms, and every primitive of the engine, stop at index 3
        ref = reference_per_stage(stages, "ours", 3)
        assert all(len(h) <= 4 for _, h in ref)
        ops, e = engine._stage_maps(stages, 3, GammaProvider("ours"), False)
        assert e == 1  # the readout
        assert all((op.e if isinstance(op, engine._Clip) else op.k) <= 3
                   for op in ops)
        assert engine.evaluate(stages, "ours", 3).bound == ref[-1][1].l1()


class TestPublishedComparators:
    """The "serra" variant is Serra et al. 2018, Theorem 1, and both
    variants lie below Montufar 2017 (references in conftest)."""

    def test_references_by_hand(self):
        # n0 = 2, widths (2, 2): j_1 = 0, 1, 2 give 1*4 + 2*3 + 1*1
        assert serra_theorem1(2, [2, 2]) == 11
        assert montufar2017(2, [2, 2]) == 4 * 4
        assert serra_theorem1(1, [2, 2]) == montufar2017(1, [2, 2]) == 9

    def test_random_mlps(self):
        rng = random.Random(2018)
        for _ in range(300):
            n0 = rng.randint(1, 8)
            widths = [rng.randint(1, 14) for _ in range(rng.randint(1, 5))]
            ours, serra = (mlp_bound(n0, widths, v) for v in ("ours", "serra"))
            assert serra == serra_theorem1(n0, widths), (n0, widths)
            assert ours <= serra <= montufar2017(n0, widths), (n0, widths)


class TestSkipResidual:
    def test_unet_dominates_ae(self):
        b = {}
        for name in ("unet_small", "ae_small"):
            spec = archspec.builtin(name)
            b[name] = engine.evaluate(archspec.resolve(spec), "ours",
                                      spec.input_nodes).bound
        assert b["unet_small"] >= b["ae_small"]

    def test_residual_dominates_plain(self):
        spec = archspec.builtin("resnet_small")
        plain = archspec.strip_wrappers(spec)
        bw = engine.evaluate(archspec.resolve(spec), "ours",
                             spec.input_nodes).bound
        bo = engine.evaluate(archspec.resolve(plain), "ours",
                             plain.input_nodes).bound
        assert bw >= bo

    def test_maxpool_path(self):
        doc = {"input": {"channels": 1, "height": 4, "width": 4},
               "blocks": [{"maxpool": {"window": 2}},
                          {"dense": {"out": 1, "relu": False}}]}
        spec = archspec.parse(doc)
        stages = archspec.resolve(spec)
        report = engine.evaluate(stages, "ours", spec.input_nodes)
        full = engine.evaluate(stages, "ours", spec.input_nodes,
                               halved_c=True)
        assert report.bound >= full.bound >= 1


class TestMatrixReference:
    """The bound is the mass of unit(n0) after the explicit stage
    matrices."""

    @pytest.mark.parametrize("name", ["unet_small", "ae_small",
                                      "resnet_small"])
    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_builtins(self, name, variant):
        spec = archspec.builtin(name)
        stages = archspec.resolve(spec)
        assert engine.evaluate(stages, variant, spec.input_nodes).bound \
            == reference_bound(stages, variant, spec.input_nodes)

    @pytest.mark.parametrize("halved_c", [False, True])
    def test_maxpool_net(self, halved_c):
        conv = {"conv": {"out_channels": 2, "kernel": 3, "stride": 1,
                         "padding": 1, "relu": True}}
        doc = {"input": {"channels": 1, "height": 4, "width": 4},
               "blocks": [conv, {"maxpool": {"window": 2}},
                          {"skip": {"body": [{"maxpool": {"window": 2}},
                                             {"dense": {"out": 3,
                                                        "relu": True}}]}},
                          {"dense": {"out": 4, "relu": True}},
                          {"dense": {"out": 1, "relu": False}}]}
        spec = archspec.parse(doc)
        stages = archspec.resolve(spec)
        got = engine.evaluate(stages, "ours", spec.input_nodes,
                              halved_c=halved_c).bound
        assert got == reference_bound(stages, "ours", spec.input_nodes,
                                      halved_c)

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_random_nested(self, variant):
        rng = random.Random(61)
        for _ in range(40):
            n0 = rng.randint(1, 5)
            stages, _ = random_stage_tree(rng, n0)
            halved_c = rng.random() < 0.5
            got = engine.evaluate(stages, variant, n0,
                                  halved_c=halved_c).bound
            assert got == reference_bound(stages, variant, n0, halved_c)


def _kinds(stages, inside=()):
    """(kind, kinds of the enclosing wrappers) for every nested stage."""
    for st in stages:
        yield st.kind, inside
        yield from _kinds(st.body, inside + (st.kind,))


class TestTransposedPass:
    """Skip/residual factors equal the body's mass on every unit(j)."""

    @pytest.mark.parametrize("halved_c", [False, True])
    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_factors_match_forward_units(self, variant, halved_c):
        rng = random.Random(71)
        provider = GammaProvider(variant)
        seen = []
        for _ in range(48):
            d = rng.randint(1, 5)
            body, body_out = random_stage_tree(rng, d)
            seen.extend(_kinds(body))
            # the body's mass on unit(j): column j's sum of its matrix
            seg, _ = _ref_segment(body, d, provider, halved_c)
            forward = [sum(row[j] for row in seg) for j in range(d + 1)]
            for kind, n_out in (("skip", d + body_out), ("residual", d)):
                stage = ResolvedStage(kind, d, n_out, body=tuple(body))
                (scale,), _ = engine._stage_map(stage, d, provider, halved_c)
                assert scale.factors == forward
        kinds = {kind for kind, _ in seen}
        assert {"dense", "maxpool", "skip", "residual"} <= kinds
        assert any(kind == "maxpool" and inside for kind, inside in seen)
        assert any(kind in ("skip", "residual") and inside
                   for kind, inside in seen)

    @pytest.mark.parametrize("kind", ["skip", "residual"])
    def test_factors_have_d_eff_entries(self, kind):
        # n0 = 3, then width 64, a maxpool to 32 and a wrapper over a
        # width-64 body: mass sits at indices 0..3 only, so the maxpool
        # and wrapper factors have 4 entries, not 65 or 33
        last = 64 if kind == "skip" else 32  # a residual adds back 32
        body = (ResolvedStage("dense", 32, 64, relu=True),
                ResolvedStage("dense", 64, last, relu=True))
        stages = (ResolvedStage("dense", 3, 64, relu=True),
                  ResolvedStage("maxpool", 64, 32, k=2),
                  ResolvedStage(kind, 32, 32 + last if kind == "skip" else 32,
                                body=body))
        ops, e = engine._stage_maps(stages, 3, GammaProvider("ours"), False)
        assert e == 3
        assert [len(list(op.factors)) for op in ops
                if isinstance(op, engine._Scale)] == [4, 4]
        assert engine.evaluate(stages, "ours", 3).bound \
            == reference_bound(stages, "ours", 3)

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_stage_transpose_is_adjoint(self, variant):
        # <w, M h> == <f^T(w), h> for every stage of random trees, with f
        # the stage's primitives at d_eff = d and M its dense reference
        # matrices at the ambient width a; h has mass up to index d only
        rng = random.Random(73)
        provider = GammaProvider(variant)
        for _ in range(30):
            d = rng.randint(1, 5)
            stages, _ = random_stage_tree(rng, d)
            a = d
            for stage in stages:
                halved_c = rng.random() < 0.5
                ops, d_out = engine._stage_map(stage, d, provider, halved_c)
                factors, a = _ref_factors(stage, a, provider, halved_c)
                for _ in range(3):
                    h = [rng.randint(0, 50) for _ in range(d + 1)]
                    w = [rng.randint(0, 50) for _ in range(d_out + 1)]
                    mh = h
                    for m in factors:
                        mh = ref_mat_vec(m, mh)
                    assert not any(mh[d_out + 1:])
                    v = stage_transposed(ops, w)
                    assert len(v) == d + 1
                    assert sum(map(mul, w, mh)) == sum(map(mul, v, h))
                d = d_out


class TestLinearDense:
    """A dense layer without ReLU is a linear map of rank at most n_out."""

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_inner_linear_layer_clips(self, variant):
        # input 10 -> dense 1 (linear) -> dense 20 -> dense 1: the ReLU
        # layer sees a line, which 20 breakpoints cut into 21 pieces
        blocks = (archspec.Dense(1, False), archspec.Dense(20, True),
                  archspec.Dense(1, False))
        stages = archspec.resolve(archspec.NetworkSpec(10, blocks))
        assert engine.evaluate(stages, variant, 10).bound == 21

    def test_d_eff_is_min_of_input_and_n_out(self):
        # embedding 2 dimensions into 5 leaves d_eff at 2
        provider = GammaProvider("ours")
        # clip(2) moves unit(4) to unit(2), so its transpose reads w[2]
        # at index 4; a clip to 5 at d_eff 2 is the identity
        ops, e = engine._stage_map(ResolvedStage("dense", 4, 2), 4, provider,
                                   False)
        assert e == 2
        assert stage_transposed(ops, [5, 6, 7]) == [5, 6, 7, 7, 7]
        ops, e = engine._stage_map(ResolvedStage("dense", 2, 5), 2, provider,
                                   False)
        assert e == 2
        assert stage_transposed(ops, [3, 1, 2]) == [3, 1, 2]


def _maps_built(stages, n0, variant):
    """(stage, d_eff) for every stage map that ``evaluate`` builds, in the
    order built; a wrapper's comes before its body's."""
    seen = []
    stage_map = engine._stage_map

    def recording(stage, e, *args):
        seen.append((stage, e))
        return stage_map(stage, e, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_stage_map", recording)
        engine.evaluate(stages, variant, n0)
    return seen


def _preorder(stages):
    for stage in stages:
        yield stage
        yield from _preorder(stage.body)


class TestDEffWithinNIn:
    """d_eff starts at n0, the first stage's n_in; each stage leaves at
    most its n_out, or keeps d_eff if it is a wrapper, whose n_out >= n_in.
    So no stage's map sees d_eff above its n_in, and a dense stage's clip
    to n_out is the clip to its rank: avgpool and unpool need no other."""

    @staticmethod
    def check(stages, n0):
        for variant in ("ours", "serra"):
            seen = _maps_built(stages, n0, variant)
            assert [stage for stage, _ in seen] == list(_preorder(stages))
            assert all(e <= stage.n_in for stage, e in seen)

    def test_random_stage_trees(self):
        rng = random.Random(89)
        for _ in range(200):
            n0 = rng.randint(1, 6)
            stages, _ = random_stage_tree(rng, n0)
            self.check(stages, n0)

    @settings(max_examples=300, deadline=None)
    @given(shaped_documents())
    def test_architecture_documents(self, doc):
        spec = archspec.parse(doc)
        self.check(archspec.resolve(spec), spec.input_nodes)


class TestInputDimension:
    """n0 is the dimension of the input space, so it cannot exceed the
    first stage's n_in: a larger one bounds an input the net cannot
    have, and is rejected."""

    DOC = {"input": {"channels": 1, "height": 2, "width": 2},
           "blocks": [{"unpool": {"factor": 2}},
                      {"dense": {"out": 8, "relu": True}},
                      {"dense": {"out": 1, "relu": False}}]}

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_n0_above_the_input_is_rejected(self, variant):
        spec = archspec.parse(self.DOC)
        stages = archspec.resolve(spec)
        assert spec.input_nodes == stages[0].n_in == 4
        assert engine.evaluate(stages, variant, 4).bound == 163
        assert engine.evaluate(stages, variant, 3).bound == \
            reference_bound(stages, variant, 3) == 93
        for n0 in (5, 6, 100):
            with pytest.raises(ValueError,
                               match=f"n0 = {n0} exceeds the 4 inputs"):
                engine.evaluate(stages, variant, n0)

    def test_no_stage_takes_any_n0(self):
        assert engine.evaluate((), "ours", 7).bound == 1


class TestMaxpoolMemory:
    def test_large_window_count_stays_small(self):
        # c = (4^2 - 4) * 64 = 768 cut hyperplanes on a 256-dimensional
        # input: the factors need no binomial table of that size
        doc = {"input": {"channels": 1, "height": 16, "width": 16},
               "blocks": [{"maxpool": {"window": 2}},
                          {"dense": {"out": 1, "relu": False}}]}
        spec = archspec.parse(doc)
        stages = archspec.resolve(spec)
        tracemalloc.start()
        try:
            report = engine.evaluate(stages, "ours", spec.input_nodes,
                                     provider=GammaProvider("ours", cap=8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.bound == gamma_norm(256, 768)
        assert peak < 4 * 2 ** 20


class TestBothEnds:
    """The bound walks unit(n0) as c*unit(j) up to the first ReLU stage
    whose column j is not diagonal, and meets c times that column with
    the transposed pass of the primitives after it, from all ones."""

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_bound_is_the_forward_mass(self, variant):
        rng = random.Random(79)
        first = set()
        for _ in range(60):
            n0 = rng.randint(1, 5)
            stages, _ = random_stage_tree(rng, n0)
            first.add((stages[0].kind, stages[0].relu))
            for halved_c in (False, True):
                report = engine.evaluate(stages, variant, n0,
                                         halved_c=halved_c)
                assert report.bound == reference_bound(stages, variant, n0,
                                                       halved_c)
        assert {("dense", True), ("dense", False), ("maxpool", False),
                ("skip", False)} <= first

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_warm_provider_gives_the_fresh_bound(self, variant):
        # a warm provider serves column j and the column sums from its
        # blocks: whole ones, or the leading ones earlier nets left
        rng = random.Random(83)
        whole = GammaProvider(variant)
        for nprime in range(1, 41):
            transfer.b_matrix(whole, nprime)
        shared = CountingProvider(variant)
        first = set()
        for _ in range(60):
            n0 = rng.randint(1, 5)
            stages, _ = random_stage_tree(rng, n0)
            first.add(stages[0].kind)
            for halved_c in (False, True):
                fresh = engine.evaluate(stages, variant, n0,
                                        halved_c=halved_c).bound
                for p in (whole, shared):
                    report = engine.evaluate(stages, variant, n0, provider=p,
                                             halved_c=halved_c)
                    assert report.bound == fresh
                assert fresh == reference_bound(stages, variant, n0, halved_c)
        assert {"dense", "maxpool", "skip"} <= first
        assert len(set(shared.fetches)) > 1

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_depth_one_and_two_build_no_block(self, variant):
        for depth in (1, 2):
            stages = archspec.resolve(archspec.mlp(784, 128, depth))
            p = CountingProvider(variant)
            report = engine.evaluate(stages, variant, 784, provider=p)
            assert p.fetches == []
            assert report.bound == reference_bound(stages, variant, 784)

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_depth_three_builds_one_block(self, variant):
        stages = archspec.resolve(archspec.mlp(784, 128, 3))
        p = CountingProvider(variant)
        report = engine.evaluate(stages, variant, 784, provider=p)
        assert p.fetches == [(128, 129)]
        assert report.bound == reference_bound(stages, variant, 784)

    @pytest.mark.parametrize("stages", [
        # the first ReLU stage is the last: order 6 > 5
        archspec.resolve(archspec.mlp(10, 6, 1)),
        # a first stage of order 6 before a last one of order 2
        (ResolvedStage("dense", 10, 6, relu=True),
         ResolvedStage("dense", 6, 2, relu=True),
         ResolvedStage("dense", 2, 1)),
        # the last ReLU stage, order 6, after one without ReLU
        (ResolvedStage("dense", 10, 8),
         ResolvedStage("dense", 8, 6, relu=True),
         ResolvedStage("dense", 6, 1))])
    def test_cap_applies_to_blocks_never_built(self, stages):
        p = CountingProvider("ours", cap=5)
        with pytest.raises(ColumnCapExceeded, match=r"^layer width n'=6 "
                                                    r"exceeds cap 5$"):
            engine.evaluate(stages, "ours", 10, provider=p)
        assert p.fetches == []
        # under the cap, the same nets read no block either
        p = CountingProvider("ours", cap=6)
        assert engine.evaluate(stages, "ours", 10, provider=p).bound == \
            reference_bound(stages, "ours", 10)
        assert p.fetches == []


class TestWalk:
    """c*unit(j) stays a unit across stage boundaries through clips,
    scalings and ReLU stages whose column j is diagonal."""

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    @pytest.mark.parametrize("n0,width", [(1, 16), (8, 64)])
    def test_diagonal_mlp_fetches_no_block(self, variant, n0, width):
        # every ReLU stage is diagonal at j = n0, so the walk never stops
        stages = archspec.resolve(archspec.mlp(n0, width, 6))
        p = CountingProvider(variant)
        report = engine.evaluate(stages, variant, n0, provider=p)
        assert p.fetches == []
        assert not any(kind == "column" for kind, _, _ in p.reads)
        assert report.bound == gamma_norm(n0, width) ** 6 \
            == reference_bound(stages, variant, n0)

    @pytest.mark.usefixtures("counting_norms")
    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_walk_stops_at_the_first_off_diagonal_relu(self, variant):
        # j = 2 throughout: dense 16 is diagonal at j = 2, the maxpool and
        # the skip scale, and dense 3 is not diagonal (3j >= n' + 2 and
        # 2j > n'); the walk reads one column sum of dense 16, no list,
        # then column 2 of dense 3's B, and meets it with the column sums
        # of the last ReLU stage, fetching no block
        stages = (ResolvedStage("dense", 2, 16, relu=True),
                  ResolvedStage("maxpool", 16, 8, k=2),
                  ResolvedStage("skip", 8, 16, body=(
                      ResolvedStage("dense", 8, 8, relu=True),)),
                  ResolvedStage("dense", 16, 3, relu=True),
                  ResolvedStage("dense", 3, 5, relu=True),
                  ResolvedStage("dense", 5, 1))
        p = CountingProvider(variant)
        report = engine.evaluate(stages, variant, 2, provider=p)
        assert p.reads == [("norm", 16, 2),  # gamma_norm(2, 16)
                           ("sums", 8, 2),  # the skip body, as it is reached
                           ("sums", 5, 2),  # the pass after dense 3
                           ("column", 3, 2)]
        assert p.fetches == []
        assert report.bound == reference_bound(stages, variant, 2)


CIFAR_NET = {
    "input": {"channels": 3, "height": 32, "width": 32},
    "blocks": [
        {"conv": {"out_channels": 16, "kernel": 3, "stride": 1,
                  "padding": 1, "relu": True}},
        {"maxpool": {"window": 2}},
        {"conv": {"out_channels": 32, "kernel": 3, "stride": 1,
                  "padding": 1, "relu": True}},
        {"dense": {"out": 10, "relu": False}}]}


class TestWideLayers:
    """A ReLU stage builds only the leading (d_eff+1)-block of B."""

    def test_cifar_shaped_net_bounds_under_default_cap(self):
        # n' = 16384 and 8192, far above the cap; d_eff = 3072 is not
        spec = archspec.parse(CIFAR_NET)
        ours, serra, ratio = engine.compare(archspec.resolve(spec),
                                            spec.input_nodes)
        assert ours.bound == serra.bound
        assert ratio == 1
        assert len(cli.exact(ours.bound)) == 10773

    def test_wide_mlp_is_two_scalings(self):
        # n' = 4096 >= 3 * 16 - 1, so each layer scales unit(16) by
        # gamma_norm(16, 4096); all of B took 465 MiB
        stages = archspec.resolve(archspec.mlp(16, 4096, 2))
        gc.collect()
        tracemalloc.start()
        try:
            report = engine.evaluate(stages, "ours", 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.bound == sum(math.comb(4096, s)
                                   for s in range(17)) ** 2
        assert peak < 64 * 2 ** 20


class TestOneEntryPerStage:
    """The walk reads one column sum per diagonal ReLU stage, streamed
    with no list, and stops without building column j when the transposed
    pass of the stages after it is all ones."""

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_diagonal_norms_keep_no_list(self, variant):
        # d_eff 3000 at n' = 12000 is diagonal in both variants; the
        # prefix list of gamma_norm(j, 12000), j <= 3000, took 2.4 MiB
        stages = archspec.resolve(archspec.mlp(3000, 12000, 2))
        gc.collect()
        tracemalloc.start()
        try:
            report = engine.evaluate(stages, variant, 3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.bound == gamma_norm(3000, 12000) ** 2
        assert peak < 256 * 2 ** 10

    @pytest.mark.usefixtures("counting_norms")
    @pytest.mark.parametrize("variant", ["ours", "serra"])
    @pytest.mark.parametrize("n0,width", [(784, 128), (64, 100)])
    def test_all_ones_stop_reads_no_column(self, variant, n0, width):
        # column min(n0, width) is off the diagonal, and only the readout
        # follows: the bound is that column's sum
        stages = archspec.resolve(archspec.mlp(n0, width, 1))
        p = CountingProvider(variant)
        report = engine.evaluate(stages, variant, n0, provider=p)
        assert p.reads == [("norm", width, min(n0, width))]
        assert p.fetches == []
        assert report.bound == gamma_norm(n0, width) \
            == reference_bound(stages, variant, n0)

    @pytest.mark.usefixtures("counting_norms")
    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_run_of_equal_stages_reads_one_norm(self, variant):
        # six diagonal stages of width 64 at j = 8, then one of width 40
        stages = archspec.resolve(archspec.mlp(8, 64, 6))
        stages = stages[:-1] + (ResolvedStage("dense", 64, 40, relu=True),
                                stages[-1])
        p = CountingProvider(variant)
        report = engine.evaluate(stages, variant, 8, provider=p)
        assert p.reads == [("norm", 64, 8), ("norm", 40, 8)]
        assert report.bound == gamma_norm(8, 64) ** 6 * gamma_norm(8, 40)

    def test_gamma_norm_edges(self):
        assert gamma_norm(0, 0) == gamma_norm(0, 7) == 1
        assert gamma_norm(5, 0) == 1
        for nprime in range(8):
            for n in range(nprime, nprime + 3):
                assert gamma_norm(n, nprime) == 2 ** nprime
        for args in ((-1, 3), (3, -1), (-1, -1)):
            with pytest.raises(ValueError, match="negative arguments"):
                gamma_norm(*args)

    def test_gamma_norm_is_the_last_prefix_sum(self):
        for nprime in range(61):
            for n in range(61):
                assert gamma_norm(n, nprime) == gamma.Norms(nprime, n)[n] \
                    == list(gamma.Norms(nprime, n))[-1], (n, nprime)


class TestCompareAndSweep:
    def test_compare_deep_narrow(self):
        spec = archspec.mlp(10, 6, 3)
        ours, serra, ratio = engine.compare(archspec.resolve(spec), 10)
        assert serra.bound > ours.bound
        assert Fraction(serra.bound, ours.bound) > 1

    def test_sweep_grid_shape(self):
        rows = list(engine.sweep(10, [6, 8], [1, 2, 3]))
        assert len(rows) == 6
        assert [(r[1], r[2]) for r in rows] == \
            [(6, 1), (6, 2), (6, 3), (8, 1), (8, 2), (8, 3)]
        assert all(r[4] >= r[3] for r in rows)

    @pytest.mark.parametrize("n0,widths", [
        (3, [16, 40]),  # diagonal in both variants, n0 below the width
        (6, [4, 7, 9]),  # off the diagonal, n0 above and below the width
        (12, [5, 12, 30])])  # off the diagonal, then diagonal ("serra")
    def test_sweep_rows_are_evaluate_rows(self, n0, widths):
        # unordered and repeated depths restart or reuse the chain
        depths = [5, 3, 5, 1, 30, 0, 2]
        rows = list(engine.sweep(n0, widths, depths))
        assert [(r[1], r[2]) for r in rows] == \
            [(ni, k) for ni in widths for k in depths]
        for _, ni, k, bo, bs in rows:
            stages = archspec.resolve(archspec.mlp(n0, ni, k))
            assert (bo, bs) == tuple(
                engine.evaluate(stages, v, n0,
                                provider=GammaProvider(v)).bound
                for v in ("ours", "serra")), (ni, k)

    def test_sweep_covers_both_regimes(self):
        # the widths above take the diagonal and the chain path each
        diagonal = {(n0, ni, variant): engine._ReLU(
                        GammaProvider(variant), ni, min(n0, ni)).diagonal(
                            min(n0, ni))
                    for n0, ni in ((3, 16), (3, 40), (6, 4), (6, 7), (6, 9),
                                   (12, 5), (12, 12), (12, 30))
                    for variant in ("ours", "serra")}
        assert set(diagonal.values()) == {True, False}
        assert diagonal[12, 30, "serra"] and not diagonal[12, 30, "ours"]

    def test_sweep_reads_depths_once_per_width(self):
        reads = []

        class Depths:
            def __iter__(self):
                reads.append(None)
                return iter([2, 1])

        assert len(list(engine.sweep(4, [3, 9], Depths()))) == 4
        assert len(reads) == 2

    def test_sweep_errors_match_evaluate(self):
        with pytest.raises(archspec.ArchSpecError):
            list(engine.sweep(4, [3], [1, -1]))
        with pytest.raises(ColumnCapExceeded):
            list(engine.sweep(4, [9], [1], gamma_cap=3))
        # a depth without a ReLU stage checks no cap
        assert list(engine.sweep(4, [9], [0], gamma_cap=3)) == \
            [(4, 9, 0, 1, 1)]

    def test_empty_depths(self):
        assert list(engine.sweep(10, [6, 8], [])) == []
        assert "".join(cli.sweep_csv([])) == cli.SWEEP_HEADER + "\n"


class TestRendering:
    def test_scientific_values(self):
        assert cli.scientific(3) == "3.000×10^0"
        assert cli.scientific(26) == "2.600×10^1"
        assert cli.scientific(123456789, 4) == "1.235×10^8"
        assert cli.scientific(10 ** 100, 3) == "1.00×10^100"

    def test_scientific_roundtrip_within_ulp(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randrange(1, 10 ** rng.randint(1, 60))
            digits = rng.randint(1, 6)
            s = cli.scientific(n, digits)
            mant, exp = s.split("×10^")
            approx = Fraction(mant) * Fraction(10) ** int(exp)
            ulp = Fraction(10) ** (int(exp) - (digits - 1))
            assert abs(approx - n) <= ulp

    def test_ratio_rendering(self):
        assert cli.format_ratio(Fraction(1)) == "1"
        assert cli.format_ratio(Fraction(1031, 1000)) == "1.031"
        big = Fraction(1080, 1000) * 10 ** 405
        assert cli.format_ratio(big) == "1.080×10^405"

    def test_ratio_divides_once_within_precision(self):
        # the second division of the old form repeated the first exactly
        # unless the integer part needs more digits than the precision
        def two_divisions(ratio, digits):
            with decimal.localcontext() as ctx:
                ctx.prec = digits
                d = decimal.Decimal(ratio.numerator) / decimal.Decimal(
                    ratio.denominator)
            exp = d.adjusted()
            if 0 <= exp < digits + 3:
                with decimal.localcontext() as ctx:
                    ctx.prec = max(digits, exp + 1)
                    d = decimal.Decimal(ratio.numerator) / decimal.Decimal(
                        ratio.denominator)
                return str(d)
            return cli._mantissa(d, digits)

        # carries: 10^(p+1) - 5 over 10^q rounds up to a power of ten at
        # p digits, as 99995/10000 gives 10.00 at 4
        cases = [(Fraction(10 ** (p + 1) - 5, 10 ** q), p)
                 for p in range(1, 7) for q in range(0, p + 5)]
        for q in range(0, 5):  # p = 0: decimal has no precision 0
            with pytest.raises(ValueError):
                cli.format_ratio(Fraction(5, 10 ** q), 0)
        rng = random.Random(89)
        for _ in range(2000):
            den = rng.randrange(1, 10 ** rng.randint(1, 30))
            num = den * rng.randrange(1, 10 ** rng.randint(1, 12)) \
                + rng.randrange(den)
            cases.append((Fraction(num, den), rng.randint(1, 8)))
        for ratio, digits in cases:
            assert cli.format_ratio(ratio, digits) == \
                two_divisions(ratio, digits), (ratio, digits)
        assert cli.format_ratio(Fraction(99995, 10000), 4) == "10.00"

    def test_rendering_ignores_the_callers_exponent_range(self):
        # a bound of a million digits overflows the default Emax, 999,999
        cases = [(cli.scientific, 10 ** 20, "1.000×10^20"),
                 (cli.format_ratio, Fraction(10 ** 20, 3), "3.333×10^19")]
        with decimal.localcontext() as ctx:
            ctx.Emax = 10
            for fn, x, text in cases:
                assert fn(x) == text
        for fn, x, text in cases:
            assert fn(x) == text

    def test_gamma_norm_consistency(self):
        # single-hidden-layer bound equals the norm shortcut
        assert mlp_bound(4, [6]) == gamma_norm(4, 6)
