"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line so the suite can be skimmed.
"""
import functools
import math
import random
import time
from fractions import Fraction

from click.testing import CliRunner

from conftest import (Histogram, build_gamma1n_witness, columns_by_recursion,
                      gamma_column, gamma_entry, random_concrete_net,
                      random_mlp_spec)
from regionbound import archspec, engine, oracle
from regionbound.cli import main as cli_main
from regionbound.gamma import GammaProvider, GammaVariant


def criterion(name, limit_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"FAIL {name}")
                raise
            elapsed = time.monotonic() - start
            assert elapsed < limit_s, f"{name} took {elapsed:.1f}s"
            print(f"PASS {name} ({elapsed:.2f}s)")
        return wrapper
    return deco


def _mlp_bounds(spec):
    stages = archspec.resolve(spec)
    return (engine.evaluate(stages, "ours", spec.input_nodes).bound,
            engine.evaluate(stages, "serra", spec.input_nodes).bound)


@criterion("golden matrices n'=6", 1.0)
def test_criterion_1_golden_matrices():
    runner = CliRunner()
    gamma_out = runner.invoke(cli_main, ["gamma", "--nprime", "6"]).output
    ours, serra = gamma_out.split("# gamma[serra][n][6]\n")
    assert [l for l in ours.splitlines() if not l.startswith("#")] == [
        "(0,0,0,0,0,0,1)", "(0,0,0,2,2,2,1)", "(0,0,1,5,9,6,1)",
        "(0,0,4,16,15,6,1)", "(0,1,14,20,15,6,1)", "(0,6,15,20,15,6,1)",
        "(1,6,15,20,15,6,1)"]
    assert serra.splitlines() == [
        "(0,0,0,0,0,0,1)", "(0,0,0,0,0,6,1)", "(0,0,0,0,15,6,1)",
        "(0,0,0,20,15,6,1)", "(0,0,15,20,15,6,1)", "(0,6,15,20,15,6,1)",
        "(1,6,15,20,15,6,1)"]
    b_out = runner.invoke(cli_main, ["bmatrix", "--nprime", "6"]).output
    ours_b, serra_b = b_out.split("# B[serra][6]\n")
    ours_rows = [[int(x) for x in l.split()]
                 for l in ours_b.splitlines() if not l.startswith("#")]
    serra_rows = [[int(x) for x in l.split()] for l in serra_b.splitlines()]
    assert ours_rows == [
        [1, 0, 0, 0, 0, 0, 1],
        [0, 7, 0, 0, 1, 6, 6],
        [0, 0, 22, 4, 14, 15, 15],
        [0, 0, 0, 38, 20, 20, 20],
        [0, 0, 0, 0, 22, 15, 15],
        [0, 0, 0, 0, 0, 7, 6],
        [0, 0, 0, 0, 0, 0, 1]]
    assert serra_rows == [
        [1, 0, 0, 0, 0, 0, 1],
        [0, 7, 0, 0, 0, 6, 6],
        [0, 0, 22, 0, 15, 15, 15],
        [0, 0, 0, 42, 20, 20, 20],
        [0, 0, 0, 0, 22, 15, 15],
        [0, 0, 0, 0, 0, 7, 6],
        [0, 0, 0, 0, 0, 0, 1]]
    assert [r[3] for r in ours_rows] == [0, 0, 4, 38, 0, 0, 0]
    assert [r[3] for r in serra_rows] == [0, 0, 0, 42, 0, 0, 0]


@criterion("mass identity up to n'=128", 30.0)
def test_criterion_2_mass_identity():
    gp = GammaProvider("ours")
    for nprime in range(1, 129):
        total = 0
        for n, row in enumerate(gp.column(nprime)):
            total += math.comb(nprime, n)
            assert sum(row) == total
    # l1 at n = n' is the full power set of hyperplane sign patterns
    assert gamma_entry(gp, 128, 128).l1() == 2 ** 128


@criterion("variant dominance on 200 random MLPs", 120.0)
def test_criterion_3_variant_dominance():
    rng = random.Random(2024)
    for _ in range(200):
        spec = random_mlp_spec(rng, max_n0=16, max_width=32, max_depth=6)
        bo, bs = _mlp_bounds(spec)
        assert bo <= bs


@criterion("single-hidden-layer exactness up to 20", 30.0)
def test_criterion_4_single_layer_exact():
    for n0 in range(1, 21):
        for n1 in range(1, 21):
            expect = sum(math.comb(n1, s) for s in range(min(n0, n1) + 1))
            stages = archspec.resolve(archspec.mlp(n0, n1, 1))
            for variant in ("ours", "serra"):
                assert engine.evaluate(stages, variant, n0).bound == expect


@criterion("oracle soundness and witness tightness", 60.0)
def test_criterion_5_oracle_soundness():
    rng = random.Random(7)
    for _ in range(100):
        net = random_concrete_net(rng, n0=1, max_width=8, max_depth=3)
        count = oracle.count_regions_1d(net).count
        hidden = [layer.n_out for layer in net.layers if layer.relu]
        blocks = tuple(archspec.Dense(w, True) for w in hidden)
        spec = archspec.NetworkSpec(1, blocks + (archspec.Dense(1, False),))
        bound = engine.evaluate(archspec.resolve(spec), "ours", 1).bound
        assert count <= bound
    gp = GammaProvider("ours")
    for n in range(1, 13):
        rc = oracle.count_regions_1d(build_gamma1n_witness(n))
        assert Histogram(rc.activation_histogram) == gamma_entry(gp, 1, n)


@criterion("skip/residual dominance", 120.0)
def test_criterion_6_skip_residual_dominance():
    unet = archspec.builtin("unet_small")
    ae = archspec.builtin("ae_small")
    b_unet = engine.evaluate(archspec.resolve(unet), "ours",
                             unet.input_nodes).bound
    b_ae = engine.evaluate(archspec.resolve(ae), "ours",
                           ae.input_nodes).bound
    assert Fraction(b_unet, b_ae) >= 1
    resnet = archspec.builtin("resnet_small")
    plain = archspec.strip_wrappers(resnet)
    b_res = engine.evaluate(archspec.resolve(resnet), "ours",
                            resnet.input_nodes).bound
    b_plain = engine.evaluate(archspec.resolve(plain), "ours",
                              plain.input_nodes).bound
    assert Fraction(b_res, b_plain) >= 1
    rng = random.Random(99)
    for _ in range(50):
        spec = random_mlp_spec(rng, max_n0=8, max_width=10, max_depth=4)
        hidden = len(spec.blocks) - 1
        i = rng.randrange(hidden)
        j = rng.randint(i + 1, hidden)
        wrapped = archspec.NetworkSpec(
            spec.input_shape,
            spec.blocks[:i] + (archspec.Skip(spec.blocks[i:j]),)
            + spec.blocks[j:])
        base = engine.evaluate(archspec.resolve(spec), "ours",
                               spec.input_nodes).bound
        lifted = engine.evaluate(archspec.resolve(wrapped), "ours",
                                 wrapped.input_nodes).bound
        assert lifted >= base


@criterion("sweep grid ratios", 300.0)
def test_criterion_7_sweep_ratios():
    rows = list(engine.sweep(10, [6, 8, 10, 15, 20, 25], range(1, 11)))
    assert len(rows) == 60
    for _, _, _, bo, bs in rows:
        assert Fraction(bs, bo) >= 1
    # deep grid: the gap between variants widens monotonically with depth
    ratios = []
    for k in range(10, 101, 10):
        stages = archspec.resolve(archspec.mlp(10, 10, k))
        bo = engine.evaluate(stages, "ours", 10).bound
        bs = engine.evaluate(stages, "serra", 10).bound
        ratios.append(Fraction(bs, bo))
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))


@criterion("closed-form cross-check up to n'=64", 60.0)
def test_criterion_8_serra_recursion():
    gp = GammaProvider(GammaVariant.SERRA)
    for nprime, by_rec in enumerate(
            columns_by_recursion(GammaVariant.SERRA, 64), start=1):
        closed = gamma_column(gp, nprime)
        for n in range(nprime + 1):
            assert by_rec[n] == closed[n]
