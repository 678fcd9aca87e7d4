"""Stage transforms: the B matrix, and the clips and diagonal scalings the
engine applies for dense, max-pooling and skip/residual stages."""
import gc
import math
import random
import sys
import threading
import tracemalloc
from functools import partial
from itertools import accumulate
from operator import mul

import pytest

from conftest import (CountingProvider, Histogram, b_columns, hist_add, leq,
                      random_stage_tree, ref_b_matrix, ref_m_matrix,
                      ref_mat_vec, reference_bound, reference_per_stage,
                      stage_transposed)
from regionbound import engine, gamma, transfer
from regionbound.archspec import ResolvedStage
from regionbound.gamma import ColumnCapExceeded, GammaProvider, gamma_norm

OURS_B6 = [
    (1, 0, 0, 0, 0, 0, 1),
    (0, 7, 0, 0, 1, 6, 6),
    (0, 0, 22, 4, 14, 15, 15),
    (0, 0, 0, 38, 20, 20, 20),
    (0, 0, 0, 0, 22, 15, 15),
    (0, 0, 0, 0, 0, 7, 6),
    (0, 0, 0, 0, 0, 0, 1),
]
SERRA_B6 = [
    (1, 0, 0, 0, 0, 0, 1),
    (0, 7, 0, 0, 0, 6, 6),
    (0, 0, 22, 0, 15, 15, 15),
    (0, 0, 0, 42, 20, 20, 20),
    (0, 0, 0, 0, 22, 15, 15),
    (0, 0, 0, 0, 0, 7, 6),
    (0, 0, 0, 0, 0, 0, 1),
]


def rand_hist(rng, max_len=8, max_entry=20):
    return Histogram(rng.randint(0, max_entry)
                     for _ in range(rng.randint(0, max_len)))


def rendered_rows(b):
    """The rows of B that ``regionbound bmatrix`` writes, as tuples."""
    return [tuple(row) for row in b.dense_rows()]


def stage_map(stage, d, halved_c=False):
    """The engine's primitives for one stage at d_eff = d."""
    ops, _ = engine._stage_map(stage, d, GammaProvider("ours"), halved_c)
    return ops


def dot(v, w):
    return sum(map(mul, v, w))


def bound(stages, n0, halved_c=False):
    return engine.evaluate(stages, "ours", n0, halved_c=halved_c).bound


def skip(*body):
    n_in = body[0].n_in
    return ResolvedStage("skip", n_in, n_in + body[-1].n_out, body=body)


def dense(n_in, n_out, relu=True):
    return ResolvedStage("dense", n_in, n_out, relu=relu)


def maxpool(n_out, k):
    """Max over n_out windows of k nodes each, on n_out * k inputs."""
    return ResolvedStage("maxpool", n_out * k, n_out, k=k)


class TestBMatrix:
    def test_golden_6(self):
        assert rendered_rows(transfer.b_matrix(GammaProvider("ours"), 6)) \
            == OURS_B6
        assert rendered_rows(transfer.b_matrix(GammaProvider("serra"), 6)) \
            == SERRA_B6

    def test_b2_columns(self):
        b = transfer.b_matrix(GammaProvider("ours"), 2)
        assert (b.rows, b.cols) == (3, 3)
        cols = b_columns(b)
        assert cols[0] == Histogram((1, 0, 0))
        assert cols[1] == Histogram((0, 3, 0))
        assert cols[2] == Histogram((1, 2, 1))

    def test_columns_monotone(self):
        # B is monotone in the tail-sum order: each tail sum of column j
        # is at most the same tail sum of column j+1, whether the columns
        # come from the closed forms, from a block or from its dense rows
        for variant in ("ours", "serra"):
            for nprime in range(1, 61):
                b = transfer.b_matrix(GammaProvider(variant), nprime)
                ours = variant == "ours"
                for cols in (
                        [gamma.b_column(nprime, ours, j)
                         for j in range(nprime + 1)],
                        [b.column(j) for j in range(nprime + 1)],
                        b_columns(b)):
                    cols = list(map(Histogram, cols))
                    for j in range(nprime):
                        assert leq(cols[j], cols[j + 1]), (variant, nprime, j)

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_transposed_matches_row_major(self, variant):
        rng = random.Random(13)
        provider = GammaProvider(variant)
        for nprime in range(1, 13):
            b = transfer.b_matrix(provider, nprime)
            dense_bt = [list(col) for col in zip(*ref_b_matrix(provider,
                                                               nprime))]
            for _ in range(10):
                w = [rng.randint(0, 10 ** 30) for _ in range(nprime + 1)]
                assert b.transposed(w) == ref_mat_vec(dense_bt, w)

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_entries_match_reference(self, variant):
        for nprime in [*range(1, 131), 300]:
            b = transfer.b_matrix(GammaProvider(variant), nprime)
            dense_b = ref_b_matrix(GammaProvider(variant), nprime)
            assert rendered_rows(b) == [tuple(row) for row in dense_b]
            assert b_columns(b) == tuple(Histogram(col)
                                         for col in zip(*dense_b))

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_diagonal_columns_threshold(self, variant):
        # column j is gamma_norm(j, n') * unit(j) exactly when
        # 3j < n' + 2 ("ours") or 2j <= n' ("serra")
        diagonal = {"ours": lambda j, n: 3 * j < n + 2,
                    "serra": lambda j, n: 2 * j <= n}[variant]
        for nprime in range(1, 131):
            norms = [gamma_norm(j, nprime) for j in range(nprime + 1)]
            cols = b_columns(transfer.b_matrix(GammaProvider(variant),
                                               nprime))
            for j, col in enumerate(cols):
                unit = Histogram((0,) * j + (norms[j],))
                assert (col == unit) == diagonal(j, nprime), (nprime, j)
                assert gamma.diagonal_column(nprime, variant == "ours", j) \
                    == diagonal(j, nprime)

    def test_band_lies_where_the_closed_form_leaves_binomials(self):
        # the leading m-block keeps exactly the band columns j < m whose
        # rows ceil((n'-j)/2)..min(n'-j, j-1) are not empty, each over
        # exactly those rows; column n' is the 1 in row 0
        for nprime in range(1, 131):
            for m in range(1, nprime + 2):
                assert transfer.b_matrix(GammaProvider("serra"), nprime,
                                         m).band == []
                b = transfer.b_matrix(GammaProvider("ours"), nprime, m)
                spans = {j: (-((j - nprime) // 2), min(nprime - j, j - 1))
                         for j in range(m)}
                cols = [j for j, (lo, hi) in spans.items() if lo <= hi]
                assert [j for j, _, _ in b.band] == cols, (nprime, m)
                for j, lo, g in b.band:
                    assert (lo, lo + len(g) - 1) == spans[j], (nprime, j)
                    assert all(g)
                if nprime < m:
                    assert b.band[-1] == (nprime, 0, (1,))
                if m == nprime + 1:
                    assert sum(len(g) for _, _, g in b.band) \
                        <= nprime ** 2 // 12 + nprime

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_products_on_truncated_inputs(self, variant):
        # B^T w of vectors shorter than the block has len(w) entries, the
        # leading entries of the dense product with w padded by zeros
        rng = random.Random(17)
        provider = GammaProvider(variant)

        def draw(length):
            return [0 if rng.random() < 0.2
                    else rng.randint(10 ** 60 - 10 ** 9, 10 ** 60)
                    for _ in range(length)]

        for nprime in [*range(1, 33), 47, 64, 97]:
            dense_bt = [list(col) for col in zip(*ref_b_matrix(provider,
                                                               nprime))]
            for m in {1, nprime // 3 + 1, nprime // 2 + 1, nprime + 1}:
                b = transfer.b_matrix(GammaProvider(variant), nprime, m)
                assert b.rows == b.cols == m
                for _ in range(6):
                    w = draw(rng.randint(0, m))
                    assert b.transposed(w) == \
                        ref_mat_vec(dense_bt, w)[:len(w)]
                with pytest.raises(ValueError, match="does not fit"):
                    b.transposed([1] * (m + 1))

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_block_is_leading_block_of_reference(self, variant):
        for nprime in range(1, 131):
            dense_b = ref_b_matrix(GammaProvider(variant), nprime)
            for m in range(1, nprime + 2):
                b = transfer.b_matrix(GammaProvider(variant), nprime, m)
                assert b.nprime == nprime
                assert list(b.dense_rows()) == \
                    [row[:m] for row in dense_b[:m]], \
                    (nprime, m)

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_block_is_diagonal_exactly_in_the_scaling_regime(self, variant):
        # at d_eff = e the block of order e is the scaling
        # diag(gamma_norm(j, n')), j <= e, exactly when n' >= 3e - 1
        # ("ours") or n' >= 2e ("serra"); past n'/2 + 2 no block is
        # diagonal, since its columns are not
        scaling = {"ours": lambda e, n: n >= 3 * e - 1,
                   "serra": lambda e, n: n >= 2 * e}[variant]
        for nprime in range(1, 131):
            for e in range(min(nprime, nprime // 2 + 2) + 1):
                b = transfer.b_matrix(GammaProvider(variant), nprime, e + 1)
                norms = [gamma_norm(j, nprime) for j in range(e + 1)]
                diagonal = list(b.dense_rows()) == [
                    [x if i == j else 0 for j in range(e + 1)]
                    for i, x in enumerate(norms)]
                assert diagonal == scaling(e, nprime), (nprime, e)
                if diagonal:
                    assert b.band == []
                    assert b.diag == norms

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_smaller_block_served_from_larger(self, variant):
        rng = random.Random(19)
        for nprime in (9, 12, 20, 40):
            p = GammaProvider(variant)
            big = transfer.b_matrix(p, nprime, 9)
            assert transfer.b_matrix(p, nprime, 5) is big
            assert big.rows == 9
            dense = [row[:5] for row in ref_b_matrix(p, nprime)[:5]]
            dense_t = [list(col) for col in zip(*dense)]
            w = [rng.randint(0, 10 ** 40) for _ in range(5)]
            assert big.transposed(w) == ref_mat_vec(dense_t, w)
            # a larger block replaces it and serves every smaller order
            bigger = transfer.b_matrix(p, nprime, 10)
            assert bigger is not big and bigger.rows == 10
            assert transfer.b_matrix(p, nprime, 9) is bigger

    def test_built_once_per_provider_and_width(self):
        p, q = GammaProvider("ours"), GammaProvider("ours")
        assert transfer.b_matrix(p, 5) is transfer.b_matrix(p, 5)
        assert transfer.b_matrix(p, 5) is not transfer.b_matrix(q, 5)
        assert transfer.b_matrix(p, 4) is not transfer.b_matrix(p, 5)

    def test_built_once_across_threads(self):
        p = GammaProvider("ours")
        seen = [[] for _ in range(4)]

        def work(out):
            for nprime in range(1, 25):
                out.append(transfer.b_matrix(p, nprime))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,))
                       for out in seen]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in seen:
            assert len(out) == 24
            assert all(a is b for a, b in zip(out, seen[0]))

    def test_provider_keeps_only_b(self):
        # B is built without a gamma column (which would take about
        # 1.5 MiB)
        p = GammaProvider("ours")
        gc.collect()
        tracemalloc.start()
        try:
            b = transfer.b_matrix(p, 256)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20
        assert transfer.b_matrix(p, 256) is b

    def test_serra_provider_holds_two_rows(self):
        # diagonal and binomial row, about 85 kB at n' = 512; the dense
        # triangle took about 1.1 MiB
        p = GammaProvider("serra")
        gc.collect()
        tracemalloc.start()
        try:
            b = transfer.b_matrix(p, 512)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 0.1 * 2 ** 20
        assert transfer.b_matrix(p, 512) is b

    def test_cap_applies(self):
        p = GammaProvider("ours", cap=4)
        transfer.b_matrix(p, 4)
        with pytest.raises(ColumnCapExceeded):
            transfer.b_matrix(p, 5)

    def test_cap_applies_to_the_block_order(self):
        p = GammaProvider("ours", cap=4)
        assert transfer.b_matrix(p, 40, 5).rows == 5
        with pytest.raises(ColumnCapExceeded,
                           match=r"n'=40 exceeds cap 4 \(B block of order 5\)"):
            transfer.b_matrix(p, 40, 6)

    def test_block_size_out_of_range(self):
        for m in (0, 8):
            with pytest.raises(ValueError, match="block size"):
                transfer.b_matrix(GammaProvider("ours"), 6, m)


class TestMMatrix:
    """The clip/embed M matrix of a dense stage without ReLU is
    Histogram.clip; the engine applies its transpose."""

    def test_identity_case(self):
        rng = random.Random(2)
        ops = stage_map(ResolvedStage("dense", 4, 4), 4)
        for _ in range(20):
            w = [rng.randint(0, 20) for _ in range(5)]
            assert stage_transposed(ops, w) == w

    def test_embedding(self):
        # embedding into 2 dimensions keeps d_eff at 1 and moves no
        # mass: its transpose is the identity on indices 0..1
        ops, e = engine._stage_map(ResolvedStage("dense", 1, 2), 1,
                                   GammaProvider("ours"), False)
        assert e == 1
        assert stage_transposed(ops, [4, 7]) == [4, 7]

    def test_apply_equals_clip(self):
        # <w, clip(v)> == <M^T w, v>, M^T w being the transpose of the
        # dense reference M
        rng = random.Random(3)
        for _ in range(40):
            v = rand_hist(rng)
            n = max(len(v) - 1, 0)
            nprime = rng.randint(0, 8)
            ops, k = engine._stage_map(
                ResolvedStage("dense", n, nprime), n,
                GammaProvider("ours"), False)
            w = [rng.randint(0, 20) for _ in range(k + 1)]
            mt = [list(col) for col in zip(*ref_m_matrix(n, nprime))]
            assert stage_transposed(ops, w) == ref_mat_vec(mt, w)
            assert dot(stage_transposed(ops, w), v) == dot(w, v.clip(nprime))


class TestMaxpoolDiag:
    """Entry n of a maxpool stage's diagonal is its bound on unit(n)."""

    def test_k4_single_output(self):
        diag = [bound([maxpool(1, 4)], n) for n in range(5)]
        assert diag == [gamma_norm(n, 12) for n in range(5)]
        assert diag[:3] == [1, 13, 79]

    def test_k2_single_output(self):
        assert [bound([maxpool(1, 2)], n) for n in range(3)] == [1, 3, 4]
        assert [bound([maxpool(2, 2)], n) for n in range(5)] == \
            [gamma_norm(n, 4) for n in range(5)]

    def test_halved_constant(self):
        assert bound([maxpool(2, 3)], 1) == gamma_norm(1, 12)
        assert bound([maxpool(2, 3)], 1, halved_c=True) == gamma_norm(1, 6)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate maxout"):
            bound([maxpool(1, 1)], 1)


class TestSkipDiag:
    """Entry j of a skip/residual diagonal is the body's mass on unit(j)."""

    def test_column_norm_example(self):
        (scale,) = stage_map(skip(dense(1, 2)), 1)
        assert scale.factors == [1, 3]  # l1 of (1,0,0) and of (0,3,0)
        assert reference_per_stage([skip(dense(1, 2))], "ours", 1)[0][1] \
            == Histogram((0, 3))
        assert bound([skip(dense(1, 2))], 1) == 3

    def test_identity_segment(self):
        for n0 in range(5):
            (scale,) = stage_map(skip(dense(4, 3, relu=False)), n0)
            assert scale.factors == [1] * (n0 + 1)
            assert bound([skip(dense(4, 3, relu=False))], n0) == 1

    def test_residual_equals_skip(self):
        rng = random.Random(5)
        for _ in range(10):
            d = rng.randint(1, 5)
            body, _ = random_stage_tree(rng, d, depth=1)
            res = ResolvedStage("residual", d, d, body=tuple(body))
            (s,), (r,) = stage_map(skip(*body), d), stage_map(res, d)
            assert s.factors == r.factors

    def test_dominates_segment_columns(self):
        # the segment's histogram on unit(n), from the dense reference,
        # against the skip's factor on unit(n)
        for n in range(3):
            seg = reference_per_stage([dense(2, 3)], "ours", n)[-1][1]
            (scale,) = stage_map(skip(dense(2, 3)), n)
            assert leq(seg, Histogram((0,) * n + (scale.factors[n],)))


class TestComposeApply:
    def test_b2_on_plane(self):
        # B on unit(2) is column 2 of B
        b = transfer.b_matrix(GammaProvider("ours"), 2)
        assert b.column(2) == [1, 2, 1]
        assert sum(b.column(2)) == 4

    def test_identity_composition(self):
        # stages that cut nothing leave the bound unchanged
        plain = [dense(4, 3), dense(3, 2)]
        padded = [dense(4, 5, relu=False), dense(5, 3),
                  ResolvedStage("dense", 3, 3), dense(3, 2)]
        assert [reference_per_stage(plain, "ours", 2)[i][1] for i in (0, 1)] \
            == [reference_per_stage(padded, "ours", 2)[i][1] for i in (1, 3)]
        for n0 in range(1, 5):
            assert bound(plain, n0) == bound(padded, n0) \
                == reference_bound(plain, "ours", n0)

    def test_dimension_mismatch(self):
        b = transfer.b_matrix(GammaProvider("ours"), 3)
        with pytest.raises(ValueError, match="length 5 does not fit 4x4"):
            b.transposed([1] * 5)

    def test_transforms_preserve_order(self):
        # v <= w gives M v <= M w in the tail-sum order: tail J of M v is
        # <M^T t_J, v>, t_J being 1 at the indices >= J
        rng = random.Random(9)
        transposes = [(transfer.b_matrix(GammaProvider("ours"), 6).transposed,
                       6)]
        for stage in (ResolvedStage("dense", 6, 3), maxpool(3, 2),
                      skip(dense(6, 6))):
            ops, e = engine._stage_map(stage, 6, GammaProvider("ours"), False)
            transposes.append((partial(stage_transposed, ops), e))
        for _ in range(30):
            v = rand_hist(rng, max_len=7)
            w = hist_add(v, rand_hist(rng, max_len=7))  # guarantees v <= w
            assert leq(v, w)
            for t, e in transposes:
                for j in range(e + 1):
                    tail = t([0] * j + [1] * (e + 1 - j))
                    assert dot(tail, v) <= dot(tail, w)


class TestBothEnds:
    """Column j of B is built from the closed forms, and B^T on all ones
    is the prefix list of gamma_norm; a ReLU stage reads either one
    without a block."""

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_column_from_closed_forms(self, variant):
        for nprime in range(1, 41):
            b = transfer.b_matrix(GammaProvider(variant), nprime)
            rows = rendered_rows(b)
            for j in range(nprime + 1):
                col = gamma.b_column(nprime, variant == "ours", j)
                assert len(col) == j + 1
                assert tuple(col) + (0,) * (nprime - j) == \
                    tuple(row[j] for row in rows), (nprime, j)

    @pytest.mark.usefixtures("counting_norms")
    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_all_ones_read_column_sums(self, variant):
        # the transposed pass hands a stage its all-ones input as None
        for nprime in range(1, 41):
            p = GammaProvider(variant)
            for m in range(1, nprime + 2):
                b = transfer.b_matrix(p, nprime, m)
                assert b.rows == m
                counting = CountingProvider(variant)
                for k in range(1, m + 1):
                    norms = [gamma_norm(j, nprime) for j in range(k)]
                    assert b.transposed([1] * k) == norms
                    relu = engine._ReLU(counting, nprime, k - 1)
                    assert relu.transposed(None) == norms
                assert counting.fetches == []
                assert counting.reads == [("sums", nprime, k)
                                          for k in range(m)]

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_other_inputs_fetch_the_block(self, variant):
        rng = random.Random(31)
        for nprime in (3, 8, 20, 40):
            for k in range(1, nprime + 1):
                b = transfer.b_matrix(GammaProvider(variant), nprime, k + 1)
                p = CountingProvider(variant)
                relu = engine._ReLU(p, nprime, k)
                w = [rng.randint(2, 9) for _ in range(k + 1)]
                assert relu.transposed(w) == b.transposed(w)
                assert p.fetches == [(nprime, k + 1)]


class TestEndsFromTheBlock:
    """Column j and the column sums of B read from the stored structure of
    a block when the provider holds one that covers the index, and are
    built from binomials, with no block, otherwise."""

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_column_of_every_leading_block(self, variant):
        ours = variant == "ours"
        for nprime in range(1, 41):
            cols = [gamma.b_column(nprime, ours, j)
                    for j in range(nprime + 1)]
            for m in range(1, nprime + 2):  # m = nprime + 1 is all of B
                b = gamma._b_matrix(nprime, ours, m)
                for j in range(m):
                    assert b.column(j) == cols[j], (nprime, m, j)
                with pytest.raises(ValueError, match="does not fit"):
                    b.column(m)

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_norms_with_and_without_a_block(self, variant, monkeypatch):
        # no provider, a cold one, and a warm one whose blocks cover
        # j <= n'/2: an entry or prefix list is read from the block when
        # that covers its index, and stepped from binomials otherwise
        warm = GammaProvider(variant)
        for nprime in range(1, 41):
            transfer.b_matrix(warm, nprime, nprime // 2 + 1)
        cold = GammaProvider(variant)
        norms = {nprime: list(accumulate(math.comb(nprime, s)
                                         for s in range(nprime + 1)))
                 for nprime in range(1, 41)}

        def no_block(*args):
            raise AssertionError("a block was built for a partial sum")

        stepped = []

        def counted(*args):
            stepped.append(args)
            return binomials(*args)

        binomials = gamma._binomials
        monkeypatch.setattr(gamma, "_b_matrix", no_block)
        monkeypatch.setattr(gamma, "_binomials", counted)
        for nprime in range(1, 41):
            for e in range(nprime + 1):
                for p in (None, cold, warm):
                    sums = gamma.Norms(nprime, e, p)
                    del stepped[:]
                    assert list(sums) == norms[nprime][:e + 1], (nprime, e)
                    assert bool(stepped) is not (p is warm
                                                 and e <= nprime // 2)
                    for j in range(e + 1):
                        del stepped[:]
                        assert sums[j] == norms[nprime][j], (nprime, e, j)
                        assert bool(stepped) is not (p is warm
                                                     and j <= nprime // 2)
        assert cold._b_matrices == {}

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_provider_serves_both_ends(self, variant, monkeypatch):
        ours = variant == "ours"
        warm = GammaProvider(variant)
        for nprime in range(1, 41):
            transfer.b_matrix(warm, nprime, nprime // 2 + 1)
        cold = GammaProvider(variant)

        def no_block(*args):
            raise AssertionError("a block was built to serve an end of B")

        built = []

        def counted(f):
            def g(*args):
                built.append(f.__name__)
                return f(*args)
            return g

        expected = {}
        for nprime in range(1, 41):
            for j in range(nprime + 1):
                expected[nprime, j] = gamma.b_column(nprime, ours, j)
        monkeypatch.setattr(gamma, "_b_matrix", no_block)
        monkeypatch.setattr(gamma, "b_column", counted(gamma.b_column))
        for (nprime, j), col in expected.items():
            for p in (warm, cold):
                del built[:]
                assert p.b_column(nprime, j) == col
                # from binomials unless a cached block covers j
                covered = p is warm and j <= nprime // 2
                assert bool(built) is not covered, (nprime, j)
