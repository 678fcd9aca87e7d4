import gc
import math
import tracemalloc
from itertools import accumulate

import pytest

from conftest import (Histogram, columns_by_recursion, gamma_column,
                      gamma_entry, leq, ours_lower)
from regionbound import gamma
from regionbound.gamma import (ColumnCapExceeded, GammaProvider, GammaVariant,
                               gamma_norm)

# Columns of the published n'=6 tables, index n -> (entry_0, ..., entry_6).
OURS_6 = [
    (0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 2, 2, 2, 1),
    (0, 0, 1, 5, 9, 6, 1),
    (0, 0, 4, 16, 15, 6, 1),
    (0, 1, 14, 20, 15, 6, 1),
    (0, 6, 15, 20, 15, 6, 1),
    (1, 6, 15, 20, 15, 6, 1),
]
SERRA_6 = [
    (0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 6, 1),
    (0, 0, 0, 0, 15, 6, 1),
    (0, 0, 0, 20, 15, 6, 1),
    (0, 0, 15, 20, 15, 6, 1),
    (0, 6, 15, 20, 15, 6, 1),
    (1, 6, 15, 20, 15, 6, 1),
]


class TestGoldenColumns:
    def test_ours_6(self):
        gp = GammaProvider("ours")
        for n, expect in enumerate(OURS_6):
            assert gamma_entry(gp, n, 6) == Histogram(expect)

    def test_serra_6(self):
        gp = GammaProvider("serra")
        for n, expect in enumerate(SERRA_6):
            assert gamma_entry(gp, n, 6) == Histogram(expect)

    def test_published_values(self):
        gp = GammaProvider("ours")
        assert gamma_entry(gp, 1, 4) == Histogram((0, 0, 2, 2, 1))
        assert gamma_entry(gp, 3, 6) == Histogram((0, 0, 4, 16, 15, 6, 1))
        assert gamma_entry(gp, 6, 6) == Histogram((1, 6, 15, 20, 15, 6, 1))
        assert gamma_entry(GammaProvider("serra"), 2, 6) == \
            Histogram((0, 0, 0, 0, 15, 6, 1))


class TestSeeds:
    def test_column_one(self):
        gp = GammaProvider("ours")
        assert list(gp.column(1)) == [(0, 1), (1, 1)]

    def test_n_above_nprime_clamps(self):
        gp = GammaProvider("ours")
        assert gamma_entry(gp, 10, 1) == Histogram((1, 1))
        assert gamma_entry(gp, 9, 6) == gamma_entry(gp, 6, 6)

    def test_first_layer_shape(self):
        gp = GammaProvider("ours")
        assert gamma_entry(gp, 1, 1) == Histogram((1, 1))
        assert gamma_entry(gp, 1, 2) == Histogram((0, 2, 1))
        assert gamma_entry(gp, 1, 5) == Histogram((0, 0, 1, 2, 2, 1))

    def test_no_hyperplanes_rejected(self):
        with pytest.raises(ValueError, match="no hyperplanes"):
            GammaProvider("ours").column(0)


class TestNorms:
    def test_examples(self):
        assert gamma_norm(2, 4) == 11
        assert gamma_norm(6, 6) == 64
        assert gamma_norm(0, 12) == 1

    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_mass_identity(self, variant):
        gp = GammaProvider(variant)
        for nprime in (1, 3, 7, 12):
            for n in range(nprime + 1):
                assert gamma_entry(gp, n, nprime).l1() == gamma_norm(n, nprime)

    def test_norm_matches_comb(self):
        for c in range(201):
            expect = 0
            for n in range(c + 2):
                if n <= c:
                    expect += math.comb(c, n)
                assert gamma_norm(n, c) == expect, (n, c)


class TestBoundCondition:
    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_monotone_in_n(self, variant):
        gp = GammaProvider(variant)
        for nprime in (1, 4, 9):
            col = gamma_column(gp, nprime)
            for n in range(nprime):
                assert leq(col[n], col[n + 1])

    def test_no_mass_above_nprime(self):
        gp = GammaProvider("ours")
        for nprime in (2, 5, 11):
            for h in gamma_column(gp, nprime):
                assert len(h) <= nprime + 1

    def test_ours_dominated_by_serra(self):
        go, gs = GammaProvider("ours"), GammaProvider("serra")
        for nprime in (1, 2, 6, 13):
            for n in range(nprime + 1):
                assert leq(gamma_entry(go, n, nprime),
                           gamma_entry(gs, n, nprime))

    def test_diagonal_is_binomial_row(self):
        gp = GammaProvider("ours")
        for n in (1, 4, 10):
            assert gamma_entry(gp, n, n) == Histogram(
                math.comb(n, i) for i in range(n + 1))


class TestSerraRecursion:
    def test_closed_form_satisfies_recursion(self):
        for nprime, by_rec in enumerate(
                columns_by_recursion(GammaVariant.SERRA, 16), start=1):
            if nprime not in (2, 6, 16):
                continue
            assert by_rec == gamma_column(GammaProvider("serra"), nprime)


class TestOursClosedForm:
    def test_matches_recursion_up_to_128(self):
        gp = GammaProvider("ours")
        for nprime, by_rec in enumerate(
                columns_by_recursion(GammaVariant.OURS, 128), start=1):
            assert gamma_column(gp, nprime) == by_rec, nprime

    @pytest.mark.parametrize("nprime", [200, 512])
    def test_large_column(self, nprime):
        col = gamma_column(GammaProvider("ours"), nprime)
        assert len(col) == nprime + 1
        for n, h in enumerate(col):
            assert h.l1() == gamma_norm(n, nprime)
            for i in range(nprime - n + 1, nprime + 1):
                assert h[i] == math.comb(nprime, i)
            if n < nprime:
                assert leq(h, col[n + 1])
        assert col[nprime] == Histogram(
            math.comb(nprime, i) for i in range(nprime + 1))


class TestPascalChain:
    """Every "ours" entry below the binomial suffix, in the gamma rows, in
    column j of B and in the band of B, is L_j[2i - k] of a chain of
    running sums, L_j = accumulate(L_{j-1}); each is checked against the
    per-entry closed form (``conftest.ours_lower``), which shares no
    code with it."""

    def test_each_run_is_the_running_sum_of_the_last(self):
        # L_j[t] = C(j-2+t, j-2) + 2*C(j-2+t, j-1) by math.comb, from
        # L_1 = (1, 2, 2, ...); and the closed-form runs of both parities
        count = 130
        last = [1] + [2] * (count - 1)
        for t in (0, 1):
            assert gamma._ours_run(1, t, count) == last[t::2]
        for j in range(2, 65):
            run = [math.comb(a, j - 2) + 2 * math.comb(a, j - 1)
                   for a in range(j - 2, j - 2 + count)]
            assert run == list(accumulate(last)), j
            for t in (0, 1):
                assert gamma._ours_run(j, t, count) == run[t::2], (j, t)
                assert gamma._ours_run(j, t, t) == []
            last = run

    @staticmethod
    def block_orders(nprime):
        """Every m for n' <= 100; above, the m around the first band
        column, around n'/2 and at the ends: building every block of every
        n' up to 300 takes about 15 s."""
        if nprime <= 100:
            return range(1, nprime + 2)
        start, peak = (nprime + 4) // 3, (nprime + 1) // 2
        return sorted({1, start - 1, start, start + 1, start + 2, peak - 1,
                       peak, peak + 1, peak + 2, peak + 3, nprime,
                       nprime + 1})

    @pytest.mark.parametrize("first", range(1, 301, 50))
    def test_against_the_closed_form_up_to_300(self, first):
        for nprime in range(first, first + 50):
            binom = [math.comb(nprime, i) for i in range(nprime + 1)]
            lower = {j: ours_lower(j, nprime) for j in range(1, nprime + 1)}
            rows = GammaProvider("ours").column(nprime)
            assert next(rows) == (0,) * nprime + (1,)
            for j, row in enumerate(rows, start=1):
                k = nprime - j
                assert list(row) == lower[j] + binom[k + 1:], (nprime, j)
                assert gamma.b_column(nprime, True, j)[:j] == \
                    (lower[j] + binom[k + 1:])[:j], (nprime, j)
            for m in self.block_orders(nprime):
                band = gamma._b_matrix(nprime, True, m).band
                assert [j for j, _, _ in band] == \
                    list(range((nprime + 4) // 3, m)), (nprime, m)
                for j, lo, col in band:
                    assert lo == (nprime - j + 1) // 2
                    assert col == tuple(lower[j][lo:j]), (nprime, m, j)


class TestCap:
    def test_cap_exceeded(self):
        gp = GammaProvider("ours", cap=8)
        gp.column(8)
        with pytest.raises(ColumnCapExceeded, match="cap 8"):
            gp.column(9)


class TestMemory:
    @pytest.mark.parametrize("variant", ["ours", "serra"])
    def test_column_keeps_nothing(self, variant):
        # the whole column takes about 10 MB ("ours") or 3.4 MB ("serra");
        # read row by row it holds a few rows at a time, and once it is
        # read, nothing built for it may stay in the process
        gc.collect()
        tracemalloc.start()
        try:
            rows = sum(len(row) == 641
                       for row in GammaProvider(variant).column(640))
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == 641
        assert peak < 512 * 2 ** 10
        assert held < 64 * 2 ** 10
