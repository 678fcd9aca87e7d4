import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (Histogram, down_move, hist_add, leq, max_hist,
                      parse_histogram)

hists = st.lists(st.integers(min_value=0, max_value=50), max_size=8).map(
    Histogram)


def H(*entries):
    return Histogram(entries)


class TestBasics:
    def test_unit(self):
        assert Histogram.unit(0) == H(1)
        assert Histogram.unit(3) == H(0, 0, 0, 1)
        assert Histogram.unit(576).l1() == 1

    def test_trailing_zeros_ignored(self):
        assert H(1, 2, 0, 0) == H(1, 2)
        assert hash(H(0, 1, 0)) == hash(H(0, 1))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            H(1, -2)

    def test_parse_render_roundtrip(self):
        for h in (H(), H(1), H(0, 0, 2, 2, 1)):
            assert parse_histogram(h.render()) == h
        assert H(0, 1).render(pad_to=4) == "(0,1,0,0)"


class TestOrder:
    def test_paper_serra_dominance_n4(self):
        assert leq(H(0, 0, 2, 2, 1), H(0, 0, 0, 4, 1))

    def test_hand_evaluated_pair(self):
        # tail sums: (0,2,1) has (3,3,1); (1,1,1) has (3,2,1)
        assert not leq(H(0, 2, 1), H(1, 1, 1))
        assert leq(H(1, 1, 1), H(0, 2, 1))

    @given(hists)
    def test_reflexive(self, v):
        assert leq(v, v)

    @given(hists, hists, hists)
    def test_transitive(self, a, b, c):
        if leq(a, b) and leq(b, c):
            assert leq(a, c)

    @given(hists, hists)
    def test_antisymmetric(self, v, w):
        if leq(v, w) and leq(w, v):
            assert v == w

    @given(hists, hists)
    def test_leq_implies_l1(self, v, w):
        if leq(v, w):
            assert v.l1() <= w.l1()


class TestMax:
    def test_two_elements(self):
        assert max_hist([H(1, 1, 1), H(0, 2, 1)]) == H(0, 2, 1)
        assert max_hist([H(1, 0), H(0, 1)]) == H(0, 1)

    def test_singleton(self):
        assert max_hist([H(0, 3, 1)]) == H(0, 3, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty max"):
            max_hist([])

    @given(st.lists(hists, min_size=1, max_size=4))
    def test_dominates_inputs(self, vs):
        m = max_hist(vs)
        assert all(leq(v, m) for v in vs)


class TestClipDownMove:
    def test_paper_b6_columns(self):
        assert H(0, 2, 2, 2, 1).clip(1) == H(0, 7)
        assert H(0, 1, 14, 20, 15, 6, 1).clip(4) == H(0, 1, 14, 20, 22)

    def test_clip_noop_when_no_mass_above(self):
        v = H(1, 2, 3)
        assert v.clip(5) == v
        assert v.clip(2) == v

    def test_down_move(self):
        assert down_move(H(1, 1)) == H(0, 1, 1)
        assert down_move(H()) == H()

    @given(hists, st.integers(min_value=0, max_value=10))
    def test_clip_preserves_l1(self, v, i):
        assert v.clip(i).l1() == v.l1()

    @given(hists)
    def test_down_move_preserves_l1(self, v):
        assert down_move(v).l1() == v.l1()

    @given(hists, st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=6))
    def test_clip_composition(self, v, a, b):
        assert v.clip(a).clip(b) == v.clip(min(a, b))

    @given(hists, hists)
    def test_down_move_keeps_order(self, v, w):
        if leq(v, w):
            assert leq(down_move(v), down_move(w))

    @given(hists, hists, hists)
    def test_add_keeps_order(self, v, w, u):
        if leq(v, w):
            assert leq(hist_add(v, u), hist_add(w, u))


class TestAdd:
    def test_gamma_recursion_step(self):
        # one step of the n'=4 column recursion; mass checks out at 11
        s = hist_add(H(0, 1, 2, 1, 0), H(0, 0, 3, 3, 1))
        assert s == H(0, 1, 5, 4, 1)
        assert s.l1() == 11

    def test_add_zero(self):
        assert hist_add(H(0, 2, 1), H()) == H(0, 2, 1)

    def test_l1_binomial_row(self):
        assert H(1, 6, 15, 20, 15, 6, 1).l1() == 64
