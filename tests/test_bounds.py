from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mcastcap import (
    Multigraph,
    BoundValue,
    TerminalSet,
    analyze_instance,
    appendix_a_delta,
    appendix_b_identity,
    corollary1_gain_bounds,
    corollary2_gain_bound,
    decompose3,
    decompose_general,
    example2_instance,
    theorem1_lower_bounds,
    theorem3_lower_bound,
    theorem3_tree_floor,
)
from mcastcap.bounds import _f_general, bound_table, split_rate_floor


class TestTheorem1:
    def test_lambda_two(self):
        i, h, f = theorem1_lower_bounds(2)
        assert (i, h) == (1, 1)
        assert f.value == Fraction(3, 2) and f.limit

    def test_lambda_five(self):
        i, h, f = theorem1_lower_bounds(5)
        assert i == 3
        assert h == Fraction(7, 2)
        assert f.value == Fraction(15, 4)

    def test_lambda_one_gives_nothing(self):
        i, h, f = theorem1_lower_bounds(1)
        assert i == 0
        assert h == Fraction(1, 2)
        assert f.value == Fraction(3, 4)

    @given(st.integers(1, 500))
    def test_ordering(self, lam):
        i, h, f = theorem1_lower_bounds(lam)
        assert Fraction(i) <= h <= f.value == Fraction(3 * lam, 4)


class TestCorollary1:
    def test_lambda_two(self):
        gi, gh, gf = corollary1_gain_bounds(2)
        assert (gi, gh) == (2, 2)
        assert gf.value == Fraction(4, 3)

    def test_lambda_three(self):
        gi, gh, gf = corollary1_gain_bounds(3)
        assert gi == 3  # the integer gain bound peaks at 3
        assert gh == Fraction(6, 4)
        assert gf.value == Fraction(4, 3)

    def test_lambda_four_half_gain_below_two(self):
        gi, gh, _ = corollary1_gain_bounds(4)
        assert gi == 2
        assert gh == Fraction(8, 5) < 2

    @given(st.integers(2, 500))
    def test_integer_gain_capped_at_three(self, lam):
        gi, gh, _ = corollary1_gain_bounds(lam)
        assert gi <= 3
        if lam > 2:
            assert gh < 2


class TestDecompose3:
    def test_lambda_two(self):
        d = decompose3(2)
        assert (d.k, d.delta, d.big_delta) == (1, 1, 1)

    def test_lambda_four(self):
        d = decompose3(4)
        assert (d.k, d.delta, d.big_delta) == (3, 0, 5)

    def test_lambda_three(self):
        d = decompose3(3)
        assert (d.k, d.delta, d.big_delta) == (2, 0, 7)

    @given(st.integers(1, 2000))
    def test_invariants(self, lam):
        d = decompose3(lam)
        assert (8 * d.k + 3) // 6 + d.delta == lam
        assert (8 * (d.k + 1) + 3) // 6 > lam
        assert d.k >= (6 * lam - 3) // 8


class TestAppendixA:
    def test_residue_classes(self):
        for q in range(4):
            assert appendix_a_delta(4 * q + 4) == 5
            assert appendix_a_delta(4 * q + 1) == 3
            assert appendix_a_delta(4 * q + 2) == 1
            assert appendix_a_delta(4 * q + 3) == 7

    def test_lambda_two(self):
        assert appendix_a_delta(2) == 1

    def test_lambda_seven(self):
        assert appendix_a_delta(7) == 7

    def test_exhaustive_small(self):
        for lam in range(1, 2000):
            d = appendix_a_delta(lam)
            assert d in (1, 3, 5, 7)
            if decompose3(lam).delta == 1:
                assert d == 1


class TestDecomposeGeneral:
    def test_three_terminals(self):
        d = decompose_general(2, 3)
        assert (d.k, d.delta) == (1, 1)

    def test_two_terminals_identity(self):
        d = decompose_general(2, 2)
        assert (d.k, d.delta) == (2, 0)

    def test_five_terminals(self):
        d = decompose_general(2, 5)
        assert (d.k, d.delta) == (1, 0)

    @given(st.integers(2, 200), st.integers(2, 20))
    def test_invariants(self, lam, a):
        d = decompose_general(lam, a)
        assert _f_general(a, d.k) + d.delta == lam
        assert d.k >= (a * lam - a + 2) // (2 * (a - 1))

    @given(st.integers(2, 20), st.integers(0, 100))
    def test_step_size(self, a, k):
        assert _f_general(a, k + 1) - _f_general(a, k) in (1, 2)


class TestAppendixB:
    def test_zero_case(self):
        for lam in range(2, 40):
            for a in range(2, 12):
                big, big_prime, delta, holds = appendix_b_identity(lam, a)
                assert holds
                if big == 0 and delta == 0:
                    assert big_prime == 0
                if delta == 1:
                    assert big_prime != 0

    def test_three_terminals_delta_one(self):
        big, big_prime, delta, holds = appendix_b_identity(2, 3)
        assert delta == 1 and holds
        assert (big_prime + big) % 4 == 3


class TestTheorem3:
    def test_lambda_two_matches_cycle_family(self):
        for a in (3, 4, 5, 8):
            _, f = theorem3_lower_bound(2, a)
            assert f.value == Fraction(a, a - 1)

    def test_examples(self):
        h, f = theorem3_lower_bound(2, 3)
        assert h == 1 and f.value == Fraction(3, 2)
        h, f = theorem3_lower_bound(4, 4)
        assert h == Fraction(5, 2) and f.value == Fraction(8, 3)

    @given(st.integers(2, 200))
    def test_agrees_with_theorem1_at_three_terminals(self, lam):
        _, f = theorem3_lower_bound(lam, 3)
        assert f.value == theorem1_lower_bounds(lam)[2].value


    @pytest.mark.parametrize("lam, a", [(2, 3), (4, 3), (3, 5), (7, 10)])
    def test_half_integer_bound_is_the_split_floor_at_scale_two(self, lam, a):
        half, _ = theorem3_lower_bound(lam, a)
        assert half == split_rate_floor(lam, a, 2) == Fraction(theorem3_tree_floor(2 * lam, a), 2)

    def test_split_floor_at_scale_one_is_the_tree_floor(self):
        # a split graph packed at scale 1 is owed only whole trees
        assert split_rate_floor(4, 3, 1) == theorem3_tree_floor(4, 3) == 2
        assert split_rate_floor(4, 3, 2) == Fraction(5, 2)


class TestBoundTable:
    def test_three_terminal_rows(self):
        rows = bound_table(2, 3)
        assert [rate for _, _, rate, _ in rows] == [
            "integer packing", "half-integer rate", "LP rate", None, None, None,
            "half-integer rate", "LP rate", None]
        assert [str(value) for *_, value in rows] == [
            "1", "1", "3/2 (limit)", "2", "2", "4/3 (limit)", "1", "3/2 (limit)", "4/3 (limit)"]
        assert all(isinstance(value, BoundValue) for *_, value in rows)

    def test_general_rows(self):
        # only Theorem 3 and Corollary 2 apply beyond three terminals
        assert bound_table(4, 4) == [
            ("general half-integer lower bound", "pi_1/2 lower bound (general)", "half-integer rate",
             BoundValue(Fraction(5, 2))),
            ("general fractional lower bound", "pi_f lower bound (general)", "LP rate",
             BoundValue(Fraction(8, 3), limit=True)),
            ("general fractional gain bound", "G_f upper bound (general)", None,
             BoundValue(Fraction(3, 2), limit=True)),
        ]


class TestCorollary2:
    def test_values(self):
        assert corollary2_gain_bound(3).value == Fraction(4, 3)
        assert corollary2_gain_bound(2).value == 1
        assert corollary2_gain_bound(10).value == Fraction(9, 5)

    @given(st.integers(2, 1000))
    def test_strictly_below_two(self, a):
        assert corollary2_gain_bound(a).value < 2


BELOW_DOMAIN = [
    (theorem1_lower_bounds, (0,), "connectivity must be >= 1"),
    (corollary1_gain_bounds, (1,), "connectivity must be >= 2"),
    (decompose3, (0,), "connectivity must be >= 1"),
    (appendix_a_delta, (0,), "connectivity must be >= 1"),
    (decompose_general, (1, 3), "need connectivity >= 2 and >= 2 terminals"),
    (decompose_general, (2, 1), "need connectivity >= 2 and >= 2 terminals"),
    (theorem3_tree_floor, (2, 1), "need >= 2 terminals"),
    (theorem3_lower_bound, (1, 3), "need connectivity >= 2 and >= 2 terminals"),
    (theorem3_lower_bound, (2, 1), "need connectivity >= 2 and >= 2 terminals"),
    (corollary2_gain_bound, (1,), "need >= 2 terminals"),
]


@pytest.mark.parametrize("bound, args, message", BELOW_DOMAIN,
                         ids=[f"{bound.__name__}{args}" for bound, args, _ in BELOW_DOMAIN])
def test_below_domain_is_refused(bound, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        bound(*args)


class TestGammaBracket:
    """The bracket LP rate <= gamma <= eta as ``analyze_instance`` reports it."""

    def test_cycle_family_tight(self):
        g, a = example2_instance(5, (0, 2))
        report = analyze_instance(g, a)
        assert report.lp_rate == report.eta == Fraction(5, 4)

    def test_triangle_tight(self):
        g = Multigraph.build(
            ["s", "r1", "r2"], [("s", "r1", 1), ("r1", "r2", 1), ("r2", "s", 1)]
        )
        report = analyze_instance(g, TerminalSet("s", ("r1", "r2")))
        assert report.lp_rate == report.eta == Fraction(3, 2)

    def test_parallel_pair_tight(self):
        g = Multigraph.build(["s", "t"], [("s", "t", 1), ("s", "t", 1)])
        report = analyze_instance(g, TerminalSet("s", ("t",)))
        assert report.lp_rate == report.eta == 2

    def test_connectivity_one_short_circuits(self):
        g = Multigraph.build(["s", "t"], [("s", "t", 1)])
        report = analyze_instance(g, TerminalSet("s", ("t",)))
        assert report.short_circuit and report.to_dict()["capacity"] == "1"
