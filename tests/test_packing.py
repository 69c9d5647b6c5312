import math
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from mcastcap import (
    Multigraph,
    TerminalSet,
    dump_instance,
    edge_strength,
    enumerate_steiner_trees,
    example2_instance,
    fractional_capacity_lp,
    half_integer_capacity,
    max_integer_packing,
    random_instance,
    sample_instances,
    terminal_cut,
    verify_packing,
)
from mcastcap import analysis, packing, strength
from mcastcap.cli import analyze_instance, main
from mcastcap.connectivity import pair_flow
from mcastcap.errors import (
    CertificateError,
    ResourceLimit,
    SearchTooLarge,
    TooManyTrees,
)
from mcastcap.multigraph import Edge, Reduction, prune_to_core, reduce_core, scale_capacities
from mcastcap.packing import SteinerPacking, solve_tree_lp
from mcastcap.splitting import eliminate_relays
from test_strength import _small_connected_multigraphs


def triangle():
    g = Multigraph.build(["s", "r1", "r2"], [("s", "r1", 1), ("r1", "r2", 1), ("r2", "s", 1)])
    return g, TerminalSet("s", ("r1", "r2"))


def complete4():
    names = ["a", "b", "c", "d"]
    g = Multigraph.build(names, [(u, v, 1) for u, v in combinations(names, 2)])
    return g, TerminalSet("a", ("b", "c", "d"))


def brute_max_packing(g, a):
    """Independent oracle: plain exhaustive search over multisets of minimal
    trees with capacity accounting, no pruning bound."""
    trees = enumerate_steiner_trees(g, a)
    caps = {e.id: e.cap for e in g.edges}

    def rec(start, res, count):
        best = count
        for j in range(start, len(trees)):
            if all(res[e] >= 1 for e in trees[j]):
                for e in trees[j]:
                    res[e] -= 1
                best = max(best, rec(j, res, count + 1))
                for e in trees[j]:
                    res[e] += 1
        return best

    return rec(0, caps, 0)


class TestEnumerate:
    def test_triangle_has_three_paths(self):
        g, a = triangle()
        trees = enumerate_steiner_trees(g, a)
        assert len(trees) == 3
        assert all(len(t) == 2 for t in trees)

    def test_single_edge(self):
        g = Multigraph.build(["s", "t"], [("s", "t", 1)])
        assert len(enumerate_steiner_trees(g, TerminalSet("s", ("t",)))) == 1

    def test_k4_spanning_tree_count(self):
        # Cayley: 4^{4-2} = 16 spanning trees
        g, a = complete4()
        assert len(enumerate_steiner_trees(g, a)) == 16

    def test_limit_enforced(self):
        g, a = complete4()
        with pytest.raises(TooManyTrees):
            enumerate_steiner_trees(g, a, limit=5)

    def test_relay_leaves_excluded(self):
        g, a = example2_instance(3, (0,))
        trees = enumerate_steiner_trees(g, a)
        # 4-cycle with one relay: minimal trees are the three 'cycle minus
        # one edge' paths whose leaves are terminals
        ends = {e.id: (e.u, e.v) for e in g.edges}
        for t in trees:
            assert a.members <= {v for eid in t for v in ends[eid]}


class TestIntegerPacking:
    def test_triangle_only_one_tree_fits(self):
        g, a = triangle()
        k, p = max_integer_packing(solve_tree_lp(g, a))
        assert k == 1 == brute_max_packing(g, a)
        assert verify_packing(g, a, p)

    def test_k4_two_disjoint_spanning_trees(self):
        g, a = complete4()
        k, p = max_integer_packing(solve_tree_lp(g, a))
        assert k == 2 == brute_max_packing(g, a)
        assert verify_packing(g, a, p)

    def test_cycle_family_single_tree(self):
        for na in (3, 4, 5):
            g, a = example2_instance(na, (0,))
            k, _ = max_integer_packing(solve_tree_lp(g, a))
            assert k == 1


class TestHalfInteger:
    def test_triangle(self):
        g, a = triangle()
        r, p = half_integer_capacity(solve_tree_lp(g, a))
        assert r == Fraction(3, 2)
        assert p.denominator == 2
        assert verify_packing(g, a, p)

    def test_single_edge(self):
        g = Multigraph.build(["s", "t"], [("s", "t", 1)])
        r, _ = half_integer_capacity(solve_tree_lp(g, TerminalSet("s", ("t",))))
        assert r == 1

    def test_cycle_family_five_terminals(self):
        g, a = example2_instance(5, (0, 2))
        r, _ = half_integer_capacity(solve_tree_lp(g, a))
        assert r == 1  # two trees in the doubled cycle, halved


class TestFractionalLP:
    def test_triangle(self):
        g, a = triangle()
        r, p = fractional_capacity_lp(solve_tree_lp(g, a))
        assert r == Fraction(3, 2)
        assert verify_packing(g, a, p)

    def test_cycle_family(self):
        for na in (3, 4, 5, 6):
            g, a = example2_instance(na, (0,))
            r, p = fractional_capacity_lp(solve_tree_lp(g, a))
            assert r == Fraction(na, na - 1)
            assert verify_packing(g, a, p)

    def test_single_fat_edge(self):
        g = Multigraph.build(["s", "t"], [("s", "t", 7)])
        r, _ = fractional_capacity_lp(solve_tree_lp(g, TerminalSet("s", ("t",))))
        assert r == 7

    def test_deterministic(self):
        g, a = complete4()
        assert fractional_capacity_lp(solve_tree_lp(g, a)) == fractional_capacity_lp(solve_tree_lp(g, a))


class TestVerify:
    def test_solver_outputs_verify(self):
        g, a = complete4()
        lp = solve_tree_lp(g, a)
        for solve in (max_integer_packing, half_integer_capacity, fractional_capacity_lp):
            assert verify_packing(g, a, solve(lp)[1])

    def test_overloaded_edge_rejected(self):
        g, a = triangle()
        p = SteinerPacking(((frozenset({0, 1}), 2),), 1)
        assert not verify_packing(g, a, p)

    def test_non_spanning_tree_rejected(self):
        g, a = complete4()
        p = SteinerPacking(((frozenset({0}), 1),), 1)
        assert not verify_packing(g, a, p)

    def test_multiplicity_off_the_denominator_rejected(self):
        # loads fit half a unit at any denominator, but a unit count must be
        # a whole number
        g, a = triangle()
        path = frozenset({0, 1})
        assert verify_packing(g, a, SteinerPacking(((path, 1),), 2))
        for d in (1, 2, 3):
            assert not verify_packing(g, a, SteinerPacking(((path, Fraction(1, 2)),), d))
        # a zero denominator would make every load zero units
        assert not verify_packing(g, a, SteinerPacking(((path, 1),), 0))

    def test_units_must_be_positive_ints(self):
        g, a = triangle()
        path = frozenset({0, 1})
        assert verify_packing(g, a, SteinerPacking(((path, 2),), 2))
        # a whole Fraction, a float and a bool are not int unit counts
        for units in (Fraction(1), Fraction(3), 1.0, 0.5, True, 0, -1):
            assert not verify_packing(g, a, SteinerPacking(((path, units),), 2))
        # and the denominator must be an int too
        for d in (2.0, Fraction(2), True):
            assert not verify_packing(g, a, SteinerPacking(((path, 1),), d))

    def test_unknown_edge_rejected(self):
        g, a = triangle()
        assert not verify_packing(g, a, SteinerPacking(((frozenset({0, 3}), 1),), 1))

    def test_cycle_rejected(self):
        # the whole triangle spans and connects the terminals within its
        # capacities, but three edges on three vertices are no tree
        g, a = triangle()
        assert not verify_packing(g, a, SteinerPacking(((frozenset({0, 1, 2}), 1),), 1))

    def test_disconnected_edge_set_rejected(self):
        # the triangle plus a disjoint edge: four edges on five vertices, the
        # count of a tree, in two components
        g = Multigraph.build(["s", "r1", "r2", "x", "y"],
                             [("s", "r1", 1), ("r1", "r2", 1), ("r2", "s", 1), ("x", "y", 1)])
        a = triangle()[1]
        assert not verify_packing(g, a, SteinerPacking(((frozenset({0, 1, 2, 3}), 1),), 1))


class TestProperties:
    def test_monotone_in_capacity(self):
        g, a = triangle()
        boosted = Multigraph.build(
            ["s", "r1", "r2"], [("s", "r1", 2), ("r1", "r2", 1), ("r2", "s", 1)]
        )
        more, base = solve_tree_lp(boosted, a), solve_tree_lp(g, a)
        assert max_integer_packing(more)[0] >= max_integer_packing(base)[0]
        assert fractional_capacity_lp(more)[0] >= fractional_capacity_lp(base)[0]

    def test_monotone_in_edges(self):
        g, a = triangle()
        extra = Multigraph.build(
            ["s", "r1", "r2"], [("s", "r1", 1), ("r1", "r2", 1), ("r2", "s", 1), ("s", "r2", 1)]
        )
        more, base = solve_tree_lp(extra, a), solve_tree_lp(g, a)
        assert fractional_capacity_lp(more)[0] >= fractional_capacity_lp(base)[0]

    def test_sandwich_on_samples(self):
        for g, a in sample_instances(10, 6, 5, 3, seed=300):
            lam = terminal_cut(g, a)[0]
            k, _ = max_integer_packing(solve_tree_lp(g, a))
            half, _ = half_integer_capacity(solve_tree_lp(g, a))
            lp, _ = fractional_capacity_lp(solve_tree_lp(g, a))
            eta, _ = edge_strength(g, a)
            assert k <= half <= lp <= Fraction(lam)
            assert lp <= eta

    def test_three_terminal_tree_guarantee(self):
        # lambda(A) >= floor((8k+3)/6) forces at least k disjoint trees
        for g, a in sample_instances(10, 6, 5, 3, seed=320):
            lam = terminal_cut(g, a)[0]
            k, _ = max_integer_packing(solve_tree_lp(g, a))
            want = 1
            while (8 * (want + 1) + 3) // 6 <= lam:
                want += 1
            assert k >= want

    def test_spanning_tree_guarantee_on_terminal_only_graphs(self):
        # relay-free: global connectivity floor(2k(l-1)/l + (l-2)/l) forces
        # k disjoint spanning trees; with every vertex a terminal, the global
        # connectivity is the terminal connectivity
        for g, a in sample_instances(8, 4, 5, 4, seed=302):
            if g.vertices != a.members:
                continue
            lam_g = terminal_cut(g, a)[0]
            l = len(g.vertices)
            k_guaranteed = 0
            while (2 * (k_guaranteed + 1) * (l - 1) + l - 2) // l <= lam_g:
                k_guaranteed += 1
            k, _ = max_integer_packing(solve_tree_lp(g, a))
            assert k >= k_guaranteed


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_lp_dominates_half_and_integer_on_random_instances(seed):
    try:
        from mcastcap import random_instance

        g, a = random_instance(5, 4, 3, seed)
    except Exception:
        return
    k, _ = max_integer_packing(solve_tree_lp(g, a))
    half, _ = half_integer_capacity(solve_tree_lp(g, a))
    lp, _ = fractional_capacity_lp(solve_tree_lp(g, a))
    assert Fraction(k) <= half <= lp


def with_parallel_edge(g):
    """g with one more unit edge parallel to its first edge."""
    e = g.edges[0]
    return Multigraph(g.vertices, g.edges + (Edge(max(x.id for x in g.edges) + 1, e.u, e.v, 1),))


def varied_samples():
    """Sample instances, copies with an added parallel edge, and x3 copies."""
    base = list(sample_instances(10, 7, 4, 3, seed=11)) + list(sample_instances(3, 8, 5, 4, seed=4))
    return (
        base
        + [(with_parallel_edge(g), a) for g, a in base]
        + [(scale_capacities(g, 3), a) for g, a in base]
    )


def reference_half_integer(g, a):
    """The half-integer packing as a plain integer packing of the doubled
    graph, halved: what the shared factor-2 search must reproduce.  Halving
    keeps each tree's count of the doubled graph as its units of 1/2."""
    k2, packed = max_integer_packing(solve_tree_lp(scale_capacities(g, 2), a))
    assert packed.denominator == 1
    return Fraction(k2, 2), list(packed.trees)


def k4_with_relay(k):
    g = Multigraph.build(
        ["s", "t1", "t2", "x"],
        [("s", "t1", 1), ("s", "t2", 1), ("t1", "t2", 1), ("x", "s", 1), ("x", "t1", 1), ("x", "t2", 1)],
    )
    return scale_capacities(g, k), TerminalSet("s", ("t1", "t2"))


class TestSharedSolve:
    @pytest.mark.parametrize("via_splitting, solves", [(False, 1), (True, 2)])
    def test_one_solve_per_distinct_graph(self, monkeypatch, tmp_path, via_splitting, solves):
        calls = {"_minimal_trees": 0, "_lp_max_total": 0}
        for name in calls:
            original = getattr(packing, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(packing, name, counted)
        instances = [example2_instance(5, (0, 2))] + list(sample_instances(3, 7, 4, 3, seed=11))
        for g, a in instances:
            for name in calls:
                calls[name] = 0
            analyze_instance(g, a, via_splitting=via_splitting)
            assert calls == {"_minimal_trees": solves, "_lp_max_total": solves}
            # pack solves the one LP that analyze does
            path = tmp_path / "instance.json"
            path.write_text(dump_instance(g, a))
            for mode in ("int", "half", "frac"):
                for name in calls:
                    calls[name] = 0
                assert main(["pack", str(path), "--mode", mode]) == 0
                assert calls == {"_minimal_trees": 1, "_lp_max_total": 1}

    def test_half_integer_matches_doubled_graph_reference(self):
        for g, a in varied_samples():
            value, p = half_integer_capacity(solve_tree_lp(g, a))
            want_value, want_trees = reference_half_integer(g, a)
            assert value == want_value
            assert list(p.trees) == want_trees
            assert p.rate == want_value and p.denominator == 2

    def test_shared_solve_gives_identical_results(self):
        for g, a in varied_samples():
            lp = solve_tree_lp(g, a)
            for solve in (max_integer_packing, half_integer_capacity, fractional_capacity_lp):
                assert solve(lp) == solve(solve_tree_lp(g, a))

    def test_solve_holds_classes_and_optimum(self):
        g, a = example2_instance(4, (0,))
        g = with_parallel_edge(g)
        lp = solve_tree_lp(g, a)
        # the parallel copy of edge 0 joins its bundle
        assert lp.reduction.graph == Multigraph(g.vertices, (
            Edge(0, "v0", "x1", 2), Edge(1, "x1", "v1", 1), Edge(2, "v1", "v2", 1),
            Edge(3, "v2", "v3", 1), Edge(4, "v3", "v0", 1),
        ))
        by_id = {e.id: e for e in g.edges}
        bundles = lp.reduction.bundles
        assert sorted(i for entries in bundles.values() for ids, _ in entries for i in ids) == sorted(by_id)
        for c, entries in bundles.items():
            # on a plain graph each entry is one edge, with its capacity
            ids = [i for (i,), _ in entries]
            assert ids == sorted(ids) and ids[0] == c
            assert all({by_id[i].u, by_id[i].v} == {by_id[c].u, by_id[c].v} and cap == by_id[i].cap
                       for (i,), cap in entries)
        assert sum(lp.y) == lp.opt == fractional_capacity_lp(solve_tree_lp(g, a))[0]


class TestSearchOnlyOnAGap:
    @staticmethod
    def counted_searches(monkeypatch):
        calls = []
        original = analysis.edge_strength

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(analysis, "edge_strength", counted)
        return calls

    @pytest.mark.parametrize("via_splitting", [False, True])
    def test_bench_families_need_no_search(self, monkeypatch, via_splitting):
        # each report equals the one of the path that runs the LP to its
        # end and then the search: a bound above lambda is never reached
        calls = self.counted_searches(monkeypatch)
        instances = [*sample_instances(20, 8, 6, 3, 0), *sample_instances(5, 10, 10, 4, 0)]
        instances += [example2_instance(na, (0, 2)) for na in range(5, 9)]
        instances += [k4_with_relay(k) for k in (4, 8, 16)]
        for g, a in instances:
            calls.clear()
            report = analyze_instance(g, a, via_splitting=via_splitting)
            assert calls == []
            with monkeypatch.context() as m:
                m.setattr(analysis, "partition_bound", lambda g, a, lam, side: (Fraction(lam + 1), None))
                want = analyze_instance(g, a, via_splitting=via_splitting)
            assert len(calls) == 1
            assert report.to_dict() == want.to_dict() and report.to_text() == want.to_text()

    def test_non_tight_bracket_runs_the_search(self, monkeypatch):
        calls = self.counted_searches(monkeypatch)
        report = analyze_instance(*non_tight_instance())
        assert len(calls) == 1
        assert (report.lp_rate, report.eta) == (Fraction(9, 5), 2)

    def test_tree_limit_before_the_bound_runs_the_search_once(self, monkeypatch):
        # the 5th draw of sample_instances(25, 18, 18, 5, 2000): its LP
        # passes the tree limit before U = 2, and stops at eta = 3/2
        calls = self.counted_searches(monkeypatch)
        report = analyze_instance(*list(sample_instances(25, 18, 18, 5, 2000))[4])
        assert len(calls) == 1 and report.lp_rate == report.eta == Fraction(3, 2)
        # the all-terminal unit K8 has eta = U = 4, so its tree limit stands
        calls.clear()
        names = [f"v{i}" for i in range(8)]
        g = Multigraph.build(names, [(u, v, 1) for u, v in combinations(names, 2)])
        with pytest.raises(TooManyTrees):
            analyze_instance(g, TerminalSet(names[0], tuple(names[1:])))
        assert len(calls) == 1

    def test_eta_from_the_tree_limit_is_not_searched_again(self, monkeypatch):
        # with a bound of 3 the non-tight instance's LP is made to pass the
        # tree limit; eta = 2 stops the second solve short of it at LP
        # 9/5, and analyze takes that eta
        calls = self.counted_searches(monkeypatch)
        solve = analysis.solve_tree_lp

        def limited(g, a, upper=None):
            if upper == 3:
                raise TooManyTrees("tree limit")
            return solve(g, a, upper)

        monkeypatch.setattr(analysis, "partition_bound", lambda g, a, lam, side: (Fraction(3), None))
        monkeypatch.setattr(analysis, "solve_tree_lp", limited)
        report = analyze_instance(*non_tight_instance())
        assert len(calls) == 1
        assert (report.lp_rate, report.eta) == (Fraction(9, 5), 2)


class TestPackingReuse:
    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        original = getattr(analysis, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(analysis, name, counted)
        return calls

    def test_rates_equal_the_standalone_solvers(self, monkeypatch):
        # analyze takes half = k or LP = half from a packing it has checked;
        # each rate equals the solver's own on an unbounded solve of the input
        half_calls = self.counted(monkeypatch, "half_integer_capacity")
        lp_calls = self.counted(monkeypatch, "fractional_capacity_lp")
        instances = [*sample_instances(20, 8, 6, 3, 0), *sample_instances(5, 10, 10, 4, 0), *varied_samples()]
        instances += [example2_instance(na, (0, 2)) for na in range(3, 9)]
        instances += [k4_with_relay(k) for k in (2, 4, 8, 16)] + [non_tight_instance()]
        reports = 0
        for g, a in instances:
            report = analyze_instance(g, a)
            if report.short_circuit:
                continue
            lp = solve_tree_lp(g, a)
            want = (max_integer_packing(lp)[0], half_integer_capacity(lp)[0], fractional_capacity_lp(lp)[0])
            assert (report.k_int, report.half_rate, report.lp_rate) == want
            reports += 1
        # each search is skipped on some instances and runs on others
        assert reports > len(half_calls) > 0 and reports > len(lp_calls) > 0

    def test_half_integer_search_runs_only_below_its_goal(self, monkeypatch):
        # 2k = floor(2 LP) on K4 + relay and on the a >= 5 cycles, where
        # k = 1 and LP = a/(a - 1) < 3/2; the 3-terminal cycle has k = 1
        # below its goal 3
        calls = self.counted(monkeypatch, "half_integer_capacity")
        for g, a in [*(k4_with_relay(k) for k in (4, 8, 16)), *(example2_instance(na, (0, 2)) for na in range(5, 9))]:
            report = analyze_instance(g, a)
            assert report.half_rate == report.k_int
        assert calls == []
        report = analyze_instance(*example2_instance(3))
        assert len(calls) == 1 and (report.k_int, report.half_rate) == (1, Fraction(3, 2))


def counted_bound_evaluations(monkeypatch):
    """Count the branch-and-bound nodes that check their bound from now on."""
    calls = []
    original = packing._can_beat

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(packing, "_can_beat", counted)
    return calls


class TestDepthGuard:
    def test_resource_errors_share_a_base(self):
        for error in (TooManyTrees, SearchTooLarge):
            assert issubclass(error, ResourceLimit)

    def test_budget_exhausted_short_of_goal_refused(self, monkeypatch):
        # the 12th draw of sample_instances(20, 8, 8, 4, 20): the LP vertex
        # rounds to 1 of the 5 half-integer trees, and its completion to 4
        g, a = list(sample_instances(20, 8, 8, 4, 20))[11]
        lp = solve_tree_lp(g, a)
        assert sum(int(2 * y) for y in lp.y) == 1 < int(2 * lp.opt) == 5
        calls = counted_bound_evaluations(monkeypatch)
        assert half_integer_capacity(lp)[0] == Fraction(5, 2)
        assert len(calls) == 39
        monkeypatch.setattr(packing, "MAX_SEARCH_NODES", 4)
        calls.clear()
        with pytest.raises(
            SearchTooLarge,
            match=r"half-integer branch and bound used 4 nodes, the budget MAX_SEARCH_NODES = 4, "
            r"and the packing of 4 trees it started from is short of the goal of 5",
        ):
            half_integer_capacity(lp)
        # the root is kept without a check
        assert len(calls) == 3

    def test_both_searches_share_one_budget(self, monkeypatch):
        # the search over the four stars of K4 visits 5 nodes and ends
        # short, and the search over every tree then needs 6 more: a
        # budget of 10 would hold either alone, but not both
        monkeypatch.setattr(packing, "MAX_SEARCH_NODES", 10)
        with pytest.raises(
            SearchTooLarge,
            match=r"^integer branch and bound used 10 nodes, the budget MAX_SEARCH_NODES = 10, "
            r"and the packing of 1 trees it started from is short of the goal of 2$",
        ):
            max_integer_packing(stars_first_lp())
        monkeypatch.setattr(packing, "MAX_SEARCH_NODES", 11)
        assert max_integer_packing(stars_first_lp())[0] == 2

    def test_budget_exhausted_at_goal_returns_rounded_packing(self, monkeypatch):
        # a budget of one node is enough: where rounding meets the goal no
        # search runs
        g, a = k4_with_relay(16)
        lp = solve_tree_lp(g, a)
        monkeypatch.setattr(packing, "MAX_SEARCH_NODES", 1)
        calls = counted_bound_evaluations(monkeypatch)
        for factor, solve in ((1, max_integer_packing), (2, half_integer_capacity)):
            # floor(factor * y_j) copies of tree j
            rounded = [(t, int(factor * y)) for t, y in zip(lp.trees, lp.y) if int(factor * y)]
            assert packing._branch_and_bound(lp, factor, "test") == (factor * 40, rounded)
            value, p = solve(lp)
            assert value == p.rate == 40 and verify_packing(g, a, p)
        assert calls == []

    def test_seeded_search_walks_straight_to_the_goal(self, monkeypatch):
        # rounding the LP vertex meets the goal, so no node checks its bound
        calls = counted_bound_evaluations(monkeypatch)
        g, a = k4_with_relay(16)
        value, p = half_integer_capacity(solve_tree_lp(g, a))
        assert value == 40 and verify_packing(g, a, p)
        # half-integer goal 1000
        report = analyze_instance(*k4_with_relay(200))
        assert report.k_int == report.half_rate == 500
        assert calls == []

    def test_largest_admitted_instances_pack(self):
        # K4 + relay x1000 aims for 5000 half-integer trees
        g, a = k4_with_relay(1000)
        value, p = half_integer_capacity(solve_tree_lp(g, a))
        assert value == 2500 and verify_packing(g, a, p)
        # the all-terminal triangle of capacity 661: the rounded LP vertex
        # packs 990 of the 991 trees, so the search goes 991 deep and keeps
        # its path on a list, not on the interpreter stack
        g = Multigraph.build(["s", "t1", "t2"], [("s", "t1", 661), ("t1", "t2", 661), ("t2", "s", 661)])
        lp = solve_tree_lp(g, TerminalSet("s", ("t1", "t2")))
        assert sum(int(y) for y in lp.y) == 990 < int(lp.opt) == 991
        value, p = max_integer_packing(lp)
        assert value == 991 and verify_packing(g, lp.terminals, p)


def reference_mincut(classes, res, source, sinks):
    """min over sinks of the source-sink min cut under residual class
    capacities ``res``, each flow stopped at the running minimum."""
    adj = {}
    for e in classes:
        adj.setdefault(e.u, {})[e.v] = res[e.id]
        adj.setdefault(e.v, {})[e.u] = res[e.id]
    best = None
    for sink in sinks:
        best, _ = pair_flow(adj, source, sink, best)
        if best == 0:
            return 0
    return best


def reference_branch_and_bound(lp, factor):
    """The unseeded branch and bound, with no node budget and no LP-vertex
    answer: the search starts from an incumbent of 0 trees and bounds every
    node by its count plus the residual min cut."""
    goal = int(factor * lp.opt)
    classes = lp.reduction.graph.edges
    source, sinks = lp.terminals.source, lp.terminals.sinks
    tree_lists = [sorted(t) for t in lp.trees]
    res = {e.id: factor * e.cap for e in classes}
    best, best_sol = 0, []
    chosen = []
    end = len(tree_lists)
    todo = [0 if reference_mincut(classes, res, source, sinks) > 0 else end]
    while todo:
        j = todo[-1]
        while j < end and not all(res[rid] >= 1 for rid in tree_lists[j]):
            j += 1
        if j == end:
            todo.pop()
            if chosen:
                for rid in tree_lists[chosen.pop()]:
                    res[rid] += 1
            continue
        todo[-1] = j + 1
        for rid in tree_lists[j]:
            res[rid] -= 1
        chosen.append(j)
        if len(chosen) > best:
            best, best_sol = len(chosen), list(chosen)
            if best >= goal:
                break
        bound = len(chosen) + reference_mincut(classes, res, source, sinks)
        todo.append(j if bound > best else end)
    counts = {}
    for j in best_sol:
        counts[j] = counts.get(j, 0) + 1
    return best, [(lp.trees[j], Fraction(c)) for j, c in sorted(counts.items())]


def reference_expand_packing(bundles, solution, denom=None):
    """Expansion in Fractions, rescanning each bundle's entries for every
    piece.  Each tree's units are its multiplicity times ``denom``, by
    default the least common denominator of the multiplicities."""
    used = {(rid, k): Fraction(0) for rid, entries in bundles.items() for k in range(len(entries))}
    slices = {}
    for rep_set, mult in solution:
        m = mult
        while m > 0:
            pick, amount = [], m
            for rid in sorted(rep_set):
                for k, (_, cap) in enumerate(bundles[rid]):
                    room = cap - used[rid, k]
                    if room > 0:
                        pick.append((rid, k))
                        amount = min(amount, room)
                        break
            for entry in pick:
                used[entry] += amount
            key = frozenset(i for rid, k in pick for i in bundles[rid][k][0])
            slices[key] = slices.get(key, Fraction(0)) + amount
            m -= amount
    if denom is None:
        denom = lcm(1, *(v.denominator for v in slices.values()))
    trees = []
    for k, v in sorted(slices.items(), key=lambda kv: tuple(sorted(kv[0]))):
        units = v * denom
        assert units.denominator == 1
        trees.append((k, int(units)))
    return SteinerPacking(tuple(trees), denom)


def reference_completion(lp, factor):
    """The LP vertex rounded down and completed greedily, on loads per edge
    id: each tree, those with y > 0 first, takes as many more copies as its
    edges hold, up to the goal.  The count and the (tree, copies) pairs in
    tree order."""
    goal = int(factor * lp.opt)
    room = {e.id: factor * e.cap for e in lp.reduction.graph.edges}
    copies = [int(factor * y) for y in lp.y]
    for t, c in zip(lp.trees, copies):
        for eid in t:
            room[eid] -= c
    for j in sorted(range(len(lp.trees)), key=lambda j: (lp.y[j] == 0, j)):
        c = min([goal - sum(copies)] + [room[eid] for eid in lp.trees[j]])
        if c > 0:
            copies[j] += c
            for eid in lp.trees[j]:
                room[eid] -= c
    return sum(copies), [(t, c) for t, c in zip(lp.trees, copies) if c]


def assert_matches_unseeded_search(g, a):
    """Check the branch and bound at factors 1 and 2 against the unseeded
    search, and return which answered at each: "rounded", "completed" or
    "search"."""
    lp = solve_tree_lp(g, a)
    answered = []
    for factor in (1, 2):
        goal = int(factor * lp.opt)
        got = packing._branch_and_bound(lp, factor, "test")
        want = reference_branch_and_bound(lp, factor)
        assert got[0] == want[0]
        # the rounded LP vertex answers where it meets the goal, its
        # completion where that does, and the search elsewhere
        rounded = [(t, int(factor * y)) for t, y in zip(lp.trees, lp.y) if int(factor * y)]
        completed = reference_completion(lp, factor)
        if sum(c for _, c in rounded) >= goal:
            assert got[1] == rounded
            answered.append("rounded")
        elif completed[0] >= goal:
            assert got == completed
            answered.append("completed")
        else:
            assert got[1] == want[1]
            answered.append("search")
        # c trees in factor times the capacities are c / factor on g itself
        want = reference_expand_packing(lp.reduction.bundles, [(t, Fraction(c, factor)) for t, c in got[1]], factor)
        expanded = packing._expand_packing(lp, got[1], factor, "test", Fraction(got[0], factor))
        assert expanded == want
    solution = [(t, y) for t, y in zip(lp.trees, lp.y) if y > 0]
    assert fractional_capacity_lp(lp)[1] == reference_expand_packing(lp.reduction.bundles, solution)
    return answered


def test_expand_packing_over_class_capacity_is_a_fault():
    g = Multigraph.build(["s", "t"], [("s", "t", 1)])
    lp = solve_tree_lp(g, TerminalSet("s", ("t",)))
    with pytest.raises(CertificateError, match="accounting"):
        packing._expand_packing(lp, [(frozenset({0}), 2)], 1, "test", 2)


def test_solvers_refuse_what_fails_their_check(monkeypatch):
    # each solver checks its own result, and the error names the stage
    g, a = complete4()
    lp = solve_tree_lp(g, a)
    monkeypatch.setattr(packing, "verify_packing", lambda *args: False)
    for solve, stage in (
        (max_integer_packing, "integer"),
        (half_integer_capacity, "half-integer"),
        (fractional_capacity_lp, "fractional"),
    ):
        with pytest.raises(CertificateError, match=f"^{stage} packing failed verification$"):
            solve(lp)
    monkeypatch.setattr(strength, "verify_partition", lambda *args: False)
    with pytest.raises(CertificateError, match="^edge strength witness failed verification$"):
        edge_strength(g, a)


def test_solvers_refuse_a_value_their_packing_does_not_carry(monkeypatch):
    g, a = complete4()
    lp = solve_tree_lp(g, a)
    search = packing._branch_and_bound

    def over_report(*args):
        k, counts = search(*args)
        return k + 1, counts

    monkeypatch.setattr(packing, "_branch_and_bound", over_report)
    with pytest.raises(CertificateError, match="^integer packing rate 2 differs from its value 3$"):
        max_integer_packing(lp)
    with pytest.raises(CertificateError, match="^half-integer packing rate 2 differs from its value 5/2$"):
        half_integer_capacity(lp)
    with pytest.raises(CertificateError, match="^fractional packing rate 2 differs from its value 3$"):
        fractional_capacity_lp(replace(lp, opt=lp.opt + 1))


def non_tight_instance():
    """Four terminals joined through three relays by unit edges: LP 9/5
    against eta 2, a non-tight bracket.  Rounding the LP vertex packs no
    tree, so both searches run."""
    edges = [("t0", "r0"), ("t0", "r1"), ("t0", "r2"), ("t1", "r1"), ("t1", "r2"),
             ("t2", "r0"), ("t2", "r1"), ("t3", "r0"), ("t3", "r2")]
    g = Multigraph.build(["t0", "t1", "t2", "t3", "r0", "r1", "r2"], [(u, v, 1) for u, v in edges])
    return g, TerminalSet("t0", ("t1", "t2", "t3"))


class TestSeededSearchOracle:
    def test_small_multigraphs(self):
        answered = Counter()
        for g, names in _small_connected_multigraphs():
            n = len(names)
            for ts in ((0, n - 1), tuple(range(n))):
                a = TerminalSet(names[ts[0]], tuple(names[i] for i in ts[1:]))
                answered.update(assert_matches_unseeded_search(g, a))
        assert answered["rounded"] > 0 and answered["completed"] > 0

    def test_benchmark_samples_and_their_split_graphs(self):
        samples = list(sample_instances(20, 8, 6, 3, 0)) + list(sample_instances(5, 10, 10, 4, 0))
        answered = Counter()
        for g, a in samples + [non_tight_instance()]:
            core = prune_to_core(g, a)
            answered.update(assert_matches_unseeded_search(core, a))
            answered.update(assert_matches_unseeded_search(with_parallel_edge(core), a))
            answered.update(assert_matches_unseeded_search(eliminate_relays(core, a)[0], a))
        assert answered["rounded"] > 0 and answered["completed"] > 0

    @pytest.mark.parametrize("seed, draw", [(160, 9), (20, 11)])
    def test_draws_whose_completion_falls_short(self, seed, draw):
        # at factor 2 the LP vertex rounds to 2 and to 1 of the 5 trees, its
        # completion to 4, and the search finds the fifth
        g, a = list(sample_instances(20, 8, 8, 4, seed))[draw]
        assert assert_matches_unseeded_search(g, a) == ["completed", "search"]

    def test_no_flow_checked_means_the_goal_was_met(self, monkeypatch):
        # a packing found without a flow check is the rounded or completed
        # LP vertex, and is returned only at floor(factor * LP optimum)
        flows = []
        checked = packing.checked_flow
        monkeypatch.setattr(packing, "checked_flow", lambda *args: flows.append(args) or checked(*args))
        instances = [*sample_instances(20, 8, 6, 3, 0), *sample_instances(5, 10, 10, 4, 0),
                     *sample_instances(20, 8, 8, 4, 20), *sample_instances(20, 8, 8, 4, 160)]
        seen = Counter()
        for g, a in instances + [non_tight_instance()]:
            for h in (g, scale_capacities(g, 3)):
                lp = solve_tree_lp(h, a)
                for factor in (1, 2):
                    flows.clear()
                    k, _ = packing._branch_and_bound(lp, factor, "test")
                    if not flows:
                        assert k == int(factor * lp.opt)
                    seen[bool(flows)] += 1
        assert seen[False] > 100 and seen[True] >= 3


def oracle_steiner_trees(g, a):
    """Independent oracle: every edge subset that forms a tree containing the
    terminals whose leaves are all terminals, in the enumeration's order."""
    ends = {e.id: (e.u, e.v) for e in g.edges}
    ids = sorted(ends)
    out = []
    for size in range(1, len(ids) + 1):
        for sub in combinations(ids, size):
            vs = {v for eid in sub for v in ends[eid]}
            if len(vs) != size + 1 or not a.members <= vs:
                continue
            deg = {v: 0 for v in vs}
            for eid in sub:
                for v in ends[eid]:
                    deg[v] += 1
            if any(d == 1 and v not in a.members for v, d in deg.items()):
                continue
            # size + 1 vertices and size edges: a tree iff connected
            reached, stack = set(), [next(iter(vs))]
            while stack:
                v = stack.pop()
                if v not in reached:
                    reached.add(v)
                    stack.extend(w for eid in sub for w in ends[eid] if v in ends[eid])
            if reached == vs:
                out.append(frozenset(sub))
    out.sort(key=lambda t: (len(t), sorted(t)))
    return out


class TestEnumerationOracle:
    def test_small_multigraphs(self):
        count = 0
        seen = set()
        for g, names in _small_connected_multigraphs():
            # capacities do not change the trees: one graph per edge set
            edges = tuple((e.id, e.u, e.v) for e in g.edges)
            if edges in seen:
                continue
            seen.add(edges)
            n = len(names)
            terminal_sets = {(0, n - 1), tuple(range(n))}
            if n >= 4:
                terminal_sets.add((1, 2, n - 1))
            for ts in sorted(terminal_sets):
                a = TerminalSet(names[ts[0]], tuple(names[i] for i in ts[1:]))
                # distinct edge ids give distinct trees
                for graph in (g, with_parallel_edge(g)):
                    want = oracle_steiner_trees(graph, a)
                    assert enumerate_steiner_trees(graph, a) == want
                    assert enumerate_steiner_trees(graph, a, limit=len(want)) == want
                    with pytest.raises(TooManyTrees):
                        enumerate_steiner_trees(graph, a, limit=len(want) - 1)
                    count += 1
        assert count > 1000

    def test_benchmark_sample_cores(self):
        # 4-5 relays each, so the relay-first edge order differs from id order
        for g, a in sample_instances(20, 8, 6, 3, 0):
            core = prune_to_core(g, a)
            for graph in (core, with_parallel_edge(core)):
                assert enumerate_steiner_trees(graph, a) == oracle_steiner_trees(graph, a)


class TestSizeClasses:
    def test_classes_concatenate_to_the_enumeration(self):
        # TestEnumerationOracle's families: each class is nonempty and holds
        # one tree size, the sizes increase, and together they are the list
        families = []
        for g, names in _small_connected_multigraphs():
            n = len(names)
            terminal_sets = {(0, n - 1), tuple(range(n))}
            if n >= 4:
                terminal_sets.add((1, 2, n - 1))
            for ts in sorted(terminal_sets):
                a = TerminalSet(names[ts[0]], tuple(names[i] for i in ts[1:]))
                families += [(g, a), (with_parallel_edge(g), a)]
        for g, a in sample_instances(20, 8, 6, 3, 0):
            core = prune_to_core(g, a)
            families += [(core, a), (with_parallel_edge(core), a)]
        for g, a in families:
            edges = [(e.id, e.u, e.v) for e in g.edges]
            classes = list(packing._minimal_trees(g.vertices, edges, a.members, packing.DEFAULT_TREE_LIMIT))
            sizes = [{len(t) for t in c} for c in classes]
            assert all(len(s) == 1 for s in sizes)
            assert [min(s) for s in sizes] == sorted({min(s) for s in sizes})
            assert [t for c in classes for t in c] == enumerate_steiner_trees(g, a)
        assert len(families) > 4000


def all_subsets_trees(g, a):
    """Every relay subset through the spanning-tree kernel, with no subset
    pruned: the loop the subset search replaced, sorted as the enumeration
    sorts."""
    terms, relays = sorted(a.members), sorted(g.vertices - a.members)
    index = {v: i for i, v in enumerate(terms + relays)}
    edges = [(e.id, index[e.u], index[e.v]) for e in g.edges]
    out = []
    for mask in range(1 << len(relays)):
        inc = {len(terms) + i for i in range(len(relays)) if mask >> i & 1}
        nodes = set(range(len(terms))) | inc
        sub = [e for e in edges if e[1] in nodes and e[2] in nodes]
        need = [2 if v in inc else 0 for v in range(len(index))]
        packing._spanning_trees(len(nodes), sub, need, lambda t: out.append(frozenset(t)), 0)
    out.sort(key=lambda t: (len(t), sorted(t)))
    return out


def dangling_triangles(k):
    """The 3-terminal unit cycle with k relay triangles hanging at its
    terminals.  Both relays of a triangle pass the degree test together,
    so 2^k relay subsets do, and no minimal tree uses any of them."""
    g, a = example2_instance(3)
    names = sorted(a.members)
    vertices, edges = set(g.vertices), [(e.u, e.v, e.cap) for e in g.edges]
    for i in range(k):
        t, x, y = names[i % 3], f"x{i:02d}", f"y{i:02d}"
        vertices |= {x, y}
        edges += [(t, x, 1), (x, y, 1), (y, t, 1)]
    return Multigraph.build(vertices, edges), a


def random_multigraphs(count, seed):
    """Connected multigraphs of 3-8 vertices with parallel edges and 2-4
    terminals."""
    rng = random.Random(seed)
    for _ in range(count):
        names = [f"v{i}" for i in range(rng.randint(3, 8))]
        edges = [(v, names[rng.randrange(i)], 1) for i, v in enumerate(names) if i]
        edges += [(*rng.sample(names, 2), 1) for _ in range(rng.randint(0, len(names)))]
        edges += [rng.choice(edges) for _ in range(rng.randint(1, 3))]
        ts = rng.sample(names, rng.randint(2, min(4, len(names))))
        yield Multigraph.build(names, edges), TerminalSet(ts[0], tuple(ts[1:]))


def relay_heavy_instances(family):
    if family == "chains":
        # 1-12 relays in one gap, and spread over several
        return [example2_instance(3, (0,) * r) for r in range(1, 13)] + [
            example2_instance(a, slots) for a, slots in [
                (3, (0, 1)), (3, (0, 0, 1, 2, 2)), (4, (0, 0, 0, 1, 1, 3)),
                (3, (0, 1, 2) * 4), (5, (0, 0, 0, 0, 2, 2, 2, 2, 4, 4, 4, 4)),
            ]
        ]
    if family == "triangles":
        return [dangling_triangles(k) for k in range(1, 7)]
    if family == "bench":
        samples = list(sample_instances(20, 8, 6, 3, 0)) + list(sample_instances(5, 10, 10, 4, 0))
        cores = [(prune_to_core(g, a), a) for g, a in samples]
        return cores + [(with_parallel_edge(g), a) for g, a in cores]
    return list(random_multigraphs(150, 3))


class TestRelaySubsetSearch:
    @pytest.mark.parametrize("family", ["chains", "triangles", "bench", "random"])
    def test_matches_all_subsets(self, family):
        checked = 0
        for g, a in relay_heavy_instances(family):
            want = all_subsets_trees(g, a)
            assert enumerate_steiner_trees(g, a) == want
            if len(g.edges) <= 14:
                assert oracle_steiner_trees(g, a) == want
                checked += 1
            if want:
                with pytest.raises(TooManyTrees):
                    enumerate_steiner_trees(g, a, limit=len(want) - 1)
        assert checked >= {"chains": 10, "triangles": 2, "bench": 0, "random": 100}[family]

    def test_budget_leaves_room_on_the_largest_cores(self, monkeypatch):
        # the largest tier-1 and bench cores use less than a tenth of the budget
        monkeypatch.setattr(packing, "MAX_ENUMERATION_STEPS", packing.MAX_ENUMERATION_STEPS // 10)
        cores = [random_instance(16, 12, 4, 0), random_instance(14, 10, 4, 2), random_instance(16, 10, 3, 1)]
        for g, a in cores + list(sample_instances(5, 10, 10, 4, 0)):
            core = prune_to_core(g, a)
            for h in (core, with_parallel_edge(core), eliminate_relays(core, a)[0]):
                enumerate_steiner_trees(h, a)

    def test_budget_ends_the_spanning_tree_search(self, monkeypatch):
        # all-terminal K5: its one relay subset is found within any budget,
        # and the 125 spanning trees are not
        names = [f"v{i}" for i in range(5)]
        g = Multigraph.build(names, [(u, v, 1) for u, v in combinations(names, 2)])
        monkeypatch.setattr(packing, "MAX_ENUMERATION_STEPS", 100)
        with pytest.raises(SearchTooLarge, match=r"^tree enumeration used \d+ steps, more than the "
                           r"budget MAX_ENUMERATION_STEPS = 100$") as info:
            enumerate_steiner_trees(g, TerminalSet(names[0], tuple(names[1:])))
        assert info.traceback[-1].name == "_spanning_trees"

    def test_budget_ends_the_relay_subset_search(self, monkeypatch):
        # 8 relay triangles hanging at the cycle's terminals: their 256 relay
        # subsets all pass the degree test, so the subset search alone
        # passes the budget, before any spanning tree is searched
        g, a = dangling_triangles(8)
        monkeypatch.setattr(packing, "MAX_ENUMERATION_STEPS", 100)
        with pytest.raises(SearchTooLarge, match=r"^tree enumeration used \d+ steps, more than the "
                           r"budget MAX_ENUMERATION_STEPS = 100$") as info:
            enumerate_steiner_trees(g, a)
        assert info.traceback[-1].name == "_minimal_trees"

    def test_tree_limit_fires_before_the_budget(self):
        # a 24-vertex core has more than DEFAULT_TREE_LIMIT minimal trees; the
        # all-subsets loop took some 5 s to find them, the subset search under 1 s
        g, a = random_instance(24, 16, 4, 0)
        start = time.perf_counter()
        with pytest.raises(TooManyTrees):
            solve_tree_lp(prune_to_core(g, a), a)
        assert time.perf_counter() - start < 10


def reference_lp(cols, row_ids, caps, stats=None, upper=None):
    """The tree-packing LP on a Fraction tableau: Bland's rule, the ratio
    test's ties broken by the smaller basis index.  ``stats``, if given,
    counts the pivots and the rows they leave alone, whose entry in the
    entering column is zero.  With ``upper``, it stops at the first vertex
    whose objective reaches it."""
    m, n = len(row_ids), len(cols)
    row_index = {rid: i for i, rid in enumerate(row_ids)}
    zero, one = Fraction(0), Fraction(1)
    tab = []
    for i, rid in enumerate(row_ids):
        row = [zero] * (n + m + 1)
        row[n + i] = one
        row[-1] = Fraction(caps[rid])
        tab.append(row)
    for j, col in enumerate(cols):
        for rid in col:
            tab[row_index[rid]][j] = one
    z = [-one] * n + [zero] * (m + 1)
    basis = list(range(n, n + m))
    while upper is None or z[-1] < upper:
        enter = next((j for j in range(n + m) if z[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        prow = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], prow)]
            elif i != leave and stats is not None:
                stats["zero rows"] += 1
        if stats is not None:
            stats["pivots"] += 1
        f = z[enter]
        z = [x - f * y for x, y in zip(z, prow)]
        basis[leave] = enter
    y = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            y[b] = tab[i][-1]
    return z[-1], y


def assert_matches_reference_lp(g, a):
    lp = solve_tree_lp(g, a)
    caps = {e.id: e.cap for e in lp.reduction.graph.edges}
    opt, y = reference_lp(list(lp.trees), [e.id for e in lp.reduction.graph.edges], caps)
    assert (lp.opt, list(lp.y)) == (opt, y)
    assert all(v >= 0 for v in lp.y) and sum(lp.y) == lp.opt
    load = {c: sum((v for t, v in zip(lp.trees, lp.y) if c in t), Fraction(0)) for c in caps}
    assert all(load[c] <= caps[c] for c in caps)


class TestReferenceSimplex:
    def test_samples_cycles_and_their_split_graphs(self):
        cores = varied_samples() + [example2_instance(na, (0, 2) if na > 3 else (0,)) for na in range(3, 8)]
        for g, a in cores:
            split_g, _, _ = eliminate_relays(prune_to_core(g, a), a)
            assert_matches_reference_lp(g, a)
            assert_matches_reference_lp(split_g, a)

    def test_small_multigraphs(self):
        # capacities up to 8 on four vertices give ratio ties between basis
        # rows where the tie-break decides the witness (46 of these LPs)
        for g, names in _small_connected_multigraphs(max_n=4, max_cap=8):
            n = len(names)
            for ts in ((0, n - 1), tuple(range(n))):
                assert_matches_reference_lp(g, TerminalSet(names[ts[0]], tuple(names[i] for i in ts[1:])))

    @pytest.mark.parametrize("cols, caps, opt", [
        ([{10, 11, 13}, {13}, {12, 13}, {11}, {11, 13}], {10: 3, 11: 3, 12: 2, 13: 3}, 6),
        ([{10, 11, 12}, {11}, {10}], {10: 2, 11: 3, 12: 1}, 5),
        ([{10, 12, 13}, {10}, {13, 14}], {10: 3, 11: 2, 12: 2, 13: 2, 14: 1}, 4),
    ])
    def test_slack_column_reenters(self, cols, caps, opt):
        # a wide column priced first enters and is pushed out again by
        # smaller ones, and the slack column it drove out re-enters the basis
        cols = [frozenset(c) for c in cols]
        got = packing._lp_max_total(cols, sorted(caps), caps)
        assert got == reference_lp(cols, sorted(caps), caps)
        assert got[0] == opt

    def test_random_small_lps(self):
        # 14 of these pivot a slack column back in, which no graph LP of the
        # benchmark does
        for cols, rows, caps in random_small_lps():
            assert packing._lp_max_total(cols, rows, caps) == reference_lp(cols, rows, caps)


def counted_reductions(monkeypatch):
    """A list that gets one entry per ``_reduced`` call: a pivot makes one
    for each row it rewrites and one for the objective."""
    calls = []
    reduced = packing._reduced

    def counted(row, d):
        calls.append(d)
        return reduced(row, d)

    monkeypatch.setattr(packing, "_reduced", counted)
    return calls


def bounded_lp_graphs():
    """TestReferenceSimplex's graph families, and the bench cores reduced
    as analyze reduces them, each with its split graph."""
    graphs = varied_samples() + [example2_instance(na, (0, 2) if na > 3 else (0,)) for na in range(3, 8)]
    bench = [*sample_instances(20, 8, 6, 3, 0), *sample_instances(5, 10, 10, 4, 0)]
    graphs += [(reduce_core(prune_to_core(g, a), a), a) for g, a in bench + [k4_with_relay(k) for k in (4, 8, 16)]]
    graphs += [(eliminate_relays(prune_to_core(g, a), a)[0], a) for g, a in graphs if not isinstance(g, Reduction)]
    for g, names in _small_connected_multigraphs(max_n=4, max_cap=8):
        n = len(names)
        for ts in ((0, n - 1), tuple(range(n))):
            graphs.append((g, TerminalSet(names[ts[0]], tuple(names[i] for i in ts[1:]))))
    return graphs


class TestBoundedLP:
    def test_stops_at_the_optimum_on_the_reference_pivots(self, monkeypatch):
        # a bound equal to the optimum stops the solve at the first vertex
        # that reaches it, after the reference's own first pivots; any
        # other bound, or none, changes nothing
        calls = counted_reductions(monkeypatch)
        stopped = 0
        for g, a in bounded_lp_graphs():
            full = solve_tree_lp(g, a)
            rows = [e.id for e in full.reduction.graph.edges]
            caps = {e.id: e.cap for e in full.reduction.graph.edges}
            stats = {"pivots": 0, "zero rows": 0}
            opt, y = reference_lp(full.trees, rows, caps, stats, upper=full.opt)
            calls.clear()
            lp = solve_tree_lp(g, a, full.opt)
            assert len(calls) == stats["pivots"] * (len(rows) + 1) - stats["zero rows"]
            drawn = len(lp.trees)
            assert lp.opt == opt == full.opt
            assert list(lp.y) + [0] * (len(full.trees) - drawn) == y
            assert lp.trees == full.trees[:drawn] and lp.all_trees() == full.trees
            above = solve_tree_lp(g, a, full.opt + Fraction(1, 3))
            assert (above.opt, above.y, above.trees) == (full.opt, full.y, full.trees)
            stopped += drawn < len(full.trees)
        assert stopped >= 20

    def test_random_small_lps_drawn_in_classes(self, monkeypatch):
        # the columns drawn in pieces price as the whole list does, also
        # where a slack column re-enters, and a bound at the optimum stops
        # at the reference's vertex after the same pivots
        calls = counted_reductions(monkeypatch)
        rng = random.Random(2)
        for cols, rows, caps in random_small_lps():
            cut = sorted(rng.choices(range(len(cols) + 1), k=2))
            pieces = [cols[:cut[0]], cols[cut[0]:cut[1]], cols[cut[1]:]]
            want = packing._lp_max_total(cols, rows, caps)
            drawn = list(pieces[0])
            assert packing._lp_max_total(drawn, rows, caps, pieces[1:]) == want and drawn == cols
            stats = {"pivots": 0, "zero rows": 0}
            opt, y = reference_lp(cols, rows, caps, stats, upper=want[0])
            calls.clear()
            drawn = list(pieces[0])
            got = packing._lp_max_total(drawn, rows, caps, pieces[1:], upper=want[0])
            assert len(calls) == stats["pivots"] * (len(rows) + 1) - stats["zero rows"]
            assert got == (opt, y[:len(drawn)]) and not any(y[len(drawn):])

    def test_objective_past_the_bound_is_refused(self):
        # every vertex of these LPs has a denominator below 997, so the
        # objective steps over a bound just below the optimum
        refused = 0
        for cols, rows, caps in random_small_lps():
            opt = packing._lp_max_total(list(cols), rows, caps)[0]
            with pytest.raises(CertificateError, match="passed its certified upper bound"):
                packing._lp_max_total(list(cols), rows, caps, upper=opt - Fraction(1, 997))
            refused += 1
        g, a = example2_instance(5, (0, 2))
        with pytest.raises(CertificateError, match="^LP objective 1 passed its certified upper bound 1/4$"):
            solve_tree_lp(g, a, Fraction(1, 4))
        assert refused == 2000


def test_bench_pass_runs_no_search(monkeypatch):
    # one pass of the cycle, random and fat benchmark workloads: every
    # integer and half-integer packing is the rounded or completed LP
    # vertex, so no node checks a flow and no LP draws its other classes
    flows, draws = [], []
    checked, all_trees = packing.checked_flow, packing.TreeLP.all_trees
    monkeypatch.setattr(packing, "checked_flow", lambda *args: flows.append(args) or checked(*args))
    monkeypatch.setattr(packing.TreeLP, "all_trees", lambda lp: draws.append(lp) or all_trees(lp))
    cycle = [example2_instance(na, (0, 2)) for na in (5, 6, 7, 8)]
    for g, a in cycle:
        analyze_instance(g, a)
    fat = [k4_with_relay(k) for k in (4, 8, 16)]
    fat += [(scale_capacities(g, k), a) for g, a in sample_instances(3, 6, 3, 3, 0) for k in (4, 8)]
    for g, a in [*sample_instances(20, 8, 6, 3, 0), *sample_instances(5, 10, 10, 4, 0), *fat]:
        analyze_instance(g, a, via_splitting=True)
    assert flows == [] and draws == []


def stars_first_lp():
    """The tree LP of the all-terminal unit K4 stopped after its four stars,
    y = 1/2 each, at the optimum 2: no two stars are edge-disjoint, so the
    search over them ends at 1 tree.  ``rest`` holds the other spanning
    trees, from the same enumeration."""
    g, a = complete4()
    reduction = Reduction.of(g)
    stars = [frozenset(e.id for e in g.edges if e.touches(v)) for v in sorted(g.vertices)]
    enumeration = packing._minimal_trees(g.vertices, [(e.id, e.u, e.v) for e in g.edges], a.members, 100)
    rest = ([t for t in size_class if t not in stars] for size_class in enumeration)
    return packing.TreeLP(reduction, a, stars, Fraction(2), (Fraction(1, 2),) * 4, rest)


class TestBoundedFallback:
    def test_short_rounding_searches_every_tree_of_the_one_enumeration(self, monkeypatch):
        # the LP stopped at its optimum over trees among which no packing
        # reaches the goal: the search over them ends short, draws the
        # other trees from the LP's own enumeration, and returns the
        # unseeded search's packing over all of them
        calls = {"_minimal_trees": 0}
        original = packing._minimal_trees

        def counted(*args):
            calls["_minimal_trees"] += 1
            return original(*args)

        monkeypatch.setattr(packing, "_minimal_trees", counted)
        lp = stars_first_lp()
        stars = list(lp.trees)
        assert packing._branch_and_bound(replace(lp, trees=list(stars), rest=iter(())), 1, "test") == (
            1, [(stars[0], 1)])
        k, p = max_integer_packing(lp)
        assert calls == {"_minimal_trees": 1}
        assert lp.trees[:4] == stars and len(lp.trees) == 16
        want, trees = reference_branch_and_bound(lp, 1)
        trees = [(t, int(c)) for t, c in trees]
        assert k == want == 2 and p == packing._expand_packing(lp, trees, 1, "test", k)
        assert verify_packing(*complete4(), p)


def random_small_lps():
    rng = random.Random(0)
    for _ in range(2000):
        rows = list(range(10, 10 + rng.randint(1, 5)))
        cols = [frozenset(r for r in rows if rng.random() < 0.5) for _ in range(rng.randint(1, 7))]
        cols = [c for c in cols if c]
        caps = {r: rng.randint(1, 3) for r in rows}
        yield cols, rows, caps


def random_wide_lps():
    # a pivot on an entry above 1 needs a basis that is not unimodular; 193
    # of these LPs have one
    rng = random.Random(1)
    for _ in range(1000):
        rows = list(range(10, 10 + rng.randint(4, 8)))
        cols = [frozenset(r for r in rows if rng.random() < 0.5) for _ in range(rng.randint(6, 12))]
        cols = [c for c in cols if c]
        caps = {r: rng.randint(1, 9) for r in rows}
        yield cols, rows, caps


def test_reduced_rows_are_in_lowest_terms():
    assert packing._reduced([4, -6, 8], 2) == ([2, -3, 4], 1)
    assert packing._reduced([3, 0, 6], 9) == ([1, 0, 2], 3)
    assert packing._reduced([5, 7], 3) == ([5, 7], 3)


def test_per_row_denominators_on_wide_lps(monkeypatch):
    # every pivot reduces the rows it rewrites, the pivot row and the
    # objective to lowest terms, and leaves the rows whose entry in the
    # entering column is zero alone
    shrunk = []
    reduced = packing._reduced

    def checked(row, d):
        out, e = reduced(row, d)
        assert e > 0 and math.gcd(e, *out) == 1
        assert [x * d for x in out] == [x * e for x in row]
        shrunk.append(e < d)
        return out, e

    monkeypatch.setattr(packing, "_reduced", checked)
    hits = {"reduced": 0, "left alone": 0}
    for cols, rows, caps in random_wide_lps():
        shrunk.clear()
        stats = {"pivots": 0, "zero rows": 0}
        assert packing._lp_max_total(cols, rows, caps) == reference_lp(cols, rows, caps, stats)
        assert len(shrunk) == stats["pivots"] * (len(rows) + 1) - stats["zero rows"]
        hits["reduced"] += any(shrunk)
        hits["left alone"] += stats["zero rows"] > 0
    assert min(hits.values()) >= 100, hits


def test_vertex_rounding_matches_fraction_formulas():
    # the integer rounding reads the nonzero entries alone; it must give
    # the lcm of all denominators and the units int(y * scale) of the
    # Fraction formulas, and the counts factor * u // scale read off those
    # units must be int(factor * y)
    bench = [*sample_instances(20, 8, 6, 3, 0), *sample_instances(5, 10, 10, 4, 0)]
    vertices = []
    for g, a in bench + [k4_with_relay(k) for k in range(1, 17)]:
        core = prune_to_core(g, a)
        for h in (core, eliminate_relays(core, a)[0]):
            vertices.append(solve_tree_lp(h, a).y)
    vertices += [tuple(packing._lp_max_total(*lp)[1]) for lp in random_small_lps()]
    # denominators whose lcm is none of them
    vertices.append((Fraction(1, 2), Fraction(0), Fraction(2, 3), Fraction(5, 4), Fraction(7)))
    seen = {"floored": 0, "scaled": 0}
    for y in vertices:
        scale = lcm(1, *(v.denominator for v in y))
        units = [(j, int(v * scale)) for j, v in enumerate(y) if v > 0]
        assert packing._vertex_units(y) == (scale, units)
        seen["scaled"] += scale > 1
        for factor in (1, 2):
            counts = [(j, int(factor * v)) for j, v in enumerate(y) if int(factor * v)]
            assert [(j, c) for j, u in units if (c := factor * u // scale)] == counts
            seen["floored"] += any(factor * v != int(factor * v) for v in y)
    assert len(vertices) > 2000 and min(seen.values()) >= 40
