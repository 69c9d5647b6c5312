from fractions import Fraction

import pytest

from mcastcap import (
    RoutingScheme,
    TerminalSet,
    example2_instance,
    example2_routing_scheme,
    fractional_capacity_lp,
    random_instance,
    routing_scheme_problems,
    sample_instances,
    solve_tree_lp,
    terminal_cut,
)
from mcastcap.errors import BadSlot, Underconnected


def has_link(g, u, v):
    return any({e.u, e.v} == {u, v} for e in g.edges)


class TestExample2Instance:
    def test_five_terminals_two_relays(self):
        g, a = example2_instance(5, (0, 2))
        # insertion order around the cycle: v0, x1, v1, v2, x2, v3, v4
        assert g.vertices == {"v0", "x1", "v1", "v2", "x2", "v3", "v4"}
        assert len(g.edges) == 7
        assert all(e.cap == 1 for e in g.edges)
        order = ["v0", "x1", "v1", "v2", "x2", "v3", "v4"]
        for i in range(7):
            u, v = order[i], order[(i + 1) % 7]
            assert has_link(g, u, v)
        assert a.source == "v0" and set(a.sinks) == {"v1", "v2", "v3", "v4"}

    def test_no_relays_is_terminal_cycle(self):
        g, a = example2_instance(3)
        assert g.vertices == {"v0", "v1", "v2"}
        assert len(g.edges) == 3

    def test_one_relay_per_gap(self):
        g, _ = example2_instance(4, (0, 1, 2, 3))
        assert len(g.vertices) == 8
        assert len(g.edges) == 8
        # relays alternate with terminals
        for v in g.vertices:
            assert len(g.incident(v)) == 2

    def test_stacked_relays_in_one_gap(self):
        g, _ = example2_instance(3, (1, 1))
        assert g.vertices == {"v0", "v1", "x1", "x2", "v2"}
        assert has_link(g, "v1", "x1") and has_link(g, "x1", "x2") and has_link(g, "x2", "v2")

    def test_bad_slot(self):
        with pytest.raises(BadSlot):
            example2_instance(4, (4,))
        with pytest.raises(BadSlot):
            example2_instance(4, (-1,))

    def test_too_few_terminals(self):
        with pytest.raises(ValueError):
            example2_instance(2)

    def test_connectivity_two(self):
        for na in (3, 4, 5, 6):
            g, a = example2_instance(na, (0,))
            assert terminal_cut(g, a)[0] == 2


class TestRoutingScheme:
    def test_rate(self):
        s = example2_routing_scheme(5, (0, 2))
        assert s.rate == Fraction(5, 4)
        assert s.h == 5 and s.n == 4

    def test_valid_for_range(self):
        for na in range(3, 9):
            g, a = example2_instance(na)
            s = example2_routing_scheme(na)
            assert routing_scheme_problems(g, a, s) == []
            # every edge carries exactly n = na - 1 symbols
            load = {e.id: 0 for e in g.edges}
            for carriers in s.assignment.values():
                for eid, _, _ in carriers:
                    load[eid] += 1
            assert set(load.values()) == {na - 1}

    def test_valid_with_relays(self):
        g, a = example2_instance(5, (0, 2))
        s = example2_routing_scheme(5, (0, 2))
        assert routing_scheme_problems(g, a, s) == []

    def test_specific_edge_contents(self):
        g, a = example2_instance(5, (0, 2))
        s = example2_routing_scheme(5, (0, 2))
        seg = {e.id for e in g.edges if {e.u, e.v} == {"v1", "v2"}}
        (eid,) = seg
        carried = {sym for sym, carriers in s.assignment.items()
                   if any(c[0] == eid for c in carriers)}
        # forward a0..a2 plus a4 coming back: 4 symbols total
        assert carried == {0, 1, 2, 4}
        first = {e.id for e in g.edges if {e.u, e.v} == {"v0", "x1"}}
        (fid,) = first
        carried_first = {sym for sym, carriers in s.assignment.items()
                         if any(c[0] == fid for c in carriers)}
        assert carried_first == {0, 1, 2, 3}

    def test_tampered_scheme_rejected(self):
        g, a = example2_instance(4)
        s = example2_routing_scheme(4)
        broken = dict(s.assignment)
        broken[0] = broken[0][:-1]  # drop one carrier of symbol 0
        bad = RoutingScheme(s.h, s.n, broken)
        assert routing_scheme_problems(g, a, bad)

    def test_budget_violation_rejected(self):
        g, a = example2_instance(4)
        s = example2_routing_scheme(4)
        # route every symbol over edge 0 as well: exceeds the n*cap budget
        e = g.edge(0)
        stuffed = {sym: carriers + ((0, e.u, e.v),) * s.n
                   for sym, carriers in s.assignment.items()}
        bad = RoutingScheme(s.h, s.n, stuffed)
        problems = routing_scheme_problems(g, a, bad)
        assert any("budget" in p for p in problems)

    def test_scheme_rate_matches_lp(self):
        for na in (3, 4, 5):
            g, a = example2_instance(na)
            s = example2_routing_scheme(na)
            lp, _ = fractional_capacity_lp(solve_tree_lp(g, a))
            # the scheme beats tree packing; both sit at the known optima
            assert s.rate == Fraction(na, na - 1)
            assert lp == Fraction(na, na - 1)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(6, 4, 3, 123)
        b = random_instance(6, 4, 3, 123)
        assert a == b

    def test_seed_changes_instance(self):
        outs = {random_instance(7, 5, 3, s)[0] for s in (1, 3, 4, 6) if _ok(7, 5, 3, s)}
        assert len(outs) >= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            random_instance(4, 2, 5, 0)
        with pytest.raises(ValueError):
            random_instance(4, 2, 1, 0)

    def test_samples_are_wellformed(self):
        for g, a in sample_instances(10, 7, 5, 3, seed=9):
            assert a.members <= g.vertices
            assert terminal_cut(g, a)[0] >= 2

    def test_broadcast_case(self):
        for g, a in sample_instances(3, 5, 5, 5, seed=50):
            assert a.members == g.vertices


def _ok(n, m, t, s):
    try:
        random_instance(n, m, t, s)
        return True
    except Underconnected:
        return False
