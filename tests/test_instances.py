from dataclasses import replace
from fractions import Fraction

import time

import pytest

from mcastcap import (
    example2_instance,
    example2_routing_scheme,
    fractional_capacity_lp,
    random_instance,
    sample_instances,
    solve_tree_lp,
    terminal_cut,
    verify_packing,
)
from mcastcap.errors import BadSlot, ResourceLimit, Underconnected
from mcastcap.instances import MAX_REJECTED_SEEDS


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


def tree_loads(p):
    """Units of 1/p.denominator that the packing puts on each edge id."""
    load = {}
    for tree, units in p.trees:
        for eid in tree:
            load[eid] = load.get(eid, 0) + units
    return load


# the cycle family: a = 3..9 terminals, each with four relay layouts
CYCLE_CASES = [(na, slots) for na in range(3, 10) for slots in [(), (0,), (0, 2), (1, 1, 2)]]


class TestRoutingScheme:
    def test_rate(self):
        s = example2_routing_scheme(5, (0, 2))
        assert s.rate == Fraction(5, 4)
        assert s.denominator == 4 and [units for _, units in s.trees] == [1] * 5

    def test_valid_for_range(self):
        for na in range(3, 9):
            g, a = example2_instance(na)
            s = example2_routing_scheme(na)
            assert verify_packing(g, a, s)
            # every edge carries exactly na - 1 units: its capacity over na - 1 time units
            assert set(tree_loads(s).values()) == {na - 1}
            assert set(tree_loads(s)) == {e.id for e in g.edges}

    def test_valid_with_relays(self):
        g, a = example2_instance(5, (0, 2))
        assert verify_packing(g, a, example2_routing_scheme(5, (0, 2)))

    def test_specific_edge_contents(self):
        g, a = example2_instance(5, (0, 2))
        s = example2_routing_scheme(5, (0, 2))
        seg = {e.id for e in g.edges if {e.u, e.v} == {"v1", "v2"}}
        (eid,) = seg
        carried = {j for j, (tree, _) in enumerate(s.trees) if eid in tree}
        # forward a0..a2 plus a4 coming back: 4 symbols total
        assert carried == {0, 1, 2, 4}
        first = {e.id for e in g.edges if {e.u, e.v} == {"v0", "x1"}}
        (fid,) = first
        carried_first = {j for j, (tree, _) in enumerate(s.trees) if fid in tree}
        assert carried_first == {0, 1, 2, 3}

    @pytest.mark.parametrize("na, slots", CYCLE_CASES)
    def test_tree_j_is_the_cycle_less_one_segment(self, na, slots):
        # segment i joins v_i to v_{i+1 mod na} through the relays in gap i,
        # named x1, x2, ... gap by gap; tree j leaves out segment na - 1 - j
        g, _ = example2_instance(na, slots)
        names = iter(f"x{k}" for k in range(1, len(slots) + 1))
        segments = []
        for i in range(na):
            ends = {f"v{i}", f"v{(i + 1) % na}"} | {next(names) for _ in range(slots.count(i))}
            segments.append(frozenset(e.id for e in g.edges if {e.u, e.v} <= ends))
        cycle = frozenset(e.id for e in g.edges)
        assert sum(map(len, segments)) == len(cycle)
        s = example2_routing_scheme(na, slots)
        assert s.denominator == na - 1
        assert s.trees == tuple((cycle - segments[na - 1 - j], 1) for j in range(na))

    def test_tampered_scheme_rejected(self):
        g, a = example2_instance(4)
        s = example2_routing_scheme(4)
        (tree, units), *rest = s.trees
        dropped = replace(s, trees=((tree - {min(tree)}, units), *rest))
        assert not verify_packing(g, a, dropped)

    def test_budget_violation_rejected(self):
        g, a = example2_instance(4)
        s = example2_routing_scheme(4)
        # a valid tree through edge 0 at n more units: edge 0 then carries
        # 2n units, past its budget of n
        tree = next(tree for tree, _ in s.trees if 0 in tree)
        assert verify_packing(g, a, replace(s, trees=((tree, s.denominator),)))
        stuffed = replace(s, trees=(*s.trees, (tree, s.denominator)))
        assert tree_loads(stuffed)[0] == 2 * s.denominator
        assert not verify_packing(g, a, stuffed)

    def test_scheme_rate_matches_lp(self):
        for na in (3, 4, 5):
            g, a = example2_instance(na)
            s = example2_routing_scheme(na)
            lp, _ = fractional_capacity_lp(solve_tree_lp(g, a))
            # the scheme is an optimal tree packing; both sit at the known optima
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

    def test_negative_extra_edges_are_refused(self):
        # a negative count would draw no extra edge, so every draw would be a
        # tree and sampling would spend its whole seed budget before giving up
        with pytest.raises(ValueError, match="^extra edges must not be negative$"):
            random_instance(6, -1, 3, 0)
        with pytest.raises(ValueError, match="^extra edges must not be negative$"):
            next(sample_instances(2, 6, -3, 3, 0))

    def test_samples_are_wellformed(self):
        for g, a in sample_instances(10, 7, 5, 3, seed=9):
            assert a.members <= g.vertices
            assert terminal_cut(g, a)[0] >= 2

    def test_broadcast_case(self):
        for g, a in sample_instances(3, 5, 5, 5, seed=50):
            assert a.members == g.vertices


    @pytest.mark.parametrize("params", [(5, 0, 2), (12, 1, 12)])
    def test_sampling_gives_up_where_no_seed_qualifies(self, params):
        # with no extra edge every draw is a tree; one extra edge cannot close
        # a cycle through all 12 terminals
        start = time.monotonic()
        with pytest.raises(ResourceLimit) as info:
            list(sample_instances(1, *params, seed=0))
        assert time.monotonic() - start < 1
        last = MAX_REJECTED_SEEDS - 1
        assert str(info.value) == (
            f"sampling (vertices, extra edges, terminals) = {params} found {MAX_REJECTED_SEEDS} seeds "
            f"underconnected in a row, the last {last}: the budget MAX_REJECTED_SEEDS = {MAX_REJECTED_SEEDS}")

    def test_sampling_budget_counts_rejections_in_a_row(self, monkeypatch):
        # at (5, 1, 3) seeds 0, 1 and 3 qualify and 2, 4 and 5 do not: the
        # one rejection before seed 3 does not count toward the two after it
        assert [_ok(5, 1, 3, s) for s in range(6)] == [True, True, False, True, False, False]
        monkeypatch.setattr("mcastcap.instances.MAX_REJECTED_SEEDS", 2)
        drawn = []
        with pytest.raises(ResourceLimit, match="found 2 seeds underconnected in a row, the last 5:"):
            drawn.extend(sample_instances(4, 5, 1, 3, seed=0))
        assert drawn == [random_instance(5, 1, 3, s) for s in (0, 1, 3)]


def _ok(n, m, t, s):
    try:
        random_instance(n, m, t, s)
        return True
    except Underconnected:
        return False
