import copy
import hashlib
import random
from itertools import combinations, combinations_with_replacement

import pytest

from mcastcap import (
    Edge,
    Multigraph,
    TerminalSet,
    eliminate_relays,
    example2_instance,
    fractional_capacity_lp,
    lift_packing,
    max_integer_packing,
    prune_to_core,
    sample_instances,
    scale_capacities,
    solve_tree_lp,
    split_off,
    terminal_cut,
    validate,
    verify_packing,
)
from mcastcap.connectivity import checked_flow, cut_capacity, pair_capacities
from mcastcap.errors import (
    CertificateError,
    CutEdgeAtPivot,
    DisconnectedTerminals,
    InvalidGraph,
    InvalidPacking,
    NotIncident,
)
from mcastcap.multigraph import cut_edges, degree, edge_component
from mcastcap.packing import SteinerPacking
from mcastcap import multigraph, splitting
from test_multigraph import reference_bridge_sides


def all_pairs_connectivity(g, vertices):
    """λ of every pair of ``vertices``, one max-flow each: the oracle for
    every check that a split keeps the cuts among the other vertices."""
    adj = pair_capacities(g)
    return {
        frozenset((x, y)): checked_flow(adj, x, y)[0]
        for x, y in combinations(sorted(vertices), 2)
    }


def admissible(g, e_id, f_id, x):
    """True iff relay elimination's own decision accepts splitting one unit
    off the edges e and f at pivot x."""
    r, t = g.edge(e_id).other(x), g.edge(f_id).other(x)
    adj = pair_capacities(g)
    return splitting._largest_split(adj, splitting._flow_tree(adj, x), x, r, t, 1) == 1


def bisection_split(keeps_targets, adj, links, x, r, t, most):
    """The largest amount up to ``most`` whose split keeps the links, found
    by bisection that tries ``most`` first, and its number of trials: the
    search the cut bounds replace."""
    kept, refused, amount, trials = 0, most + 1, most, 0
    while refused - kept > 1:
        splitting._shift(adj, x, r, t, amount)
        keeps = keeps_targets(adj, links, x, r, t, amount, {}) == amount
        splitting._shift(adj, x, r, t, -amount)
        trials += 1
        kept, refused = (amount, refused) if keeps else (kept, amount)
        amount = (kept + refused) // 2
    return kept, trials


def split_completely(g, x):
    """Complete splitting at x alone: relay elimination with every other
    vertex a terminal.  x must have even degree, so nothing is scaled."""
    rest = sorted(g.vertices - {x})
    out, hist, scale = eliminate_relays(g, TerminalSet(rest[0], tuple(rest[1:])))
    assert scale == 1
    return out, hist


def nonzero(adj):
    """Pair capacities without the 0 entries a shifted-back map keeps."""
    return {u: {v: c for v, c in nbrs.items() if c} for u, nbrs in adj.items()}


def pair_graph(adj):
    """The graph with one edge per nonzero entry of the pair capacities ``adj``."""
    return Multigraph.build(
        sorted(adj), [(u, v, c) for u in sorted(adj) for v, c in adj[u].items() if u < v and c]
    )


def unit_form(g):
    """g with every capacity c expanded into c parallel unit edges, in edge
    id order: the view the unit-pair oracles split one unit at a time."""
    units = [(e.u, e.v, 1) for e in sorted(g.edges, key=lambda e: e.id) for _ in range(e.cap)]
    return Multigraph.build(g.vertices, units)


def k4_with_relay(k):
    """K4 on source s, sinks t1 and t2 and relay x, capacities times k."""
    g = Multigraph.build(
        ["s", "t1", "t2", "x"],
        [("s", "t1", 1), ("s", "t2", 1), ("t1", "t2", 1), ("x", "s", 1), ("x", "t1", 1), ("x", "t2", 1)],
    )
    return scale_capacities(g, k), TerminalSet("s", ("t1", "t2"))


def scaled_samples():
    """Sample instances and their capacity x2, x4 and x8 copies."""
    base = list(sample_instances(6, 7, 4, 3, seed=3))
    return base + [(scale_capacities(g, k), a) for k in (2, 4, 8) for g, a in base]


def reference_search(g, x):
    """The pairing backtrack over unit edges that accepts a split when
    all_pairs_connectivity among V - x is unchanged."""
    others = g.vertices - {x}
    rem = sorted(e.id for e in g.incident(x))

    def rec(cur, rem):
        if not rem:
            return cur, []
        for f_id in rem[1:]:
            split, ev = split_off(cur, rem[0], f_id, pivot=x)
            if all_pairs_connectivity(split, others) == all_pairs_connectivity(cur, others):
                sub = rec(split, [i for i in rem if i not in (rem[0], f_id)])
                if sub is not None:
                    return sub[0], [ev, *sub[1]]
        return None

    return rec(g, rem)


def reference_eliminate_relays(g, a):
    relays = sorted(g.vertices - a.members)
    scale = 2 if any(degree(g, x) % 2 for x in relays) else 1
    cur = unit_form(scale_capacities(g, scale))
    events = []
    for x in relays:
        cur, evs = reference_search(cur, x)
        cur = cur.restrict(cur.vertices - {x})
        events += evs
    return cur, tuple(events), tuple(relays), scale


def even_relay_multigraphs(seed, count):
    """``count`` seeded unpruned multigraphs with parallel and capacity-2
    edges, connected terminals and every relay of even degree, so that no
    scaling hides a unit cut-edge."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 8)
        names = [f"v{i}" for i in range(n)]
        triples = []
        for _ in range(rng.randint(n - 1, 2 * n)):
            u, v = rng.sample(names, 2)
            triples.append((u, v, rng.choice((1, 1, 1, 2))))
        g = Multigraph.build(names, triples)
        terms = rng.sample(names, rng.randint(2, min(4, n - 1)))
        a = TerminalSet(terms[0], tuple(terms[1:]))
        if any(degree(g, x) % 2 for x in g.vertices - a.members):
            continue
        try:
            validate(g, a)
        except DisconnectedTerminals:
            continue
        out.append((g, a))
    return out


# draw index -> (edge id, pivot) of the CutEdgeAtPivot that
# eliminate_relays raises on even_relay_multigraphs(3, 300); 16 of these
# pivots have two or more cut-edges, and 11 are not the first relay
CUT_EDGE_AT_PIVOT = {
    17: (2, "v1"), 29: (3, "v4"), 32: (5, "v2"), 61: (0, "v1"), 78: (8, "v3"), 104: (3, "v5"),
    107: (1, "v0"), 117: (0, "v3"), 118: (1, "v3"), 122: (0, "v0"), 126: (3, "v3"), 134: (8, "v0"),
    137: (0, "v0"), 140: (1, "v3"), 146: (0, "v2"), 160: (2, "v2"), 166: (0, "v1"), 167: (1, "v4"),
    171: (0, "v1"), 178: (0, "v0"), 180: (0, "v2"), 183: (0, "v0"), 190: (2, "v1"), 192: (3, "v0"),
    199: (0, "v0"), 201: (0, "v2"), 206: (1, "v3"), 216: (2, "v2"), 219: (4, "v2"), 221: (1, "v2"),
    226: (2, "v0"), 231: (1, "v3"), 232: (5, "v5"), 233: (9, "v3"), 237: (0, "v1"), 241: (0, "v0"),
    254: (2, "v1"), 257: (0, "v2"), 267: (4, "v1"), 268: (0, "v1"), 269: (1, "v4"), 273: (4, "v4"),
    277: (0, "v0"), 288: (1, "v2"),
}


def theta():
    """Two parallel s-x edges and two parallel x-t edges."""
    return Multigraph.build(
        ["s", "x", "t"], [("s", "x", 1), ("s", "x", 1), ("x", "t", 1), ("x", "t", 1)]
    )


class TestSplitOff:
    def test_path_becomes_edge(self):
        g = Multigraph.build(["r", "x", "t"], [("r", "x", 1), ("x", "t", 1)])
        out, ev = split_off(g, 0, 1)
        assert ev.pivot == "x" and ev.new_id is not None
        assert len(out.edges) == 1
        e = out.edges[0]
        assert {e.u, e.v} == {"r", "t"}

    def test_theta_split_preserves_cuts(self):
        g = theta()
        before = all_pairs_connectivity(g, {"s", "t"})
        out, _ = split_off(g, 0, 2, pivot="x")
        assert all_pairs_connectivity(out, {"s", "t"}) == before
        assert any({e.u, e.v} == {"s", "t"} for e in out.edges)

    def test_parallel_pair_discards_loop(self):
        g = Multigraph.build(["u", "x", "v"], [("u", "x", 1), ("u", "x", 1), ("x", "v", 1)])
        out, ev = split_off(g, 0, 1)
        assert ev.new_id is None
        assert len(out.edges) == 1

    def test_errors(self):
        g = Multigraph.build(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 1)])
        with pytest.raises(NotIncident):
            split_off(g, 0, 1)
        # s is an end of edge 0 alone
        with pytest.raises(NotIncident, match="vertex 's' is not a shared endpoint"):
            split_off(theta(), 0, 2, pivot="s")
        # an edge split with itself gives up two units
        with pytest.raises(InvalidGraph):
            split_off(g, 0, 0, pivot="a")
        with pytest.raises(InvalidGraph):
            split_off(theta(), 0, 2, pivot="x", amount=2)
        with pytest.raises(InvalidGraph):
            split_off(theta(), 0, 2, pivot="x", amount=0)

    def test_amount(self):
        g = Multigraph.build(["r", "x", "t"], [("r", "x", 5), ("x", "t", 3)])
        out, ev = split_off(g, 0, 1, amount=3)
        assert ev.amount == 3 and ev.new_id == 2
        assert out.edges == (Edge(0, "r", "x", 2), Edge(2, "r", "t", 3))
        out, ev = split_off(out, 0, 0, pivot="x")
        assert ev.new_id is None and ev.amount == 1
        assert out.edges == (Edge(2, "r", "t", 3),)


class TestAdmissibility:
    def test_degree_two_relay_on_cycle(self):
        g, _ = example2_instance(3, (0,))
        e, f = (e.id for e in g.incident("x1"))
        assert admissible(g, e, f, "x1")

    def test_parallel_pair_inadmissible(self):
        # u=x doubled, x-v, x-w, v-w: removing both ux edges drops lambda(u, v)
        g = Multigraph.build(
            ["u", "x", "v", "w"],
            [("u", "x", 1), ("u", "x", 1), ("x", "v", 1), ("x", "w", 1), ("v", "w", 1)],
        )
        assert not admissible(g, 0, 1, "x")

    def test_theta_pair_admissible(self):
        assert admissible(theta(), 0, 2, "x")

    def test_target_side_must_cut_its_value(self):
        # the split theta still joins s and t by a flow of 2, and {t} cuts 2:
        # a link whose side does not cut its weight is a certificate failure
        adj = pair_capacities(theta())
        (link,) = splitting._flow_tree(adj, "x")
        assert (link.u, link.v, link.target, link.side) == ("t", "s", 2, frozenset({"t"}))
        splitting._shift(adj, "x", "s", "t", 1)
        assert nonzero(adj) == nonzero(pair_capacities(split_off(theta(), 0, 2, pivot="x")[0]))
        assert splitting._keeps_targets(adj, [link], "x", "s", "t", 1, {})
        link.target = 1
        with pytest.raises(CertificateError):
            splitting._keeps_targets(adj, [link], "x", "s", "t", 1, {})

    def test_side_separating_the_pivot_refuses_without_a_flow(self, monkeypatch):
        # the side {v} of the link v-u separates x from v, so splitting the
        # doubled xv with itself lowers its cut from 3 to 1: refused, with
        # that cut as certificate, before any flow runs
        g = Multigraph.build(
            ["u", "v", "x"], [("u", "x", 1), ("u", "x", 1), ("x", "v", 1), ("x", "v", 1), ("u", "v", 1)]
        )
        adj = pair_capacities(g)
        (link,) = splitting._flow_tree(adj, "x")
        assert (link.u, link.v, link.target, link.side) == ("v", "u", 3, frozenset({"v"}))
        calls = []
        monkeypatch.setattr(splitting, "checked_flow", lambda *args: calls.append(args))
        assert splitting._largest_split(adj, [link], "x", "v", "v", 1) == 0
        assert not calls and nonzero(adj) == nonzero(pair_capacities(g))

    def test_admissible_split_preserves_cuts_on_samples(self):
        for g, a in [*sample_instances(5, 6, 4, 3, seed=10), *scaled_samples()]:
            for x in sorted(g.vertices - a.members)[:2]:
                others = g.vertices - {x}
                before = all_pairs_connectivity(g, others)
                for e, f in combinations_with_replacement(g.incident(x), 2):
                    if e is f and e.cap < 2:
                        continue
                    split, _ = split_off(g, e.id, f.id, pivot=x)
                    assert admissible(g, e.id, f.id, x) == (
                        all_pairs_connectivity(split, others) == before
                    )

    def test_largest_split_matches_oracle(self):
        # the amount relay elimination splits is the largest one whose split
        # graph keeps every pairwise min-cut among V - x; each call takes
        # its split on its own copy of the map and the links
        seen = {"pairs": 0, "admissible": 0, "partial": 0, "loop": 0}
        for g, a in scaled_samples():
            for x in sorted(g.vertices - a.members)[:2]:
                others = g.vertices - {x}
                before = all_pairs_connectivity(g, others)
                adj = pair_capacities(g)
                links = splitting._flow_tree(adj, x)
                for e, f in combinations_with_replacement(g.incident(x), 2):
                    most = e.cap // 2 if e is f else min(e.cap, f.cap)
                    if not most:
                        continue
                    r, t = e.other(x), f.other(x)
                    kept = [m for m in range(1, most + 1) if all_pairs_connectivity(
                        split_off(g, e.id, f.id, pivot=x, amount=m)[0], others) == before]
                    taken, own = copy.deepcopy((adj, links))
                    m = splitting._largest_split(taken, own, x, r, t, most)
                    assert m == max(kept, default=0)
                    assert m == bisection_split(splitting._keeps_targets, adj, links, x, r, t, most)[0]
                    assert nonzero(adj) == nonzero(pair_capacities(g))
                    split = split_off(g, e.id, f.id, pivot=x, amount=m)[0] if m else g
                    assert nonzero(taken) == nonzero(pair_capacities(split))
                    seen["pairs"] += 1
                    seen["admissible"] += m > 0
                    seen["partial"] += 0 < m < most
                    seen["loop"] += r == t
        assert min(seen.values()) > 0 and seen["admissible"] < seen["pairs"]

    def test_cut_bounds_take_fewer_trials_than_bisection(self, monkeypatch):
        # at the K4 + relay x16 pivot every refused trial's cut names the
        # largest amount left, so each split takes at most two trials where
        # bisection takes up to five; the amounts are bisection's
        keeps_targets, largest_split = splitting._keeps_targets, splitting._largest_split
        trials = {"cut": 0, "bisection": 0}

        def counted_keeps(*args):
            trials["cut"] += 1
            return keeps_targets(*args)

        def both_searches(adj, links, x, r, t, most):
            amount, bisections = bisection_split(keeps_targets, adj, links, x, r, t, most)
            trials["bisection"] += bisections
            out = largest_split(adj, links, x, r, t, most)
            assert out == amount
            return out

        monkeypatch.setattr(splitting, "_keeps_targets", counted_keeps)
        monkeypatch.setattr(splitting, "_largest_split", both_searches)
        _, hist, _ = eliminate_relays(*k4_with_relay(16))
        assert [ev.amount for ev in hist.events] == [8, 8, 8]
        assert trials == {"cut": 7, "bisection": 18}

    def test_bound_outside_the_open_amounts_is_a_certificate_failure(self, monkeypatch):
        # a trial refuses with an amount below it and at least 0; any other
        # answer is a fault, refused whatever python -O strips
        adj = pair_capacities(k4_with_relay(4)[0])
        links = splitting._flow_tree(adj, "x")
        before = nonzero(adj)
        for answers in ([-1], [5], [2, 3]):
            left = iter(answers)
            monkeypatch.setattr(splitting, "_keeps_targets", lambda *args: next(left))
            with pytest.raises(CertificateError, match="left the amount"):
                splitting._largest_split(adj, links, "x", "s", "t1", 4)
            assert nonzero(adj) == before

    def test_degree_five_pivot_has_admissible_pair(self):
        # Mader's theorem promises one admissible pair at an odd degree other than 3
        instances = list(sample_instances(8, 7, 5, 3, seed=5))
        for (g, _), x in ((instances[6], "v3"), (instances[7], "v5")):
            unit = unit_form(g)
            assert degree(unit, x) == 5
            [(_, cuts)] = cut_edges(unit, [x])
            assert not any(e.id in cuts for e in unit.incident(x))
            inc = [e.id for e in unit.incident(x)]
            assert any(admissible(unit, e, f, x) for e, f in combinations(inc, 2))


class TestCompleteSplitting:
    def test_four_cycle_relay(self):
        g = Multigraph.build(
            ["s", "a", "x", "b"],
            [("s", "a", 1), ("a", "x", 1), ("x", "b", 1), ("b", "s", 1)],
        )
        out, hist = split_completely(g, "x")
        assert out.vertices == {"s", "a", "b"}
        assert all_pairs_connectivity(out, {"s", "a", "b"}) == {
            frozenset(p): 2 for p in (("s", "a"), ("s", "b"), ("a", "b"))
        }
        assert hist.replay().edges == out.edges

    def test_cut_edge_at_pivot(self):
        # degree-4 pivot on a triangle with a doubled edge, plus c hanging
        # off x by a single bridge
        g = Multigraph.build(
            ["a", "b", "x", "c"],
            [("a", "b", 1), ("b", "x", 1), ("x", "a", 1), ("x", "a", 1), ("x", "c", 1)],
        )
        with pytest.raises(CutEdgeAtPivot):
            split_completely(g, "x")

    def test_cut_edge_messages_are_pinned(self):
        # recorded while each pivot still walked once per incident unit edge:
        # the message names the pivot's cut-edge with the smallest id
        draws = even_relay_multigraphs(3, 300)
        got = {}
        for i, (g, a) in enumerate(draws):
            try:
                eliminate_relays(g, a)
            except CutEdgeAtPivot as exc:
                got[i] = str(exc)
        assert got == {i: f"cut-edge {eid} incident to pivot {x!r}" for i, (eid, x) in CUT_EDGE_AT_PIVOT.items()}
        several = sum(
            sum(reference_bridge_sides(draws[i][0], e) is not None for e in draws[i][0].incident(x)) >= 2
            for i, (_, x) in CUT_EDGE_AT_PIVOT.items()
        )
        assert several >= 10

    def test_theta_pivot_yields_parallel_edges(self):
        out, _ = split_completely(theta(), "x")
        assert out.vertices == {"s", "t"}
        assert len(out.edges) == 2
        assert all({e.u, e.v} == {"s", "t"} for e in out.edges)


class TestEliminateRelays:
    def test_cycle_family_collapses_to_terminal_cycle(self):
        g, a = example2_instance(5, (0, 2))
        out, hist, scale = eliminate_relays(g, a)
        assert scale == 1
        assert out.vertices == a.members
        assert len(out.edges) == 5
        assert all(e.cap == 1 for e in out.edges)
        assert terminal_cut(out, a)[0] == 2

    def test_relay_free_unchanged(self):
        g, a = example2_instance(4)
        out, hist, scale = eliminate_relays(g, a)
        assert out == g and scale == 1 and not hist.events

    def test_odd_relay_forces_scale_two(self):
        # relay x with three incident unit edges inside a 2-edge-connected graph
        g = Multigraph.build(
            ["s", "t", "u", "x"],
            [("s", "x", 1), ("t", "x", 1), ("u", "x", 1),
             ("s", "t", 1), ("t", "u", 1), ("u", "s", 1)],
        )
        a = TerminalSet("s", ("t", "u"))
        before = all_pairs_connectivity(g, a.members)
        out, hist, scale = eliminate_relays(g, a)
        assert scale == 2
        assert out.vertices == a.members
        after = all_pairs_connectivity(out, a.members)
        assert after == {k: 2 * v for k, v in before.items()}

    def test_matches_reference_search(self):
        # one split of the largest amount ends where splitting unit pairs
        # one at a time ends, up to edge ids and parallel classes
        cases = [*sample_instances(8, 7, 5, 3, seed=5), *scaled_samples(),
                 *(k4_with_relay(k) for k in (2, 3, 4, 8, 16))]
        for g, a in cases:
            out, hist, scale = eliminate_relays(g, a)
            ref_out, ref_events, ref_pivots, ref_scale = reference_eliminate_relays(g, a)
            assert hist.deleted_pivots == ref_pivots
            assert out.vertices == ref_out.vertices
            assert pair_capacities(out) == pair_capacities(ref_out)
            assert scale == ref_scale
            assert sum(ev.amount for ev in hist.events) == len(ref_events)

    def test_closing_check_refuses_lowered_terminal_cuts(self, monkeypatch):
        # every first trial takes one unit on the map and no link carries
        # its flow, so each edge at the relay splits with itself; the
        # checked flows between the terminals then fall short of the values
        # the first tree gives
        monkeypatch.setattr(splitting, "_largest_split",
                            lambda adj, links, x, r, t, most: splitting._shift(adj, x, r, t, 1) or 1)
        with pytest.raises(CertificateError, match="after splitting differs from its value"):
            eliminate_relays(*k4_with_relay(2))

    def test_splits_keep_relay_degrees_even(self):
        # scaling by 2 makes every relay degree even, and no split changes
        # a degree's parity, so every pivot is split completely
        for g, a in [*scaled_samples(), *sample_instances(20, 8, 6, 3, 0)]:
            _, hist, _ = eliminate_relays(g, a)
            relays = hist.base.vertices - a.members
            cur = hist.base
            for ev in hist.events:
                cur, _ = split_off(cur, ev.e_id, ev.f_id, pivot=ev.pivot, new_id=ev.new_id, amount=ev.amount)
                assert all(degree(cur, x) % 2 == 0 for x in relays)

    def test_replay_round_trip(self):
        for g, a in sample_instances(5, 7, 5, 3, seed=77):
            out, hist, scale = eliminate_relays(g, a)
            replayed = hist.replay()
            assert replayed.vertices == out.vertices
            assert sorted(replayed.edges, key=lambda e: e.id) == sorted(
                out.edges, key=lambda e: e.id
            )


def bench_samples():
    return [*sample_instances(20, 8, 6, 3, 0), *sample_instances(5, 10, 10, 4, 0)]


def tree_path_minima(tree):
    """Least weight on the path between every two vertices of the tree
    given as (u, v, weight) links."""
    links = {}
    for u, v, target in tree:
        links.setdefault(u, []).append((v, target))
        links.setdefault(v, []).append((u, target))
    path_min = {}
    for start in links:
        stack, seen = [(start, None)], {start}
        while stack:
            y, least = stack.pop()
            if least is not None:
                path_min[frozenset((start, y))] = least
            for z, target in links[y]:
                if z not in seen:
                    seen.add(z)
                    stack.append((z, target if least is None else min(least, target)))
    return path_min


def carries_flow(res, adj, s, t, value):
    """True iff the residual map ``res`` is that of an s-t flow of ``value``
    on the pair capacities ``adj``."""
    pairs = {(u, v) for m in (res, adj) for u in m for v in m[u]}
    if any(res.get(u, {}).get(v, 0) < 0 for u, v in pairs):
        return False
    if any(res.get(u, {}).get(v, 0) + res.get(v, {}).get(u, 0) != 2 * adj.get(u, {}).get(v, 0)
           for u, v in pairs):
        return False
    # net flow out of each vertex, twice over: res[y][u] - res[u][y] is 2 f(u, y)
    out = {u: sum(res.get(y, {}).get(u, 0) - c for y, c in res.get(u, {}).items()) for u in adj}
    return all(out[u] == {s: 2 * value, t: -2 * value}.get(u, 0) for u in adj)


# SHA-256 of repr(history.events), one instance after another, over the
# random benchmark's cores and then their x3 and x7 copies.  Recorded
# before relay elimination carried its flow tree across pivots: every
# split decision is the one the per-pivot trees made.
RANDOM_HISTORY_DIGEST = "ea271e4f8db6b78148840cd8c62d0b6ed85fecc5641e83cfcf83418fc70fb6cd"


class TestTreeTargets:
    def test_tree_pairs_decide_like_all_pairs(self, monkeypatch):
        # every candidate split that relay elimination checks, as the graph
        # of its pair capacities, with the graph split so far and the pivot
        checked = []
        keeps_targets = splitting._keeps_targets

        def record_check(adj, links, x, r, t, amount, kept):
            before = {u: dict(nbrs) for u, nbrs in adj.items()}
            splitting._shift(before, x, r, t, -amount)
            left = keeps_targets(adj, links, x, r, t, amount, kept)
            checked.append((pair_graph(before), x, pair_graph(adj), left == amount))
            return left

        monkeypatch.setattr(splitting, "_keeps_targets", record_check)
        for g, a in [*bench_samples(), *scaled_samples()]:
            eliminate_relays(g, a)
        assert any(kept for *_, kept in checked) and not all(kept for *_, kept in checked)
        before = {}
        for g, x, split, kept in checked:
            others = g.vertices - {x}
            if (g, x) not in before:
                before[g, x] = all_pairs_connectivity(g, others)
            assert kept == (all_pairs_connectivity(split, others) == before[g, x])

    def test_trials_leave_the_pair_capacities_of_the_graph(self, monkeypatch):
        # a search that refuses every trial leaves the map as it was, and
        # after each accepted one the map equals the pair capacities of the
        # graph split so far; a pair left at 0 keeps a 0 entry
        maps, trials = [], []
        largest_split = splitting._largest_split

        def checked_trials(adj, *args):
            before = nonzero(adj)
            out = largest_split(adj, *args)
            if out:
                maps.append(nonzero(adj))
            else:
                assert nonzero(adj) == before
            trials.append(out)
            return out

        monkeypatch.setattr(splitting, "_largest_split", checked_trials)
        events = 0
        for g, a in [*bench_samples(), *scaled_samples(), *(k4_with_relay(k) for k in (4, 16))]:
            maps.clear()
            _, hist, _ = eliminate_relays(g, a)
            assert len(maps) == len(hist.events)
            cur = hist.base
            for ev, adj in zip(hist.events, maps):
                cur, _ = split_off(cur, ev.e_id, ev.f_id, pivot=ev.pivot, new_id=ev.new_id, amount=ev.amount)
                assert adj == nonzero(pair_capacities(cur))
            events += len(hist.events)
        assert len(trials) > events > 100

    def test_tree_path_minima_equal_all_pairs(self, monkeypatch):
        # Gusfield's theorem: the least weight on the tree path between two
        # vertices of V - x is their cut value, at every relay pivot, for the
        # tree built at the first pivot and for every tree x is taken out of
        pivots = []
        flow_tree, without = splitting._flow_tree, splitting._without

        def record(build):
            def recorded(adj, *args):
                tree = build(adj, *args)
                pivots.append((pair_graph(adj), args[-1], [(l.u, l.v, l.target) for l in tree]))
                return tree
            return recorded

        monkeypatch.setattr(splitting, "_flow_tree", record(flow_tree))
        monkeypatch.setattr(splitting, "_without", record(without))
        for g, a in [*bench_samples(), *scaled_samples()]:
            eliminate_relays(g, a)
        assert len(pivots) > 100
        for g, x, tree in pivots:
            # the pivots split before x are isolated in the map
            live = {v for v in g.vertices if g.incident(v)}
            assert {v for link in tree for v in link[:2]} == live - {x}
            assert tree_path_minima(tree) == all_pairs_connectivity(g, live - {x})

    def test_carried_flows_and_sides_hold_after_every_split(self, monkeypatch):
        # after every accepted split each link carries a flow of its weight
        # on the split map, and its side still cuts exactly its weight
        seen = {"splits": 0, "links": 0}
        largest_split = splitting._largest_split

        def checked_split(adj, links, *args):
            out = largest_split(adj, links, *args)
            if not out:
                return out
            seen["splits"] += 1
            for link in links:
                assert carries_flow(link.res, adj, link.u, link.v, link.target)
                assert link.u in link.side and link.v not in link.side
                assert cut_capacity(adj, link.side) == link.target
                seen["links"] += 1
            return out

        monkeypatch.setattr(splitting, "_largest_split", checked_split)
        for g, a in [*bench_samples(), *scaled_samples()]:
            eliminate_relays(g, a)
        assert seen["links"] > seen["splits"] > 100

    def test_fewer_flows_than_all_pairs(self, monkeypatch):
        # the first pivot builds its tree with n - 2 flows, and every later
        # pivot pays one flow for each tree neighbour but the heaviest
        calls, per_pivot = [], []
        flow, flow_tree, without = splitting.checked_flow, splitting._flow_tree, splitting._without
        monkeypatch.setattr(splitting, "checked_flow", lambda *args: calls.append(args) or flow(*args))

        def count_tree(adj, x):
            before = len(calls)
            tree = flow_tree(adj, x)
            per_pivot.append((len(calls) - before, len(adj) - 2))
            return tree

        def count_without(adj, links, x):
            before = len(calls)
            tree = without(adj, links, x)
            per_pivot.append((len(calls) - before, sum(x in (l.u, l.v) for l in links) - 1))
            return tree

        monkeypatch.setattr(splitting, "_flow_tree", count_tree)
        monkeypatch.setattr(splitting, "_without", count_without)
        for g, a in sample_instances(20, 8, 6, 3, 0):
            eliminate_relays(g, a)
        assert len(per_pivot) > 20 and all(flows == want for flows, want in per_pivot)

    def test_flows_per_random_pass(self, monkeypatch):
        # relay elimination over one pass of the random benchmark's cores:
        # 1901 flows with a tree per pivot and every trial flowed, 619 with
        # one tree and carried flows
        calls = []
        flow = splitting.checked_flow
        monkeypatch.setattr(splitting, "checked_flow", lambda *args: calls.append(args) or flow(*args))
        for g, a in bench_samples():
            eliminate_relays(prune_to_core(g, a), a)
        assert len(calls) <= 650

    def test_reroutes_per_random_pass(self, monkeypatch):
        # relay elimination over one pass of the random benchmark's cores:
        # 2282 reroutes when each accepted split rerouted every carried flow
        # a second time, 1292 when it takes what its trial found
        calls = []
        reroute = splitting._reroute
        monkeypatch.setattr(splitting, "_reroute", lambda *args: calls.append(args) or reroute(*args))
        for g, a in bench_samples():
            eliminate_relays(prune_to_core(g, a), a)
        assert len(calls) <= 1400

    def test_split_decisions_are_pinned(self):
        digest = hashlib.sha256()
        cores = [(prune_to_core(g, a), a) for g, a in bench_samples()]
        for k in (1, 3, 7):
            for g, a in cores:
                digest.update(repr(eliminate_relays(scale_capacities(g, k), a)[1].events).encode())
        assert digest.hexdigest() == RANDOM_HISTORY_DIGEST


class TestCutEdgeWalks:
    def test_one_walk_per_component_and_one_per_call(self, monkeypatch):
        # a lowpoint walk answers every cut-edge question of a graph; per
        # edge or per pivot walks would multiply these counts
        walks, other = [], []

        def counted(g, roots):
            out = cut_edges(g, roots)
            walks.append(len(out))
            return out

        def reach(*args):
            other.append(args)
            return edge_component(*args)

        samples = bench_samples()
        for module in (multigraph, splitting):
            monkeypatch.setattr(module, "cut_edges", counted)
            monkeypatch.setattr(module, "edge_component", reach)
        cores = []
        for g, a in samples:
            ends = {e.id: (e.u, e.v) for e in g.edges}
            components = {frozenset(edge_component(ends, ends, t)) for t in a.members}
            walks.clear()
            cores.append((prune_to_core(g, a), a))
            assert walks == [len(components)]
        # relay elimination walks its (scaled) input once, before any split,
        # when the input has a unit edge, and not otherwise
        calls = walked = 0
        for g, a in cores + [k4_with_relay(k) for k in (1, 4, 16)]:
            walks.clear()
            _, hist, _ = eliminate_relays(g, a)
            unit = any(e.cap == 1 for e in hist.base.edges)
            assert walks == ([1] if unit else [])
            calls += 1
            walked += unit
        assert calls > walked > 0 and not other


class TestLiftPacking:
    def test_single_split_reversal(self):
        g = Multigraph.build(
            ["s", "a", "x", "b"],
            [("s", "a", 1), ("a", "x", 1), ("x", "b", 1), ("b", "s", 1)],
        )
        a = TerminalSet("s", ("a", "b"))
        out, hist = split_completely(g, "x")
        new_edge = next(e for e in out.edges if {e.u, e.v} == {"a", "b"})
        packing = SteinerPacking(((frozenset({0, new_edge.id}), 1),), 1)
        lifted = lift_packing(hist, packing)
        assert verify_packing(g, a, lifted)
        assert lifted.trees == ((frozenset({0, 1, 2}), 1),)
        with pytest.raises(InvalidPacking, match="tree references unknown edge 9"):
            lift_packing(hist, SteinerPacking(((frozenset({0, 9}), 1),), 1))

    def test_packing_avoiding_splitting_edges_unchanged(self):
        g, a = example2_instance(4, (0,))
        out, hist, _ = eliminate_relays(g, a)
        # a tree on the split graph avoiding the fresh splitting edge
        fresh = {ev.new_id for ev in hist.events}
        keep = [e for e in out.edges if e.id not in fresh]
        tree_edges = frozenset(e.id for e in keep)
        if len(tree_edges) == len(a.members) - 1:
            packing = SteinerPacking(((tree_edges, 1),), 1)
            lifted = lift_packing(hist, packing)
            assert lifted.trees[0][0] == tree_edges

    def test_cycle_family_spanning_tree_lifts(self):
        g, a = example2_instance(5, (0, 2))
        out, hist, scale = eliminate_relays(g, a)
        k, packed = max_integer_packing(solve_tree_lp(out, a))
        assert k == 1
        lifted = lift_packing(hist, packed)
        assert verify_packing(hist.base, a, lifted)

    def test_splitting_edges_never_reuse_an_id(self):
        # an r == t split deletes splitting edge 11, the largest id, and the
        # next splitting edge once took 11 again
        g, a = next(sample_instances(1, 6, 6, 2, 5))
        out, hist, _ = eliminate_relays(g, a)
        fresh = [ev.new_id for ev in hist.events if ev.new_id is not None]
        assert fresh == [11, 12]
        assert all(ev.new_id is None for ev in hist.events[1:-1])
        assert hist.replay() == out
        k, packed = max_integer_packing(solve_tree_lp(out, a))
        lifted = lift_packing(hist, packed)
        assert verify_packing(hist.base, a, lifted) and sum(units for _, units in lifted.trees) == k
        for g, a in sample_instances(30, 7, 6, 3, seed=5):
            out, hist, _ = eliminate_relays(g, a)
            fresh = [ev.new_id for ev in hist.events if ev.new_id is not None]
            assert len(set(fresh)) == len(fresh)
            assert min(fresh, default=hist.base.next_id()) >= hist.base.next_id()

    def test_lift_preserves_cardinality_and_verifies(self):
        for g, a in sample_instances(8, 7, 5, 3, seed=5):
            out, hist, scale = eliminate_relays(g, a)
            k, packed = max_integer_packing(solve_tree_lp(out, a))
            lifted = lift_packing(hist, packed)
            assert verify_packing(hist.base, a, lifted)
            assert lifted.rate == packed.rate and lifted.denominator == packed.denominator
            assert sum(units for _, units in lifted.trees) == k
