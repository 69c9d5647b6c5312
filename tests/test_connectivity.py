from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mcastcap import (
    Multigraph,
    TerminalSet,
    dump_instance,
    example2_instance,
    terminal_cut,
)
from mcastcap import connectivity
from mcastcap.cli import main
from mcastcap.connectivity import checked_flow, pair_capacities, pair_flow
from mcastcap.errors import CertificateError, UnknownVertex
from mcastcap.multigraph import cut_edges, edge_component
from test_splitting import unit_form


def cycle(n, cap=1):
    names = [f"v{i}" for i in range(n)]
    return Multigraph.build(names, [(names[i], names[(i + 1) % n], cap) for i in range(n)])


def complete(n):
    names = [f"v{i}" for i in range(n)]
    return Multigraph.build(names, [(u, v, 1) for u, v in combinations(names, 2)])


def brute_min_cut(g, u, v):
    """Exhaustive oracle: min total capacity over unit-edge subsets whose
    removal disconnects u from v."""
    unit = unit_form(g)
    ends = {e.id: (e.u, e.v) for e in unit.edges}
    m = len(unit.edges)
    best = None
    for mask in range(1 << m):
        removed = frozenset(unit.edges[i].id for i in range(m) if mask >> i & 1)
        if best is not None and len(removed) >= best:
            continue
        if v not in edge_component([i for i in ends if i not in removed], ends, u):
            best = len(removed) if best is None else min(best, len(removed))
    return best if best is not None else 0


def brute_minimal_side(g, u, v):
    """Exhaustive oracle: the intersection of the source sides of all minimum
    u-v cuts, over every vertex set containing u and not v."""
    others = sorted(g.vertices - {u, v})
    best, sides = None, []
    for mask in range(1 << len(others)):
        side = frozenset([u, *(others[i] for i in range(len(others)) if mask >> i & 1)])
        cap = sum(e.cap for e in g.edges if (e.u in side) != (e.v in side))
        if best is None or cap < best:
            best, sides = cap, [side]
        elif cap == best:
            sides.append(side)
    return frozenset.intersection(*sides)


def flow(g, u, v):
    """λ(u, v) and its certified minimal source side, as the program computes them."""
    return checked_flow(pair_capacities(g), u, v)


class TestMaxFlow:
    def test_parallel_edges(self):
        g = Multigraph.build(["u", "v"], [("u", "v", 1)] * 4)
        assert flow(g, "u", "v")[0] == 4

    def test_four_cycle_opposite(self):
        g = cycle(4)
        assert flow(g, "v0", "v2")[0] == 2

    def test_cycle_family_pair(self):
        g, _ = example2_instance(5, (0, 2))
        assert flow(g, "v0", "v2")[0] == 2

    def test_symmetry(self):
        g, _ = example2_instance(4, (1,))
        for u, v in combinations(sorted(g.vertices), 2):
            assert flow(g, u, v)[0] == flow(g, v, u)[0]

    def test_certificate_consistency(self):
        g = complete(4)
        value, side = flow(g, "v0", "v3")
        assert "v0" in side and "v3" not in side
        assert sum(e.cap for e in g.edges if (e.u in side) != (e.v in side)) == value


class TestTerminalConnectivity:
    def test_triangle(self):
        g = cycle(3)
        a = TerminalSet("v0", ("v1", "v2"))
        assert terminal_cut(g, a)[0] == 2

    def test_cycle_family(self):
        for na in (3, 4, 5):
            g, a = example2_instance(na, (0,))
            assert terminal_cut(g, a)[0] == 2

    def test_single_fat_edge(self):
        g = Multigraph.build(["a", "b"], [("a", "b", 5)])
        assert terminal_cut(g, TerminalSet("a", ("b",)))[0] == 5

    def test_subset_monotone(self):
        g = complete(5)
        big = TerminalSet("v0", ("v1", "v2", "v3"))
        small = TerminalSet("v0", ("v1",))
        assert terminal_cut(g, small)[0] >= terminal_cut(g, big)[0]

    def test_unknown_terminal(self):
        with pytest.raises(UnknownVertex):
            terminal_cut(cycle(3), TerminalSet("v0", ("v1", "zz")))

    def test_cut_side_is_the_first_minimising_sinks(self):
        # the side is the minimal source side of the first sink whose flow
        # attains lambda(A)
        heavy = Multigraph.build(["s", "t1", "t2", "x"], [("s", "t1", 9), ("s", "x", 2), ("x", "t2", 1), ("t1", "t2", 3)])
        # both sinks attain 2, the first with the smaller side {s, a, t2}
        fork = Multigraph.build(["s", "a", "y", "t1", "t2"], [("s", "a", 3), ("a", "y", 2), ("y", "t1", 2), ("a", "t2", 2)])
        cases = [(cycle(5), TerminalSet("v0", ("v2", "v4"))), (complete(5), TerminalSet("v0", ("v1", "v3"))),
                 (heavy, TerminalSet("s", ("t1", "t2"))), (fork, TerminalSet("s", ("t1", "t2"))),
                 *(example2_instance(na, (0, 2)) for na in (3, 4, 5))]
        for g, a in cases:
            lam, side = terminal_cut(g, a)
            t = next(t for t in a.sinks if brute_min_cut(g, a.source, t) == lam)
            assert side == brute_minimal_side(g, a.source, t)
        assert terminal_cut(heavy, TerminalSet("s", ("t1", "t2"))) == (4, frozenset({"s", "t1", "x"}))
        assert terminal_cut(fork, TerminalSet("s", ("t1", "t2"))) == (2, frozenset({"s", "a", "t2"}))

    def test_every_sink_flow_runs_to_its_maximum(self, monkeypatch):
        # lambda(A) is the least of the source's flows, none stopped, so each
        # is checked against its cut; ties go to the first sink
        heavy = Multigraph.build(["s", "t1", "t2", "x"], [("s", "t1", 9), ("s", "x", 2), ("x", "t2", 1), ("t1", "t2", 3)])
        cases = [(heavy, TerminalSet("s", ("t1", "t2"))), (complete(5), TerminalSet("v0", ("v1", "v3", "v4"))),
                 *(example2_instance(na, (0, 2)) for na in (3, 5))]
        flow, limits = connectivity.checked_flow, []

        def recorded(adj, s, t, limit=None, res=None):
            limits.append(limit)
            return flow(adj, s, t, limit, res)

        for g, a in cases:
            values = [flow(pair_capacities(g), a.source, t)[0] for t in a.sinks]
            limits.clear()
            with monkeypatch.context() as m:
                m.setattr(connectivity, "checked_flow", recorded)
                assert terminal_cut(g, a)[0] == min(values)
            assert limits == [None] * len(a.sinks)
        # heavy's second sink falls short of the first's 10, at 4
        assert terminal_cut(heavy, TerminalSet("s", ("t1", "t2"))) == (4, frozenset({"s", "t1", "x"}))

    def test_last_sinks_flow_is_checked(self, tmp_path, monkeypatch, capsys):
        # the kernel under-reports the last sink's flow alone, by one: its
        # value no longer matches its cut
        g, a = example2_instance(5, (0, 2))
        path = tmp_path / "cycle.json"
        path.write_text(dump_instance(g, a))
        flow = connectivity.pair_flow

        def short(adj, s, t, limit=None, res=None):
            value, side = flow(adj, s, t, limit, res)
            return value - (t == a.sinks[-1]), side

        monkeypatch.setattr(connectivity, "pair_flow", short)
        assert main(["analyze", str(path)]) == 4
        assert f"to {a.sinks[-1]!r} does not match a cut between them" in capsys.readouterr().err


def test_checked_flow_needs_a_cut_that_carries_its_value(monkeypatch):
    adj = pair_capacities(cycle(4))
    # the value off its cut, a cut holding the sink, a cut missing the source
    for fault in ((3, frozenset({"v0"})), (0, frozenset(adj)), (2, frozenset({"v2"}))):
        monkeypatch.setattr(connectivity, "pair_flow", lambda *args, out=fault: out)
        with pytest.raises(CertificateError, match="does not match a cut between them"):
            connectivity.checked_flow(adj, "v0", "v2")


class TestCutEdge:
    def test_path_middle(self):
        g = Multigraph.build(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)])
        assert cut_edges(g, ["a"]) == [({"a", "b", "c"}, {0: {"b", "c"}, 1: {"c"}})]

    def test_cycle_edge(self):
        assert cut_edges(cycle(4), ["v0"]) == [({"v0", "v1", "v2", "v3"}, {})]

    def test_fat_edge_never_cut(self):
        g = Multigraph.build(
            ["a", "b", "c", "d", "e", "f"],
            [("a", "b", 1), ("b", "c", 1), ("c", "a", 1),
             ("d", "e", 1), ("e", "f", 1), ("f", "d", 1), ("c", "d", 2)],
        )
        assert cut_edges(g, ["a"]) == [(g.vertices, {})]


@st.composite
def small_multigraphs(draw):
    n = draw(st.integers(2, 5))
    names = [f"v{i}" for i in range(n)]
    # random spanning tree keeps it connected, then a few extras
    triples = []
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        triples.append((names[j], names[i], draw(st.integers(1, 2))))
    extras = draw(st.integers(0, 3))
    for _ in range(extras):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i != j:
            triples.append((names[i], names[j], 1))
    return Multigraph.build(names, triples)


@settings(max_examples=60, deadline=None)
@given(small_multigraphs())
def test_max_flow_matches_exhaustive_oracle(g):
    verts = sorted(g.vertices)
    adj = pair_capacities(g)
    # flows from the source alone give the minimum over all terminal pairs
    assert terminal_cut(g, TerminalSet(verts[-1], tuple(verts[:-1])))[0] == min(
        brute_min_cut(g, u, v) for u, v in combinations(verts, 2)
    )
    for u, v in combinations(verts, 2):
        lam, side = checked_flow(adj, u, v)
        assert lam == brute_min_cut(g, u, v)
        assert side == brute_minimal_side(g, u, v)
        # a stop value at or below the cut is reached; one above it is not
        for k in range(lam + 2):
            expected = (k, None) if k <= lam else (lam, side)
            assert pair_flow(adj, u, v, k) == expected
