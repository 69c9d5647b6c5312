import random
import re

import pytest
from hypothesis import given, strategies as st

from mcastcap import (
    Edge,
    Multigraph,
    Reduction,
    TerminalSet,
    degree,
    dump_instance,
    load_instance,
    prune_to_core,
    scale_capacities,
    validate,
)
from mcastcap.multigraph import cut_edges, edge_component
from mcastcap.errors import (
    BridgeBetweenTerminals,
    DisconnectedTerminals,
    InvalidGraph,
    UnknownEdge,
    UnknownVertex,
)


def triangle(*extra):
    """The unit triangle on the terminals s, r1, r2, plus the ``extra``
    (u, v, cap) edges and their endpoints."""
    triples = [("s", "r1", 1), ("r1", "r2", 1), ("r2", "s", 1), *extra]
    g = Multigraph.build({v for u, w, _ in triples for v in (u, w)}, triples)
    return g, TerminalSet("s", ("r1", "r2"))


class TestValidate:
    def test_triangle_ok(self):
        g, a = triangle()
        validate(g, a)

    def test_dangling_endpoint(self):
        g = Multigraph.build(["s", "r1"], [("s", "zz", 1)])
        with pytest.raises(InvalidGraph):
            validate(g, TerminalSet("s", ("r1",)))

    def test_zero_capacity(self):
        g = Multigraph.build(["s", "r1"], [("s", "r1", 0)])
        with pytest.raises(InvalidGraph):
            validate(g, TerminalSet("s", ("r1",)))

    def test_self_loop(self):
        g = Multigraph.build(["s", "r1"], [("s", "s", 1), ("s", "r1", 1)])
        with pytest.raises(InvalidGraph):
            validate(g, TerminalSet("s", ("r1",)))

    def test_disconnected_terminals(self):
        g = Multigraph.build(
            ["a", "b", "c", "d", "e", "f"],
            [("a", "b", 1), ("b", "c", 1), ("c", "a", 1),
             ("d", "e", 1), ("e", "f", 1), ("f", "d", 1)],
        )
        with pytest.raises(DisconnectedTerminals):
            validate(g, TerminalSet("a", ("d",)))

    def test_duplicate_sink(self):
        with pytest.raises(InvalidGraph, match="duplicate sink"):
            TerminalSet("s", ("r1", "r2", "r1"))


class TestLookups:
    def test_missing_edge_id(self):
        g, _ = triangle()
        with pytest.raises(UnknownEdge, match="no edge with id 3"):
            g.edge(3)

    def test_other_end_of_a_vertex_off_the_edge(self):
        g, _ = triangle()
        with pytest.raises(ValueError, match="'r2' is not an endpoint of edge 0"):
            g.edge(0).other("r2")


class TestScale:
    def test_triangle_doubled(self):
        g, _ = triangle()
        g2 = scale_capacities(g, 2)
        assert [e.cap for e in g2.edges] == [2, 2, 2]
        assert g2.vertices == g.vertices
        assert [e.id for e in g2.edges] == [e.id for e in g.edges]

    def test_identity(self):
        g, _ = triangle()
        assert scale_capacities(g, 1) == g

    def test_factor_below_one(self):
        g, _ = triangle()
        with pytest.raises(ValueError, match="scale factor must be >= 1"):
            scale_capacities(g, 0)

    def test_path(self):
        g = Multigraph.build(["a", "b", "c"], [("a", "b", 2), ("b", "c", 3)])
        assert [e.cap for e in scale_capacities(g, 3).edges] == [6, 9]

    @given(st.integers(1, 5), st.integers(1, 5))
    def test_composition(self, m, n):
        g, _ = triangle()
        assert scale_capacities(scale_capacities(g, m), n) == scale_capacities(g, m * n)


class TestDegree:
    def test_triangle_vertex(self):
        g, _ = triangle()
        assert degree(g, "s") == 2

    def test_capacity_weighting(self):
        g = Multigraph.build(["a", "b"], [("a", "b", 3)])
        assert degree(g, "a") == 3

    def test_isolated(self):
        g = Multigraph.build(["a", "b", "c"], [("a", "b", 1)])
        assert degree(g, "c") == 0

    def test_unknown_vertex(self):
        g, _ = triangle()
        with pytest.raises(UnknownVertex):
            degree(g, "nope")

    def test_degree_sum_is_twice_capacity(self):
        g = Multigraph.build(
            ["a", "b", "c", "d"],
            [("a", "b", 2), ("b", "c", 1), ("c", "d", 3), ("a", "d", 1), ("a", "c", 2)],
        )
        assert sum(degree(g, v) for v in g.vertices) == 2 * g.total_capacity()


class TestPrune:
    def test_pendant_path_removed(self):
        g, a = triangle(("r1", "p1", 1), ("p1", "p2", 1))
        core = prune_to_core(g, a)
        assert core.vertices == {"s", "r1", "r2"}
        assert len(core.edges) == 3

    def test_bridgeless_unchanged(self):
        g, a = triangle()
        assert prune_to_core(g, a) == g

    def test_bridge_between_terminals(self):
        g = Multigraph.build(["s", "t"], [("s", "t", 1)])
        with pytest.raises(BridgeBetweenTerminals):
            prune_to_core(g, TerminalSet("s", ("t",)))

    def test_idempotent(self):
        g, a = triangle(("s", "p", 1))
        once = prune_to_core(g, a)
        assert prune_to_core(once, a) == once

    def test_terminal_free_component_dropped(self):
        g, a = triangle(("q1", "q2", 1))
        assert prune_to_core(g, a).vertices == {"s", "r1", "r2"}


def reference_bridge_sides(g, e):
    """The two sides of e when deleting one unit of it disconnects its
    endpoints, else None: two whole-graph walks for one edge."""
    if e.cap >= 2:
        return None
    ends = {d.id: (d.u, d.v) for d in g.edges if d.id != e.id}
    side_u = edge_component(ends, ends, e.u)
    if e.v in side_u:
        return None
    return side_u, edge_component(ends, ends, e.v)


def reference_prune(g, a):
    """Prune by restarting the edge scan after every removal."""
    terms = a.members
    ends = {e.id: (e.u, e.v) for e in g.edges}
    cur = g.restrict(frozenset().union(*(edge_component(ends, ends, t) for t in terms)))
    while True:
        terminal_bridge = False
        for e in sorted(cur.edges, key=lambda e: e.id):
            if e.cap >= 2:
                continue
            rest = [d.id for d in cur.edges if d.id != e.id]
            side_u = edge_component(rest, ends, e.u)
            if e.v in side_u:
                continue
            side_v = edge_component(rest, ends, e.v)
            free = [side for side in (side_u, side_v) if not side & terms]
            if free:
                cur = cur.restrict(cur.vertices - free[0])
                break
            terminal_bridge = True
        else:
            if terminal_bridge:
                raise BridgeBetweenTerminals("a cut-edge separates two terminals")
            return cur


def _pruned(prune, g, a):
    try:
        return prune(g, a)
    except BridgeBetweenTerminals:
        return None


class TestPruneOracle:
    def test_random_small_multigraphs(self):
        rng = random.Random(11)
        seen = {"bridge": 0, "disconnected": 0, "pruned": 0}
        for _ in range(600):
            n = rng.randint(2, 9)
            names = [f"v{i}" for i in range(n)]
            triples = []
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.sample(names, 2)
                triples.append((u, v, rng.choice((1, 1, 1, 2))))
            g = Multigraph.build(names, triples)
            terms = rng.sample(names, rng.randint(2, min(4, n)))
            a = TerminalSet(terms[0], tuple(terms[1:]))
            want = _pruned(reference_prune, g, a)
            assert _pruned(prune_to_core, g, a) == want
            seen["bridge"] += want is None
            ends = {e.id: (e.u, e.v) for e in g.edges}
            seen["disconnected"] += edge_component(ends, ends, names[0]) != g.vertices
            seen["pruned"] += want is not None and want != g
        assert min(seen.values()) >= 50


class TestCutEdgeOracle:
    def test_random_multigraphs(self):
        # one lowpoint walk against two whole-graph walks per unit edge
        rng = random.Random(23)
        seen = {"parallel": 0, "fat": 0, "isolated": 0, "components": 0, "cut": 0, "roots": 0}
        for _ in range(800):
            n = rng.randint(1, 10)
            names = [f"v{i}" for i in range(n)]
            triples = []
            for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
                u, v = rng.sample(names, 2)
                triples.append((u, v, rng.choice((1, 1, 1, 2))))
            g = Multigraph.build(names, triples)
            roots = rng.sample(names, rng.randint(1, min(3, n)))
            ends = {e.id: (e.u, e.v) for e in g.edges}
            want = []
            for root in roots:
                if any(root in comp for comp, _ in want):
                    continue
                comp = edge_component(ends, ends, root)
                sides = {}
                for e in g.edges:
                    pair = reference_bridge_sides(g, e) if e.u in comp else None
                    if pair is not None:
                        sides[e.id] = pair
                want.append((comp, sides))
            got = cut_edges(g, roots)
            assert [comp for comp, _ in got] == [comp for comp, _ in want]
            for (comp, cuts), (_, sides) in zip(got, want):
                assert cuts.keys() == sides.keys()
                for eid, below in cuts.items():
                    assert {frozenset(below), frozenset(comp - below)} == {frozenset(x) for x in sides[eid]}
            pairs = [frozenset((u, v)) for u, v, _ in triples]
            seen["parallel"] += len(set(pairs)) < len(pairs)
            seen["fat"] += any(c == 2 for _, _, c in triples)
            seen["isolated"] += any(len(edge_component(ends, ends, v)) == 1 for v in names)
            seen["components"] += len(want) > 1
            seen["cut"] += any(cuts for _, cuts in want)
            seen["roots"] += len(want) < len(roots)
        assert min(seen.values()) >= 50


class TestInterchange:
    def test_round_trip(self):
        g, a = triangle()
        g2, a2 = load_instance(dump_instance(g, a))
        assert g2.vertices == g.vertices
        assert [(e.u, e.v, e.cap) for e in g2.edges] == [(e.u, e.v, e.cap) for e in g.edges]
        assert a2 == a

    def test_duplicate_triples_are_parallel_edges(self):
        g, _ = load_instance(
            '{"vertices": ["a", "b"], "edges": [["a", "b", 1], ["a", "b", 1]],'
            ' "source": "a", "sinks": ["b"]}'
        )
        assert len(g.edges) == 2

    def test_rejects_self_loop(self):
        # the loader builds the graph and validate rejects the loop
        with pytest.raises(InvalidGraph, match="^edge 0 is a self-loop at 'a'$"):
            load_instance(
                '{"vertices": ["a", "b"], "edges": [["a", "a", 1], ["a", "b", 1]],'
                ' "source": "a", "sinks": ["b"]}'
            )

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(InvalidGraph, match="^edge 0 capacity must be a positive integer: -2$"):
            load_instance(
                '{"vertices": ["a", "b"], "edges": [["a", "b", -2]],'
                ' "source": "a", "sinks": ["b"]}'
            )
        # a library graph is checked by validate alone: the type before the sign
        for cap in ("1", None, [1], True, 1.5):
            g = Multigraph(frozenset("ab"), (Edge(0, "a", "b", cap),))
            with pytest.raises(InvalidGraph, match=re.escape(f"positive integer: {cap!r}")):
                validate(g, TerminalSet("a", ("b",)))

    def test_rejects_garbage(self):
        for text, message in [
            ("not json at all", "malformed JSON"),
            ('{"vertices": ["a", "a", "b", "c"], "edges": [["a", "b", 1], ["b", "c", 1], ["c", "a", 1]],'
             ' "source": "a", "sinks": ["b", "c"]}', "duplicate vertex 'a'"),
            # 1 and "1" are the same name once coerced to a string
            ('{"vertices": [1, "1", "b"], "edges": [[1, "b", 1], ["1", "b", 1]],'
             ' "source": "1", "sinks": ["b"]}', "duplicate vertex '1'"),
            # names are strings or integers, lists are JSON arrays
            ('{"vertices": [null, "a", "b"], "edges": [["a", "b", 1]], "source": "a", "sinks": ["b"]}',
             "vertex name must be a string or an integer: None"),
            ('{"vertices": ["a", "b"], "edges": [["a", "b", 1]], "source": "a", "sinks": [true]}',
             "vertex name must be a string or an integer: True"),
            ('{"vertices": ["a", "b"], "edges": [["a", 1.5, 1]], "source": "a", "sinks": ["b"]}',
             "vertex name must be a string or an integer: 1.5"),
            ('{"vertices": ["a", "b"], "edges": [["a", "b", 1]], "source": {"x": 1}, "sinks": ["b"]}',
             "vertex name must be a string or an integer: {'x': 1}"),
            ('{"vertices": ["a", "b", "c"], "edges": [["a", "b", 1], ["b", "c", 1]], "source": "a",'
             ' "sinks": "bc"}', "'sinks' must be a JSON array: 'bc'"),
            ('{"vertices": "ab", "edges": [], "source": "a", "sinks": ["b"]}',
             "'vertices' must be a JSON array: 'ab'"),
            # nesting deeper than the parser's recursion limit
            ("[" * 100_000, "malformed JSON"),
            # an integer past the interpreter's digit limit for conversion
            ('{"vertices": [' + "9" * 5000 + '], "edges": [], "source": "a", "sinks": ["b"]}',
             "malformed JSON"),
        ]:
            with pytest.raises(InvalidGraph, match=re.escape(message)):
                load_instance(text)


class TestAggregated:
    def test_merges_parallel_edges(self):
        g = Multigraph.build(
            ["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("a", "b", 1), ("b", "c", 2)]
        )
        r = Reduction.of(g)
        assert r.graph.edges == (Edge(0, "a", "b", 2), Edge(1, "b", "c", 3))
        assert r.bundles == {0: (((0,), 1), ((2,), 1)), 1: (((1,), 1), ((3,), 2))}
        assert (r.core, r.removed) == (g, ())
