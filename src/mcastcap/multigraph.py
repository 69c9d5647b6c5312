"""Undirected capacitated multigraph model and terminal-preserving preprocessing.

Vertices are strings; edges carry stable integer ids and strictly positive
integer capacities.  All values are immutable: every operation returns a new
graph.  Rates and all derived quantities use exact rational arithmetic
(``fractions.Fraction``); no floating point anywhere.

Two walks answer every graph question here: ``edge_component`` for
reachability, and ``cut_edges``, one lowpoint walk in O(V + E) that finds
every capacity-1 cut-edge of the components it starts from, for pruning
and for the cut-edge check at each splitting pivot.

``reduce_core`` first groups parallel edges into one edge per vertex
pair, of their summed capacity: a tree never uses two parallel copies,
and the copies are interchangeable, so the solvers run on the grouped
graph and every packing is expanded back onto concrete edge ids.  It then
removes relays by two of the non-terminal degree tests of C. W. Duin and
A. Volgenant (*Reduction tests for the Steiner problem in graphs*,
Networks 1989).  Both are exact for λ(A), every tree packing and edge
strength η:

- A relay with at most one distinct neighbour is deleted.  No minimal
  tree enters it, and in a partition it joins its neighbour's block,
  crossing nothing.
- A relay x with exactly two neighbours u and v, with bundle capacities
  c1 and c2, becomes a u-v part of capacity min(c1, c2).  A minimal tree
  through x has x internal, so it uses one unit of each bundle, and it
  cannot also use a u-v edge; the part is one more parallel copy of u-v.
  In a partition x sits on its heavier neighbour's side, so it crosses
  min(c1, c2) exactly when u and v are apart, and nothing otherwise, as
  the part does.

``Reduction`` owns the way back.  ``expand`` turns a packing of the
reduced graph into one of the core: each piece of a tree takes one entry
of each of its edges' bundles, a core edge or a part's chain of core
edges.  A tree uses at most one entry of a bundle, and the relays inside
one part's chain are in no other bundle, so the chains turn a tree of the
reduced graph into a tree of the core; the parts through a core edge have
capacities that sum to at most its own, so its loads stay within it, and
every packing checks on the pruned core.  ``lift`` puts the removed relays back
into a partition of the reduced graph, in reverse removal order, each into
the block of the neighbour ``reduce_core`` recorded for it: the only
neighbour of a deleted relay, and the heavier of a contracted relay's two,
the smaller name on ties.  When a contracted relay's neighbours share a
block it joins that block and crosses nothing; when they are apart it
crosses min(c1, c2), as its part did.  The lifted partition therefore has
the same crossing and number of blocks: the least minimizer of the reduced
graph lifts to a minimizer of the core, not necessarily the least.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from heapq import heappop, heappush
from fractions import Fraction

from .errors import (
    BridgeBetweenTerminals,
    CertificateError,
    DisconnectedTerminals,
    InvalidGraph,
    UnknownEdge,
    UnknownVertex,
)

Rate = Fraction


@dataclass(frozen=True)
class Edge:
    id: int
    u: str
    v: str
    cap: int

    def other(self, x: str) -> str:
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise ValueError(f"vertex {x!r} is not an endpoint of edge {self.id}")

    def touches(self, x: str) -> bool:
        return x == self.u or x == self.v


@dataclass(frozen=True)
class TerminalSet:
    source: str
    sinks: tuple[str, ...]

    def __post_init__(self):
        if self.source in self.sinks:
            raise InvalidGraph("source may not also be a sink")
        if len(set(self.sinks)) != len(self.sinks):
            raise InvalidGraph("duplicate sink")
        if len(self.sinks) < 1:
            raise InvalidGraph("need at least two terminals")

    @property
    def members(self) -> frozenset[str]:
        return frozenset((self.source, *self.sinks))


@dataclass(frozen=True)
class Multigraph:
    vertices: frozenset[str]
    edges: tuple[Edge, ...]

    # -- lookups -----------------------------------------------------------

    def edge(self, eid: int) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise UnknownEdge(f"no edge with id {eid}")

    def incident(self, v: str) -> list[Edge]:
        if v not in self.vertices:
            raise UnknownVertex(f"no vertex {v!r}")
        return [e for e in self.edges if e.touches(v)]

    def next_id(self) -> int:
        return max((e.id for e in self.edges), default=-1) + 1

    def total_capacity(self) -> int:
        return sum(e.cap for e in self.edges)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def build(vertices, triples) -> "Multigraph":
        """Build from an iterable of (u, v, cap) triples; ids assigned in order."""
        edges = tuple(Edge(i, u, v, c) for i, (u, v, c) in enumerate(triples))
        return Multigraph(frozenset(vertices), edges)

    def restrict(self, vs) -> "Multigraph":
        """Induced subgraph on the vertex set ``vs``."""
        vs = frozenset(vs)
        return Multigraph(vs, tuple(e for e in self.edges if e.u in vs and e.v in vs))


def degree(g: Multigraph, v: str) -> int:
    """Capacity degree of ``v``: a capacity-c edge contributes c."""
    return sum(e.cap for e in g.incident(v))


def edge_component(edge_ids, ends: dict[int, tuple[str, str]], start: str) -> set[str]:
    """Vertices reached from ``start`` over the edge ids; ``ends`` maps each
    id to its endpoints.  Every reachability question in the package, from
    a tree check to a whole-graph walk, is answered here; the cut-edges
    come from the one lowpoint walk of ``cut_edges``."""
    adj: dict[str, list[str]] = {}
    for eid in edge_ids:
        u, v = ends[eid]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    comp = {start}
    stack = [start]
    while stack:
        for y in adj.get(stack.pop(), ()):
            if y not in comp:
                comp.add(y)
                stack.append(y)
    return comp


def validate(g: Multigraph, a: TerminalSet) -> None:
    """Check all structural invariants and that the terminals are connected.

    Raises InvalidGraph or DisconnectedTerminals; returns None on success.
    """
    seen_ids: set[int] = set()
    for e in g.edges:
        if e.u not in g.vertices or e.v not in g.vertices:
            raise InvalidGraph(f"edge {e.id} has a dangling endpoint")
        if not isinstance(e.cap, int) or isinstance(e.cap, bool) or e.cap <= 0:
            raise InvalidGraph(f"edge {e.id} capacity must be a positive integer: {e.cap!r}")
        if e.u == e.v:
            raise InvalidGraph(f"edge {e.id} is a self-loop at {e.u!r}")
        if e.id in seen_ids:
            raise InvalidGraph(f"duplicate edge id {e.id}")
        seen_ids.add(e.id)
    for t in (a.source, *a.sinks):
        if t not in g.vertices:
            raise InvalidGraph(f"terminal {t!r} is not a vertex")
    ends = {e.id: (e.u, e.v) for e in g.edges}
    if not a.members <= edge_component(ends, ends, a.source):
        raise DisconnectedTerminals("terminals span multiple components")


def scale_capacities(g: Multigraph, n: int) -> Multigraph:
    """Multiply every capacity by n; ids and topology unchanged."""
    if n < 1:
        raise ValueError("scale factor must be >= 1")
    if n == 1:
        return g
    return Multigraph(g.vertices, tuple(Edge(e.id, e.u, e.v, e.cap * n) for e in g.edges))


def cut_edges(g: Multigraph, roots) -> list[tuple[set[str], dict[int, set[str]]]]:
    """Every capacity-1 cut-edge in the components of ``roots``, from one
    lowpoint walk (R. E. Tarjan, *A note on finding the bridges of a
    graph*, IPL 1974).

    One entry per component, in the order a root first reaches it: its
    vertex set, and each of its cut-edge ids mapped to the vertices below
    the edge in the depth-first tree.  Deleting one unit of such an edge
    splits its component into that set and the rest.  The walk skips only
    the tree edge's own id, so a parallel copy is a back edge; an edge of
    capacity >= 2 is never a cut-edge.
    """
    adj: dict[str, list[tuple[str, int, int]]] = {}
    for e in g.edges:
        adj.setdefault(e.u, []).append((e.v, e.id, e.cap))
        adj.setdefault(e.v, []).append((e.u, e.id, e.cap))
    # pre[v]: depth-first preorder index; low[v]: least preorder index
    # reached from v's subtree by one edge other than v's tree edge
    pre: dict[str, int] = {}
    low: dict[str, int] = {}
    order: list[str] = []
    out = []
    for root in roots:
        if root in pre:
            continue
        start = len(order)
        pre[root] = low[root] = start
        order.append(root)
        cuts: dict[int, set[str]] = {}
        # (vertex, id and capacity of its tree edge, its unread neighbours)
        stack = [(root, None, 0, iter(adj.get(root, ())))]
        while stack:
            v, via, cap, todo = stack[-1]
            for w, eid, c in todo:
                if eid == via:
                    continue
                p = pre.get(w)
                if p is None:
                    pre[w] = low[w] = len(order)
                    order.append(w)
                    stack.append((w, eid, c, iter(adj[w])))
                    break
                if p < low[v]:
                    low[v] = p
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    # v's subtree is everything reached since v
                    if low[v] > pre[u] and cap == 1:
                        cuts[via] = set(order[pre[v]:])
        out.append((set(order[start:]), cuts))
    return out


def prune_to_core(g: Multigraph, a: TerminalSet) -> Multigraph:
    """Delete terminal-free parts hanging off cut-edges, and terminal-free components.

    Raises BridgeBetweenTerminals when a cut-edge separates two terminals
    (then the terminal connectivity is 1 and the capacity is 1 outright).
    One lowpoint walk from the terminals gives the kept components and
    every cut-edge's two sides.  One pass suffices: deleting a terminal-free
    side makes no new cut-edge.  Idempotent; preserves every pairwise
    terminal min-cut.
    """
    terms = a.members
    keep: set[str] = set()
    drop: set[str] = set()
    for comp, cuts in cut_edges(g, sorted(terms & g.vertices)):
        keep |= comp
        for below in cuts.values():
            free = [side for side in (below, comp - below) if not side & terms]
            if not free:
                raise BridgeBetweenTerminals(
                    "a cut-edge separates two terminals: terminal connectivity is 1"
                )
            drop |= free[0]
    return g.restrict(keep - drop)


@dataclass(frozen=True, eq=False)
class Reduction:
    """The graph the searches run on, ``graph``, and the pruned core it
    stands for, ``core``, on which every certificate is checked.

    ``graph`` has one edge per vertex pair, keyed by the smallest id it
    absorbed, or by a fresh id above the core's when a contraction made
    the pair, in key order.  ``bundles`` maps each key to the (core edge
    ids, capacity) entries it stands for, in fill order: the pair's core
    edges in id order, then the parts that contractions appended, in the
    order they were made; the capacities sum to the edge's.  ``removed``
    lists each removed relay, in removal order, with the neighbour whose
    block it joins in ``lift`` (module docstring), or None when it had no
    neighbour left.
    """

    core: Multigraph
    graph: Multigraph
    bundles: dict[int, tuple[tuple[tuple[int, ...], int], ...]]
    removed: tuple[tuple[str, str | None], ...]

    @staticmethod
    def of(g: "Multigraph | Reduction") -> "Reduction":
        """``g`` itself if it is a reduction; a plain graph is the reduction
        that groups its parallel edges and removes nothing."""
        return g if isinstance(g, Reduction) else _reduce(g, g.vertices)

    def expand(self, units, scale: int) -> list[tuple[frozenset[int], int]]:
        """A packing of ``graph``, as (edge keys, units of 1/``scale``)
        pairs, as the (core edge ids, units) pairs of a packing of the core
        (module docstring), sorted by their sorted ids.

        Each piece of a tree takes, in every one of its bundles, the first
        entry with room left, its capacity times ``scale`` less what earlier
        pieces took, and as many units as every picked entry still has.
        Room only shrinks, so a per-bundle cursor never moves backwards.  A
        tree that finds no room raises CertificateError.
        """
        room = {key: [cap * scale for _, cap in entries] for key, entries in self.bundles.items()}
        cursor = dict.fromkeys(self.bundles, 0)
        slices: dict[frozenset[int], int] = {}
        for keys, m in units:
            keys = sorted(keys)
            while m > 0:
                picks = []
                amount = m
                for key in keys:
                    left, i = room[key], cursor[key]
                    while i < len(left) and left[i] == 0:
                        i += 1
                    if i == len(left):
                        raise CertificateError("parallel-class capacity accounting broken")
                    cursor[key] = i
                    picks.append((key, i))
                    amount = min(amount, left[i])
                for key, i in picks:
                    room[key][i] -= amount
                ids = frozenset([c for key, i in picks for c in self.bundles[key][i][0]])
                slices[ids] = slices.get(ids, 0) + amount
                m -= amount
        return sorted(slices.items(), key=lambda kv: sorted(kv[0]))

    def lift(self, blocks) -> tuple[frozenset[str], ...]:
        """The blocks of a partition of ``graph`` with every removed relay
        put back (module docstring), in the same block order."""
        block_of = {v: i for i, b in enumerate(blocks) for v in b}
        for x, y in reversed(self.removed):
            block_of[x] = 0 if y is None else block_of[y]
        out = [set() for _ in blocks]
        for v, i in block_of.items():
            out[i].add(v)
        return tuple(frozenset(b) for b in out)


def reduce_core(core: Multigraph, a: TerminalSet) -> Reduction:
    """Group the parallel edges, then delete relays with at most one
    distinct neighbour and contract those with exactly two (module
    docstring), until neither rule applies."""
    return _reduce(core, a.members)


def _reduce(core: Multigraph, keep: frozenset[str]) -> Reduction:
    """``reduce_core`` with every vertex outside ``keep`` a relay it may
    remove.

    A worklist takes the relays in sorted order, and a removal puts the
    removed relay's relay neighbours back on it.  A contracted relay's two
    bundles are paired unit by unit in fill order, so it may give several
    parts, and the parts' capacities partition each entry's capacity on the
    lighter side and stay within it on the heavier.  The parts are appended
    to the u-v bundle, which takes a fresh id above the core's only if u
    and v had no edge.  Each removed relay records the neighbour whose
    block it joins when lifted: the one with the larger bundle capacity,
    the smaller name on ties.
    """
    # near[x][y]: the key of the x-y bundle
    near: dict[str, dict[str, int]] = {v: {} for v in core.vertices}
    bundles: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    ends: dict[int, tuple[str, str]] = {}

    def bundle(u: str, v: str, key: int) -> list[tuple[tuple[int, ...], int]]:
        """The u-v bundle, opened under ``key`` if u and v have none."""
        if v not in near[u]:
            near[u][v] = near[v][u] = key
            bundles[key], ends[key] = [], (u, v)
        return bundles[near[u][v]]

    for e in sorted(core.edges, key=lambda e: e.id):
        bundle(e.u, e.v, e.id).append(((e.id,), e.cap))
    next_id = core.next_id()
    removed = []
    todo = sorted(core.vertices - keep)  # a sorted list is a heap
    while todo:
        x = heappop(todo)
        at = near.get(x)
        if at is None or len(at) > 2:
            continue
        # max keeps the first of equal bundles, the smaller name
        removed.append((x, max(sorted(at), key=lambda y: sum(c for _, c in bundles[at[y]]), default=None)))
        if len(at) == 2:
            u, v = sorted(at)
            us, vs = bundles[at[u]], bundles[at[v]]
            parts = bundle(u, v, next_id)
            if near[u][v] == next_id:
                next_id += 1
            i = j = 0
            ru, rv = us[0][1], vs[0][1]
            while i < len(us) and j < len(vs):
                amount = min(ru, rv)
                parts.append((us[i][0] + vs[j][0], amount))
                ru, rv = ru - amount, rv - amount
                if ru == 0 and (i := i + 1) < len(us):
                    ru = us[i][1]
                if rv == 0 and (j := j + 1) < len(vs):
                    rv = vs[j][1]
        for y, key in at.items():
            del near[y][x]
            del bundles[key]
            if y not in keep:
                heappush(todo, y)
        del near[x]
    bundles = {key: tuple(bundles[key]) for key in sorted(bundles)}
    edges = tuple(Edge(key, *ends[key], sum(c for _, c in entries)) for key, entries in bundles.items())
    return Reduction(core, Multigraph(frozenset(near), edges), bundles, tuple(removed))


# -- interchange format ----------------------------------------------------


def _name(value) -> str:
    """A vertex name from JSON: a string, or an integer taken as its digits."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return str(value)
    raise InvalidGraph(f"vertex name must be a string or an integer: {value!r}")


def load_instance(text: str) -> tuple[Multigraph, TerminalSet]:
    """Parse the JSON interchange format.

    ``{"vertices": [...], "edges": [[u, v, cap], ...], "source": s, "sinks": [...]}``
    Duplicate triples denote parallel edges, given ids in order.  The parser
    checks the JSON shape, the names, duplicate vertex names and that each
    edge is a ``[u, v, cap]`` triple; names are strings or integers, coerced
    with ``str``, so ``1`` and ``"1"`` are the same name.  The graph it
    builds is then checked by ``validate``, which rejects self-loops,
    capacities that are not positive integers, dangling endpoints and
    disconnected terminals.
    """
    # a JSONDecodeError and an integer past the digit limit are ValueErrors;
    # deep nesting exhausts the parser's recursion
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidGraph(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidGraph("instance must be a JSON object")
    try:
        arrays = {key: obj[key] for key in ("vertices", "edges", "sinks")}
        source = _name(obj["source"])
    except KeyError as exc:
        raise InvalidGraph(f"missing field: {exc}") from exc
    for key, value in arrays.items():
        if not isinstance(value, list):
            raise InvalidGraph(f"{key!r} must be a JSON array: {value!r}")
    vertices = [_name(v) for v in arrays["vertices"]]
    sinks = [_name(s) for s in arrays["sinks"]]
    if len(set(vertices)) != len(vertices):
        dup = next(v for i, v in enumerate(vertices) if v in vertices[:i])
        raise InvalidGraph(f"duplicate vertex {dup!r} (names are compared as strings)")
    triples = []
    for t in arrays["edges"]:
        if not (isinstance(t, list) and len(t) == 3):
            raise InvalidGraph(f"edge entry must be a [u, v, cap] triple: {t!r}")
        triples.append((_name(t[0]), _name(t[1]), t[2]))
    g = Multigraph.build(vertices, triples)
    a = TerminalSet(source, tuple(sinks))
    validate(g, a)
    return g, a


def dump_instance(g: Multigraph, a: TerminalSet) -> str:
    return json.dumps(
        {
            "vertices": sorted(g.vertices),
            "edges": [[e.u, e.v, e.cap] for e in sorted(g.edges, key=lambda e: e.id)],
            "source": a.source,
            "sinks": list(a.sinks),
        },
        indent=2,
    )
