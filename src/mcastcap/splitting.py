"""Splitting-off calculus: admissible pairs, complete splitting, relay elimination,
and lifting tree packings back through a split history.

All splitting operations work on the unit-edge view (every capacity 1); callers
expand with ``Multigraph.unit_form()`` first.  Relay elimination output stays in
unit form so that histories reference concrete unit edges; ``aggregated()``
re-forms capacities for presentation.

A complete splitting at pivot x computes the cut value and certified
minimal source side of n - 2 pairs of V - x once, n = |V|: each split it
takes keeps all of them, so they are the targets for the whole splitting.
Splitting never raises a cut, so a flow on the split graph stopped at its
target decides a pair.  Reaching it proves the value unchanged, and the
target's side must then cut exactly that capacity (the split-cut
certificate); falling short, its own residual cut must carry its value, and
the candidate is refused.

The pairs are the edges of Gusfield's equivalent-flow tree on V - x
(D. Gusfield, *Very simple methods for all pairs network flow analysis*,
SIAM J. Comput. 1990), with every cut taken in the whole graph.  Each
vertex after the first, in sorted order, takes one flow to its tree parent
t, and every later vertex still hanging off t that lies on its side of
that cut moves under it.  By Gusfield's theorem λ(s, t) is the least target
on the tree path from s to t, for every pair of V - x.  In any graph
λ(s, t) ≥ min(λ(s, w), λ(w, t)), so λ(s, t) is at least the least λ of the
pairs along any path from s to t.  A split that keeps every tree pair at
its target therefore leaves every λ'(s, t) at least the least target on
the tree path, which is λ(s, t), and splitting never raises a cut: it
keeps every λ(s, t), and the decision is the one a check of all
C(n - 1, 2) pairs makes.

A complete splitting needs no backtracking.  The pivot has even degree and
no cut-edge when the splitting starts, and:

- Mader's theorem (W. Mader, *A reduction method for edge-connectivity in
  graphs*, 1978; A. Frank, *On a theorem of Mader*, 1992): a pivot of
  degree other than 3 with no cut-edge has an admissible pair.
- An admissible split keeps the pivot free of cut-edges.  Suppose edge xc
  became one.  The degree of x stays even, so x keeps another edge xd, and
  d lies on x's side of that cut: λ(c, d) ≤ 1 after the split.  Before the
  split, every c-d cut crossed xc or xd, and a cut crossed by one edge
  alone would have made that edge a cut-edge, so λ(c, d) was at least 2.
  The split lowered λ(c, d) and was not admissible.
- So a complete admissible splitting remains after every admissible
  split.  Splitting never raises a cut, so splitting any of its pairs
  first leaves every cut between its values before and after the whole
  splitting, which are equal: the pair holding the smallest remaining edge
  is admissible.

Taking the first admissible partner of the smallest edge, one split after
another, therefore never gets stuck, and it takes the same path as a
backtracking search over pairings in the same order.  A missing partner is
a bug and raises CertificateError.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import (
    CertificateError,
    CutEdgeAtPivot,
    InvalidGraph,
    InvalidPacking,
    NotIncident,
    OddDegree,
    SameEdge,
)
from .connectivity import PairCapacities, cut_capacity, is_cut_edge, pair_capacities, pair_flow
from .multigraph import Edge, Multigraph, TerminalSet, degree, edge_component, scale_capacities
from .packing import SteinerPacking, SteinerTree


@dataclass(frozen=True)
class SplitEvent:
    pivot: str
    e_id: int
    r: str  # other endpoint of e
    f_id: int
    t: str  # other endpoint of f
    new_id: int | None  # None when r == t and the would-be loop is discarded


@dataclass(frozen=True)
class SplitHistory:
    base: Multigraph
    events: tuple[SplitEvent, ...]
    deleted_pivots: tuple[str, ...]

    def replay(self) -> Multigraph:
        """Re-apply all events to the base graph; must reproduce the final graph."""
        g = self.base
        for ev in self.events:
            g, _ = split_off(g, ev.e_id, ev.f_id, pivot=ev.pivot, new_id=ev.new_id)
        return g.without_vertices(self.deleted_pivots)


def _resolve_pivot(g: Multigraph, e: Edge, f: Edge, pivot: str | None) -> str:
    shared = {e.u, e.v} & {f.u, f.v}
    if not shared:
        raise NotIncident(f"edges {e.id} and {f.id} share no endpoint")
    if pivot is not None:
        if pivot not in shared:
            raise NotIncident(f"vertex {pivot!r} is not a shared endpoint")
        return pivot
    return min(shared)


def split_off(
    g: Multigraph,
    e_id: int,
    f_id: int,
    pivot: str | None = None,
    new_id: int | None = None,
) -> tuple[Multigraph, SplitEvent]:
    """Delete unit edges e = rx and f = xt, add the splitting edge rt.

    When r == t the would-be loop is discarded and the event records no
    splitting edge.  Parallel pairs (two copies of the same vertex pair) take
    an explicit pivot or default to the smaller shared endpoint.
    """
    if e_id == f_id:
        raise SameEdge("cannot split an edge with itself")
    e, f = g.edge(e_id), g.edge(f_id)
    if e.cap != 1 or f.cap != 1:
        raise InvalidGraph("split_off requires the unit-edge view")
    x = _resolve_pivot(g, e, f, pivot)
    r, t = e.other(x), f.other(x)
    out = g.without_edges((e_id, f_id))
    if r == t:
        return out, SplitEvent(x, e_id, r, f_id, t, None)
    nid = g.next_id() if new_id is None else new_id
    out = Multigraph(out.vertices, out.edges + (Edge(nid, r, t, 1),))
    return out, SplitEvent(x, e_id, r, f_id, t, nid)


def _checked_flow(adj: PairCapacities, s: str, t: str, limit: int | None = None):
    """``pair_flow`` whose cut, when the flow is maximum, must carry its value."""
    value, side = pair_flow(adj, s, t, limit)
    if side is not None and cut_capacity(adj, side) != value:
        raise CertificateError(f"flow value {value} from {s!r} to {t!r} differs from its cut")
    return value, side


def _cut_targets(g: Multigraph, x: str) -> list[tuple[str, str, int, frozenset[str]]]:
    """Cut value and certified minimal source side of the n - 2 pairs of
    Gusfield's equivalent-flow tree over V - x (module docstring)."""
    adj = pair_capacities(g)
    nodes = sorted(g.vertices - {x})
    parent = {u: nodes[0] for u in nodes[1:]}
    tree = []
    for i, s in enumerate(nodes[1:], 1):
        t = parent[s]
        value, side = _checked_flow(adj, s, t)
        tree.append((s, t, value, side))
        for u in nodes[i + 1:]:
            if parent[u] == t and u in side:
                parent[u] = s
    return tree


def _keeps_targets(split: Multigraph, targets) -> bool:
    """True iff the split graph keeps every target cut value; stops at the
    first pair that falls short."""
    adj = pair_capacities(split)
    for u, v, target, side in targets:
        if _checked_flow(adj, u, v, target)[1] is not None:
            return False
        if cut_capacity(adj, side) != target:
            raise CertificateError(f"target side of {u!r}-{v!r} does not cut {target} after the split")
    return True


def is_admissible(g: Multigraph, e_id: int, f_id: int, pivot: str | None = None) -> bool:
    """True iff splitting preserves every pairwise min-cut among V - pivot."""
    split, ev = split_off(g, e_id, f_id, pivot=pivot)
    return _keeps_targets(split, _cut_targets(g, ev.pivot))


def suitable_complete_splitting(g: Multigraph, x: str) -> tuple[Multigraph, SplitHistory]:
    """Isolate x by admissible splits only, then delete it.

    Preserves every pairwise min-cut among V - x exactly.  Splits the
    smallest remaining edge at x with its first admissible partner, which
    always exists (module docstring).
    """
    if not g.is_unit():
        raise InvalidGraph("splitting requires the unit-edge view")
    d = degree(g, x)
    if d % 2 == 1:
        raise OddDegree(f"pivot {x!r} has odd degree {d}; scale capacities by 2 first")
    far = {e.id: e.other(x) for e in g.incident(x)}
    copies = Counter(far.values())
    for e_id, y in far.items():
        # a unit edge with a parallel copy is never a cut-edge
        if copies[y] == 1 and is_cut_edge(g, e_id):
            raise CutEdgeAtPivot(f"cut-edge {e_id} incident to pivot {x!r}")
    targets = _cut_targets(g, x)
    cur, events, rem = g, [], sorted(far)
    while rem:
        e_id, refused = rem[0], set()
        for f_id in rem[1:]:
            # candidates with the same far endpoint give the same split up to edge ids
            if far[f_id] in refused:
                continue
            split, ev = split_off(cur, e_id, f_id, pivot=x)
            if _keeps_targets(split, targets):
                break
            refused.add(far[f_id])
        else:
            raise CertificateError(
                f"no admissible partner for edge {e_id} at pivot {x!r}, "
                "though Mader's theorem promises one"
            )
        cur = split
        events.append(ev)
        rem = [i for i in rem[1:] if i != f_id]
    return cur.without_vertices((x,)), SplitHistory(g, tuple(events), (x,))


def eliminate_relays(
    g: Multigraph, a: TerminalSet
) -> tuple[Multigraph, SplitHistory, int]:
    """Suitable complete splitting at every relay, in ascending vertex order.

    If some relay has odd unit-degree, capacities are first scaled by 2
    (returned scale factor 2) so all relay degrees become even.  The result
    has vertex set exactly A; every A-Steiner tree in it is a spanning tree.
    Output is in unit form; pairwise terminal min-cuts equal scale times the
    originals.
    """
    relays = sorted(g.vertices - a.members)
    if not relays:
        return g, SplitHistory(g, (), ()), 1

    scale = 1
    if any(degree(g, x) % 2 == 1 for x in relays):
        scale = 2
        g = scale_capacities(g, 2)
    base, _ = g.unit_form()

    cur = base
    events: list[SplitEvent] = []
    pivots: list[str] = []
    for x in relays:
        cur, hist = suitable_complete_splitting(cur, x)
        events.extend(hist.events)
        pivots.append(x)
    return cur, SplitHistory(base, tuple(events), tuple(pivots)), scale


# -- packing lift ----------------------------------------------------------


def lift_packing(history: SplitHistory, packing):
    """Replay split events in reverse, rewriting trees that use splitting edges.

    Each reversal removes the splitting edge w = rt from any tree containing
    it and reconnects via the splitted pair: {e, f} plus the pivot when the
    pivot is not yet on the tree, otherwise whichever single edge bridges the
    two components of T - w.  Cardinality, multiplicities and disjointness are
    preserved; the output packs the base graph of the history.
    """
    # reconstruct per-stage endpoint info by replaying forward
    endpoint: dict[int, tuple[str, str]] = {e.id: (e.u, e.v) for e in history.base.edges}
    for ev in history.events:
        if ev.new_id is not None:
            endpoint[ev.new_id] = (ev.r, ev.t)

    trees = [(set(t.edge_ids), mult) for t, mult in packing.trees]
    for edge_set, _ in trees:
        for eid in edge_set:
            if eid not in endpoint:
                raise InvalidPacking(f"tree references unknown edge {eid}")

    for ev in reversed(history.events):
        if ev.new_id is None:
            continue
        w = ev.new_id
        for edge_set, _ in trees:
            if w not in edge_set:
                continue
            edge_set.discard(w)
            comp_r = edge_component(edge_set, endpoint, ev.r)
            if ev.pivot in comp_r:
                edge_set.add(ev.f_id)  # pivot on r-side: bridge to t
            elif ev.pivot in edge_component(edge_set, endpoint, ev.t):
                edge_set.add(ev.e_id)  # pivot on t-side: bridge to r
            else:
                edge_set.add(ev.e_id)
                edge_set.add(ev.f_id)

    out = []
    for edge_set, mult in trees:
        vs = frozenset(v for eid in edge_set for v in endpoint[eid])
        out.append((SteinerTree(frozenset(edge_set), vs), mult))
    return SteinerPacking(tuple(out), packing.denominator, packing.rate)
