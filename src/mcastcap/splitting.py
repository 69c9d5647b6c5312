"""Splitting-off calculus: admissible pairs, complete splitting, relay elimination,
and lifting tree packings back through a split history.

All splitting operations work on the unit-edge view (every capacity 1); callers
expand with ``Multigraph.unit_form()`` first.  Relay elimination output stays in
unit form so that histories reference concrete unit edges; ``aggregated()``
re-forms capacities for presentation.

A complete splitting at pivot x computes the cut value and certified
minimal source side of every pair of V - x once: each split it takes keeps
all of them, so they are the targets for the whole search.  Splitting never
raises a cut, so a flow on the split graph stopped at its target decides a
pair.  Reaching it proves the value unchanged, and the target's side must
then cut exactly that capacity (the split-cut certificate); falling short,
its own residual cut must carry its value, and the candidate is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    CertificateError,
    CutEdgeAtPivot,
    InvalidGraph,
    NotIncident,
    OddDegree,
    SameEdge,
    SearchExhausted,
)
from .connectivity import PairCapacities, cut_capacity, is_cut_edge, pair_capacities, pair_flow
from .multigraph import Edge, Multigraph, TerminalSet, degree, edge_component, scale_capacities


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
    """Cut value and certified minimal source side of every pair of V - x."""
    adj = pair_capacities(g)
    pairs = combinations(sorted(g.vertices - {x}), 2)
    return [(u, v, *_checked_flow(adj, u, v)) for u, v in pairs]


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


def _complete_splitting_search(g: Multigraph, x: str) -> tuple[Multigraph, list[SplitEvent]] | None:
    """Backtrack over pairings of the edges incident to x, splitting each
    admissible pair in sequence, until no edge remains.

    Candidates with the same far endpoint give the same split up to edge
    ids, so each level checks one per far endpoint.
    """
    far = {e.id: e.other(x) for e in g.incident(x)}
    targets = _cut_targets(g, x)

    def rec(cur: Multigraph, rem: list[int]):
        if not rem:
            return cur, []
        e_id = rem[0]
        admissible: dict[str, bool] = {}
        for f_id in rem[1:]:
            t = far[f_id]
            if admissible.get(t) is False:
                continue
            nxt, ev = split_off(cur, e_id, f_id, pivot=x)
            if t not in admissible:
                admissible[t] = _keeps_targets(nxt, targets)
            if admissible[t]:
                sub = rec(nxt, [i for i in rem if i not in (e_id, f_id)])
                if sub is not None:
                    return sub[0], [ev] + sub[1]
        return None

    return rec(g, sorted(far))


def _check_pivot(g: Multigraph, x: str) -> None:
    for e in g.incident(x):
        if is_cut_edge(g, e.id):
            raise CutEdgeAtPivot(f"cut-edge {e.id} incident to pivot {x!r}")


def suitable_complete_splitting(g: Multigraph, x: str) -> tuple[Multigraph, SplitHistory]:
    """Isolate x by admissible splits only, then delete it.

    Preserves every pairwise min-cut among V - x exactly.
    """
    if not g.is_unit():
        raise InvalidGraph("splitting requires the unit-edge view")
    d = degree(g, x)
    if d % 2 == 1:
        raise OddDegree(f"pivot {x!r} has odd degree {d}; scale capacities by 2 first")
    _check_pivot(g, x)
    found = _complete_splitting_search(g, x)
    if found is None:
        raise SearchExhausted(
            f"no suitable complete splitting at {x!r}; graph dump: "
            f"vertices={sorted(g.vertices)} edges={[(e.id, e.u, e.v) for e in g.edges]}"
        )
    final, events = found
    final = final.without_vertices((x,))
    return final, SplitHistory(g, tuple(events), (x,))


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
    from .packing import SteinerPacking, SteinerTree  # local import to avoid a cycle
    from .errors import InvalidPacking

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
