"""Relay elimination by complete splitting off at each relay, and lifting
tree packings back through the split history.

Splitting works on capacities: one split takes an amount off a pair of
edges at the pivot and adds one splitting edge of that capacity
(A. Frank, *On a theorem of Mader*, 1992), so the work and the history
grow with the number of edge pairs, not with capacity.

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
another, therefore never gets stuck.  A missing partner is a bug and raises
CertificateError.

Each split takes the largest amount that keeps the targets, found by
bisection that tries the full amount first.  Bisection is exact because
splitting more never raises a cut: splitting b more units after a units
leaves every cut at most where a units left it, so the amounts that keep
the targets are 0 to some m.  For the same reason a pair (r, t) refused
once stays refused for the whole pivot: splits commute, so splitting it
after further splits leaves every cut at most where splitting it before
them did, below some target.  The loop thus ends, aggregated, where a
backtracking search over pairings of unit edges in the same order ends.

The trials edit one map.  The pair capacities of the graph split so far
are built once per pivot, and the targets are computed on them before any
trial; a trial shifts its amount off the pairs xr and xt
onto rt in place, checks the targets on the map and shifts it back, and
only the accepted split builds the next graph with ``split_off``.  Flow
values and cut capacities depend on the pair capacities alone, so every
decision and certificate check is the one a freshly built split graph gives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count

from .errors import (
    CertificateError,
    CutEdgeAtPivot,
    InvalidGraph,
    InvalidPacking,
    NotIncident,
)
from .connectivity import PairCapacities, checked_flow, cut_capacity, pair_capacities
from .multigraph import (
    Edge,
    Multigraph,
    TerminalSet,
    degree,
    edge_component,
    is_cut_edge,
    scale_capacities,
)
from .packing import SteinerPacking, SteinerTree


@dataclass(frozen=True)
class SplitEvent:
    pivot: str
    e_id: int
    r: str  # other endpoint of e
    f_id: int
    t: str  # other endpoint of f
    new_id: int | None  # None when r == t and the would-be loop is discarded
    amount: int  # units taken off e and off f (twice off e when f is e)


@dataclass(frozen=True)
class SplitHistory:
    base: Multigraph
    events: tuple[SplitEvent, ...]
    deleted_pivots: tuple[str, ...]

    def replay(self) -> Multigraph:
        """Re-apply all events to the base graph; must reproduce the final graph."""
        g = self.base
        for ev in self.events:
            g, _ = split_off(g, ev.e_id, ev.f_id, pivot=ev.pivot, new_id=ev.new_id, amount=ev.amount)
        return g.restrict(g.vertices.difference(self.deleted_pivots))


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
    amount: int = 1,
) -> tuple[Multigraph, SplitEvent]:
    """Take ``amount`` units off e = rx and f = xt, add a splitting edge rt
    of that capacity; an edge left without capacity is deleted.

    f may be e itself, which takes 2 * amount units off e.  When r == t the
    would-be loop is discarded and the event records no splitting edge.
    Parallel pairs take an explicit pivot or default to the smaller shared
    endpoint.
    """
    e, f = g.edge(e_id), g.edge(f_id)
    x = _resolve_pivot(g, e, f, pivot)
    r, t = e.other(x), f.other(x)
    take = Counter((e_id, f_id))
    for eid, n in take.items():
        if not 0 < n * amount <= g.edge(eid).cap:
            raise InvalidGraph(f"cannot take {n * amount} units off edge {eid}")
    edges = []
    for d in g.edges:
        left = d.cap - take[d.id] * amount
        if left:
            edges.append(d if left == d.cap else Edge(d.id, d.u, d.v, left))
    if r == t:
        new_id = None
    else:
        new_id = g.next_id() if new_id is None else new_id
        edges.append(Edge(new_id, r, t, amount))
    return Multigraph(g.vertices, tuple(edges)), SplitEvent(x, e_id, r, f_id, t, new_id, amount)


def _cut_targets(adj: PairCapacities, x: str) -> list[tuple[str, str, int, frozenset[str]]]:
    """Cut value and certified minimal source side of the n - 2 pairs of
    Gusfield's equivalent-flow tree over V - x (module docstring), on the
    graph whose pair capacities are ``adj``."""
    nodes = sorted(adj.keys() - {x})
    parent = {u: nodes[0] for u in nodes[1:]}
    tree = []
    for i, s in enumerate(nodes[1:], 1):
        t = parent[s]
        value, side = checked_flow(adj, s, t)
        tree.append((s, t, value, side))
        for u in nodes[i + 1:]:
            if parent[u] == t and u in side:
                parent[u] = s
    return tree


def _keeps_targets(adj: PairCapacities, targets) -> bool:
    """True iff the split graph's pair capacities ``adj`` keep every target
    cut value; stops at the first pair that falls short."""
    for u, v, target, side in targets:
        if checked_flow(adj, u, v, target)[1] is not None:
            return False
        if cut_capacity(adj, side) != target:
            raise CertificateError(f"target side of {u!r}-{v!r} does not cut {target} after the split")
    return True


def _shift(adj: PairCapacities, x: str, r: str, t: str, amount: int) -> None:
    """Split ``amount`` off the pairs xr and xt into rt on ``adj``, in place
    (twice off xr when r == t, and no rt); a negative amount undoes it.  A
    pair left at 0 stays as a 0 entry."""
    for u, v, d in ((x, r, -amount), (x, t, -amount), (r, t, amount)):
        if u != v:
            adj[u][v] = adj[u].get(v, 0) + d
            adj[v][u] = adj[v].get(u, 0) + d


def _largest_split(adj: PairCapacities, x: str, r: str, t: str, most: int, targets) -> int:
    """Largest amount up to ``most`` whose split of xr and xt keeps the
    targets, 0 if none: bisection, trying ``most`` first (module docstring).
    Each trial shifts ``adj`` and shifts it back."""
    kept, refused, amount = 0, most + 1, most
    while refused - kept > 1:
        _shift(adj, x, r, t, amount)
        keeps = _keeps_targets(adj, targets)
        _shift(adj, x, r, t, -amount)
        if keeps:
            kept = amount
        else:
            refused = amount
        amount = (kept + refused) // 2
    return kept


def eliminate_relays(
    g: Multigraph, a: TerminalSet
) -> tuple[Multigraph, SplitHistory, int]:
    """Suitable complete splitting at every relay, in ascending vertex order.

    If some relay has odd degree, capacities are first scaled by 2
    (returned scale factor 2) so all relay degrees become even, and no split
    changes a degree's parity; the history starts from that graph.  At each
    pivot x the smallest remaining edge splits with its first admissible
    partner, which always exists, by the largest admissible amount (module
    docstring), until x is isolated and deleted: every pairwise min-cut
    among V - x is kept exactly.  A cut-edge at a pivot raises
    CutEdgeAtPivot.  The result has vertex set exactly A; every A-Steiner
    tree in it is a spanning tree.  Pairwise terminal min-cuts equal scale
    times the originals.
    """
    relays = tuple(sorted(g.vertices - a.members))
    scale = 2 if any(degree(g, x) % 2 == 1 for x in relays) else 1
    base = cur = scale_capacities(g, scale)
    events: list[SplitEvent] = []
    # one counter for all pivots: an r == t split can delete the edge with
    # the largest id, and cur.next_id() would then hand that id out again
    ids = count(base.next_id())
    for x in relays:
        for e in cur.incident(x):
            if is_cut_edge(cur, e.id):
                raise CutEdgeAtPivot(f"cut-edge {e.id} incident to pivot {x!r}")
        # pair capacities of cur, which every trial shifts and shifts back
        adj = pair_capacities(cur)
        targets = _cut_targets(adj, x)
        refused = set()
        while inc := sorted(cur.incident(x), key=lambda e: e.id):
            e = inc[0]
            r = e.other(x)
            for f in inc:  # e itself first: two units of one edge
                t = f.other(x)
                pair = frozenset((r, t))
                most = e.cap // 2 if f is e else min(e.cap, f.cap)
                if not most or pair in refused:
                    continue
                amount = _largest_split(adj, x, r, t, most, targets)
                if amount:
                    break
                refused.add(pair)
            else:
                raise CertificateError(
                    f"no admissible partner for edge {e.id} at pivot {x!r}, "
                    "though Mader's theorem promises one"
                )
            new_id = next(ids) if r != t else None
            _shift(adj, x, r, t, amount)
            cur, ev = split_off(cur, e.id, f.id, pivot=x, new_id=new_id, amount=amount)
            events.append(ev)
        cur = cur.restrict(cur.vertices - {x})
    return cur, SplitHistory(base, tuple(events), relays), scale


# -- packing lift ----------------------------------------------------------


def lift_packing(history: SplitHistory, packing):
    """Replay split events in reverse, rewriting trees that use splitting edges.

    Each reversal removes the splitting edge w = rt from any tree containing
    it and reconnects via the splitted pair: {e, f} plus the pivot when the
    pivot is not yet on the tree, otherwise whichever single edge bridges the
    two components of T - w.  The trees through w carry at most its amount
    and each takes back at most one unit of e and one of f, so cardinality,
    multiplicities and disjointness are preserved; the output packs the base
    graph of the history.
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
