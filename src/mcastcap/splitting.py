"""Relay elimination by complete splitting off at each relay, and lifting
tree packings back through the split history.

Splitting works on capacities: one split takes an amount off a pair of
edges at the pivot and adds one splitting edge of that capacity
(A. Frank, *On a theorem of Mader*, 1992), so the work and the history
grow with the number of edge pairs, not with capacity.

A split at pivot x is admissible when it keeps λ(s, t) for every pair of
V - x.  The pairs checked are the links of an equivalent-flow tree on
V - x (D. Gusfield, *Very simple methods for all pairs network flow
analysis*, SIAM J. Comput. 1990): a tree whose least link weight on the
path between any two vertices is their cut value, with every cut taken in
the whole graph.  In any graph λ(s, t) ≥ min(λ(s, w), λ(w, t)), so λ(s, t)
is at least the least λ of the pairs along any path from s to t.  A split
that keeps every link at its weight therefore leaves every λ'(s, t) at
least the least weight on the tree path, which is λ(s, t), and splitting
never raises a cut: it keeps every λ(s, t).  So any equivalent-flow tree
decides exactly as a check of all C(n - 1, 2) pairs does, n = |V|.

One tree serves the whole call.  It is built once, at the first pivot x₁,
with Gusfield's n - 2 flows on V - x₁: each vertex after the first, in
sorted order, takes one flow to its tree parent t, and every later vertex
still hanging off t that lies on its side of that cut moves under it.
Every split taken keeps all λ among V - x and the finished pivot is
isolated, so the tree stays an equivalent-flow tree of the graph split so
far.  Each later pivot x is a vertex of it and leaves it: x's tree
neighbours nᵢ, with link weights wᵢ, hang off the heaviest one, h.  The
old path nᵢ - x - h had least weight min(wᵢ, w_h) = wᵢ, so λ(nᵢ, h) = wᵢ,
and one checked flow per new link confirms it.  A path through x ran
nᵢ - x - nⱼ with least weight min(wᵢ, wⱼ) and now runs nᵢ - h - nⱼ with the
same two weights, so the tree stays equivalent-flow on V - x.

Every link keeps a certified minimal side S of its first flow, d(S) equal
to its weight.  Splitting never raises a cut, and a split taken keeps the
link's λ, so S still cuts exactly the weight; each trial that accepts a
link checks it (the split-cut certificate).  If S separates x from both r
and t (from r when r = t), splitting an amount off xr and xt lowers d(S)
by twice the amount, below the weight: the trial is refused before any
flow runs, with the cut capacity of S on the split map as certificate.

Every link also carries the residual of a flow of its weight.  A trial
first reroutes flow on r - x - t (either way) onto the pair rt, which the
split gives its amount of capacity: a flow keeps its value when units move
from a path onto a parallel one.  If some number of units, the fewest one,
makes the flow fit xr, xt and rt after the split, it is a flow of the
link's weight in the split graph and the link keeps its weight with no
flow run.  Otherwise a flow on the split map, stopped at the weight,
decides the link: reaching it proves the weight kept, and its residual is
carried when the split is taken; falling short, its own residual cut
carries its value, and the trial is refused.

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

A cut-edge at a pivot raises CutEdgeAtPivot, and one lowpoint walk of the
input, before the first split, finds every one the splitting would meet.
Every cut-edge has capacity 1, and pivots are taken in sorted order:

- An input cut-edge e = xy touching no earlier pivot is still there, still
  of capacity 1, when x is the pivot: splits take capacity only off edges
  at their pivot.  It is still a cut-edge: λ(x, y) = 1 is kept among the
  vertices not yet split, and e crosses every x-y cut of capacity 1, so
  it is the only edge across one.
- A cut-edge f = xy at pivot x was an input cut-edge, or an earlier pivot
  had one when it was split.  λ(x, y) = 1 before any split too.  If f is
  an input edge, it crossed an x-y cut of capacity 1 alone, so it was an
  input cut-edge.  If a split at an earlier pivot z added f, the edges xz
  and zy it took were there when z was the pivot, λ(x, y) was 1 then, and
  the one of them that crossed an x-y cut of capacity 1 alone was a
  cut-edge at z.

By induction over the pivots, the first pivot with a cut-edge is the first
relay, in sorted order, that touches an input cut-edge, and its cut-edges
are exactly the input cut-edges at it.  The error names the smallest of
their ids.

Each split takes the largest admissible amount.  Splitting more never
raises a cut: splitting b more units after a units leaves every cut at
most where a units left it, so the admissible amounts are 0 to some m.
For the same reason a pair (r, t) refused once stays refused for the whole
pivot: splits commute, so splitting it after further splits leaves every
cut at most where splitting it before them did, below some weight.  The
loop thus ends, aggregated, where a backtracking search over pairings of
unit edges in the same order ends.

The first trial takes the full amount.  A trial of amount a that is
refused holds a checked cut S below the weight w of a link: the link's
side, recounted on the split map, or the residual cut of a flow that fell
short, of the flow's value.  A split of xr and xt lowers d(S) only when S
separates x from both r and t, and then by twice the amount.  S is a cut
of the link's ends, so it cut at least w before the split: it does
separate them, and it cut d(S) + 2a.  No amount above
(d(S) + 2a - w) / 2, rounded down, keeps the link, and that bound is the
next trial.  The first trial that keeps every link therefore takes m,
after one trial per cut that bounds it (A. Frank, *On a theorem of
Mader*, 1992, bounds a split by a cut the same way).

The trials edit one map of pair capacities, built once per call: a trial
shifts its amount off the pairs xr and xt onto rt in place and checks the
links on the map.  Flow values and cut capacities depend on the pair
capacities alone, so every decision and certificate check is the one a
freshly built split graph gives.  A refused trial shifts the map back.
The accepted one is the split taken: it keeps its shift, and each link's
flow moves onto the split from what the trial recorded for it, the
residual of the flow it ran or the units its reroute moves, so no check
runs twice.  The split then edits the edges in place and records its
``SplitEvent``; the result is built once, with the ids and edge order
``split_off`` gives.
Before it is returned, a checked flow for every terminal pair must find
the pair's cut value in the scaled input, read off the first tree (the
closing certificate).

A packing of the split graph lifts back through the history on its trees'
edge-id sets alone: each tree keeps its units, and the packing its
denominator.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, count

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
    cut_edges,
    degree,
    edge_component,
    scale_capacities,
)
from .packing import SteinerPacking


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


def _resolve_pivot(e: Edge, f: Edge, pivot: str | None) -> str:
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
    x = _resolve_pivot(e, f, pivot)
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


@dataclass
class _Link:
    """A link u-v of the equivalent-flow tree: its weight λ(u, v), a
    certified minimal u-side of a cut of that capacity, and the residual of
    a u-v flow of that value on the current map."""

    u: str
    v: str
    target: int
    side: frozenset[str]
    res: PairCapacities


def _link(adj: PairCapacities, u: str, v: str) -> _Link:
    """The link u-v, from one checked maximum flow on ``adj``."""
    res = {y: dict(nbrs) for y, nbrs in adj.items()}
    value, side = checked_flow(adj, u, v, None, res)
    return _Link(u, v, value, side, res)


def _flow_tree(adj: PairCapacities, x: str) -> list[_Link]:
    """Gusfield's equivalent-flow tree over V - x, n - 2 flows (module
    docstring), on the graph whose pair capacities are ``adj``."""
    nodes = sorted(adj.keys() - {x})
    parent = {u: nodes[0] for u in nodes[1:]}
    links = []
    for i, s in enumerate(nodes[1:], 1):
        link = _link(adj, s, parent[s])
        links.append(link)
        for u in nodes[i + 1:]:
            if parent[u] == link.v and u in link.side:
                parent[u] = s
    return links


def _without(adj: PairCapacities, links: list[_Link], x: str) -> list[_Link]:
    """The tree ``links`` with x taken out: x's other tree neighbours hang
    off its heaviest one, h, each with one checked flow that must find the
    weight of its old link to x (module docstring)."""
    at_x = [link for link in links if x in (link.u, link.v)]
    heavy = max(at_x, key=lambda link: link.target)
    h = heavy.v if heavy.u == x else heavy.u
    out = [link for link in links if x not in (link.u, link.v)]
    for old in at_x:
        if old is not heavy:
            link = _link(adj, old.v if old.u == x else old.u, h)
            if link.target != old.target:
                raise CertificateError(
                    f"cut value {link.target} of {link.u!r}-{h!r} differs from the tree's {old.target}"
                )
            out.append(link)
    return out


def _path_minima(links: list[_Link], start: str) -> dict[str, int]:
    """Least weight on the tree path from ``start`` to each other vertex."""
    nbrs: dict[str, list[tuple[str, int]]] = {}
    for link in links:
        nbrs.setdefault(link.u, []).append((link.v, link.target))
        nbrs.setdefault(link.v, []).append((link.u, link.target))
    least, stack = {start: math.inf}, [start]
    while stack:
        y = stack.pop()
        for z, target in nbrs[y]:
            if z not in least:
                least[z] = min(least[y], target)
                stack.append(z)
    del least[start]
    return least


def _shift(adj: PairCapacities, x: str, r: str, t: str, amount: int) -> None:
    """Split ``amount`` off the pairs xr and xt into rt on ``adj``, in place
    (twice off xr when r == t, and no rt); a negative amount undoes it.  xr
    and xt must be entries of ``adj``; a pair left at 0 stays as a 0 entry.
    On a residual map it changes the capacities under the same flow."""
    adj[x][r] -= amount
    adj[r][x] -= amount
    adj[x][t] -= amount
    adj[t][x] -= amount
    if r != t:
        adj[r][t] = adj[r].get(t, 0) + amount
        adj[t][r] = adj[t].get(r, 0) + amount


def _reroute(res: PairCapacities, x: str, r: str, t: str, amount: int) -> int | None:
    """Fewest units of flow to move from r-x-t onto rt (negative: from t-x-r
    onto tr) that make the flow of residual ``res`` fit the split of
    ``amount``, or None when no number does; ``res`` is left as it is."""
    if r == t:
        return 0 if min(res[x][r], res[r][x]) >= 2 * amount else None
    # moving d units pushes d around the residual cycle r -> t -> x -> r;
    # the split then takes amount off both ways of xr and xt and adds it to rt
    lo = max(amount - res[r][x], amount - res[x][t], -res[t].get(r, 0) - amount)
    hi = min(res[x][r] - amount, res[t][x] - amount, res[r].get(t, 0) + amount)
    return min(max(0, lo), hi) if lo <= hi else None


def _keeps_targets(
    adj: PairCapacities, links: list[_Link], x: str, r: str, t: str, amount: int,
    kept: dict[int, int | PairCapacities],
) -> int:
    """The largest amount, up to ``amount``, that the map ``adj``, with
    ``amount`` already split off xr and xt, leaves open: ``amount`` itself
    iff it keeps the weight of every link, else the bound the first cut
    below its link's weight sets (module docstring).  For each link it
    keeps it puts in ``kept``, under the link's index, the units its
    carried flow reroutes, or the residual of the flow it ran instead."""
    for link in links:
        if (x in link.side) != (r in link.side) and (x in link.side) != (t in link.side):
            cut = cut_capacity(adj, link.side)
            if cut < link.target:
                return (cut + 2 * amount - link.target) // 2
    for i, link in enumerate(links):
        kept[i] = _reroute(link.res, x, r, t, amount)
        if kept[i] is None:
            kept[i] = {y: dict(nbrs) for y, nbrs in adj.items()}
            value, side = checked_flow(adj, link.u, link.v, link.target, kept[i])
            if side is not None:
                return (value + 2 * amount - link.target) // 2
        if cut_capacity(adj, link.side) != link.target:
            raise CertificateError(
                f"target side of {link.u!r}-{link.v!r} does not cut {link.target} after the split"
            )
    return amount


def _largest_split(adj: PairCapacities, links: list[_Link], x: str, r: str, t: str, most: int) -> int:
    """Take the split of xr and xt of the largest amount up to ``most``
    that keeps the links, and return that amount, 0 if none: trying
    ``most`` first, and after each refusal the bound its cut sets (module
    docstring).  A refused trial shifts ``adj`` back.  The accepted one
    keeps its shift and moves every link's flow onto the split from what
    the trial kept for it: the residual of the flow it ran, else the
    carried flow rerouted by the units it found."""
    amount = most
    while amount:
        kept: dict[int, int | PairCapacities] = {}
        _shift(adj, x, r, t, amount)
        left = _keeps_targets(adj, links, x, r, t, amount, kept)
        if left == amount:
            for i, link in enumerate(links):
                record = kept.get(i)
                if record is None:
                    raise CertificateError(
                        f"split trial of {amount} at {x!r} kept {link.u!r}-{link.v!r} without a flow"
                    )
                if isinstance(record, dict):
                    link.res = record
                    continue
                if record:
                    # push the units around the residual cycle r -> t -> x -> r
                    for u, v in ((r, t), (t, x), (x, r)):
                        link.res[u][v] = link.res[u].get(v, 0) - record
                        link.res[v][u] = link.res[v].get(u, 0) + record
                _shift(link.res, x, r, t, amount)
            return amount
        _shift(adj, x, r, t, -amount)
        if not 0 <= left < amount:
            raise CertificateError(f"split trial of {amount} at {x!r} left the amount {left} open")
        amount = left
    return 0


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
    CutEdgeAtPivot before any split, found by one lowpoint walk of the
    input when it has a capacity-1 edge (module docstring).  The result
    has vertex set exactly A; every A-Steiner tree in it is a spanning
    tree.  Pairwise terminal min-cuts equal scale times the originals,
    checked before the result is returned.
    """
    relays = tuple(sorted(g.vertices - a.members))
    scale = 2 if any(degree(g, x) % 2 == 1 for x in relays) else 1
    base = scale_capacities(g, scale)
    if any(e.cap == 1 for e in base.edges):
        cuts = {eid for _, at in cut_edges(base, relays) for eid in at}
        for x in relays:
            at_x = [e.id for e in base.incident(x) if e.id in cuts]
            if at_x:
                raise CutEdgeAtPivot(f"cut-edge {min(at_x)} incident to pivot {x!r}")
    edges = {e.id: e for e in base.edges}
    adj = pair_capacities(base)
    events: list[SplitEvent] = []
    # one counter for all pivots: an r == t split can delete the edge with
    # the largest id, and the next id of the graph would then hand it out again
    ids = count(base.next_id())
    expected: dict[tuple[str, str], int] = {}
    for x in relays:
        inc = sorted((e for e in edges.values() if e.touches(x)), key=lambda e: e.id)
        if x == relays[0]:
            links = _flow_tree(adj, x)
            least = {u: _path_minima(links, u) for u in a.members}
            expected = {(u, v): least[u][v] for u, v in combinations(sorted(a.members), 2)}
        else:
            links = _without(adj, links, x)
        refused = set()
        while inc:
            e = inc[0]
            r = e.other(x)
            for f in inc:  # e itself first: two units of one edge
                t = f.other(x)
                pair = frozenset((r, t))
                most = e.cap // 2 if f is e else min(e.cap, f.cap)
                if not most or pair in refused:
                    continue
                amount = _largest_split(adj, links, x, r, t, most)
                if amount:
                    break
                refused.add(pair)
            else:
                raise CertificateError(
                    f"no admissible partner for edge {e.id} at pivot {x!r}, "
                    "though Mader's theorem promises one"
                )
            new_id = next(ids) if r != t else None
            events.append(SplitEvent(x, e.id, r, f.id, t, new_id, amount))
            for d in {e, f}:
                cap = d.cap - amount * ((d is e) + (d is f))
                if cap:
                    edges[d.id] = Edge(d.id, d.u, d.v, cap)
                else:
                    del edges[d.id]
            inc = [edges[d.id] for d in inc if d.id in edges]
            if new_id is not None:
                edges[new_id] = Edge(new_id, r, t, amount)
    out = Multigraph(base.vertices - set(relays), tuple(edges.values()))
    final = pair_capacities(out)
    for (u, v), value in expected.items():
        if checked_flow(final, u, v)[0] != value:
            raise CertificateError(
                f"cut value of {u!r}-{v!r} after splitting differs from its value {value} before"
            )
    return out, SplitHistory(base, tuple(events), relays), scale


# -- packing lift ----------------------------------------------------------


def lift_packing(history: SplitHistory, packing):
    """Replay split events in reverse, rewriting trees that use splitting edges.

    Each reversal removes the splitting edge w = rt from any tree containing
    it and reconnects via the splitted pair: {e, f} plus the pivot when the
    pivot is not yet on the tree, otherwise whichever single edge bridges the
    two components of T - w.  The trees through w carry at most its amount
    and each takes back at most one unit of e and one of f, so cardinality,
    units and disjointness are preserved; the output packs the base graph of
    the history, with the input's denominator.
    """
    # reconstruct per-stage endpoint info by replaying forward
    endpoint: dict[int, tuple[str, str]] = {e.id: (e.u, e.v) for e in history.base.edges}
    for ev in history.events:
        if ev.new_id is not None:
            endpoint[ev.new_id] = (ev.r, ev.t)

    trees = [(set(edge_ids), units) for edge_ids, units in packing.trees]
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
            # one walk from the pivot, which is {pivot} when it is off the tree
            comp = edge_component(edge_set, endpoint, ev.pivot)
            if ev.r in comp:
                edge_set.add(ev.f_id)  # pivot on r-side: bridge to t
            elif ev.t in comp:
                edge_set.add(ev.e_id)  # pivot on t-side: bridge to r
            else:
                edge_set.add(ev.e_id)
                edge_set.add(ev.f_id)

    lifted = tuple((frozenset(edge_set), units) for edge_set, units in trees)
    return SteinerPacking(lifted, packing.denominator)
