"""Exact max-flow / min-cut on undirected multigraphs.

One augmenting-path kernel, ``pair_flow``, serves every flow in the package,
and ``checked_flow`` is its only caller.  It augments along shortest
paths, found breadth-first (Edmonds & Karp 1972), so the number of
augmentations is O(V * E) whatever the capacities.  It runs on vertex-pair
capacities (``adj[x][y]`` sums all x-y edges, stored both ways), so a bundle of
parallel edges is one residual entry; an undirected pair of capacity c
carries up to c units of net flow either way.  A flow may be stopped at a
target value: callers that only ask whether a cut reaches the target pay for
no more.  A flow not stopped is maximum, and its residual-reachable set is
the unique minimal source side of a minimum cut, whichever augmenting paths
were found; ``checked_flow`` refuses it unless that cut separates its ends
and carries its value.  A caller that keeps the flow itself passes the
residual map to augment in.  λ(A) (``terminal_cut``) stops no flow, so
every flow it reads has been checked.
All values are integers.
"""

from __future__ import annotations

import math

from .errors import CertificateError, UnknownVertex
from .multigraph import Multigraph, TerminalSet

PairCapacities = dict[str, dict[str, int]]


def pair_capacities(g: Multigraph) -> PairCapacities:
    """Summed capacity of every adjacent vertex pair, in both directions."""
    adj: PairCapacities = {v: {} for v in g.vertices}
    for e in g.edges:
        adj[e.u][e.v] = adj[e.u].get(e.v, 0) + e.cap
        adj[e.v][e.u] = adj[e.v].get(e.u, 0) + e.cap
    return adj


def cut_capacity(adj: PairCapacities, side: frozenset[str]) -> int:
    """Total capacity of the pairs with exactly one vertex in ``side``."""
    return sum(c for x in side for y, c in adj[x].items() if y not in side)


def pair_flow(
    adj: PairCapacities, s: str, t: str, limit: int | None = None, res: PairCapacities | None = None
) -> tuple[int, frozenset[str] | None]:
    """Flow from s to t, stopped once it reaches ``limit``: min(limit, λ).

    Returns ``(limit, None)`` when stopped, else ``(λ, side)`` with ``side``
    the vertices reachable from s in the residual graph of a maximum flow.
    The flow is built in ``res``, a copy of ``adj`` made here when not
    given; afterwards ``res[x][y]`` is adj[x][y] less the flow from x to y.
    """
    if res is None:
        res = {x: dict(nbrs) for x, nbrs in adj.items()}
    stop = math.inf if limit is None else limit
    value = 0
    while value < stop:
        # breadth-first: the queue is a list read while it grows
        parent = {s: s}
        queue = [s]
        for x in queue:
            for y, c in res[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
            if t in parent:
                break
        else:
            return value, frozenset(parent)
        aug, y = stop - value, t
        while y != s:
            x = parent[y]
            if res[x][y] < aug:
                aug = res[x][y]
            y = x
        y = t
        while y != s:
            x = parent[y]
            res[x][y] -= aug
            res[y][x] += aug
            y = x
        value += aug
    return value, None


def checked_flow(
    adj: PairCapacities, s: str, t: str, limit: int | None = None, res: PairCapacities | None = None
) -> tuple[int, frozenset[str] | None]:
    """``pair_flow`` whose cut, when the flow is maximum, must separate s
    from t and carry its value: a flow that falls short of ``limit`` then
    proves λ(s, t) < limit."""
    value, side = pair_flow(adj, s, t, limit, res)
    if side is not None and (s not in side or t in side or cut_capacity(adj, side) != value):
        raise CertificateError(f"flow value {value} from {s!r} to {t!r} does not match a cut between them")
    return value, side


def terminal_cut(g: Multigraph, a: TerminalSet) -> tuple[int, frozenset[str]]:
    """Minimum pairwise min-cut over terminal pairs, from the source's flows
    alone: every x-y cut separates s from x or y, so λ(x, y) ≥ min(λ(s, x), λ(s, y)).

    Every source-sink flow runs to its maximum, and ``checked_flow`` checks
    each against its own residual cut.  Returns the least of them, λ(A),
    and the source side of the cut of the first sink whose flow it is.
    """
    for x in (a.source, *a.sinks):
        if x not in g.vertices:
            raise UnknownVertex(f"no vertex {x!r}")
    adj = pair_capacities(g)
    # min keeps the first of equal flows
    return min((checked_flow(adj, a.source, t) for t in a.sinks), key=lambda flow: flow[0])
