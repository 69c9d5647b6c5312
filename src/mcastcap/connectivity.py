"""Exact max-flow / min-cut on undirected multigraphs.

Each undirected edge of capacity c admits up to c units of net flow in either
direction; augmenting-path search on the signed net flow preserves Menger
equivalence exactly.  All values are integers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .errors import CertificateError, Disconnected, SameVertex, UnknownVertex
from .multigraph import Multigraph, TerminalSet, components


@dataclass(frozen=True)
class CutCertificate:
    value: int
    side: frozenset[str]
    crossing: tuple[int, ...]


def max_flow(g: Multigraph, u: str, v: str) -> tuple[int, CutCertificate]:
    """Min-cut capacity between u and v with a verifying cut certificate."""
    if u not in g.vertices:
        raise UnknownVertex(f"no vertex {u!r}")
    if v not in g.vertices:
        raise UnknownVertex(f"no vertex {v!r}")
    if u == v:
        raise SameVertex("max_flow endpoints must differ")

    inc: dict[str, list] = {w: [] for w in g.vertices}
    for e in g.edges:
        inc[e.u].append(e)
        inc[e.v].append(e)
    # net[e.id] in [-cap, cap]: positive means flow in the u->v direction of the edge record
    net: dict[int, int] = {e.id: 0 for e in g.edges}

    def residual(e, tail: str) -> int:
        return e.cap - net[e.id] if tail == e.u else e.cap + net[e.id]

    value = 0
    while True:
        parent: dict[str, tuple] = {u: None}
        q = deque([u])
        while q and v not in parent:
            x = q.popleft()
            for e in inc[x]:
                y = e.other(x)
                if y not in parent and residual(e, x) > 0:
                    parent[y] = (x, e)
                    q.append(y)
        if v not in parent:
            break
        # bottleneck along the path
        path = []
        y = v
        while parent[y] is not None:
            x, e = parent[y]
            path.append((x, e))
            y = x
        aug = min(residual(e, x) for x, e in path)
        for x, e in path:
            net[e.id] += aug if x == e.u else -aug
        value += aug

    side = frozenset(parent)
    crossing = tuple(sorted(e.id for e in g.edges if (e.u in side) != (e.v in side)))
    cut_cap = sum(g.edge(i).cap for i in crossing)
    if cut_cap != value:
        raise CertificateError(f"max-flow value {value} differs from its cut {cut_cap}")
    return value, CutCertificate(value, side, crossing)


def terminal_connectivity(g: Multigraph, a: TerminalSet) -> int:
    """Minimum pairwise min-cut over unordered terminal pairs."""
    return min(max_flow(g, x, y)[0] for x, y in combinations(a.ordered(), 2))


def all_pairs_connectivity(g: Multigraph, vertices) -> dict[frozenset[str], int]:
    return {
        frozenset((x, y)): max_flow(g, x, y)[0]
        for x, y in combinations(sorted(vertices), 2)
    }


def edge_connectivity(g: Multigraph) -> int:
    """Global edge connectivity.

    A global min edge cut separates any fixed root from some other vertex, so
    the minimum of max_flow(root, v) over v != root is exact (this shortcut
    would be wrong for vertex cuts, not for edge cuts).
    """
    if len(g.vertices) < 2:
        raise Disconnected("edge connectivity needs at least two vertices")
    if len(components(g)) != 1:
        raise Disconnected("graph is disconnected")
    verts = sorted(g.vertices)
    root = verts[0]
    return min(max_flow(g, root, v)[0] for v in verts[1:])


def is_cut_edge(g: Multigraph, eid: int) -> bool:
    """True iff deleting one unit of the edge disconnects its endpoints.

    An edge of capacity >= 2 is never a cut-edge in unit-edge form: parallel
    copies remain.
    """
    e = g.edge(eid)
    if e.cap >= 2:
        return False
    comps = components(g, without_edges=frozenset((eid,)))
    return not any(e.u in c and e.v in c for c in comps)


def bridges(g: Multigraph) -> list[int]:
    return [e.id for e in g.edges if is_cut_edge(g, e.id)]
