"""Exact Steiner tree packing.

Enumerates edge-minimal A-Steiner trees, computes the maximum number of
edge-disjoint trees (branch and bound), the half-integer rate (pack the
doubled graph, halve), and the fractional routing capacity as an exact
rational LP over the enumerated trees (dense simplex, Bland's rule).

Parallel edges are collapsed to one class per vertex pair for the solvers
(a tree never uses two parallel copies and the copies are interchangeable);
solutions are expanded back onto concrete edge ids before being returned, so
every returned packing verifies against the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .connectivity import PairCapacities, pair_flow
from .errors import CertificateError, InvalidPacking, TooManyTrees
from .multigraph import Edge, Multigraph, Rate, TerminalSet, scale_capacities

DEFAULT_TREE_LIMIT = 5000


@dataclass(frozen=True)
class SteinerTree:
    edge_ids: frozenset[int]
    vertices: frozenset[str]

    def sort_key(self) -> tuple:
        return (len(self.edge_ids), tuple(sorted(self.edge_ids)))


@dataclass(frozen=True)
class SteinerPacking:
    trees: tuple[tuple[SteinerTree, Fraction], ...]
    denominator: int
    rate: Rate


# -- spanning / Steiner tree enumeration -----------------------------------


def _spanning_trees(nodes: list[str], edges: list[tuple[int, str, str]], emit) -> None:
    """Enumerate spanning trees of (nodes, edges) via include/exclude search
    with a reachability prune; each tree is emitted once as a list of edge ids."""
    n = len(nodes)
    if n == 0:
        return
    idx = {v: i for i, v in enumerate(nodes)}

    def find(parent: list[int], a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def rec(i: int, parent: list[int], ncomp: int, chosen: list[int]) -> None:
        if ncomp == 1:
            emit(list(chosen))
            return
        # feasibility: remaining edges must be able to merge all components
        probe = parent.copy()
        c = ncomp
        for eid, u, v in edges[i:]:
            ru, rv = find(probe, idx[u]), find(probe, idx[v])
            if ru != rv:
                probe[ru] = rv
                c -= 1
                if c == 1:
                    break
        if c != 1:
            return
        eid, u, v = edges[i]
        ru, rv = find(parent, idx[u]), find(parent, idx[v])
        if ru != rv:
            p2 = parent.copy()
            p2[ru] = rv
            chosen.append(eid)
            rec(i + 1, p2, ncomp - 1, chosen)
            chosen.pop()
        rec(i + 1, parent, ncomp, chosen)

    rec(0, list(range(n)), n, [])


def _relay_subsets(relays: list[str]):
    for mask in range(1 << len(relays)):
        yield [relays[i] for i in range(len(relays)) if mask >> i & 1]


def _minimal_trees(
    vertex_set: frozenset[str],
    edges: list[tuple[int, str, str]],
    terminals: frozenset[str],
    limit: int,
) -> list[frozenset[int]]:
    """All edge-minimal terminal-spanning trees: spanning trees of A union R
    (R a relay subset) in which every relay is an internal vertex."""
    relays = sorted(vertex_set - terminals)
    out: list[frozenset[int]] = []
    for sub in _relay_subsets(relays):
        nodes = sorted(terminals) + sub
        node_set = set(nodes)
        sub_edges = [(i, u, v) for i, u, v in edges if u in node_set and v in node_set]
        if len(sub_edges) < len(nodes) - 1:
            continue
        trees_here: list[list[int]] = []
        _spanning_trees(nodes, sub_edges, trees_here.append)
        by_id = {i: (u, v) for i, u, v in sub_edges}
        for t in trees_here:
            deg: dict[str, int] = {}
            for eid in t:
                u, v = by_id[eid]
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if all(deg.get(r, 0) >= 2 for r in sub):
                out.append(frozenset(t))
                if len(out) > limit:
                    raise TooManyTrees(
                        f"more than {limit} minimal Steiner trees; raise the limit"
                    )
    out.sort(key=lambda t: (len(t), tuple(sorted(t))))
    return out


def enumerate_steiner_trees(
    g: Multigraph, a: TerminalSet, limit: int = DEFAULT_TREE_LIMIT
) -> list[SteinerTree]:
    """All edge-minimal A-Steiner trees of g, deduplicated by edge set.

    Exceeding ``limit`` raises TooManyTrees so results are never silently
    truncated.  Parallel edges yield distinct trees (distinct edge ids).
    """
    edges = [(e.id, e.u, e.v) for e in sorted(g.edges, key=lambda e: e.id)]
    found = _minimal_trees(g.vertices, edges, a.members, limit)
    by_id = {e.id: e for e in g.edges}
    return [
        SteinerTree(t, frozenset(v for eid in t for v in (by_id[eid].u, by_id[eid].v)))
        for t in found
    ]


# -- parallel-class collapse ----------------------------------------------


def _collapse(g: Multigraph) -> tuple[list[tuple[int, str, str, int]], dict[int, list[Edge]]]:
    groups: dict[frozenset[str], list[Edge]] = {}
    for e in g.edges:
        groups.setdefault(frozenset((e.u, e.v)), []).append(e)
    reps = []
    classes: dict[int, list[Edge]] = {}
    for es in groups.values():
        es.sort(key=lambda e: e.id)
        rep = es[0]
        reps.append((rep.id, rep.u, rep.v, sum(e.cap for e in es)))
        classes[rep.id] = es
    reps.sort(key=lambda r: r[0])
    return reps, classes


def _collapsed_trees(g: Multigraph, a: TerminalSet, limit: int):
    reps, classes = _collapse(g)
    edges = [(i, u, v) for i, u, v, _ in reps]
    trees = _minimal_trees(g.vertices, edges, a.members, limit)
    caps = {i: c for i, _, _, c in reps}
    return trees, reps, classes, caps


# -- exact rational simplex ------------------------------------------------


def _lp_max_total(
    cols: list[frozenset[int]], row_ids: list[int], caps: dict[int, int]
) -> tuple[Fraction, list[Fraction]]:
    """max sum(y) s.t. for each row e: sum_{col containing e} y_col <= caps[e], y >= 0.

    Dense tableau simplex over Fractions with Bland's rule (no cycling).
    """
    m, n = len(row_ids), len(cols)
    row_index = {rid: i for i, rid in enumerate(row_ids)}
    zero, one = Fraction(0), Fraction(1)
    tab = []
    for i, rid in enumerate(row_ids):
        row = [zero] * (n + m + 1)
        row[n + i] = one
        row[-1] = Fraction(caps[rid])
        tab.append(row)
    for j, col in enumerate(cols):
        for rid in col:
            tab[row_index[rid]][j] = one
    z = [-one] * n + [zero] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if z[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            aij = tab[i][enter]
            if aij > 0:
                ratio = tab[i][-1] / aij
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise AssertionError("tree-packing LP cannot be unbounded")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        prow = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], prow)]
        if z[enter] != 0:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, prow)]
        basis[leave] = enter
    y = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            y[b] = tab[i][-1]
    return z[-1], y


# -- expansion back onto concrete edges ------------------------------------


def _expand_packing(
    g: Multigraph,
    solution: list[tuple[frozenset[int], Fraction]],
    classes: dict[int, list[Edge]],
) -> SteinerPacking:
    """Distribute class multiplicities over concrete parallel copies so every
    edge id's load stays within its own capacity."""
    used: dict[int, Fraction] = {e.id: Fraction(0) for e in g.edges}
    slices: dict[frozenset[int], Fraction] = {}
    tree_vertices: dict[frozenset[int], frozenset[str]] = {}
    for rep_set, mult in solution:
        m = mult
        while m > 0:
            pick: dict[int, Edge] = {}
            amount = m
            for rid in sorted(rep_set):
                for e in classes[rid]:
                    room = e.cap - used[e.id]
                    if room > 0:
                        pick[rid] = e
                        if room < amount:
                            amount = room
                        break
                else:
                    raise AssertionError("parallel-class capacity accounting broken")
            for e in pick.values():
                used[e.id] += amount
            key = frozenset(e.id for e in pick.values())
            slices[key] = slices.get(key, Fraction(0)) + amount
            tree_vertices[key] = frozenset(v for e in pick.values() for v in (e.u, e.v))
            m -= amount
    trees = tuple(
        (SteinerTree(k, tree_vertices[k]), v)
        for k, v in sorted(slices.items(), key=lambda kv: tuple(sorted(kv[0])))
    )
    rate = sum((v for _, v in trees), Fraction(0))
    denom = lcm(1, *(v.denominator for _, v in trees)) if trees else 1
    return SteinerPacking(trees, denom, rate)


# -- solvers ---------------------------------------------------------------


def _mincut_lower_estimate(
    reps: list[tuple[int, str, str, int]],
    res: dict[int, int],
    source: str,
    sinks: tuple[str, ...],
) -> int:
    """min over sinks of the source-sink min cut under residual capacities.

    Any k edge-disjoint A-Steiner trees give k edge-disjoint source-sink
    paths, so this is an admissible upper bound for branch and bound.  The
    running minimum stops each later flow early.
    """
    adj: PairCapacities = {}
    for rid, u, v, _ in reps:
        adj.setdefault(u, {})[v] = res[rid]
        adj.setdefault(v, {})[u] = res[rid]
    best = None
    for sink in sinks:
        best, _ = pair_flow(adj, source, sink, best)
        if best == 0:
            return 0
    return best


def max_integer_packing(
    g: Multigraph, a: TerminalSet, limit: int = DEFAULT_TREE_LIMIT
) -> tuple[int, SteinerPacking]:
    """Exact maximum number of edge-disjoint A-Steiner trees, with certificate.

    Depth-first branch and bound over minimal trees (smallest first), pruned
    by a residual min-cut bound and by the LP optimum.
    """
    trees, reps, classes, caps = _collapsed_trees(g, a, limit)
    lp_opt, _ = _lp_max_total(trees, [r[0] for r in reps], caps)
    ub_global = int(lp_opt)  # floor
    tree_lists = [sorted(t) for t in trees]

    best = 0
    best_sol: list[int] = []

    def dfs(start: int, res: dict[int, int], count: int, chosen: list[int]) -> bool:
        nonlocal best, best_sol
        if count > best:
            best, best_sol = count, list(chosen)
            if best >= ub_global:
                return True
        ub = count + _mincut_lower_estimate(reps, res, a.source, a.sinks)
        if ub <= best:
            return False
        for j in range(start, len(tree_lists)):
            tl = tree_lists[j]
            if all(res[rid] >= 1 for rid in tl):
                for rid in tl:
                    res[rid] -= 1
                chosen.append(j)
                done = dfs(j, res, count + 1, chosen)
                chosen.pop()
                for rid in tl:
                    res[rid] += 1
                if done:
                    return True
        return False

    dfs(0, dict(caps), 0, [])
    counts: dict[int, int] = {}
    for j in best_sol:
        counts[j] = counts.get(j, 0) + 1
    solution = [(trees[j], Fraction(c)) for j, c in sorted(counts.items())]
    return best, _expand_packing(g, solution, classes)


def half_integer_capacity(
    g: Multigraph, a: TerminalSet, limit: int = DEFAULT_TREE_LIMIT
) -> tuple[Rate, SteinerPacking]:
    """Pack the capacity-doubled graph, divide by 2."""
    k2, packed = max_integer_packing(scale_capacities(g, 2), a, limit)
    trees = tuple((t, mult / 2) for t, mult in packed.trees)
    return Fraction(k2, 2), SteinerPacking(trees, 2, Fraction(k2, 2))


def fractional_capacity_lp(
    g: Multigraph, a: TerminalSet, limit: int = DEFAULT_TREE_LIMIT
) -> tuple[Rate, SteinerPacking]:
    """Exact fractional routing capacity: LP optimum over minimal trees."""
    trees, reps, classes, caps = _collapsed_trees(g, a, limit)
    opt, y = _lp_max_total(trees, [r[0] for r in reps], caps)
    solution = [(trees[j], y[j]) for j in range(len(trees)) if y[j] > 0]
    packing = _expand_packing(g, solution, classes)
    if packing.rate != opt:
        raise CertificateError(f"packing rate {packing.rate} differs from LP optimum {opt}")
    return opt, packing


def verify_packing(g: Multigraph, a: TerminalSet, p: SteinerPacking) -> bool:
    """Certificate check: valid A-Steiner trees, loads within capacities."""
    try:
        by_id = {e.id: e for e in g.edges}
        load: dict[int, Fraction] = {eid: Fraction(0) for eid in by_id}
        total = Fraction(0)
        for tree, mult in p.trees:
            if mult <= 0:
                return False
            vs: set[str] = set()
            for eid in tree.edge_ids:
                e = by_id[eid]
                vs.update((e.u, e.v))
                load[eid] += mult
            if vs != set(tree.vertices):
                return False
            if not a.members <= vs:
                return False
            if len(tree.edge_ids) != len(vs) - 1:
                return False
            if _component_size(tree.edge_ids, by_id, next(iter(vs))) != len(vs):
                return False
            total += mult
        if total != p.rate:
            return False
        return all(load[eid] <= by_id[eid].cap for eid in load)
    except KeyError:
        return False


def _component_size(edge_ids, by_id, start: str) -> int:
    comp = {start}
    changed = True
    while changed:
        changed = False
        for eid in edge_ids:
            e = by_id[eid]
            if (e.u in comp) != (e.v in comp):
                comp.update((e.u, e.v))
                changed = True
    return len(comp)
