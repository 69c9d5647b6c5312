"""Exact Steiner tree packing.

Enumerates edge-minimal A-Steiner trees and packs them three ways: the
maximum number of edge-disjoint trees (branch and bound), the half-integer
rate, and the fractional routing capacity as an exact LP over the
enumerated trees (revised simplex with Bland's rule, pivoted in integer
arithmetic, each row over its own denominator).  Only the slack block of
the tableau is kept: a tree's column is the sum of the slack columns of its
edges, so a pivot updates rows with one entry per edge, none per tree, and
leaves alone every row whose entry in the entering column is zero.

A minimal tree is a spanning tree of A plus a relay subset in which every
relay has degree at least 2.  The relay subsets come from a depth-first
search that decides one relay at a time and cuts a branch as soon as an
included relay has fewer than 2 distinct neighbours left among the
terminals, the included relays and the undecided ones; a relay with no
such pair of neighbours is internal in no tree.  For each subset that
survives, the spanning-tree search cuts a branch as soon as some relay can
no longer reach degree 2, so it only builds minimal trees.  It takes each
relay's edges together, so that cut comes early.

The enumeration counts its work in steps, each about one pass of a loop it
runs in Python: a node of the subset search costs 1, a full subset the
graph's edge count (the filter of its edges), a node of the spanning-tree
search 1 and a connectivity probe the edges it may scan.  More than
``MAX_ENUMERATION_STEPS`` steps raise SearchTooLarge naming the steps
used, so an input with many hopeless relay subsets fails fast instead of
hanging.

The solvers run on a ``Reduction``'s graph, which has one edge per vertex
pair (``multigraph.reduce_core``), and ``Reduction.expand`` maps each
packing back onto the core's edge ids, where it is checked.

A packing holds only what it certifies: each tree's edge-id set with a
positive whole number of units of 1/denominator.  Its rate, the units'
sum over the denominator, and each tree's vertices, the ends of its
edges, are derived, so no stored copy of either can disagree with them.

The enumeration yields its trees one size class at a time: a tree over k
relays has |A| + k - 1 edges, so the trees over the subsets of k relays
form a class, and the classes in order concatenate to the sorted list.  The
simplex prices the trees drawn so far and draws the next class only when
none of them prices negative, and it prices the slack columns only after
the last class, so every pivot is the one it makes over the whole list.
Given an upper bound on the optimum that the caller has certified (in
``analyze``, a checked partition), it stops as soon as its objective
reaches the bound, leaving the later classes undrawn, and refuses an
objective above it.  The vertex it stops at is optimal, though it need not
be the vertex the unstopped solve ends at.

All three packings use the same trees on the same edges, so one
``solve_tree_lp`` per graph (one enumeration, one simplex) serves them all:
each solver takes only that solve, which names its graph and terminals.
Their rates are nested, k <= half <= LP, so ``analyze`` runs the integer
packing first and each other solver only for a rate the packings it has
checked do not reach (the ``analysis`` module docstring).
The half-integer packing runs the integer branch and bound on doubled
capacities with the goal floor(2 * LP optimum), exact because the LP scales
linearly, and expands the k/2 multiplicities onto the graph itself.  Every
solver checks its packing with ``verify_packing``, and that the packing's
rate is the value it reports, before returning it.

The integer and half-integer rates start from the LP vertex: floor(factor *
y_j) copies of each tree j are a packing of s trees, and no packing has more
than the goal floor(factor * LP optimum).  When s falls short, the rounded
packing is completed greedily in the residual capacities: the basis trees
(y_j > 0) in drawn order, then the other drawn trees in drawn order, each
given as many more copies as fit, up to the goal.  The walk reads lists
only, so its packing does not depend on hash order.  A packing that
reaches the goal is returned at once, proved optimal by the LP bound, also
when the LP stopped at a bound and left classes undrawn; no flow runs.
Only when the completed packing of s trees falls short does the branch and
bound run, first over the drawn trees alone.  It keeps its path on an
explicit stack and starts with s - 1 as the count to beat (not with the
completed packing itself).  Only a search that ends short of the goal, at
k' trees, draws the classes the LP left, from the same enumeration, and
searches every tree, starting with k' - 1.  The witness of a search is the
depth-first first node that reaches the optimum k over the trees it
searches; every node on its path has a bound of at least k, above the
count to beat and above every count found before it, so the seeded and the
unseeded search over the same trees prune none of them and return the same
packing, from whichever LP vertex s comes.

A node at depth d is kept iff it can still beat the best count: every
source-sink cut of its residual must reach need = best + 1 - d, since any k
edge-disjoint A-Steiner trees give k edge-disjoint source-sink paths.  The
residual is one pair-capacity map, exact because there is one edge per
vertex pair, updated in place as a tree is taken or put back, and each
source-sink flow stops at need.  A flow that falls short of need prunes the
node only with a residual cut that separates source from sink and carries
the flow's value (``checked_flow``), which proves that cut below need.  The
searches of one call visit at most ``MAX_SEARCH_NODES`` nodes together, and
raise SearchTooLarge past them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .connectivity import PairCapacities, checked_flow, pair_capacities
from .errors import CertificateError, SearchTooLarge, TooManyTrees
from .multigraph import Multigraph, Rate, Reduction, TerminalSet, edge_component

DEFAULT_TREE_LIMIT = 5000
# Steps one tree enumeration may take (module docstring).  Over budget it
# stops after 0.07-0.10 s in test_tree_enumeration_step_limit and 0.4 s on
# dangling_triangles(16) as given (2-core x86 VM, Python 3.11).  The largest
# tested core, random_instance(16, 12, 4, 0) with a parallel edge, takes 76
# thousand steps; the unit all-terminal K46 and random_instance(24, 16, 4, 0)
# find more than DEFAULT_TREE_LIMIT trees within 1.22 million.
MAX_ENUMERATION_STEPS = 3_000_000
# Nodes the searches of one branch and bound may visit together.  Every node
# runs its flows and scans the trees for the next one that fits, so the
# budget takes about 1.9-2.1 s, some 100 us a node, in the half-integer
# search over the 1812 drawn trees of the 16th draw of
# sample_instances(25, 24, 24, 6, 3000) (2-core x86 VM, Python 3.11).
MAX_SEARCH_NODES = 20_000


@dataclass(frozen=True)
class SteinerPacking:
    """Trees as (edge ids, units) pairs: each tree carries a positive whole
    number of units of 1/``denominator``."""

    trees: tuple[tuple[frozenset[int], int], ...]
    denominator: int

    @property
    def rate(self) -> Rate:
        return Fraction(sum(units for _, units in self.trees), self.denominator)


# -- spanning / Steiner tree enumeration -----------------------------------


def _spanning_trees(
    size: int, edges: list[tuple[int, int, int]], need: list[int], emit, steps: int
) -> int:
    """Enumerate the spanning trees of the ``size`` vertices that ``edges``
    (id, u, v) join, in which every vertex x has degree at least need[x]
    (2 for a relay, 0 for a terminal), each emitted once as a list of edge
    ids; return ``steps`` plus the steps taken (module docstring).

    Include/exclude search over the edges in order, depth first on an
    explicit stack, so the number of edges is not limited by the
    interpreter's recursion limit.  A branch is cut when
    some relay's chosen plus undecided edges fall below 2, or when the
    undecided edges can no longer connect the components.  Only leaving
    out an edge between two components can bring that about, so the
    connectivity probe runs there alone.  Vertices are the caller's
    integers; those no edge meets stay single and are never looked at.
    """
    ends = [(u, v) for _, u, v in edges]
    # need[x]: chosen edges relay x still lacks; slack[x]: chosen plus
    # undecided edges at x, less 2 for a relay
    slack = [-k for k in need]
    for u, v in ends:
        slack[u] += 1
        slack[v] += 1
    short = len(need) - need.count(0)  # relays with need > 0

    def connectable(parent: list[int], ncomp: int, i: int) -> bool:
        """Whether the edges from i on can merge all components of parent."""
        nonlocal steps
        steps += len(ends) - i
        probe = parent.copy()
        for u, v in ends[i:]:
            if ncomp == 1:
                break
            while probe[u] != u:
                probe[u] = u = probe[probe[u]]
            while probe[v] != v:
                probe[v] = v = probe[probe[v]]
            if u != v:
                probe[u] = v
                ncomp -= 1
        return ncomp == 1

    # depth first on an explicit stack: a node at depth i has decided edges
    # 0..i-1, took[d] says whether edge d is in, and parents[k] is the
    # union-find after the first k taken edges, so a node has size - k
    # components.  Every node has edges from i on that can merge them all,
    # so a node past the last edge has one component.
    root = list(range(len(need)))
    if not connectable(root, size, 0):
        return steps
    parents, took = [root], []
    chosen: list[int] = []
    while True:
        steps += 1
        i = len(took)
        if len(chosen) == size - 1:
            if short == 0:
                emit(list(chosen))
        else:
            u, v = ends[i]
            parent = parents[-1]
            ru, rv = u, v
            while parent[ru] != ru:
                parent[ru] = ru = parent[parent[ru]]
            while parent[rv] != rv:
                parent[rv] = rv = parent[parent[rv]]
            if ru != rv:  # take edge i first
                p2 = parent.copy()
                p2[ru] = rv
                parents.append(p2)
                chosen.append(edges[i][0])
                need[u] -= 1
                need[v] -= 1
                short -= (need[u] == 0) + (need[v] == 0)
                took.append(True)
                continue
            # edge i closes a cycle: leave it out, if its ends keep their degree
            slack[u] -= 1
            slack[v] -= 1
            if slack[u] >= 0 and slack[v] >= 0:
                took.append(False)
                continue
            slack[u] += 1
            slack[v] += 1
        if steps > MAX_ENUMERATION_STEPS:
            raise _enumeration_too_large(steps)
        # back up to the deepest taken edge that can be left out instead
        while took:
            steps += 1
            i = len(took) - 1
            u, v = ends[i]
            if took.pop():
                parents.pop()
                chosen.pop()
                short += (need[u] == 0) + (need[v] == 0)
                need[u] += 1
                need[v] += 1
                slack[u] -= 1
                slack[v] -= 1
                if slack[u] >= 0 and slack[v] >= 0 and connectable(parents[-1], size - len(chosen), i + 1):
                    took.append(False)
                    break
            slack[u] += 1
            slack[v] += 1
        else:
            return steps


def _enumeration_too_large(steps: int) -> SearchTooLarge:
    return SearchTooLarge(
        f"tree enumeration used {steps} steps, more than the budget "
        f"MAX_ENUMERATION_STEPS = {MAX_ENUMERATION_STEPS}"
    )


def _minimal_trees(
    vertex_set: frozenset[str],
    edges: list[tuple[int, str, str]],
    terminals: frozenset[str],
    limit: int,
) -> Iterator[list[frozenset[int]]]:
    """All edge-minimal terminal-spanning trees: spanning trees of A union R
    (R a relay subset) in which every relay is an internal vertex, one size
    class at a time.

    A tree over k relays has |A| + k - 1 edges, so the trees over the
    subsets of k relays are one class; the classes come for k = 0, 1, ...,
    each sorted by ids, the empty ones left out, and in that order they
    concatenate to all the trees sorted by (size, sorted ids).  Vertices are
    integers: the sorted terminals, then the relays by ascending (degree,
    name).  The relay subsets come first, all of them, from a depth-first
    search that decides one relay at a time in that order and cuts a branch
    when an included relay has fewer than 2 distinct neighbours among the
    terminals, the included relays and the undecided ones; a class's
    spanning trees are searched only when it is drawn.
    """
    terms = sorted(terminals)
    degree = Counter(x for _, u, v in edges for x in (u, v))
    relays = sorted(vertex_set - terminals, key=lambda r: (degree[r], r))
    nt, nr = len(terms), len(relays)
    index = {v: i for i, v in enumerate(terms + relays)}
    # each relay's edges together, the relays in rank order and
    # terminal-terminal edges last, so that the spanning-tree search settles
    # a relay's degree 2 early; each class is sorted, so the order only
    # changes the time taken
    rank = [nr] * nt + list(range(nr))
    ends = sorted(
        ((eid, index[u], index[v]) for eid, u, v in edges),
        key=lambda e: (min(rank[e[1]], rank[e[2]]), e[0]),
    )
    masks = [1 << u | 1 << v for _, u, v in ends]
    nbrs = [0] * (nt + nr)
    for _, u, v in ends:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    out: list[frozenset[int]] = []

    def keep(tree: list[int]) -> None:
        out.append(frozenset(tree))
        if len(out) > limit:
            name = "DEFAULT_TREE_LIMIT" if limit == DEFAULT_TREE_LIMIT else "limit"
            raise TooManyTrees(
                f"tree enumeration found more than {name} = {limit} minimal Steiner trees"
            )

    # the vertices not left out of each surviving subset, by its relay count
    subsets: list[list[int]] = [[] for _ in range(nr + 1)]
    # (next relay to decide, included relays, vertices not left out), as masks
    stack = [(nt, 0, (1 << nt + nr) - 1)]
    steps = 0
    while stack:
        x, inc, avail = stack.pop()
        steps += 1
        if steps > MAX_ENUMERATION_STEPS:
            raise _enumeration_too_large(steps)
        if x < nt + nr:
            bit = 1 << x
            # leave x out, unless an included neighbour then drops below 2
            rest = avail ^ bit
            m = nbrs[x] & inc
            while m and (nbrs[(m & -m).bit_length() - 1] & rest).bit_count() >= 2:
                m &= m - 1
            if not m:
                stack.append((x + 1, inc, rest))
            if (nbrs[x] & avail).bit_count() >= 2:
                stack.append((x + 1, inc | bit, avail))
            continue
        steps += len(ends)  # the filter of its edges below
        subsets[inc.bit_count()].append(avail)
    for k, avails in enumerate(subsets):
        start = len(out)
        for avail in avails:
            sub = [e for e, em in zip(ends, masks) if em & avail == em]
            if len(sub) >= nt + k - 1:
                inc = avail >> nt << nt  # the relays not left out
                need = [2 * (inc >> v & 1) for v in range(nt + nr)]
                steps = _spanning_trees(nt + k, sub, need, keep, steps)
        if len(out) > start:
            yield sorted(out[start:], key=lambda t: tuple(sorted(t)))


def enumerate_steiner_trees(
    g: Multigraph, a: TerminalSet, limit: int = DEFAULT_TREE_LIMIT
) -> list[frozenset[int]]:
    """The edge-id sets of all edge-minimal A-Steiner trees of g, by size
    and then by sorted ids.

    Exceeding ``limit`` raises TooManyTrees so results are never silently
    truncated.  Parallel edges yield distinct trees (distinct edge ids).
    """
    edges = [(e.id, e.u, e.v) for e in g.edges]
    return [t for size_class in _minimal_trees(g.vertices, edges, a.members, limit) for t in size_class]


# -- exact simplex in integer arithmetic -----------------------------------


def _reduced(row: list[int], d: int) -> tuple[list[int], int]:
    """row / d in lowest terms, for d > 0: both divided by their gcd."""
    g = gcd(d, *row)
    if g == 1:
        return row, d
    return [x // g for x in row], d // g


def _lp_max_total(
    cols: list[frozenset[int]],
    row_ids: list[int],
    caps: dict[int, int],
    more: Iterable[list[frozenset[int]]] = (),
    upper: Rate | None = None,
) -> tuple[Fraction, list[Fraction]]:
    """max sum(y) s.t. for each row e: sum_{col containing e} y_col <= caps[e], y >= 0,
    over the columns ``cols`` followed by the classes of columns in ``more``.

    Revised simplex with Bland's rule (no cycling), pivoted in integers:
    ``tab`` holds only the slack block and the right-hand side, row i as
    integers over its own positive denominator ``den[i]``, and ``z`` the
    reduced costs of the slack columns and the objective over ``dz``.  A
    pivot on numerator ``p`` at (r, c) maps each row i != r whose entering
    numerator f is nonzero to (p * row_i - f * row_r) / (den[i] * p), the
    pivot row to row_r / p and ``z`` to (p * z - cost * row_r) / (dz * p),
    each reduced by its gcd; a row with f = 0 is left alone.

    Row operations act on every column alike, and a tree column starts as
    the sum of the slack columns of its rows, so it stays that sum: the
    column of tree j is the row-sum of ``tab`` over j's rows, and its
    reduced cost (times dz) is the sum of ``z`` over them less dz.  Columns
    are priced in the full tableau's order, trees and then slacks, taking
    the first negative one, and the ratio test compares b_i / a_i as
    tab[i][-1] / column[i], where row i's denominator cancels, so the pivots
    are the full tableau's own.  The next class of ``more`` is drawn onto
    ``cols``, in place, only when no column of ``cols`` prices negative, and
    the slack columns are priced only after the last class, so drawing them
    late changes no pivot.

    With ``upper``, a bound on the optimum that the caller has certified,
    the solve stops as soon as the objective equals it, and an objective
    above it raises CertificateError.  The vertex returned then has one
    entry per column drawn.
    """
    m = len(row_ids)
    row_index = {rid: i for i, rid in enumerate(row_ids)}
    col_rows = [[row_index[rid] for rid in col] for col in cols]
    more = iter(more)
    tab = []
    for i, rid in enumerate(row_ids):
        row = [0] * (m + 1)
        row[i] = 1
        row[-1] = caps[rid]
        tab.append(row)
    den = [1] * m
    # dz times the reduced costs of the slack columns, then dz times the objective
    z = [0] * (m + 1)
    dz = 1
    # slack i is column slack + i, after every tree column however many are drawn
    slack = 1 << 62
    basis = [slack + i for i in range(m)]
    while True:
        if upper is not None:
            over = z[-1] * upper.denominator - upper.numerator * dz
            if over > 0:
                raise CertificateError(
                    f"LP objective {Fraction(z[-1], dz)} passed its certified upper bound {upper}"
                )
            if over == 0:
                break
        enter, start = None, 0
        while enter is None:
            for j in range(start, len(col_rows)):
                rows = col_rows[j]
                cost = sum([z[i] for i in rows]) - dz
                if cost < 0:
                    enter = j
                    column = [sum([row[i] for i in rows]) for row in tab]
                    break
            else:
                size_class = next(more, None)
                if size_class is None:
                    break
                start = len(cols)
                cols.extend(size_class)
                col_rows.extend([row_index[rid] for rid in col] for col in size_class)
        if enter is None:
            k = next((k for k in range(m) if z[k] < 0), None)
            if k is None:
                break
            enter, cost = slack + k, z[k]
            column = [row[k] for row in tab]
        leave = None
        for i in range(m):
            a = column[i]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # b_i / a_i against b_leave / a_leave, both a positive
                lhs, rhs = tab[i][-1] * column[leave], tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise CertificateError("tree-packing LP cannot be unbounded")
        prow = tab[leave]
        p = column[leave]
        for i, f in enumerate(column):
            if f and i != leave:
                tab[i], den[i] = _reduced([p * x - f * y for x, y in zip(tab[i], prow)], den[i] * p)
        z, dz = _reduced([p * x - cost * y for x, y in zip(z, prow)], dz * p)
        tab[leave], den[leave] = _reduced(prow, p)
        basis[leave] = enter
    y = [Fraction(0)] * len(cols)
    for i, b in enumerate(basis):
        if b < slack:
            y[b] = Fraction(tab[i][-1], den[i])
    return Fraction(z[-1], dz), y


# -- one solve per graph ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class TreeLP:
    """The tree-packing LP of one graph and terminal set, solved once.

    ``reduction.graph`` is the graph solved, one edge per vertex pair, and
    ``reduction.core`` the one the packings are expanded onto and checked
    on; for a plain graph the core is that graph.  ``trees`` are the
    minimal A-Steiner trees of the graph solved that the solve drew, all of
    them unless it stopped at its bound, and ``rest`` the size classes it
    did not draw.  ``opt`` and ``y``
    are the LP optimum and a primal solution, one entry per tree drawn.
    Every packing of the graph is a packing of ``all_trees()``, so the
    integer, half-integer and fractional solvers all take this one
    enumeration and one simplex.
    """

    reduction: Reduction
    terminals: TerminalSet
    trees: list[frozenset[int]]
    opt: Fraction
    y: tuple[Fraction, ...]
    rest: Iterator[list[frozenset[int]]]

    def all_trees(self) -> list[frozenset[int]]:
        """``trees`` with the classes left in ``rest`` drawn onto it: every
        minimal tree, from the one enumeration."""
        for size_class in self.rest:
            self.trees.extend(size_class)
        return self.trees


def solve_tree_lp(g: Multigraph | Reduction, a: TerminalSet, upper: Rate | None = None) -> TreeLP:
    """Enumerate the minimal trees of g with its parallel edges grouped
    (``Reduction.of``) and solve their LP; for a ``Reduction``, of its
    reduced graph.

    ``upper`` is a certified bound on the optimum: the solve stops when its
    objective reaches it, drawing no more size classes, and raises
    CertificateError if the objective passes it.  More than
    ``DEFAULT_TREE_LIMIT`` trees drawn raise TooManyTrees.
    """
    reduction = Reduction.of(g)
    g = reduction.graph
    rest = _minimal_trees(g.vertices, [(e.id, e.u, e.v) for e in g.edges], a.members, DEFAULT_TREE_LIMIT)
    caps = {e.id: e.cap for e in g.edges}
    trees: list[frozenset[int]] = []
    opt, y = _lp_max_total(trees, list(caps), caps, rest, upper)
    return TreeLP(reduction, a, trees, opt, tuple(y), rest)


# -- the checked packing on the core --------------------------------------


def _expand_packing(
    lp: TreeLP, units: list[tuple[frozenset[int], int]], scale: int, stage: str, value: Rate
) -> SteinerPacking:
    """The packing of the graph solved given as ``units`` of 1/scale per
    tree, mapped onto the core by ``Reduction.expand`` and checked there
    with ``verify_packing`` and against the solver's reported ``value``.
    The packing's denominator is ``scale``.  A packing that fails either
    check raises CertificateError naming ``stage``.
    """
    packing = SteinerPacking(tuple(lp.reduction.expand(units, scale)), scale)
    if not verify_packing(lp.reduction.core, lp.terminals, packing):
        raise CertificateError(f"{stage} packing failed verification")
    if packing.rate != value:
        raise CertificateError(f"{stage} packing rate {packing.rate} differs from its value {value}")
    return packing


# -- solvers ---------------------------------------------------------------


def _vertex_units(y: tuple[Fraction, ...]) -> tuple[int, list[tuple[int, int]]]:
    """The least common denominator of the LP vertex, and (j, scale * y_j)
    for every nonzero y_j, in integers."""
    basis = [(j, v.numerator, v.denominator) for j, v in enumerate(y) if v]
    scale = lcm(1, *(den for _, _, den in basis))
    return scale, [(j, num * (scale // den)) for j, num, den in basis]


def _can_beat(res: PairCapacities, source: str, sinks: tuple[str, ...], need: int) -> bool:
    """Whether a branch-and-bound node is kept (module docstring): iff every
    source-sink flow in the residual pair capacities ``res`` reaches
    ``need``, each stopped there."""
    return all(checked_flow(res, source, t, need)[1] is None for t in sinks)


def _branch_and_bound(
    lp: TreeLP, factor: int, stage: str
) -> tuple[int, list[tuple[frozenset[int], int]]]:
    """Most minimal trees that fit in ``factor`` times the capacities
    (a tree may repeat), as the count and (tree, copies) pairs in tree
    order.

    The LP optimum, which scales linearly with the capacities, bounds every
    packing by goal = floor(factor * LP optimum), so a packing that reaches
    the goal is returned at once.  The first such candidate is the LP
    vertex rounded down, floor(factor * y_j) copies of tree j; the next is
    that packing completed greedily, each drawn tree in turn, the basis
    trees (y_j > 0) first, given as many more copies as the residual
    capacities hold, up to the goal.  Only when the completed packing of s
    trees falls short does the search run, depth-first over the drawn trees
    ``lp.trees``, smallest first, on an explicit stack of the next tree to
    try at each open node, with the incumbent bound starting at s - 1.  A
    node at depth d is pruned unless every source-sink cut of its residual
    reaches best + 1 - d, and the search stops once it reaches the goal.  A
    search that ends short draws the classes the LP left (``all_trees``)
    and, if there are any, searches every tree from its own count less
    one.  After ``MAX_SEARCH_NODES`` nodes in all it raises SearchTooLarge
    naming ``stage``.
    """
    goal = int(factor * lp.opt)  # floor
    # floor(factor * y_j) = factor * u_j // scale, for u_j = scale * y_j
    scale, units = _vertex_units(lp.y)
    counts = {j: c for j, u in units if (c := factor * u // scale)}
    s = sum(counts.values())
    if s < goal:
        # what the rounded packing leaves of each edge of the graph solved
        room = {e.id: factor * e.cap for e in lp.reduction.graph.edges}
        for j, c in counts.items():
            for eid in lp.trees[j]:
                room[eid] -= c
        for j in [j for j, _ in units] + [j for j, y in enumerate(lp.y) if not y]:
            c = min(goal - s, *(room[eid] for eid in lp.trees[j]))
            if c > 0:
                for eid in lp.trees[j]:
                    room[eid] -= c
                counts[j] = counts.get(j, 0) + c
                s += c
                if s == goal:
                    break
        if s < goal:
            s, counts = _search(lp, factor, s, goal, stage)
    return s, [(lp.trees[j], c) for j, c in sorted(counts.items())]


def _search(lp: TreeLP, factor: int, s: int, goal: int, stage: str) -> tuple[int, dict[int, int]]:
    """The search of ``_branch_and_bound``, from a packing of s of the drawn
    trees: the best count and its copies of each tree by index."""
    source, sinks = lp.terminals.source, lp.terminals.sinks
    g = lp.reduction.graph
    # residual capacities, kept in place: one edge per vertex pair
    res = {x: {y: factor * c for y, c in nbrs.items()} for x, nbrs in pair_capacities(g).items()}
    ends = {e.id: (e.u, e.v) for e in g.edges}
    trees = [[ends[c] for c in sorted(t)] for t in lp.trees]
    nodes = 0
    while True:
        # a packing of s trees exists, so the search finds one of more than
        # s - 1; best < goal, so the root is kept without a check
        best, best_sol = s - 1, []
        chosen: list[int] = []
        end = len(trees)
        # next tree to try at each open node on the path; a pruned node gets end
        todo = [0]
        if nodes == MAX_SEARCH_NODES:
            raise _search_too_large(stage, nodes, s, goal)
        nodes += 1
        while todo:
            j = todo[-1]
            while j < end and not all(res[u][v] >= 1 for u, v in trees[j]):
                j += 1
            if j == end:
                todo.pop()
                if chosen:
                    for u, v in trees[chosen.pop()]:
                        res[u][v] += 1
                        res[v][u] += 1
                continue
            todo[-1] = j + 1
            for u, v in trees[j]:
                res[u][v] -= 1
                res[v][u] -= 1
            chosen.append(j)
            if len(chosen) > best:
                best, best_sol = len(chosen), list(chosen)
                if best >= goal:
                    break
            if nodes == MAX_SEARCH_NODES:
                raise _search_too_large(stage, nodes, s, goal)
            nodes += 1
            keep = _can_beat(res, source, sinks, best + 1 - len(chosen))
            todo.append(j if keep else end)
        # a search that ends short has put every tree back; it draws the
        # classes the LP left and searches every tree from its own count
        s = best
        more = lp.all_trees()[end:] if best < goal else []
        if not more:
            return best, Counter(best_sol)
        trees += [[ends[c] for c in sorted(t)] for t in more]


def _search_too_large(stage: str, nodes: int, s: int, goal: int) -> SearchTooLarge:
    return SearchTooLarge(
        f"{stage} branch and bound used {nodes} nodes, the budget "
        f"MAX_SEARCH_NODES = {MAX_SEARCH_NODES}, and the packing of {s} "
        f"trees it started from is short of the goal of {goal}"
    )


def max_integer_packing(lp: TreeLP) -> tuple[int, SteinerPacking]:
    """Exact maximum number of edge-disjoint A-Steiner trees of the solved
    graph, with its checked packing."""
    k, counts = _branch_and_bound(lp, 1, "integer")
    return k, _expand_packing(lp, counts, 1, "integer", k)


def half_integer_capacity(lp: TreeLP) -> tuple[Rate, SteinerPacking]:
    """Most trees in doubled capacities, halved: the half-integer rate and
    its checked packing of denominator 2 on the solved graph."""
    k2, counts = _branch_and_bound(lp, 2, "half-integer")
    rate = Fraction(k2, 2)
    return rate, _expand_packing(lp, counts, 2, "half-integer", rate)


def fractional_capacity_lp(lp: TreeLP) -> tuple[Rate, SteinerPacking]:
    """Exact fractional routing capacity, the LP optimum over minimal trees,
    with its checked packing."""
    scale, units = _vertex_units(lp.y)
    return lp.opt, _expand_packing(lp, [(lp.trees[j], u) for j, u in units], scale, "fractional", lp.opt)


def verify_packing(g: Multigraph, a: TerminalSet, p: SteinerPacking) -> bool:
    """Certificate check: valid A-Steiner trees, loads within capacities.

    Every tree must carry a positive ``int`` number of units of
    1/``p.denominator``, and loads are compared in those units.
    """
    d = p.denominator
    if type(d) is not int or d < 1:
        return False
    try:
        by_id = {e.id: e for e in g.edges}
        ends = {e.id: (e.u, e.v) for e in g.edges}
        load = dict.fromkeys(by_id, 0)
        for edge_ids, units in p.trees:
            if type(units) is not int or units <= 0:
                return False
            vs: set[str] = set()
            for eid in edge_ids:
                e = by_id[eid]
                vs.update((e.u, e.v))
                load[eid] += units
            if not a.members <= vs:
                return False
            if len(edge_ids) != len(vs) - 1:
                return False
            if len(edge_component(edge_ids, ends, next(iter(vs)))) != len(vs):
                return False
        return all(load[eid] <= by_id[eid].cap * d for eid in load)
    except KeyError:
        return False
