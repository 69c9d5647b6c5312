"""Edge strength: the partition upper bound on coding capacity.

eta(G, A) = min over partitions P of V with a terminal in every block of
(crossing capacity of P) / (|P| - 1).

The search is exact.  It places the terminals in sorted order, each into
every existing block and then into a new one, so it visits the terminal
partitions in canonical order; it then assigns each relay (in sorted order)
to one of the existing blocks, since a fresh block would be terminal-free.
Both levels are depth first on an explicit stack (``levels`` for the
terminals, ``assign`` and ``before`` for the relays), so the depth, up to
|A| + |R|, is not limited by the interpreter's recursion limit.  The
crossing of a terminal partition splits into a fixed part
(terminal-terminal edges), a per-relay cost ``row[b]`` (the relay's
capacity to terminals outside block b) and the relay-relay edges cut by the
assignment.  Nothing is set up per partition: placing a terminal adds its
capacity to earlier terminals in other blocks to ``fixed`` and its capacity
from each relay r to ``into[r][b]``, and backtracking takes both back, so a
full terminal partition reads its rows off ``into``.

Three strict prunes, all integer cross-multiplications against the
incumbent best_num / best_den:

- A partial terminal partition with ``blocks`` blocks and terminals i..
  still to place.  A completion in which j of them open new blocks has
  k = blocks + j >= 2 blocks and crosses at least max(fixed + S_j, k*lam/2),
  with lam = λ(A) from ``terminal_connectivity``, called in this search:
  * an opener's edges to every earlier terminal cross; each such edge is
    counted at its later end, so these sets are disjoint from each other
    and from ``fixed``, and the openers add at least S_j
    (``opener[i][j]``), the sum of the j least ``tt_total`` among the
    unplaced terminals;
  * the boundaries d(B) of the k blocks count every crossing edge twice,
    and each block holds a terminal and misses one, so d(B) >= λ(A).
  The node is skipped when max(2(fixed + S_j), k*lam) * best_den >
  2 * best_num * (k - 1) for every j.  As fixed + S_j >= fixed and k - 1 is
  at most blocks + unplaced - 1, this dominates the plain bound
  ``fixed / (blocks + unplaced - 1)``.  λ is computed here, not taken from
  the caller: a λ too large would prune the optimum, and
  ``verify_partition`` cannot notice.  ``terminal_connectivity`` checks
  each of its flows against the flow's own residual cut.
- A full one: each relay costs at least its capacity to every block but the
  one it has most capacity to, so it is skipped when ``fixed`` plus those
  least costs is above the incumbent.
- A relay assignment: relay-relay edges only add, so ``cur + suffix[r]``,
  where ``suffix[r]`` sums the row minima of the relays not yet placed,
  bounds every completion from below.

The incumbent starts at the value of a seed partition: a block for each
terminal, each relay in sorted order joined to the block it has most
capacity to (the lowest on ties).  On the relay-cycle family the seed is
already optimal, a/(a-1); since k*λ/(2(k-1)) = k/(k-1) is above that for
every k < a, only partial partitions that can still end in a blocks survive.
The seed records no witness: while no leaf has, ``leaf()`` accepts one that
ties the seed.  ``partition_bound`` takes the same seed (``_seed``), lifted
onto the core, as one of its two partitions: ``analyze`` stops its tree LP
at the bound and runs this search only when the LP falls short of it.

Each bound is at most the value of every partition it prunes, the
incumbent never drops below the optimum, and a prune needs the bound
strictly above the incumbent, so every minimizer reaches ``leaf()``; the
first one there replaces the seed or a worse leaf.  The witness is
therefore the least minimizer in the order of the sorted tuple of sorted
blocks, whatever the search order and the seed.

The search may run on a ``Reduction`` (``multigraph.reduce_core``).  Its
witness is then lifted onto the pruned core, putting the removed relays
back in reverse removal order: a deleted relay joins its neighbour's
block; a contracted one joins its neighbours' block when they share one,
and otherwise its heavier neighbour's, the smaller name on ties, so that it
crosses min(c1, c2), as its part did.  The lifted partition has the same
crossing and number of blocks, and ``verify_partition`` checks it on the
core.  Restricted to the reduced graph it is the least minimizer there;
on the core it is a minimizer, not necessarily the least.

The search counts its work in steps, each about one pass of a loop it runs
in Python: a terminal node costs 1 plus the terminals still to place (the
bound's loop over j), placing a terminal 1 plus its relay edges, opening a
block |R| (a column of ``into``), a full terminal partition 1 + |R| for its
least-cost bound and |R| times its blocks more for its rows, and a relay
node 1 plus, for each block, 1 and the relay's edges to earlier relays.
More than ``MAX_STRENGTH_STEPS`` steps raise SearchTooLarge, naming the
steps used.  The limit counts work rather than |V| or Bell(|A|): a
16-vertex core can take a few thousand steps, and 11 terminals around one
relay, where neither bound cuts a node, about 3.5 million.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .connectivity import PairCapacities, pair_capacities, terminal_connectivity
from .errors import CertificateError, SearchTooLarge
from .multigraph import Multigraph, Rate, Reduction, TerminalSet

# Steps one edge strength search may spend (module docstring).  A step takes
# about 0.2-0.4 us (2-core x86 VM, Python 3.11), so a search over budget
# stops after 1-2.5 s: 11 terminals around one relay hub use 3.5 million
# steps (about 1.1-1.5 s), and 12 are refused.
MAX_STRENGTH_STEPS = 6_000_000


@dataclass(frozen=True)
class TerminalPartition:
    blocks: tuple[frozenset[str], ...]
    crossing: int


def _crossing_capacity(g: Multigraph, blocks) -> int:
    block_of = {v: i for i, b in enumerate(blocks) for v in b}
    return sum(e.cap for e in g.edges if block_of[e.u] != block_of[e.v])


def _lift(reduction: Reduction, blocks) -> tuple[frozenset[str], ...]:
    """The blocks of a partition of ``reduction.graph`` with every removed
    relay put back (module docstring), in the same block order."""
    block_of = {v: i for i, b in enumerate(blocks) for v in b}
    for x, nbrs in reversed(reduction.removed):
        sides = {block_of[y] for y, _ in nbrs}
        if len(sides) > 1:  # apart: x crosses to its lighter neighbour alone
            sides = {block_of[max(nbrs, key=lambda yc: yc[1])[0]]}
        block_of[x] = min(sides, default=0)
    out = [set() for _ in blocks]
    for v, i in block_of.items():
        out[i].add(v)
    return tuple(frozenset(b) for b in out)


def _seed(adj: PairCapacities, terms: list[str], relays: list[str]) -> tuple[dict[str, int], int]:
    """The seed partition (module docstring) as each vertex's block, terminal
    i in block i, and its crossing."""
    block_of = {t: i for i, t in enumerate(terms)}
    for r in relays:
        to = [0] * len(terms)
        for y, c in adj[r].items():
            if y in block_of:
                to[block_of[y]] += c
        block_of[r] = to.index(max(to))
    crossing = sum(c for x, nbrs in adj.items() for y, c in nbrs.items() if block_of[x] != block_of[y])
    return block_of, crossing // 2


def _checked(core: Multigraph, a: TerminalSet, eta: Rate, blocks, crossing: int) -> TerminalPartition:
    """The partition of the core with these blocks and crossing, checked by
    ``verify_partition`` to attain eta."""
    witness = TerminalPartition(tuple(frozenset(b) for b in blocks), crossing)
    if not verify_partition(core, a, eta, witness):
        raise CertificateError("edge strength witness failed verification")
    return witness


def edge_strength(g: Multigraph | Reduction, a: TerminalSet) -> tuple[Rate, TerminalPartition]:
    """Exact minimum of crossing/(blocks-1) over terminal-covering partitions.

    The witness is the lexicographically least minimizer (blocks compared as
    sorted tuples of sorted vertex lists), checked by ``verify_partition``.
    For a ``Reduction`` the search runs on its reduced graph, and the
    witness is lifted onto its core and checked there.  A search that
    spends more than ``MAX_STRENGTH_STEPS`` steps raises SearchTooLarge.
    """
    reduction = Reduction.of(g)
    g = reduction.graph
    lam = terminal_connectivity(g, a)
    adj = pair_capacities(g)
    terms = sorted(a.members)
    relays = sorted(g.vertices - a.members)
    t_index = {t: i for i, t in enumerate(terms)}
    r_index = {r: i for i, r in enumerate(relays)}
    nt, nr = len(terms), len(relays)
    tt_edges: list[list[tuple[int, int]]] = [[] for _ in terms]  # to earlier terminals
    tr_edges: list[list[tuple[int, int]]] = [[] for _ in terms]  # terminal -> relays
    rt_total = [0] * nr  # capacity from each relay to all terminals
    for i, t in enumerate(terms):
        for y, c in adj[t].items():
            if y in r_index:
                tr_edges[i].append((r_index[y], c))
                rt_total[r_index[y]] += c
            elif t_index[y] < i:  # a self-loop never crosses
                tt_edges[i].append((t_index[y], c))
    rr_edges = [  # relay -> earlier relays
        [(r_index[y], c) for y, c in adj[r].items() if y in r_index and r_index[y] < q]
        for q, r in enumerate(relays)
    ]
    tt_total = [sum(c for _, c in row) for row in tt_edges]
    rt_sum = sum(rt_total)
    # opener[i][j]: least capacity to earlier terminals of any j of terminals i..
    opener = [list(accumulate(sorted(tt_total[i:]), initial=0)) for i in range(nt)]

    best_num = _seed(adj, terms, relays)[1]
    best_den = nt - 1  # incumbent value best_num / best_den
    best_key = None  # sorted tuple of sorted blocks of the incumbent, once a leaf sets it
    tblock = [0] * nt  # block of each placed terminal on the current search path
    into = [[] for _ in relays]  # into[r][b]: capacity from relay r to block b
    assign = [0] * nr  # block of each placed relay on the current search path
    before = [0] * nr  # crossing before each placed relay on the current search path
    steps = 0  # work done so far, in the units of the module docstring

    def over_budget() -> SearchTooLarge:
        return SearchTooLarge(
            f"edge strength search used {steps} steps, more than the budget "
            f"MAX_STRENGTH_STEPS = {MAX_STRENGTH_STEPS}"
        )

    def leaf(cur: int, nb: int) -> None:
        nonlocal best_num, best_den, best_key
        den = nb - 1
        lhs, rhs = cur * best_den, best_num * den
        if lhs > rhs:
            return
        blocks = [[] for _ in range(nb)]
        for t in range(nt):
            blocks[tblock[t]].append(terms[t])
        for r in range(nr):
            blocks[assign[r]].append(relays[r])
        key = tuple(sorted(tuple(sorted(b)) for b in blocks))
        if lhs == rhs and best_key is not None and key >= best_key:
            return
        best_num, best_den, best_key = cur, den, key

    def place(cur: int, nb: int, rows: list[list[int]], suffix: list[int]) -> None:
        """Assign each relay in turn to one of the nb blocks of a full
        terminal partition with fixed crossing ``cur``, depth first."""
        nonlocal steps
        if nr == 0:
            leaf(cur, nb)
            return
        den = nb - 1
        r = first = 0  # the relay being placed, and the next block to try for it
        steps += 1 + nb * (1 + len(rr_edges[0]))
        while True:
            if steps > MAX_STRENGTH_STEPS:
                raise over_budget()
            row, back, rest = rows[r], rr_edges[r], suffix[r + 1]
            for b in range(first, nb):
                step = row[b]
                for s, c in back:
                    if assign[s] != b:
                        step += c
                if (cur + step + rest) * best_den > best_num * den:
                    continue
                assign[r] = b
                if r + 1 == nr:
                    leaf(cur + step, nb)
                    continue
                before[r] = cur
                r, cur, first = r + 1, cur + step, 0
                steps += 1 + nb * (1 + len(rr_edges[r]))
                break
            else:
                if r == 0:
                    return
                r -= 1
                cur, first = before[r], assign[r] + 1

    def partition(blocks: int, fixed: int) -> None:
        """Search the relay assignments of the full terminal partition on
        the path, unless its least-cost bound is above the incumbent."""
        nonlocal steps
        steps += 1 + nr
        # a relay costs at least its capacity to every block but its best
        lower = fixed + rt_sum - sum(map(max, into))
        if lower * best_den > best_num * (blocks - 1):
            return
        steps += nr * blocks
        rows = [[rt_total[r] - x for x in into[r]] for r in range(nr)]
        suffix = [0] * (nr + 1)
        for r in range(nr - 1, -1, -1):
            suffix[r] = suffix[r + 1] + min(rows[r])
        place(fixed, blocks, rows, suffix)

    # the terminal search: levels[i] holds (blocks, fixed, capacity from
    # terminal i to each block) of the open node that places terminal i, in
    # block tblock[i]; a node is entered at the top of the loop
    levels: list[tuple[int, int, list[int]]] = []
    i = blocks = fixed = 0
    while True:
        steps += 1 + nt - i
        if steps > MAX_STRENGTH_STEPS:
            raise over_budget()
        # a completion in which j of the unplaced terminals open blocks has
        # k = blocks + j >= 2 blocks and crosses at least
        # max(fixed + opener[i][j], k * lam / 2); keep the node iff for some
        # j that bound, over k - 1, is at most the incumbent
        least = opener[i]
        b = -1  # the block to try for terminal i next, or -1 to back up
        for k in range(max(blocks, 2), blocks + nt - i + 1):
            lower2 = max(2 * (fixed + least[k - blocks]), k * lam)  # twice the bound
            if lower2 * best_den <= 2 * best_num * (k - 1):
                to = [0] * (blocks + 1)  # capacity from terminal i to each block
                for s, c in tt_edges[i]:
                    to[tblock[s]] += c
                levels.append((blocks, fixed, to))
                b = 0
                break
        while True:
            if b < 0 or b > blocks:  # back up to the parent's next child
                if b > blocks:
                    for x in into:
                        x.pop()
                    levels.pop()
                if not levels:
                    break
                i -= 1
                blocks, fixed, to = levels[-1]
                b, out = tblock[i], tr_edges[i]
                for r, c in out:
                    into[r][b] -= c
                b += 1
                continue
            if b == blocks:
                steps += nr
                for x in into:
                    x.append(0)
            tblock[i] = b
            out = tr_edges[i]
            steps += 1 + len(out)
            for r, c in out:
                into[r][b] += c
            child_blocks, child_fixed = blocks + (b == blocks), fixed + tt_total[i] - to[b]
            if i + 1 < nt:
                i, blocks, fixed = i + 1, child_blocks, child_fixed
                break
            if child_blocks >= 2:
                partition(child_blocks, child_fixed)
            for r, c in out:
                into[r][b] -= c
            b += 1
        if not levels:
            break

    if best_key is None:
        raise CertificateError("edge strength search found no partition")
    eta = Fraction(best_num, best_den)
    return eta, _checked(reduction.core, a, eta, _lift(reduction, best_key), best_num)


def partition_bound(
    g: Multigraph | Reduction, a: TerminalSet, lam: int, side: frozenset[str]
) -> tuple[Rate, TerminalPartition]:
    """An upper bound on eta: the smaller value of two partitions, the one
    returned checked on the core by ``verify_partition`` as the search's
    witness is.

    One is the search's seed (``_seed``), valued by its crossing on the
    reduced graph and lifted onto the core.  The other has two blocks, the
    vertices of the core in ``side`` and the rest, where ``side`` is the
    source side of a minimum terminal cut of value ``lam`` (``terminal_cut``)
    on a graph that the core was pruned from.  On a tie, the seed.
    """
    reduction = Reduction.of(g)
    g, core = reduction.graph, reduction.core
    terms = sorted(a.members)
    block_of, crossing = _seed(pair_capacities(g), terms, sorted(g.vertices - a.members))
    seed = Fraction(crossing, len(terms) - 1)
    if seed <= lam:
        blocks = [[] for _ in terms]
        for v, i in block_of.items():
            blocks[i].append(v)
        return seed, _checked(core, a, seed, _lift(reduction, blocks), crossing)
    near = side & core.vertices
    return Fraction(lam), _checked(core, a, Fraction(lam), (near, core.vertices - near), lam)


def verify_partition(
    g: Multigraph, a: TerminalSet, eta: Rate, partition: TerminalPartition
) -> bool:
    """Certificate check: ``partition`` is terminal-covering and attains ``eta``.

    The blocks must be disjoint, cover the vertex set, number at least two
    and each hold a terminal; the crossing recomputed from the edges must
    equal the recorded one, and eta = crossing / (blocks - 1).
    """
    blocks = partition.blocks
    if sum(len(b) for b in blocks) != len(g.vertices):
        return False
    if frozenset().union(*blocks) != g.vertices:
        return False
    if len(blocks) < 2 or not all(b & a.members for b in blocks):
        return False
    if _crossing_capacity(g, blocks) != partition.crossing:
        return False
    return eta == Fraction(partition.crossing, len(blocks) - 1)
