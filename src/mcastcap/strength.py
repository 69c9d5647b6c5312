"""Edge strength: the partition upper bound on coding capacity.

eta(G, A) = min over partitions P of V with a terminal in every block of
(crossing capacity of P) / (|P| - 1).

The search is exact.  It places one vertex per depth, the terminals in
sorted order and then the relays in sorted order, in one depth-first loop
on one explicit stack: per depth, the vertex's block, the block count and
crossing before it, and its capacity to each of those blocks.  The depth,
up to |A| + |R|, is therefore not limited by the interpreter's recursion
limit.  A terminal goes into every existing block and then into a new one,
so the terminal partitions come in canonical order; a relay goes into an
existing block only, since a fresh one would be terminal-free.  Placing a
vertex in block b adds to the crossing its capacity to the earlier
vertices outside b, by one formula for both kinds.  A relay's capacity to
the terminals of block b is read off ``into[r][b]``: placing a terminal
adds its relay edges there and backing up takes them back, so nothing is
set up per terminal partition.

Three strict prunes, all integer cross-multiplications against the
incumbent best_num / best_den.  Each is checked where the path extends to
the node it bounds, so a pruned node is never entered:

- A partial terminal partition with ``blocks`` blocks, crossing ``cur`` so
  far and terminals i.. still to place.  A completion in which j of them
  open new blocks has k = blocks + j >= 2 blocks and crosses at least
  max(cur + S_j, k*lam/2),
  with lam = λ(A) from ``terminal_cut``, called in this search:
  * an opener's edges to every earlier terminal cross; each such edge is
    counted at its later end, so these sets are disjoint from each other
    and from ``cur``, and the openers add at least S_j (``opener[i][j]``),
    the sum of the j least capacities to earlier terminals among the
    unplaced terminals;
  * the boundaries d(B) of the k blocks count every crossing edge twice,
    and each block holds a terminal and misses one, so d(B) >= λ(A).
  The node is skipped when max(2(cur + S_j), k*lam) * best_den >
  2 * best_num * (k - 1) for every j.  As cur + S_j >= cur and k - 1 is
  at most blocks + unplaced - 1, this dominates the plain bound
  ``cur / (blocks + unplaced - 1)``.  λ is computed here, not taken from
  the caller: a λ too large would prune the optimum, and
  ``verify_partition`` cannot notice.  ``terminal_cut`` checks each of
  its flows against the flow's own residual cut.
- A full one, at depth |A|: each relay costs at least its capacity to every
  block but the one it has most capacity to, so it is skipped when its
  crossing plus those least costs is above the incumbent.
- A relay's block: relay-relay edges only add, so the crossing with the
  relay placed plus ``suffix[r]``, the least costs of the relays r.. not
  yet placed, bounds every completion from below.

The incumbent starts at the value of a seed partition: a block for each
terminal, each relay in sorted order joined to the block it has most
capacity to (the lowest on ties).  On the relay-cycle family the seed is
already optimal, a/(a-1); since k*λ/(2(k-1)) = k/(k-1) is above that for
every k < a, only partial partitions that can still end in a blocks survive.
The seed records no witness: while no leaf has, a leaf that ties the seed
replaces it.  ``partition_bound`` takes the same seed (``_seed``), lifted
onto the core, as one of its two partitions: ``analyze`` stops its tree LP
at the bound and runs this search only when the LP falls short of it.

Each bound is at most the value of every partition it prunes, the
incumbent never drops below the optimum, and a prune needs the bound
strictly above the incumbent, so every minimizer reaches a leaf; the
first one there replaces the seed or a worse leaf.  The witness is
therefore the least minimizer in the order of the sorted tuple of sorted
blocks, whatever the search order and the seed.

A partition, witness or bound, is its blocks, a tuple of frozensets of
vertex names; its crossing is not stored but recomputed from the edges by
``verify_partition``, which checks that it attains the rate.  The search
may run on a ``Reduction`` (``multigraph.reduce_core``).  Its witness is
then lifted onto the pruned core by ``Reduction.lift``, which keeps its
crossing and number of blocks (the ``multigraph`` docstring says why), and
``verify_partition`` checks it there.

The search counts its work in steps, each about one pass of a loop it runs
in Python: placing a terminal costs 1 plus its relay edges; bounding the
node it leads to, 1 plus the terminals still to place there (the bound's
loop over j), or at depth |A| 1 + |R| for the least-cost bound and |R|
more for ``suffix`` when the node is kept; and a relay node 1 plus its
blocks and its edges to earlier relays.  More than ``MAX_STRENGTH_STEPS``
steps raise SearchTooLarge, naming the steps used; the count is checked
each time the path grows.  The limit counts work rather than |V| or
Bell(|A|): a 16-vertex core can take a few thousand steps, and 11
terminals around one relay, where no bound cuts a partial partition,
about 3.3 million.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .connectivity import PairCapacities, pair_capacities, terminal_cut
from .errors import CertificateError, SearchTooLarge
from .multigraph import Multigraph, Rate, Reduction, TerminalSet

# Steps one edge strength search may spend (module docstring).  A step takes
# about 0.2-0.4 us (2-core x86 VM, Python 3.11), so a search over budget
# stops after 1-2.5 s: 11 terminals around one relay hub use 3.3 million
# steps (about 0.9-1.6 s), and 12 are refused.
MAX_STRENGTH_STEPS = 6_000_000

# a partition of the vertices is its blocks (module docstring)
Partition = tuple[frozenset[str], ...]


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


def _checked(core: Multigraph, a: TerminalSet, eta: Rate, blocks: Partition) -> Partition:
    """``blocks``, a partition of the core, checked by ``verify_partition``
    to attain eta."""
    if not verify_partition(core, a, eta, blocks):
        raise CertificateError("edge strength witness failed verification")
    return blocks


def edge_strength(g: Multigraph | Reduction, a: TerminalSet) -> tuple[Rate, Partition]:
    """Exact minimum of crossing/(blocks-1) over terminal-covering partitions.

    The witness is the lexicographically least minimizer (blocks compared as
    sorted tuples of sorted vertex lists), checked by ``verify_partition``.
    For a ``Reduction`` the search runs on its reduced graph, and the
    witness is lifted onto its core and checked there.  A search that
    spends more than ``MAX_STRENGTH_STEPS`` steps raises SearchTooLarge.
    """
    reduction = Reduction.of(g)
    g = reduction.graph
    lam = terminal_cut(g, a)[0]
    adj = pair_capacities(g)
    terms = sorted(a.members)
    relays = sorted(g.vertices - a.members)
    order = terms + relays  # the search places vertex v at depth v
    index = {x: v for v, x in enumerate(order)}
    nt, n = len(terms), len(order)
    nr = n - nt
    # back[v]: edges from v to earlier vertices, but a relay's to terminals,
    # which ``into`` holds; out[t]: edges from terminal t to the relays
    back: list[list[tuple[int, int]]] = [[] for _ in order]
    out: list[list[tuple[int, int]]] = [[] for _ in terms]
    total = [0] * n  # capacity from each vertex to the earlier ones
    rt_total = [0] * nr  # capacity from each relay to all terminals
    for v, x in enumerate(order):
        for y, c in adj[x].items():
            u = index[y]
            if u < v:  # a self-loop never crosses
                total[v] += c
                if u < nt <= v:
                    out[u].append((v - nt, c))
                    rt_total[v - nt] += c
                else:
                    back[v].append((u, c))
    rt_sum = sum(rt_total)
    # opener[i][j]: least capacity to earlier terminals of any j of terminals i..
    opener = [list(accumulate(sorted(total[i:nt]), initial=0)) for i in range(nt)]

    best_num = _seed(adj, terms, relays)[1]
    best_den = nt - 1  # incumbent value best_num / best_den
    best_key = None  # sorted tuple of sorted blocks of the incumbent, once a leaf sets it
    into = [[0] * nt for _ in relays]  # into[r][b]: capacity from relay r to the terminals in block b
    suffix = [0] * (nr + 1)  # suffix[r]: least cost of relays r.. in the terminal partition on the path
    # the search path: per depth v, the block of vertex v, the blocks and the
    # crossing before it, and its capacity to each of those blocks
    block = [0] * n
    blocks_before = [0] * n
    crossing_before = [0] * n
    to_block = [[0]] * n  # the root's: terminal 0 has no block before it
    steps = 0  # work done so far, in the units of the module docstring
    v = b = nb = cur = 0  # the vertex to place, its next block to try, and the blocks and crossing before it
    while True:
        # find v's first block from b that extends the path to a node the
        # bounds keep: the node for w = v + 1, with nb_w blocks and crossing cur_w
        live, w, to = False, v + 1, to_block[v]
        if v < nt:
            edges = out[v]
            while b <= nb:
                block[v] = b
                for r, c in edges:
                    into[r][b] += c
                nb_w, cur_w = nb + (b == nb), cur + total[v] - to[b]
                steps += 1 + len(edges)
                if w < nt:
                    # a completion in which j of the unplaced terminals open
                    # blocks has k = nb_w + j >= 2 blocks and crosses at least
                    # max(cur_w + opener[w][j], k * lam / 2); keep the node iff
                    # for some j that bound, over k - 1, is at most the incumbent
                    steps += 1 + nt - w
                    least = opener[w]
                    for k in range(max(nb_w, 2), nb_w + nt - w + 1):
                        if max(2 * (cur_w + least[k - nb_w]), k * lam) * best_den <= 2 * best_num * (k - 1):
                            live = True
                            break
                elif nb_w > 1:
                    # a relay costs at least its capacity to every block but its best
                    steps += 1 + nr
                    if (cur_w + rt_sum - sum(map(max, into))) * best_den <= best_num * (nb_w - 1):
                        live = True
                        steps += nr
                        for r in range(nr - 1, -1, -1):
                            suffix[r] = suffix[r + 1] + rt_total[r] - max(into[r])
                if live:
                    break
                for r, c in edges:
                    into[r][b] -= c
                b += 1
        else:
            # relay-relay edges only add, so cur_w + suffix[w - nt] bounds
            # every completion from below
            rest = suffix[w - nt]
            top, lim = cur + total[v] + rest, best_num * (nb - 1)
            while b < nb:
                if (top - to[b]) * best_den <= lim:
                    block[v], live, nb_w, cur_w = b, True, nb, top - to[b] - rest
                    break
                b += 1
        if live:
            v, b, nb, cur = w, 0, nb_w, cur_w
            if v < n:
                to = [0] * (nb + 1) if v < nt else into[v - nt][:nb]
                for u, c in back[v]:
                    to[block[u]] += c
                if v >= nt:
                    steps += 1 + nb + len(back[v])
                to_block[v], blocks_before[v], crossing_before[v] = to, nb, cur
                if steps > MAX_STRENGTH_STEPS:
                    raise SearchTooLarge(
                        f"edge strength search used {steps} steps, more than the budget "
                        f"MAX_STRENGTH_STEPS = {MAX_STRENGTH_STEPS}"
                    )
                continue
            # a leaf, no worse than the incumbent
            parts = [[] for _ in range(nb)]
            for x, i in zip(order, block):
                parts[i].append(x)
            key = tuple(sorted(tuple(sorted(p)) for p in parts))
            if cur * best_den < best_num * (nb - 1) or best_key is None or key < best_key:
                best_num, best_den, best_key = cur, nb - 1, key
        # back up to the parent's next block
        if v == 0:
            break
        v -= 1
        b, nb, cur = block[v], blocks_before[v], crossing_before[v]
        if v < nt:
            for r, c in out[v]:
                into[r][b] -= c
        b += 1

    if best_key is None:
        raise CertificateError("edge strength search found no partition")
    eta = Fraction(best_num, best_den)
    return eta, _checked(reduction.core, a, eta, reduction.lift(best_key))


def partition_bound(
    reduction: Reduction, a: TerminalSet, lam: int, side: frozenset[str]
) -> tuple[Rate, Partition]:
    """An upper bound on eta: the smaller value of two partitions, the one
    returned checked on the core by ``verify_partition`` as the search's
    witness is.

    One is the search's seed (``_seed``), valued by its crossing on the
    reduced graph and lifted onto the core.  The other has two blocks, the
    vertices of the core in ``side`` and the rest, where ``side`` is the
    source side of a minimum terminal cut of value ``lam`` (``terminal_cut``)
    on a graph that the core was pruned from.  On a tie, the seed.
    """
    g, core = reduction.graph, reduction.core
    terms = sorted(a.members)
    block_of, crossing = _seed(pair_capacities(g), terms, sorted(g.vertices - a.members))
    seed = Fraction(crossing, len(terms) - 1)
    if seed <= lam:
        blocks = [[] for _ in terms]
        for v, i in block_of.items():
            blocks[i].append(v)
        return seed, _checked(core, a, seed, reduction.lift(blocks))
    near = side & core.vertices
    return Fraction(lam), _checked(core, a, Fraction(lam), (near, core.vertices - near))


def verify_partition(g: Multigraph, a: TerminalSet, eta: Rate, blocks: Partition) -> bool:
    """Certificate check: ``blocks`` partition the vertices with a terminal
    in each and attain ``eta``.

    The blocks must be disjoint, cover the vertex set, number at least two
    and each hold a terminal, and eta must be their crossing, recomputed
    from the edges, over the number of blocks less one.
    """
    if sum(len(b) for b in blocks) != len(g.vertices):
        return False
    if frozenset().union(*blocks) != g.vertices:
        return False
    if len(blocks) < 2 or not all(b & a.members for b in blocks):
        return False
    block_of = {v: i for i, b in enumerate(blocks) for v in b}
    crossing = sum(e.cap for e in g.edges if block_of[e.u] != block_of[e.v])
    return eta == Fraction(crossing, len(blocks) - 1)
