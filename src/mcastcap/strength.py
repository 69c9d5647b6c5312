"""Edge strength: the partition upper bound on coding capacity.

eta(G, A) = min over partitions P of V with a terminal in every block of
(crossing capacity of P) / (|P| - 1).

The search is exact.  One recursion places the terminals in sorted order,
each into every existing block and then into a new one, so it visits the
terminal partitions in canonical order; it then assigns each relay (in
sorted order) to one of the existing blocks, since a fresh block would be
terminal-free.  The crossing of a terminal partition splits into a fixed
part (terminal-terminal edges), a per-relay cost ``row[b]`` (the relay's
capacity to terminals outside block b) and the relay-relay edges cut by the
assignment.  Nothing is set up per partition: placing a terminal adds its
capacity to earlier terminals in other blocks to ``fixed`` and its capacity
from each relay r to ``into[r][b]``, and backtracking takes both back, so a
full terminal partition reads its rows off ``into``.

Three strict prunes, all integer cross-multiplications:

- A partial terminal partition with ``blocks`` blocks and ``unplaced``
  terminals to go: every completion crosses at least ``fixed`` and has at
  most ``blocks + unplaced`` blocks, so it is skipped when
  ``fixed / (blocks + unplaced - 1)`` is above the incumbent.
- A full one: each relay costs at least its capacity to every block but the
  one it has most capacity to, so it is skipped when ``fixed`` plus those
  least costs is above the incumbent.
- A relay assignment: relay-relay edges only add, so ``cur + suffix[r]``,
  where ``suffix[r]`` sums the row minima of the relays not yet placed,
  bounds every completion from below.

Each bound is at most the value of every partition it prunes, and a prune
needs it strictly above the incumbent, so every partition that ties the
incumbent reaches the leaf.  The witness is the least minimizer in the
order of the sorted tuple of sorted blocks, whatever the search order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, TooManyPartitions, TooManyVertices
from .multigraph import Multigraph, Rate, TerminalSet

MAX_VERTICES = 12
# Most terminal partitions, Bell(|A|), the search may have to visit.
# Bell(11) = 678570 is admitted (the 11-terminal cycle takes about 0.07 s,
# 0.2 s with one relay); Bell(12) = 4213597 is not.
MAX_TERMINAL_PARTITIONS = 10**6


@dataclass(frozen=True)
class TerminalPartition:
    blocks: tuple[frozenset[str], ...]
    crossing: int


def _bell(k: int) -> int:
    """Number of set partitions of k items, by the Bell triangle."""
    row = [1]
    for _ in range(k - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _crossing_capacity(g: Multigraph, blocks) -> int:
    block_of = {v: i for i, b in enumerate(blocks) for v in b}
    return sum(e.cap for e in g.edges if block_of[e.u] != block_of[e.v])


def edge_strength(g: Multigraph, a: TerminalSet) -> tuple[Rate, TerminalPartition]:
    """Exact minimum of crossing/(blocks-1) over terminal-covering partitions.

    The witness is the lexicographically least minimizer (blocks compared as
    sorted tuples of sorted vertex lists), checked by ``verify_partition``.
    """
    if len(g.vertices) > MAX_VERTICES:
        raise TooManyVertices(
            f"strength enumeration limited to {MAX_VERTICES} vertices"
        )
    partitions = _bell(len(a.members))
    if partitions > MAX_TERMINAL_PARTITIONS:
        raise TooManyPartitions(
            f"edge strength search would visit {partitions} terminal partitions "
            f"(Bell({len(a.members)})), more than the limit "
            f"MAX_TERMINAL_PARTITIONS = {MAX_TERMINAL_PARTITIONS}"
        )
    terms = sorted(a.members)
    relays = sorted(g.vertices - a.members)
    t_index = {t: i for i, t in enumerate(terms)}
    r_index = {r: i for i, r in enumerate(relays)}
    nt, nr = len(terms), len(relays)
    tt: list[dict[int, int]] = [{} for _ in terms]  # terminal -> earlier terminals
    tr: list[dict[int, int]] = [{} for _ in terms]  # terminal -> relays
    rr: list[dict[int, int]] = [{} for _ in relays]  # relay -> earlier relays
    rt_total = [0] * nr  # capacity from each relay to all terminals
    for e in g.edges:
        if e.u == e.v:  # a self-loop never crosses
            continue
        if e.u in t_index and e.v in t_index:
            lo, hi = sorted((t_index[e.u], t_index[e.v]))
            tt[hi][lo] = tt[hi].get(lo, 0) + e.cap
        elif e.u in t_index or e.v in t_index:
            t, r = (e.u, e.v) if e.u in t_index else (e.v, e.u)
            row = tr[t_index[t]]
            row[r_index[r]] = row.get(r_index[r], 0) + e.cap
            rt_total[r_index[r]] += e.cap
        else:
            lo, hi = sorted((r_index[e.u], r_index[e.v]))
            rr[hi][lo] = rr[hi].get(lo, 0) + e.cap
    tt_edges = [list(row.items()) for row in tt]
    tr_edges = [list(row.items()) for row in tr]
    tt_total = [sum(row.values()) for row in tt]
    rr_edges = [list(row.items()) for row in rr]
    rt_sum = sum(rt_total)

    best_num = best_den = None  # incumbent value best_num / best_den
    best_key = None  # sorted tuple of sorted blocks of the incumbent
    tblock = [0] * nt  # block of each placed terminal on the current search path
    into = [[] for _ in relays]  # into[r][b]: capacity from relay r to block b
    assign = [0] * nr  # block of each placed relay on the current search path

    # leaf() and place() read nb, den, rows and suffix of the terminal
    # partition being searched
    def leaf(cur: int) -> None:
        nonlocal best_num, best_den, best_key
        if best_num is not None:
            lhs, rhs = cur * best_den, best_num * den
            if lhs > rhs:
                return
        blocks = [[] for _ in range(nb)]
        for t in range(nt):
            blocks[tblock[t]].append(terms[t])
        for r in range(nr):
            blocks[assign[r]].append(relays[r])
        key = tuple(sorted(tuple(sorted(b)) for b in blocks))
        if best_num is not None and lhs == rhs and key >= best_key:
            return
        best_num, best_den, best_key = cur, den, key

    def place(r: int, cur: int) -> None:
        if r == nr:
            leaf(cur)
            return
        row, back = rows[r], rr_edges[r]
        for b in range(nb):
            step = row[b] + sum(c for s, c in back if assign[s] != b)
            lower = cur + step + suffix[r + 1]
            if best_num is not None and lower * best_den > best_num * den:
                continue
            assign[r] = b
            place(r + 1, cur + step)

    def part(i: int, blocks: int, fixed: int) -> None:
        nonlocal nb, den, rows, suffix
        if i == nt:
            if blocks < 2:
                return
            # a relay costs at least its capacity to every block but its best
            lower = fixed + rt_sum - sum(map(max, into))
            if best_num is not None and lower * best_den > best_num * (blocks - 1):
                return
            nb, den = blocks, blocks - 1
            rows = [[rt_total[r] - x for x in into[r]] for r in range(nr)]
            suffix = [0] * (nr + 1)
            for r in range(nr - 1, -1, -1):
                suffix[r] = suffix[r + 1] + min(rows[r])
            place(0, fixed)
            return
        most = blocks + nt - i - 1  # most blocks - 1 of any completion
        if best_num is not None and most > 0 and fixed * best_den > best_num * most:
            return
        to = [0] * (blocks + 1)  # capacity from terminal i to each block
        for s, c in tt_edges[i]:
            to[tblock[s]] += c
        out = tr_edges[i]
        for b in range(blocks + 1):
            if b == blocks:
                for x in into:
                    x.append(0)
            tblock[i] = b
            for r, c in out:
                into[r][b] += c
            part(i + 1, blocks + (b == blocks), fixed + tt_total[i] - to[b])
            for r, c in out:
                into[r][b] -= c
        for x in into:
            x.pop()

    nb = den = 0
    rows: list[list[int]] = []
    suffix: list[int] = []
    part(0, 0, 0)
    if best_key is None:
        raise CertificateError("edge strength search found no partition")
    eta = Fraction(best_num, best_den)
    witness = TerminalPartition(tuple(frozenset(b) for b in best_key), best_num)
    if not verify_partition(g, a, eta, witness):
        raise CertificateError("edge strength witness failed verification")
    return eta, witness


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
