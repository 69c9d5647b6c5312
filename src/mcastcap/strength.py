"""Edge strength: the partition upper bound on coding capacity.

eta(G, A) = min over partitions P of V with a terminal in every block of
(crossing capacity of P) / (|P| - 1).

The search is exact.  It partitions the terminals first, in the order of
``_terminal_partitions``, then assigns each relay (in sorted order) to one
of the existing blocks, since a fresh block would be terminal-free.  The
crossing of a terminal partition splits into a fixed part (terminal-terminal
edges), a per-relay cost ``row[b]`` (the relay's capacity to terminals
outside block b) and the relay-relay edges cut by the assignment.
Relay-relay edges only add, so ``cur + suffix[r]``, where ``suffix[r]`` sums
the row minima of the relays not yet placed, bounds every completion from
below.  A branch is pruned when that bound is strictly above the incumbent,
and a whole terminal partition is skipped when ``fixed + suffix[0]`` is.
All comparisons are integer cross-multiplications.  The prune is strict, so
every partition that ties the incumbent reaches the leaf, and the witness is
the least minimizer in the order of the sorted tuple of sorted blocks,
whatever the search order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, TooManyPartitions, TooManyVertices
from .multigraph import Multigraph, Rate, TerminalSet

MAX_VERTICES = 12
# Most terminal partitions, Bell(|A|), the search may visit: it visits each
# one.  Bell(11) = 678570 is admitted (about 4 s); Bell(12) = 4213597 is not.
MAX_TERMINAL_PARTITIONS = 10**6


@dataclass(frozen=True)
class TerminalPartition:
    blocks: tuple[frozenset[str], ...]
    crossing: int

    def __len__(self) -> int:
        return len(self.blocks)


def _terminal_partitions(terms: list):
    """Set partitions of the terminal list, blocks in canonical order."""

    def rec(i: int, blocks: list[list]):
        if i == len(terms):
            yield [list(b) for b in blocks]
            return
        t = terms[i]
        for b in blocks:
            b.append(t)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([t])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


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
    sorted tuples of sorted vertex lists).
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
    nr = len(relays)
    tt: dict[tuple[int, int], int] = {}
    rt: list[dict[int, int]] = [{} for _ in relays]
    rr: list[dict[int, int]] = [{} for _ in relays]  # relay -> earlier relays
    for e in g.edges:
        if e.u == e.v:  # a self-loop never crosses
            continue
        if e.u in t_index and e.v in t_index:
            pair = (t_index[e.u], t_index[e.v])
            tt[pair] = tt.get(pair, 0) + e.cap
        elif e.u in t_index or e.v in t_index:
            t, r = (e.u, e.v) if e.u in t_index else (e.v, e.u)
            row = rt[r_index[r]]
            row[t_index[t]] = row.get(t_index[t], 0) + e.cap
        else:
            lo, hi = sorted((r_index[e.u], r_index[e.v]))
            rr[hi][lo] = rr[hi].get(lo, 0) + e.cap
    tt_edges = list(tt.items())
    rt_edges = [list(row.items()) for row in rt]
    rt_total = [sum(row.values()) for row in rt]
    rr_edges = [list(row.items()) for row in rr]

    best_num = best_den = None  # incumbent value best_num / best_den
    best_key = None  # sorted tuple of sorted blocks of the incumbent
    assign = [0] * nr  # block of each placed relay on the current search path

    # leaf() and place() read tblocks, nb, den, rows and suffix of the
    # terminal partition being searched
    def leaf(cur: int) -> None:
        nonlocal best_num, best_den, best_key
        if best_num is not None:
            lhs, rhs = cur * best_den, best_num * den
            if lhs > rhs:
                return
        blocks = [[terms[t] for t in b] for b in tblocks]
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

    for tblocks in _terminal_partitions(list(range(len(terms)))):
        nb = len(tblocks)
        if nb < 2:
            continue
        den = nb - 1
        block_of = [0] * len(terms)
        for bi, b in enumerate(tblocks):
            for t in b:
                block_of[t] = bi
        fixed = sum(c for (i, j), c in tt_edges if block_of[i] != block_of[j])
        rows = []
        for r in range(nr):
            into = [0] * nb
            for t, c in rt_edges[r]:
                into[block_of[t]] += c
            rows.append([rt_total[r] - x for x in into])
        suffix = [0] * (nr + 1)
        for r in range(nr - 1, -1, -1):
            suffix[r] = suffix[r + 1] + min(rows[r])
        if best_num is not None and (fixed + suffix[0]) * best_den > best_num * den:
            continue
        place(0, fixed)
    if best_key is None:
        raise CertificateError("edge strength search found no partition")
    return Fraction(best_num, best_den), TerminalPartition(
        tuple(frozenset(b) for b in best_key), best_num
    )


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
