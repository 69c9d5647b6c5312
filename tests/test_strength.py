import re
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

from mcastcap import (
    Edge,
    Multigraph,
    TerminalSet,
    edge_strength,
    example2_instance,
    fractional_capacity_lp,
    random_instance,
    sample_instances,
    scale_capacities,
    solve_tree_lp,
    verify_partition,
)
from mcastcap import strength
from mcastcap.connectivity import terminal_cut
from mcastcap.errors import CertificateError, SearchTooLarge
from mcastcap.multigraph import prune_to_core, reduce_core
from mcastcap.strength import partition_bound


def hub_star(n):
    """n terminals joined only through one relay, each by a unit edge."""
    names = [f"t{i:02d}" for i in range(n)]
    g = Multigraph.build([*names, "hub"], [(t, "hub", 1) for t in names])
    return g, TerminalSet(names[0], tuple(names[1:]))


def triangle():
    g = Multigraph.build(["s", "r1", "r2"], [("s", "r1", 1), ("r1", "r2", 1), ("r2", "s", 1)])
    return g, TerminalSet("s", ("r1", "r2"))


class TestEdgeStrength:
    def test_triangle_singleton_witness(self):
        g, a = triangle()
        eta, witness = edge_strength(g, a)
        assert eta == Fraction(3, 2)
        assert len(witness) == 3
        assert verify_partition(g, a, Fraction(3, 2), witness)  # crossing 3

    def test_cycle_family(self):
        for na in (3, 4, 5, 6):
            g, a = example2_instance(na, (0,) if na > 3 else ())
            eta, witness = edge_strength(g, a)
            assert eta == Fraction(na, na - 1)
            # the singleton-per-terminal partition attains it
            assert len(witness) == na
            assert verify_partition(g, a, Fraction(na, na - 1), witness)  # crossing na

    def test_two_terminals_fat_edge(self):
        g = Multigraph.build(["a", "b"], [("a", "b", 4)])
        eta, witness = edge_strength(g, TerminalSet("a", ("b",)))
        assert eta == 4
        assert len(witness) == 2

    def test_thirteen_vertex_cycle(self):
        # three adjacent terminals on a 13-cycle
        names = [f"v{i}" for i in range(13)]
        g = Multigraph.build(names, [(names[i], names[(i + 1) % 13], 1) for i in range(13)])
        a = TerminalSet("v0", ("v1", "v2"))
        eta, witness = edge_strength(g, a)
        assert eta == Fraction(3, 2)
        assert verify_partition(g, a, Fraction(3, len(witness) - 1), witness)  # crossing 3

    def test_twelve_terminal_cycle(self):
        # Bell(12) = 4213597 terminal partitions, and the bounds cut all but a few
        names = [f"v{i:02d}" for i in range(12)]
        g = Multigraph.build(names, [(names[i], names[(i + 1) % 12], 1) for i in range(12)])
        eta, witness = edge_strength(g, TerminalSet(names[0], tuple(names[1:])))
        assert eta == Fraction(12, 11)
        assert len(witness) == 12

    def test_step_budget(self, monkeypatch):
        # 11 terminals around one relay hub: no partial partition is pruned
        g, a = hub_star(11)
        monkeypatch.setattr(strength, "MAX_STRENGTH_STEPS", 1000)
        with pytest.raises(SearchTooLarge) as info:
            edge_strength(g, a)
        match = re.fullmatch(
            r"edge strength search used (\d+) steps, more than the budget MAX_STRENGTH_STEPS = 1000",
            str(info.value),
        )
        assert match and int(match[1]) > 1000

    def test_eleven_terminal_hub_fits_the_budget(self):
        # the largest hub star that the default budget admits (README "Scale");
        # 12 terminals are refused (test_cli.test_strength_step_limit)
        g, a = hub_star(11)
        eta, witness = edge_strength(g, a)
        assert eta == 1
        assert verify_partition(g, a, eta, witness)

    def test_deep_relay_chain_runs_in_a_flat_stack(self, monkeypatch):
        # 1200 relays in one gap: the budget lets the relay search's path reach
        # all 1200 relays, past the interpreter's default recursion limit of 1000
        g, a = example2_instance(3, (0,) * 1200)
        monkeypatch.setattr(strength, "MAX_STRENGTH_STEPS", 20_000)
        with pytest.raises(SearchTooLarge, match="used 2000[0-9] steps"):
            edge_strength(g, a)


class TestProperties:
    def test_dominates_lp_on_samples(self):
        for g, a in sample_instances(8, 6, 5, 3, seed=400):
            eta, _ = edge_strength(g, a)
            lp, _ = fractional_capacity_lp(solve_tree_lp(g, a))
            assert lp <= eta

    def test_scaling(self):
        g, a = triangle()
        eta, _ = edge_strength(g, a)
        for n in (2, 3, 5):
            scaled_eta, _ = edge_strength(scale_capacities(g, n), a)
            assert scaled_eta == n * eta


@cache
def _set_partitions(items: tuple) -> list:
    """Every set partition of ``items`` (shared between callers: do not mutate)."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for p in _set_partitions(rest):
        out.append([[first]] + p)
        for i in range(len(p)):
            out.append(p[:i] + [[first] + p[i]] + p[i + 1:])
    return out


def _connected(g, block):
    block = set(block)
    seen, stack = set(), [next(iter(block))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        for e in g.edges:
            if v in (e.u, e.v) and e.u in block and e.v in block:
                stack.append(e.v if v == e.u else e.u)
    return seen == block


def _oracle_strength(g, a):
    """Least (crossing/(|P|-1), sorted blocks, crossing) over every partition
    of V with >= 2 blocks and a terminal in each."""
    best = None
    terms = a.members
    for p in _set_partitions(tuple(sorted(g.vertices))):
        if len(p) < 2 or not all(terms.intersection(b) for b in p):
            continue
        block_of = {v: i for i, b in enumerate(p) for v in b}
        crossing = sum(e.cap for e in g.edges if block_of[e.u] != block_of[e.v])
        cand = (Fraction(crossing, len(p) - 1), tuple(sorted(tuple(sorted(b)) for b in p)), crossing)
        if best is None or cand < best:
            best = cand
    return best


def _assert_matches_oracle(g, a):
    value, key, crossing = _oracle_strength(g, a)
    eta, witness = edge_strength(g, a)
    assert eta == value
    assert witness == tuple(frozenset(b) for b in key)
    assert verify_partition(g, a, Fraction(crossing, len(witness) - 1), witness)


def _small_connected_multigraphs(max_n=5, max_cap=6):
    for n in range(2, max_n + 1):
        names = [f"v{i}" for i in range(n)]
        pairs = list(combinations(names, 2))

        def caps(i, remaining):
            if i == len(pairs):
                yield ()
                return
            for c in range(remaining + 1):
                for tail in caps(i + 1, remaining - c):
                    yield (c,) + tail

        for vec in caps(0, max_cap):
            triples = [(u, v, c) for (u, v), c in zip(pairs, vec) if c]
            g = Multigraph.build(names, triples)
            if len(triples) >= n - 1 and _connected(g, names):
                yield g, names


class TestOracle:
    def test_small_multigraphs(self):
        count = 0
        for g, names in _small_connected_multigraphs():
            n = len(names)
            # relays sorting before, between and after the terminals
            terminal_sets = {(0, n - 1), tuple(range(n))}
            if n >= 4:
                terminal_sets.add((1, 2, n - 1))
            for ts in sorted(terminal_sets):
                _assert_matches_oracle(g, TerminalSet(names[ts[0]], tuple(names[i] for i in ts[1:])))
                count += 1
        assert count > 1000

    def test_sample_instances_parallel_and_scaled(self):
        for g, a in sample_instances(6, 7, 6, 3, seed=402):
            e = g.edges[0]
            parallel = Multigraph(g.vertices, g.edges + (Edge(g.next_id(), e.u, e.v, 2),))
            _assert_matches_oracle(parallel, a)
            _assert_matches_oracle(scale_capacities(g, 3), a)

    def test_cycle_family(self):
        for na in range(3, 8):
            for slots in ((), (0,), (0, 2), (1, 1)):
                if na <= max(slots, default=0):
                    continue
                g, a = example2_instance(na, slots)
                _assert_matches_oracle(g, a)

    def test_seed_ties_but_is_not_the_witness(self):
        # the seed joins v1 to the lower of its two equal blocks: {v0, v1},
        # {v2} crosses 1 like the optimum, but the least minimizer is
        # {v0}, {v1, v2}, which the search must still reach
        g = Multigraph.build(["v0", "v1", "v2"], [("v0", "v1", 1), ("v1", "v2", 1)])
        a = TerminalSet("v0", ("v2",))
        eta, witness = edge_strength(g, a)
        assert eta == 1
        assert witness == (frozenset({"v0"}), frozenset({"v1", "v2"}))
        _assert_matches_oracle(g, a)


def _reference_edge_strength(g, a):
    """The search before the incremental terminal search: every terminal partition
    is generated as a copy and its relay rows and bounds are set up from
    scratch; the relay assignment search is the same."""

    def terminal_partitions(terms):
        def rec(i, blocks):
            if i == len(terms):
                yield [list(b) for b in blocks]
                return
            for b in blocks:
                b.append(terms[i])
                yield from rec(i + 1, blocks)
                b.pop()
            blocks.append([terms[i]])
            yield from rec(i + 1, blocks)
            blocks.pop()

        yield from rec(0, [])

    terms = sorted(a.members)
    relays = sorted(g.vertices - a.members)
    t_index = {t: i for i, t in enumerate(terms)}
    r_index = {r: i for i, r in enumerate(relays)}
    nr = len(relays)
    tt = {}
    rt = [{} for _ in relays]
    rr = [{} for _ in relays]
    for e in g.edges:
        if e.u == e.v:
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
    rt_total = [sum(row.values()) for row in rt]
    best = None  # (num, den, key)
    assign = [0] * nr

    def place(r, cur, tblocks, rows, suffix, den):
        nonlocal best
        if r == nr:
            if best is not None and cur * best[1] > best[0] * den:
                return
            blocks = [[terms[t] for t in b] for b in tblocks]
            for q in range(nr):
                blocks[assign[q]].append(relays[q])
            key = tuple(sorted(tuple(sorted(b)) for b in blocks))
            if best is not None and cur * best[1] == best[0] * den and key >= best[2]:
                return
            best = (cur, den, key)
            return
        for b in range(len(tblocks)):
            step = rows[r][b] + sum(c for q, c in rr[r].items() if assign[q] != b)
            if best is not None and (cur + step + suffix[r + 1]) * best[1] > best[0] * den:
                continue
            assign[r] = b
            place(r + 1, cur + step, tblocks, rows, suffix, den)

    for tblocks in terminal_partitions(list(range(len(terms)))):
        if len(tblocks) < 2:
            continue
        den = len(tblocks) - 1
        block_of = {t: bi for bi, b in enumerate(tblocks) for t in b}
        fixed = sum(c for (i, j), c in tt.items() if block_of[i] != block_of[j])
        rows = []
        for r in range(nr):
            into = [0] * len(tblocks)
            for t, c in rt[r].items():
                into[block_of[t]] += c
            rows.append([rt_total[r] - x for x in into])
        suffix = [0] * (nr + 1)
        for r in range(nr - 1, -1, -1):
            suffix[r] = suffix[r + 1] + min(rows[r])
        if best is not None and (fixed + suffix[0]) * best[1] > best[0] * den:
            continue
        place(0, fixed, tblocks, rows, suffix, den)
    num, den, key = best
    return Fraction(num, den), key, num


class TestIncrementalSearch:
    """The incremental terminal search and its partial-partition prune return the
    (eta, blocks, crossing) of the search that set up every terminal
    partition from scratch, on instances too large for the flat oracle."""

    @staticmethod
    def _with_copies(g, a):
        e = g.edges[0]
        parallel = Multigraph(g.vertices, g.edges + (Edge(g.next_id(), e.u, e.v, 2),))
        return [(g, a), (scale_capacities(g, 3), a), (parallel, a)]

    @staticmethod
    def _assert_matches_reference(g, a):
        value, key, crossing = _reference_edge_strength(g, a)
        eta, witness = edge_strength(g, a)
        assert eta == value
        assert witness == tuple(frozenset(b) for b in key)
        assert verify_partition(g, a, Fraction(crossing, len(witness) - 1), witness)

    def test_cycle_family(self):
        for na in range(3, 10):
            for slots in ((), (0,), (0, 2), (1, 1)):
                if na <= max(slots, default=0):
                    continue
                for g, a in self._with_copies(*example2_instance(na, slots)):
                    self._assert_matches_reference(g, a)

    def test_sample_instances(self):
        for g, a in [*sample_instances(20, 8, 6, 3, 0), *sample_instances(5, 10, 10, 4, 0)]:
            for copy in self._with_copies(g, a):
                self._assert_matches_reference(*copy)

    def test_large_cores_and_relay_chains(self):
        # 13-16 vertex random cores, a long relay chain, and relays spread
        # over every gap of the a = 5 and a = 6 cycles
        cases = [random_instance(*args) for args in (
            (13, 8, 4, 2), (14, 8, 3, 2), (14, 10, 4, 1), (14, 10, 4, 2),
            (16, 10, 3, 0), (16, 10, 3, 1), (16, 10, 3, 2), (16, 12, 4, 0),
        )]
        cases.append(example2_instance(3, (0,) * 20))
        cases += [example2_instance(a, tuple(i % a for i in range(10))) for a in (5, 6)]
        for g, a in cases:
            self._assert_matches_reference(g, a)

    def test_hub_stars(self):
        # no partial partition is pruned on a hub star, so every terminal
        # partition reaches the least-cost bound at depth |A|, where the search
        # passes from the terminals to the relay
        for n in (4, 6, 8):
            g, a = hub_star(n)
            for k in (1, 2):
                self._assert_matches_reference(scale_capacities(g, k), a)

    def test_zero_strength_ties(self):
        # three components: every partition that keeps each one whole crosses
        # nothing, and the least of them is reached after the first zero, so
        # only a strict prune of partial partitions keeps it
        g = Multigraph.build(list("abcdef"), [("a", "b", 1), ("c", "d", 1), ("e", "f", 1)])
        a = TerminalSet("a", tuple("cdef"))
        self._assert_matches_reference(g, a)
        _assert_matches_oracle(g, a)


class TestPartitionBound:
    def test_bound_is_a_checked_partition_above_eta(self):
        # on the bench cores the bound is eta itself
        instances = [*sample_instances(20, 8, 6, 3, 0), *sample_instances(5, 10, 10, 4, 0)]
        instances += [example2_instance(na, (0, 2)) for na in range(3, 9)]
        for g, a in instances:
            lam, side = terminal_cut(g, a)
            core = prune_to_core(g, a)
            reduced = reduce_core(core, a)
            upper, witness = partition_bound(reduced, a, lam, side)
            assert verify_partition(core, a, upper, witness)
            assert upper == edge_strength(reduced, a)[0] <= lam

    def test_seed_or_cut_whichever_is_smaller(self):
        # the relay x becomes an s-t2 part of capacity 1 and is lifted onto
        # s, its heavier neighbour; the seed crosses 9 + 1 + 3 = 13 over 2,
        # the cut around t2 crosses 1 + 3 = 4
        g = Multigraph.build(["s", "t1", "t2", "x"], [("s", "t1", 9), ("s", "x", 2), ("x", "t2", 1), ("t1", "t2", 3)])
        a = TerminalSet("s", ("t1", "t2"))
        r = reduce_core(g, a)
        assert partition_bound(r, a, 4, frozenset({"s", "t1", "x"})) == (
            4, (frozenset({"s", "t1", "x"}), frozenset({"t2"})))
        assert partition_bound(r, a, 7, frozenset({"s", "t1", "x"})) == (
            Fraction(13, 2), (frozenset({"s", "x"}), frozenset({"t1"}), frozenset({"t2"})))
        # a side whose cut is not lambda fails its check
        with pytest.raises(CertificateError, match="^edge strength witness failed verification$"):
            partition_bound(r, a, 4, frozenset({"s", "t1"}))


class TestVerifyPartition:
    # every witness in TestOracle is also checked to verify
    def test_rejects_bad_certificates(self):
        g, a = triangle()
        eta, witness = edge_strength(g, a)
        s, r1, r2 = (frozenset({v}) for v in ("s", "r1", "r2"))
        assert verify_partition(g, a, eta, witness)
        assert not verify_partition(g, a, eta + 1, witness)
        assert not verify_partition(g, a, 2, witness)  # right blocks, wrong eta: they cross 3, not 4
        assert not verify_partition(g, a, eta, (s, r1))  # misses r2
        assert not verify_partition(g, a, 1, (s, r1, r2, r2))  # overlap; it would cross 3 over 3
        assert not verify_partition(g, a, 0, (s | r1 | r2,))  # one block
        # the sizes sum to |V|, but s is repeated and the edgeless x missed;
        # every later check would pass
        iso = Multigraph.build(["s", "r1", "r2", "x"], [(e.u, e.v, e.cap) for e in g.edges])
        assert not verify_partition(iso, a, 1, (s, r1, r2 | s))
        relay = Multigraph.build(
            ["s", "r1", "r2", "x"],
            [("s", "r1", 1), ("r1", "r2", 1), ("r2", "s", 1), ("s", "x", 1), ("x", "r1", 1)],
        )
        bad = (s, r1, r2, frozenset({"x"}))  # terminal-free block
        assert not verify_partition(relay, a, Fraction(5, 3), bad)
