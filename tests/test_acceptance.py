"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line and enforcing its runtime budget.  All comparisons are exact
(rational arithmetic, zero tolerance).
"""

import time
from fractions import Fraction
from itertools import combinations

import pytest

from mcastcap import (
    Multigraph,
    TerminalSet,
    eliminate_relays,
    enumerate_steiner_trees,
    example2_instance,
    example2_routing_scheme,
    lift_packing,
    max_integer_packing,
    sample_instances,
    solve_tree_lp,
    split_off,
    terminal_cut,
    verify_packing,
)
from mcastcap import bounds as bnd
from mcastcap.cli import analyze_instance, main
from mcastcap.connectivity import checked_flow, pair_capacities
from mcastcap.errors import CertificateError, CutEdgeAtPivot
from mcastcap.packing import fractional_capacity_lp, half_integer_capacity
from test_splitting import admissible, all_pairs_connectivity, split_completely, unit_form


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}", flush=True)
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _within(start: float, limit_s: float, num: int) -> None:
    elapsed = time.monotonic() - start
    assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s ({elapsed:.1f}s)"


def test_criterion_01_cycle_family_reproduction():
    start = time.monotonic()
    layouts = {3: [(), (0,)], 4: [(), (1,)], 5: [(), (0, 2)], 6: [(), (0, 3)]}
    ok = True
    for na, slot_lists in layouts.items():
        want = Fraction(na, na - 1)
        for slots in slot_lists:
            g, a = example2_instance(na, slots)
            rep = analyze_instance(g, a)
            if not rep.lp_rate == rep.eta == want:
                ok = False
    _within(start, 10, 1)
    _report(1, ok, "cycle family: LP = eta = a/(a-1) exactly, tight bracket, a in 3..6")


def test_criterion_02_routing_scheme():
    start = time.monotonic()
    ok = True
    for na in range(3, 9):
        g, a = example2_instance(na)
        s = example2_routing_scheme(na)
        if s.rate != Fraction(na, na - 1) or not verify_packing(g, a, s):
            ok = False
        load = {e.id: 0 for e in g.edges}
        for tree, units in s.trees:
            for eid in tree:
                load[eid] += units
        if set(load.values()) != {na - 1}:
            ok = False
    _within(start, 1, 2)
    _report(2, ok, "routing scheme rate a/(a-1), each edge carries a-1 units, a in 3..8")


def test_criterion_03_residue_classes_exhaustive():
    start = time.monotonic()
    ok = True
    for lam in range(1, 10_001):
        big = bnd.appendix_a_delta(lam)
        if big not in (1, 3, 5, 7):
            ok = False
        if bnd.decompose3(lam).delta == 1 and big != 1:
            ok = False
    _within(start, 1, 3)
    _report(3, ok, "(6L-3) mod 8 in {1,3,5,7} and delta=1 => Delta=1 for L in [1,10^4]")


def test_criterion_04_modular_identity_exhaustive():
    start = time.monotonic()
    ok = True
    for lam in range(2, 201):
        for na in range(2, 21):
            big, big_prime, delta, holds = bnd.appendix_b_identity(lam, na)
            if not holds:
                ok = False
            if (big_prime == 0) != (big == 0 and delta == 0):
                ok = False
    _within(start, 1, 4)
    _report(4, ok, "(Delta'+Delta) mod 2(a-1) = a*delta and Delta'=0 <=> Delta=0 & delta=0")


def test_criterion_05_three_terminal_lower_bounds():
    start = time.monotonic()
    ok = True
    count = 0
    for g, a in sample_instances(200, 8, 6, 3, seed=5000):
        count += 1
        lam = terminal_cut(g, a)[0]
        k, _ = max_integer_packing(solve_tree_lp(g, a))
        half, _ = half_integer_capacity(solve_tree_lp(g, a))
        lp, _ = fractional_capacity_lp(solve_tree_lp(g, a))
        int_lb = (6 * lam - 3) // 8
        half_lb = Fraction((12 * lam - 3) // 8, 2)
        if not (k >= int_lb and half >= half_lb and lp >= max(Fraction(int_lb), half_lb)):
            ok = False
    ok = ok and count >= 200
    _within(start, 300, 5)
    _report(5, ok, f"integer/half/LP lower bounds hold on {count} random 3-terminal instances")


def test_criterion_06_general_lower_bound():
    start = time.monotonic()
    ok = True
    count = 0
    for na_terminals, seed in ((3, 6000), (4, 6100), (5, 6200)):
        for g, a in sample_instances(34, 8, 6, na_terminals, seed=seed):
            count += 1
            lam = terminal_cut(g, a)[0]
            na = len(a.members)
            lp, _ = fractional_capacity_lp(solve_tree_lp(g, a))
            lb = Fraction((2 * na * lam - na + 2) // (2 * (na - 1)), 2)
            if lp < lb:
                ok = False
    ok = ok and count >= 100
    _within(start, 300, 6)
    _report(6, ok, f"LP >= (1/2)floor((2aL-a+2)/(2(a-1))) on {count} instances, |A| in 3..5")


def test_criterion_07_splitting_soundness():
    start = time.monotonic()
    ok = True
    count = 0
    for g, a in sample_instances(100, 7, 5, 3, seed=7000):
        count += 1
        unit = unit_form(g)
        relays = sorted(unit.vertices - a.members)
        for x in relays:
            others = unit.vertices - {x}
            before = all_pairs_connectivity(unit, others)
            inc = [e.id for e in unit.incident(x)]
            for i in range(len(inc)):
                for j in range(i + 1, len(inc)):
                    if admissible(unit, inc[i], inc[j], x):
                        split, _ = split_off(unit, inc[i], inc[j], pivot=x)
                        if all_pairs_connectivity(split, others) != before:
                            ok = False
            if len(inc) % 2 == 0:
                try:
                    out, _ = split_completely(unit, x)
                except CutEdgeAtPivot:
                    continue
                if all_pairs_connectivity(out, others) != before:
                    ok = False
    ok = ok and count >= 100
    _report(7, ok, f"admissible splits preserve pairwise min-cuts on {count} instances; "
                   "complete splitting succeeds at every even-degree bridge-free relay")


def test_criterion_08_lift_end_to_end():
    start = time.monotonic()
    ok = True
    count = 0
    for g, a in sample_instances(50, 8, 6, 3, seed=8000):
        count += 1
        split_g, history, scale = eliminate_relays(g, a)
        k, packed = max_integer_packing(solve_tree_lp(split_g, a))
        lifted = lift_packing(history, packed)
        if not verify_packing(history.base, a, lifted):
            ok = False
        if len(lifted.trees) != len(packed.trees) or lifted.rate != packed.rate:
            ok = False
        try:
            analyze_instance(g, a, via_splitting=True)
        except CertificateError:
            ok = False
    ok = ok and count >= 50
    _report(8, ok, f"packings lifted through split histories verify on the base graph "
                   f"with unchanged cardinality on {count} instances")


def _small_connected_multigraphs(max_n=5, max_cap=8):
    for n in range(2, max_n + 1):
        names = [f"v{i}" for i in range(n)]
        pairs = list(combinations(range(n), 2))

        def rec(i, remaining, caps):
            if i == len(pairs):
                yield tuple(caps)
                return
            for c in range(remaining + 1):
                yield from rec(i + 1, remaining - c, caps + (c,))

        for vec in rec(0, max_cap, ()):
            if sum(1 for c in vec if c) < n - 1:
                continue
            parent = list(range(n))

            def find(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            for (u, v), c in zip(pairs, vec):
                if c:
                    parent[find(u)] = find(v)
            if len({find(v) for v in range(n)}) != 1:
                continue
            triples = [(names[u], names[v], c) for (u, v), c in zip(pairs, vec) if c]
            yield Multigraph.build(names, triples), names


def _brute_max_packing(g, a):
    trees = enumerate_steiner_trees(g, a)
    caps = {e.id: e.cap for e in g.edges}

    def rec(start, count):
        best = count
        for j in range(start, len(trees)):
            if all(caps[e] >= 1 for e in trees[j]):
                for e in trees[j]:
                    caps[e] -= 1
                best = max(best, rec(j, count + 1))
                for e in trees[j]:
                    caps[e] += 1
        return best

    return rec(0, 0)


def test_criterion_09_oracle_equivalence():
    start = time.monotonic()
    ok = True
    graphs = 0
    for g, names in _small_connected_multigraphs():
        graphs += 1
        n = len(names)
        idx = {v: i for i, v in enumerate(names)}
        crossing = [0] * (1 << n)
        for mask in range(1, (1 << n) - 1):
            c = 0
            for e in g.edges:
                if (mask >> idx[e.u]) & 1 != (mask >> idx[e.v]) & 1:
                    c += e.cap
            crossing[mask] = c
        for u, v in combinations(names, 2):
            oracle = min(
                crossing[m]
                for m in range(1, (1 << n) - 1)
                if (m >> idx[u]) & 1 and not (m >> idx[v]) & 1
            )
            if checked_flow(pair_capacities(g), u, v)[0] != oracle:
                ok = False
        a = TerminalSet(names[0], tuple(names[1:]))
        k, packing = max_integer_packing(solve_tree_lp(g, a))
        if k != _brute_max_packing(g, a) or not verify_packing(g, a, packing):
            ok = False
    _within(start, 600, 9)
    _report(9, ok, f"checked_flow and max_integer_packing match exhaustive oracles on "
                   f"{graphs} connected multigraphs (<=5 vertices, total capacity <=8)")


def test_criterion_10_bound_table_spot_checks(capsys):
    ok = True
    i_lb, _, f_lb = bnd.theorem1_lower_bounds(2)
    _, _, gf2 = bnd.corollary1_gain_bounds(2)
    _, gh3, _ = bnd.corollary1_gain_bounds(3)
    if not (i_lb == 1 and f_lb.value == Fraction(3, 2) and gf2.value == Fraction(4, 3)):
        ok = False
    if gh3 != Fraction(3, 2):
        ok = False
    if bnd.corollary2_gain_bound(10).value != Fraction(9, 5):
        ok = False
    # the CLI reports the same hand values
    assert main(["bounds", "--lambda", "2", "--terminals", "3"]) == 0
    out2 = capsys.readouterr().out
    assert main(["bounds", "--lambda", "3", "--terminals", "3"]) == 0
    out3 = capsys.readouterr().out
    assert main(["bounds", "--lambda", "2", "--terminals", "10"]) == 0
    out10 = capsys.readouterr().out
    def row(out, name):
        for line in out.splitlines():
            if name in line:
                return line.split()[-1]
        return None

    if row(out2, "pi_i lower bound (3 terminals)") != "1":
        ok = False
    if "3/2 (limit)" not in out2 or "4/3 (limit)" not in out2:
        ok = False
    if row(out3, "G_1/2 upper bound") != "3/2":
        ok = False
    if "9/5 (limit)" not in out10:
        ok = False
    _report(10, ok, "bound table matches hand values for lambda=2, lambda=3, a=10")
