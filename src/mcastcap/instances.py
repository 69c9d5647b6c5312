"""Instance generators: the unit-capacity cycle family with relays, its
explicit fractional routing scheme, scheme verification, and seeded random
sampling for property tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadSlot, BridgeBetweenTerminals, Underconnected
from .multigraph import Multigraph, TerminalSet, prune_to_core, validate


@dataclass(frozen=True)
class RoutingScheme:
    """Static symbol-to-edge assignment over n time units.

    ``assignment`` maps each symbol index to the oriented edges carrying it:
    tuples (edge id, tail, head).
    """

    h: int
    n: int
    assignment: dict[int, tuple[tuple[int, str, str], ...]]

    @property
    def rate(self):
        return Fraction(self.h, self.n)


def example2_instance(
    a: int, relay_slots: tuple[int, ...] = ()
) -> tuple[Multigraph, TerminalSet]:
    """Unit-capacity cycle on terminals v0..v{a-1} with relays in named gaps.

    Gap i lies between v_i and v_{i+1 mod a}; repeating a slot chains several
    relays into the same gap.  Source is v0.
    """
    if a < 3:
        raise ValueError("cycle family needs at least 3 terminals")
    for s in relay_slots:
        if not (0 <= s < a):
            raise BadSlot(f"slot {s} outside gap range 0..{a - 1}")
    per_gap: dict[int, int] = {}
    for s in relay_slots:
        per_gap[s] = per_gap.get(s, 0) + 1
    order: list[str] = []
    relay_no = 0
    for i in range(a):
        order.append(f"v{i}")
        for _ in range(per_gap.get(i, 0)):
            relay_no += 1
            order.append(f"x{relay_no}")
    triples = [(order[i], order[(i + 1) % len(order)], 1) for i in range(len(order))]
    g = Multigraph.build(order, triples)
    terminals = TerminalSet("v0", tuple(f"v{i}" for i in range(1, a)))
    return g, terminals


def example2_routing_scheme(
    a: int, relay_slots: tuple[int, ...] = ()
) -> RoutingScheme:
    """The cycle family's optimal scheme: h = a symbols over n = a-1 time units.

    Terminal v_i forwards symbols a_0..a_{a-2-i} to v_{i+1}; v_0 sends
    a_1..a_{a-1} the other way to v_{a-1}; v_{i+1} sends a_{a-i}..a_{a-1}
    back to v_i for i in 1..a-2.  Relays forward transparently, so every edge
    of a terminal-to-terminal segment carries that segment's symbols.
    Edge ids match ``example2_instance(a, relay_slots)``.
    """
    g, _ = example2_instance(a, relay_slots)
    # group the cycle edges into segments between consecutive terminals:
    # example2_instance builds them in traversal order, oriented along it
    segments: list[list[tuple[int, str, str]]] = []
    current: list[tuple[int, str, str]] = []
    for e in g.edges:
        current.append((e.id, e.u, e.v))
        if e.v.startswith("v"):
            segments.append(current)
            current = []
    # segments[i] runs v_i -> v_{i+1}; the last runs v_{a-1} -> v_0
    assignment: dict[int, list[tuple[int, str, str]]] = {j: [] for j in range(a)}
    for i in range(a - 1):  # forward around the cycle
        for j in range(a - 1 - i):
            assignment[j].extend(segments[i])
    back_segment = [(eid, v, u) for eid, u, v in reversed(segments[a - 1])]
    for j in range(1, a):  # v0 -> v_{a-1} through the closing gap
        assignment[j].extend(back_segment)
    for i in range(1, a - 1):  # v_{i+1} -> v_i against the cycle direction
        rev = [(eid, v, u) for eid, u, v in reversed(segments[i])]
        for j in range(a - i, a):
            assignment[j].extend(rev)
    return RoutingScheme(a, a - 1, {j: tuple(es) for j, es in assignment.items()})


def routing_scheme_problems(g: Multigraph, a: TerminalSet, s: RoutingScheme) -> list[str]:
    """Check edge budgets and per-symbol sink reachability.

    Returns one line per problem found; the scheme is valid iff the list is empty.
    """
    problems: list[str] = []
    by_id = {e.id: e for e in g.edges}
    load: dict[int, int] = {eid: 0 for eid in by_id}
    for sym, carriers in s.assignment.items():
        for eid, tail, head in carriers:
            e = by_id.get(eid)
            if e is None or {tail, head} != {e.u, e.v}:
                problems.append(f"symbol {sym}: bad carrier ({eid}, {tail}, {head})")
                continue
            load[eid] += 1
    for eid, l in load.items():
        if l > s.n * by_id[eid].cap:
            problems.append(f"edge {eid} carries {l} symbols, budget {s.n * by_id[eid].cap}")
    for sym in range(s.h):
        carriers = s.assignment.get(sym, ())
        reach = {a.source}
        changed = True
        while changed:
            changed = False
            for _, tail, head in carriers:
                if tail in reach and head not in reach:
                    reach.add(head)
                    changed = True
        missing = [t for t in a.sinks if t not in reach]
        if missing:
            problems.append(f"symbol {sym} does not reach sinks {missing}")
    return problems


def random_instance(
    vertex_count: int, extra_edges: int, terminal_count: int, seed: int
) -> tuple[Multigraph, TerminalSet]:
    """Random spanning tree plus random extra edges (parallel allowed), pruned.

    Deterministic for a fixed seed.  Raises Underconnected when the terminal
    connectivity ends up below 2; callers resample with another seed.  With
    unit capacities that is exactly when a cut-edge separates two terminals,
    which ``prune_to_core`` refuses.
    """
    if terminal_count > vertex_count:
        raise ValueError("more terminals than vertices")
    if terminal_count < 2:
        raise ValueError("need at least two terminals")
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(vertex_count)]
    triples: list[tuple[str, str, int]] = []
    for i in range(1, vertex_count):
        j = rng.randrange(i)
        triples.append((names[j], names[i], 1))
    for _ in range(extra_edges):
        u, v = rng.sample(names, 2)
        triples.append((u, v, 1))
    g = Multigraph.build(names, triples)
    terms = rng.sample(names, terminal_count)
    a = TerminalSet(terms[0], tuple(terms[1:]))
    validate(g, a)
    try:
        g = prune_to_core(g, a)
    except BridgeBetweenTerminals as exc:
        raise Underconnected(str(exc)) from exc
    return g, a


def sample_instances(
    count: int,
    vertex_count: int,
    extra_edges: int,
    terminal_count: int,
    seed: int = 0,
):
    """Yield ``count`` valid random instances, skipping underconnected seeds.

    Instance i is ``random_instance`` at the i-th seed at or after ``seed``
    that is not underconnected.  The draws for ``seed`` and ``seed + 1``
    therefore overlap in all but at most one instance: 19 of 20 for
    ``(20, 8, 6, 3)`` at seeds 0 and 1, and 6 of 6 for ``(6, 10, 8, 4)``.
    A sweep over several draws should step ``seed`` by at least ``count``.
    """
    produced = 0
    s = seed
    while produced < count:
        try:
            yield random_instance(vertex_count, extra_edges, terminal_count, s)
            produced += 1
        except Underconnected:
            pass
        s += 1
