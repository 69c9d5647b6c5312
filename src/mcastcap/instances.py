"""Instance generators: the unit-capacity cycle family with relays, its
explicit fractional routing scheme as a checked Steiner tree packing, and
seeded random sampling for property tests.
"""

from __future__ import annotations

import random

from .errors import BadSlot, BridgeBetweenTerminals, CertificateError, ResourceLimit, Underconnected
from .multigraph import Multigraph, TerminalSet, prune_to_core, validate
from .packing import SteinerPacking, verify_packing


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
) -> SteinerPacking:
    """The cycle family's optimal scheme: a trees, one unit each of 1/(a-1),
    so a symbols over a-1 time units at rate a/(a-1).

    Tree j carries symbol a_j: it is the cycle less the segment between the
    terminals v_{a-1-j} and v_{a-j} (v_a being v_0).  Each tree contains v_0
    and, oriented away from it, says who forwards its symbol: terminal v_i
    forwards a_0..a_{a-2-i} to v_{i+1}; v_0 sends a_1..a_{a-1} the other way
    to v_{a-1}; v_{i+1} sends a_{a-i}..a_{a-1} back to v_i for i in 1..a-2.
    Relays forward transparently.  Every edge lies in all trees but one, so
    it carries a-1 units, its capacity over the a-1 time units.  Edge ids
    match ``example2_instance(a, relay_slots)``; raises CertificateError if
    ``verify_packing`` refuses the packing.
    """
    g, terminals = example2_instance(a, relay_slots)
    # example2_instance builds the edges in traversal order, so segment i,
    # from v_i to v_{i+1}, ends at the i-th edge whose head is a terminal
    segments: list[set[int]] = [set()]
    for e in g.edges:
        segments[-1].add(e.id)
        if e.v in terminals.members:
            segments.append(set())
    cycle = {e.id for e in g.edges}
    p = SteinerPacking(tuple((frozenset(cycle - segments[a - 1 - j]), 1) for j in range(a)), a - 1)
    if not verify_packing(g, terminals, p):
        raise CertificateError(f"routing scheme of the a = {a} cycle failed verification")
    return p


# underconnected seeds that ``sample_instances`` skips in a row before it
# gives up: no parameter set the tests, the bench or the scripts use skips
# more than 8
MAX_REJECTED_SEEDS = 1000


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
    if extra_edges < 0:
        raise ValueError("extra edges must not be negative")
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
    Raises ResourceLimit after ``MAX_REJECTED_SEEDS`` underconnected seeds
    in a row, as when no extra edge closes a cycle.
    """
    produced = rejected = 0
    s = seed
    while produced < count:
        try:
            yield random_instance(vertex_count, extra_edges, terminal_count, s)
            produced += 1
            rejected = 0
        except Underconnected:
            rejected += 1
            if rejected == MAX_REJECTED_SEEDS:
                raise ResourceLimit(
                    f"sampling (vertices, extra edges, terminals) = ({vertex_count}, {extra_edges}, "
                    f"{terminal_count}) found {rejected} seeds underconnected in a row, the last {s}: "
                    f"the budget MAX_REJECTED_SEEDS = {MAX_REJECTED_SEEDS}") from None
        s += 1
