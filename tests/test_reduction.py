"""``reduce_core`` against the unreduced core: the same λ, k, half, LP and
η, and every packing and witness computed on the reduced graph checks on
the pruned core."""

import random
from dataclasses import replace

import pytest

from mcastcap import (
    Multigraph,
    Reduction,
    TerminalSet,
    edge_strength,
    example2_instance,
    fractional_capacity_lp,
    half_integer_capacity,
    max_integer_packing,
    prune_to_core,
    reduce_core,
    sample_instances,
    scale_capacities,
    solve_tree_lp,
    terminal_cut,
    verify_packing,
    verify_partition,
)
from mcastcap.errors import BridgeBetweenTerminals
from test_packing import random_multigraphs, relay_heavy_instances


def quantities(g, a):
    """(λ, k, half, LP, η) on ``g``, a graph or a reduction, with the three
    packings and the strength witness."""
    lp = solve_tree_lp(g, a)
    k, pk = max_integer_packing(lp)
    half, ph = half_integer_capacity(lp)
    frac, pf = fractional_capacity_lp(lp)
    eta, witness = edge_strength(g, a)
    lam = terminal_cut(Reduction.of(g).graph, a)[0]
    return (lam, k, half, frac, eta), (pk, ph, pf), witness


def assert_exact(core, a):
    """Whether the reduction removed a relay; the values must agree either way."""
    reduced = reduce_core(core, a)
    want, _, _ = quantities(core, a)
    got, packings, witness = quantities(reduced, a)
    assert got == want
    for p in packings:
        assert verify_packing(core, a, p)
        assert {i for tree, _ in p.trees for i in tree} <= {e.id for e in core.edges}
    assert verify_partition(core, a, got[-1], witness)
    return bool(reduced.removed)


def weighted(instances, seed):
    """Each instance with capacities drawn from 1-3, so that a contracted
    relay's two classes often differ."""
    rng = random.Random(seed)
    for g, a in instances:
        yield Multigraph(g.vertices, tuple(replace(e, cap=rng.randint(1, 3)) for e in g.edges)), a


def cores(instances):
    for g, a in instances:
        try:
            yield prune_to_core(g, a), a
        except BridgeBetweenTerminals:
            pass


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("factor", [1, 2])
def test_samples_match_the_unreduced_core(seed, factor):
    reduced = [assert_exact(scale_capacities(g, factor), a)
               for g, a in sample_instances(40, 8, 5, 3, seed)]
    assert any(reduced)


@pytest.mark.parametrize("family", ["n10", "chains", "triangles", "multigraphs", "weighted"])
def test_families_match_the_unreduced_core(family):
    # chains: 1-12 relays in one gap and in several; triangles: 1-6 dangling
    # relay triangles; multigraphs: 150 with parallel edges
    if family == "n10":
        instances = sample_instances(10, 10, 10, 4, 0)
    elif family == "weighted":
        instances = weighted([*random_multigraphs(150, 4), *relay_heavy_instances("chains")], 5)
    else:
        instances = relay_heavy_instances(family)
    reduced = [assert_exact(core, a) for core, a in cores(instances)]
    assert any(reduced)
    if family in ("chains", "triangles"):
        assert all(reduced)


def test_chain_and_triangles_reduce_to_the_cycle():
    for g, a in [example2_instance(3, (0,) * 12), relay_heavy_instances("triangles")[-1]]:
        r = reduce_core(g, a)
        assert r.graph.vertices == a.members
        assert sorted(x for x, _ in r.removed) == sorted(g.vertices - a.members)
        assert r.core is g


def test_parallel_copies_pair_units_in_id_order():
    # x-u: ids 0 (cap 2) and 1 (cap 1); x-v: ids 2, 3, 4 (cap 1, 1, 2), then
    # a u-v edge and a second path through the terminal w
    g = Multigraph.build(["u", "v", "w", "x"], [
        ("x", "u", 2), ("u", "x", 1), ("x", "v", 1), ("v", "x", 1), ("x", "v", 2),
        ("u", "v", 1), ("u", "w", 1), ("w", "v", 1),
    ])
    r = reduce_core(g, TerminalSet("u", ("v", "w")))
    # x records v, its heavier neighbour: 4 against 3
    assert r.removed == (("x", "v"),)
    # the parts join the u-v edge's bundle after it; the lighter side's
    # copies are used exactly, the heavier's within capacity
    assert r.bundles[5] == (((5,), 1), ((0, 2), 1), ((0, 3), 1), ((1, 4), 1))
    assert [(e.id, e.u, e.v, e.cap) for e in r.graph.edges] == [
        (5, "u", "v", 4), (6, "u", "w", 1), (7, "w", "v", 1)]
    assert [r.bundles[i] for i in (6, 7)] == [(((6,), 1),), (((7,), 1),)]
    # apart from u, x crosses to u alone, 3 = the parts' capacity
    assert r.lift([{"u"}, {"v"}, {"w"}]) == (frozenset("u"), frozenset("vx"), frozenset("w"))
    assert r.lift([{"w"}, {"u", "v"}]) == (frozenset("w"), frozenset("uvx"))
    # each piece takes the first entry of each bundle with room left
    assert r.expand([({5}, 2), ({6, 7}, 1)], 1) == [({0, 2}, 1), ({5}, 1), ({6, 7}, 1)]


def test_nothing_removed_is_the_core_unchanged():
    g, a = example2_instance(5)
    r = reduce_core(g, a)
    assert r.core is g
    assert (r.graph, r.removed) == (g, ())
    assert r.bundles == {e.id: (((e.id,), e.cap),) for e in g.edges}
    assert Reduction.of(g).core is g and Reduction.of(g).graph == g
