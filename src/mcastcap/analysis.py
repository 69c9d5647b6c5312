"""The capacity analysis of one instance: every exact quantity, each checked
by its certificate in the solver that computes it, and the closed-form
bound table.

``analyze_instance`` runs, in order:

1. ``validate``, and λ(A) with the source side of its minimum cut by
   ``terminal_cut`` on the input graph: the least of the source's maximum
   flows, every one checked against its residual cut; λ(A) = 1 ends there;
2. ``prune_to_core``, whose vertex and edge counts the report gives, then
   ``reduce_core``, which groups parallel edges, deletes one-neighbour
   relays and contracts two-neighbour relays, exactly for every quantity
   below;
3. ``partition_bound`` on that ``Reduction``: an upper bound U on η, the
   smaller value of the strength search's seed and the λ cut, its
   partition lifted by ``Reduction.lift`` and checked on the pruned core
   by ``verify_partition`` inside ``strength``;
4. one ``solve_tree_lp`` on the reduced graph, stopped as soon as its
   objective reaches U.  Only when it passes the tree limit first
   (TooManyTrees) does ``edge_strength`` search the reduced graph, its
   witness lifted onto the pruned core and checked there; if η < U the LP
   is solved again, stopped at η, and otherwise the error stands.  Steps
   2-4 are ``bounded_tree_lp``, which ``mcastcap pack`` calls too, so its
   packings are this LP's, expanded and checked as in step 5; at λ(A) = 1
   it reduces the input as given;
5. from it the integer packing, expanded onto the pruned core and checked
   there by ``verify_packing`` inside ``packing``.  The rates are nested,
   k <= half <= LP, and a checked packing proves each rate it reaches: the
   half-integer search runs only when 2k is below its goal floor(2 LP),
   and the fractional packing only when the half-integer rate is below the
   LP optimum, each checked the same way;
6. η itself when step 4 searched for it, and η = U when the checked rate
   that reaches the LP optimum is U: by weak duality the packing and the
   partition then prove each other optimal.  Only when they do not meet
   does ``edge_strength`` search the reduced graph, as in step 4;
7. here: each floor of ``bounds.bound_table`` against the rate its row
   names, then the printed rates as one order, k <= half <= LP <= η <= λ,
   every link a check: LP <= η by weak duality, η <= λ because 2-block
   partitions give λ;
8. with ``via_splitting``, relay elimination on the pruned core (not the
   reduced graph, so its history does not move), one more solve, with no
   bound, the lifted packing checked here on the pruned core, then the
   split rate against Theorem 3's floor and in order, rate <= its own LP
   rate <= LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import bounds as bnd
from .connectivity import terminal_cut
from .errors import CertificateError, TooManyTrees
from .multigraph import Multigraph, Rate, TerminalSet, prune_to_core, reduce_core, validate
from .packing import (
    TreeLP,
    fractional_capacity_lp,
    half_integer_capacity,
    max_integer_packing,
    solve_tree_lp,
    verify_packing,
)
from .splitting import eliminate_relays, lift_packing
from .strength import edge_strength, partition_bound


@dataclass(frozen=True)
class CapacityReport:
    """What ``analyze_instance`` found, every rate checked.  When λ(A) = 1
    the capacity is 1 outright and the rates are None.  The γ bracket,
    LP rate <= γ <= η, is printed from ``lp_rate`` and ``eta``: tight when
    they are equal."""

    num_vertices: int
    num_edges: int
    num_terminals: int
    lam: int
    k_int: int | None = None
    half_rate: Rate | None = None
    lp_rate: Rate | None = None
    eta: Rate | None = None
    bound_rows: tuple[tuple[str, str], ...] = ()
    via_splitting: dict | None = None

    @property
    def short_circuit(self) -> bool:
        return self.lam == 1

    def to_dict(self) -> dict:
        d = {
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "terminals": self.num_terminals,
            "terminal_connectivity": self.lam,
        }
        if self.short_circuit:
            d["capacity"] = "1"
            d["note"] = "terminal connectivity 1: routing and coding capacity are both 1"
            return d
        d |= {
            "integer_packing": self.k_int,
            "half_integer_rate": str(self.half_rate),
            "fractional_rate": str(self.lp_rate),
            "edge_strength": str(self.eta),
            "bracket": {"lower": str(self.lp_rate), "upper": str(self.eta),
                        "tight": self.lp_rate == self.eta},
            "bounds": [{"name": n, "value": v} for n, v in self.bound_rows],
        }
        if self.via_splitting is not None:
            d["via_splitting"] = self.via_splitting
        return d

    def to_text(self) -> str:
        lines = [
            f"instance: |V|={self.num_vertices} |E|={self.num_edges} "
            f"|A|={self.num_terminals} lambda(A)={self.lam}"
        ]
        if self.short_circuit:
            lines.append("terminal connectivity 1: gamma = pi = 1")
            return "\n".join(lines)
        lines += [
            f"integer packing k        = {self.k_int}",
            f"half-integer rate        = {self.half_rate}",
            f"fractional rate (LP)     = {self.lp_rate}",
            f"edge strength eta        = {self.eta}",
            f"gamma bracket            = [{self.lp_rate}, {self.eta}]"
            + ("  (tight)" if self.lp_rate == self.eta else ""),
            "bound table:",
        ]
        lines += [f"  {name:<42} {value}" for name, value in self.bound_rows]
        if self.via_splitting is not None:
            v = self.via_splitting
            lines.append(
                f"via splitting: scale={v['scale']} packed={v['packed_trees']} "
                f"rate={v['rate']} lifted_ok={v['lifted_verifies']}"
            )
        return "\n".join(lines)


def _check_order(*chain: tuple[str, Rate]) -> None:
    """Raise CertificateError at the first (name, rate) of ``chain`` that
    exceeds the next one."""
    for (name, value), (above, bound) in zip(chain, chain[1:]):
        if not value <= bound:
            raise CertificateError(f"{name} {value} exceeds {above} {bound}")


def bounded_tree_lp(
    g: Multigraph, a: TerminalSet, lam: int, side: frozenset[str]
) -> tuple[Rate, bool, TreeLP]:
    """Steps 2-4 of the module docstring on a valid ``g`` whose minimum
    terminal cut ``terminal_cut`` found as ``lam`` and ``side``: the upper
    bound on η that the LP stopped at, whether that bound is η itself, and
    the tree LP of the reduced core.

    At λ(A) = 1 a cut-edge joins two terminals and ``prune_to_core``
    refuses, so ``g`` is reduced as given and is the core the packings are
    checked on.
    """
    reduced = reduce_core(prune_to_core(g, a) if lam > 1 else g, a)
    upper, _ = partition_bound(reduced, a, lam, side)
    try:
        return upper, False, solve_tree_lp(reduced, a, upper)
    except TooManyTrees:
        eta = edge_strength(reduced, a)[0]
        if not eta < upper:
            raise
        return eta, True, solve_tree_lp(reduced, a, eta)


def analyze_instance(
    g: Multigraph, a: TerminalSet, via_splitting: bool = False
) -> CapacityReport:
    validate(g, a)
    lam, side = terminal_cut(g, a)
    na = len(a.members)
    if lam == 1:
        return CapacityReport(len(g.vertices), len(g.edges), na, lam)
    upper, exact, tree_lp = bounded_tree_lp(g, a, lam, side)
    k, _ = max_integer_packing(tree_lp)
    # the rates are nested, k <= half <= LP, so a checked packing proves
    # every rate it reaches: 2k at the half-integer search's goal
    # floor(2 LP) makes half = k, and half at the LP optimum makes LP = half
    half = Fraction(k) if 2 * k == int(2 * tree_lp.opt) else half_integer_capacity(tree_lp)[0]
    lp = half if half == tree_lp.opt else fractional_capacity_lp(tree_lp)[0]
    # a verified packing and a verified partition of equal value prove each
    # other optimal, so the search runs only when they do not meet and
    # bounded_tree_lp has not run it
    eta = upper if exact or lp == upper else edge_strength(tree_lp.reduction, a)[0]
    # weak duality: an A-Steiner tree crosses a k-block partition with a
    # terminal in every block at least k - 1 times, so no packing's rate
    # exceeds eta; 2-block partitions give lambda(A) exactly, so eta <= lambda
    chain = (("integer packing", k), ("half-integer rate", half), ("LP rate", lp),
             ("edge strength", eta), ("connectivity", lam))
    table = bnd.bound_table(lam, na)
    rates = dict(chain)
    for _, _, rate, bound in table:
        if rate and not rates[rate] >= bound.value:
            raise CertificateError(f"{rate} {rates[rate]} is below the paper's bound {bound.value}")
    _check_order(*chain)
    core = tree_lp.reduction.core
    return CapacityReport(
        len(core.vertices), len(core.edges), na, lam, k, half, lp, eta,
        tuple((label, str(bound)) for label, _, _, bound in table),
        _via_splitting(core, a, lam, lp) if via_splitting else None,
    )


def _via_splitting(core: Multigraph, a: TerminalSet, lam: int, lp: Rate) -> dict:
    """Pack the relay-eliminated graph, lift the packing onto ``core`` and
    check it there.  Splitting keeps every terminal cut but can lose packing
    value, so the route is checked from below by Theorem 3's floor and from
    above by its own LP optimum and the direct LP rate."""
    split_g, history, scale = eliminate_relays(core, a)
    split_lp = solve_tree_lp(split_g, a)
    k_split, packed = max_integer_packing(split_lp)
    lifted = lift_packing(history, packed)
    if not verify_packing(history.base, a, lifted):
        raise CertificateError("lifted packing failed verification")
    rate, split_opt = Fraction(k_split, scale), split_lp.opt / scale
    if not rate >= bnd.split_rate_floor(lam, len(a.members), scale):
        raise CertificateError("splitting route fell below the guaranteed tree count")
    _check_order(("split rate", rate), ("split LP rate", split_opt), ("LP rate", lp))
    return {
        "scale": scale,
        "packed_trees": k_split,
        "lifted_trees": int(lifted.rate),
        "rate": str(rate),
        "lifted_verifies": True,
        "lp_rate": str(split_opt),
    }
