"""The capacity analysis of one instance: every exact quantity, each checked
by its certificate in the solver that computes it, the gamma bracket they
give, and the closed-form bound table.

``analyze_instance`` runs, in order:

1. ``validate``, and λ(A) with the source side of its minimum cut by
   ``terminal_cut`` on the input graph: the least of the source's maximum
   flows, every one checked against its residual cut; λ(A) = 1 ends there;
2. ``prune_to_core``, whose vertex and edge counts the report gives, then
   ``reduce_core``, which deletes one-neighbour relays and contracts
   two-neighbour relays, exactly for every quantity below;
3. ``partition_bound`` on that ``Reduction``: an upper bound U on η, the
   smaller value of the strength search's seed and the λ cut, its
   partition lifted by ``Reduction.lift`` and checked on the pruned core
   by ``verify_partition`` inside ``strength``;
4. one ``solve_tree_lp`` on the reduced graph, stopped as soon as its
   objective reaches U;
5. from it the integer packing, expanded onto the pruned core and checked
   there by ``verify_packing`` inside ``packing``.  The rates are nested,
   k <= half <= LP, and a checked packing proves each rate it reaches: the
   half-integer search runs only when 2k is below its goal floor(2 LP),
   and the fractional packing only when the half-integer rate is below the
   LP optimum, each checked the same way;
6. η = U when the checked rate that reaches the LP optimum is U: by weak
   duality the packing and the partition then prove each other optimal.
   Only when they do not meet does ``edge_strength`` search the reduced
   graph, its witness lifted onto the pruned core and checked there;
7. here: η <= λ, weak duality LP <= η, and the paper's lower bounds;
8. with ``via_splitting``, relay elimination on the pruned core (not the
   reduced graph, so its history does not move), one more solve, with no
   bound, and the lifted packing checked here on the pruned core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import bounds as bnd
from .connectivity import terminal_cut
from .errors import CertificateError
from .multigraph import Multigraph, Rate, TerminalSet, prune_to_core, reduce_core, validate
from .packing import (
    fractional_capacity_lp,
    half_integer_capacity,
    max_integer_packing,
    solve_tree_lp,
    verify_packing,
)
from .splitting import eliminate_relays, lift_packing
from .strength import edge_strength, partition_bound


@dataclass(frozen=True)
class GammaBracket:
    """Certified interval around the coding capacity: LP rate <= gamma <= eta."""

    lower: Rate
    upper: Rate
    tight: bool


@dataclass
class CapacityReport:
    num_vertices: int
    num_edges: int
    num_terminals: int
    lam: int
    short_circuit: bool = False  # lambda(A) == 1: capacity is 1 outright
    k_int: int | None = None
    half_rate: Rate | None = None
    lp_rate: Rate | None = None
    eta: Rate | None = None
    bracket: GammaBracket | None = None
    bound_rows: list[tuple[str, str]] = field(default_factory=list)
    via_splitting: dict | None = None

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
        d.update(
            {
                "integer_packing": self.k_int,
                "half_integer_rate": str(self.half_rate),
                "fractional_rate": str(self.lp_rate),
                "edge_strength": str(self.eta),
                "bracket": {
                    "lower": str(self.bracket.lower),
                    "upper": str(self.bracket.upper),
                    "tight": self.bracket.tight,
                },
                "bounds": [{"name": n, "value": v} for n, v in self.bound_rows],
            }
        )
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
            f"gamma bracket            = [{self.bracket.lower}, {self.bracket.upper}]"
            + ("  (tight)" if self.bracket.tight else ""),
        ]
        if self.bound_rows:
            lines.append("bound table:")
            for name, value in self.bound_rows:
                lines.append(f"  {name:<42} {value}")
        if self.via_splitting is not None:
            v = self.via_splitting
            lines.append(
                f"via splitting: scale={v['scale']} packed={v['packed_trees']} "
                f"rate={v['rate']} lifted_ok={v['lifted_verifies']}"
            )
        return "\n".join(lines)


def analyze_instance(
    g: Multigraph, a: TerminalSet, via_splitting: bool = False
) -> CapacityReport:
    validate(g, a)
    lam, side = terminal_cut(g, a)
    report = CapacityReport(
        num_vertices=len(g.vertices),
        num_edges=len(g.edges),
        num_terminals=len(a.members),
        lam=lam,
    )
    if lam == 1:
        report.short_circuit = True
        return report
    core = prune_to_core(g, a)
    report.num_vertices = len(core.vertices)
    report.num_edges = len(core.edges)

    reduced = reduce_core(core, a)
    upper, _ = partition_bound(reduced, a, lam, side)
    tree_lp = solve_tree_lp(reduced, a, upper)
    k, _ = max_integer_packing(tree_lp)
    # the rates are nested, k <= half <= LP, so a checked packing proves
    # every rate it reaches: 2k at the half-integer search's goal
    # floor(2 LP) makes half = k, and half at the LP optimum makes LP = half
    half = Fraction(k) if 2 * k == int(2 * tree_lp.opt) else half_integer_capacity(tree_lp)[0]
    lp = half if half == tree_lp.opt else fractional_capacity_lp(tree_lp)[0]
    # a verified packing and a verified partition of equal value prove each
    # other optimal, so the search runs only when they do not meet
    eta = upper if lp == upper else edge_strength(reduced, a)[0]
    # 2-block partitions give lambda(A) exactly, so eta <= lambda and eta is
    # the bracket's upper end
    if not eta <= lam:
        raise CertificateError(f"edge strength {eta} exceeds connectivity {lam}")
    # weak duality: every A-Steiner tree meets each block of a partition with
    # a terminal in every block, so it crosses a k-block partition at least
    # k - 1 times, and every packing's rate is at most the partition's eta.
    # When the bracket is tight the verified packing proves eta minimal and
    # the verified partition proves the LP rate optimal.
    if not lp <= eta:
        raise CertificateError(f"LP rate {lp} exceeds edge strength {eta}")
    # the paper's lower bounds hold on every instance: Theorem 3's half-integer
    # floor and its fractional limit, exact at every lambda because the
    # fractional rate scales with capacity, and Theorem 1 for three terminals
    na = len(a.members)
    half_bound, frac_bound = bnd.theorem3_lower_bound(lam, na)
    paper = [("half-integer rate", half, half_bound), ("LP rate", lp, frac_bound.value)]
    if na == 3:
        int_bound, half_bound3, _ = bnd.theorem1_lower_bounds(lam)
        paper += [("integer packing", k, int_bound), ("half-integer rate", half, half_bound3)]
    for name, value, bound in paper:
        if not value >= bound:
            raise CertificateError(f"{name} {value} is below the paper's bound {bound}")

    report.k_int = k
    report.half_rate = half
    report.lp_rate = lp
    report.eta = eta
    report.bracket = GammaBracket(lp, eta, lp == eta)

    report.bound_rows = [(name, str(value)) for name, _, value in bnd.bound_table(lam, na)]

    if via_splitting:
        # Splitting preserves every terminal min-cut but can strictly lose
        # packing value, so only the lower-bound chain is checked: the
        # lifted packing must verify on the base graph, stay within the
        # direct LP rate, and dominate the general floor bound.
        split_g, history, scale = eliminate_relays(core, a)
        split_lp = solve_tree_lp(split_g, a)
        k_split, packed = max_integer_packing(split_lp)
        lifted = lift_packing(history, packed)
        lifted_ok = verify_packing(history.base, a, lifted)
        split_rate = Fraction(k_split, scale)
        report.via_splitting = {
            "scale": scale,
            "packed_trees": k_split,
            "lifted_trees": int(lifted.rate),
            "rate": str(split_rate),
            "lifted_verifies": lifted_ok,
            "lp_rate": str(split_lp.opt / scale),
        }
        if not lifted_ok:
            raise CertificateError("lifted packing failed verification")
        if not split_rate <= lp:
            raise CertificateError("lifted rate exceeds the LP rate")
        floor_bound = bnd.theorem3_tree_floor(scale * lam, na)
        if not Fraction(floor_bound, scale) <= split_rate:
            raise CertificateError("splitting route fell below the guaranteed tree count")
    return report
