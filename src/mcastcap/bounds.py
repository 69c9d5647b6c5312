"""Closed-form bound calculators: the paper's lower-bound floors, gain
ceilings and decompositions, and the bound table built from them.

Bounds that hold only in the large-n limit are reported as exact rational
limit values carrying a ``limit`` flag; the finite-n guarantees are the floor
formulas.  A decomposition holds what the ``bounds`` command prints of it,
(k, δ, Δ) for three terminals and (k, δ) in general, not the λ and |A| it
was called with.  Callers short-circuit terminal connectivity 1 to
capacity 1 before any formula runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError
from .multigraph import Rate


@dataclass(frozen=True)
class BoundValue:
    value: Rate
    limit: bool = False

    def __str__(self) -> str:
        suffix = " (limit)" if self.limit else ""
        return f"{self.value}{suffix}"


@dataclass(frozen=True)
class Decomposition3:
    k: int
    delta: int
    big_delta: int  # (6*lam - 3) mod 8, always in {1, 3, 5, 7}


@dataclass(frozen=True)
class DecompositionGeneral:
    k: int
    delta: int


def theorem1_lower_bounds(lam: int) -> tuple[int, Rate, BoundValue]:
    """3-terminal routing capacity lower bounds (integer, half-integer, fractional limit)."""
    if lam < 1:
        raise ValueError("connectivity must be >= 1")
    pi_int = (6 * lam - 3) // 8
    pi_half = Fraction((12 * lam - 3) // 8, 2)
    pi_frac = BoundValue(Fraction(3 * lam, 4), limit=True)
    return pi_int, pi_half, pi_frac


def corollary1_gain_bounds(lam: int) -> tuple[Rate, Rate, BoundValue]:
    """3-terminal coding gain upper bounds."""
    if lam < 2:
        raise ValueError("connectivity must be >= 2")
    return (
        Fraction(lam, (6 * lam - 3) // 8),
        Fraction(2 * lam, (12 * lam - 3) // 8),
        BoundValue(Fraction(4, 3), limit=True),
    )


def decompose3(lam: int) -> Decomposition3:
    """lam = floor((8k+3)/6) + delta with k maximal such that floor((8k+3)/6) <= lam."""
    big = appendix_a_delta(lam)  # refuses lam < 1
    # largest k with floor((8k+3)/6) <= lam, i.e. 8k + 3 <= 6*lam + 5
    k = max(1, (6 * lam + 2) // 8)
    delta = lam - (8 * k + 3) // 6
    if not (
        (8 * (k + 1) + 3) // 6 > lam
        and delta in (0, 1)
        and k >= (6 * lam - 3) // 8
        and (delta == 0 or big == 1)
    ):
        raise CertificateError(f"3-terminal decomposition broken at lambda={lam}")
    return Decomposition3(k, delta, big)


def appendix_a_delta(lam: int) -> int:
    """(6*lam - 3) mod 8; always odd, in {1, 3, 5, 7}."""
    if lam < 1:
        raise ValueError("connectivity must be >= 1")
    big = (6 * lam - 3) % 8
    if big not in (1, 3, 5, 7):
        raise CertificateError(f"residue {big} is not odd at lambda={lam}")
    return big


def theorem3_tree_floor(lam: int, a: int) -> int:
    """floor((a*lam - a + 2) / (2(a-1))): the edge-disjoint Steiner trees
    Theorem 3 guarantees for ``a`` terminals of connectivity ``lam`` once
    every relay is split off; ``split_rate_floor`` scales it to a rate."""
    if a < 2:
        raise ValueError("need >= 2 terminals")
    return (a * lam - a + 2) // (2 * (a - 1))


def split_rate_floor(lam: int, a: int, scale: int) -> Rate:
    """Theorem 3's floor on the rate of a packing in units of 1/``scale``:
    the tree floor at connectivity ``scale * lam`` over ``scale``.  It is
    the half-integer bound at scale 2, and bounds the rate ``analyze
    --via-splitting`` packs after splitting off every relay of the graph
    its capacities scaled by ``scale``."""
    return Fraction(theorem3_tree_floor(scale * lam, a), scale)


def _f_general(a: int, k: int) -> int:
    return (2 * k * (a - 1) + a - 2) // a


def decompose_general(lam: int, a: int) -> DecompositionGeneral:
    """lam = f_a(k) + delta with f_a(k) = floor((2k(a-1) + a-2)/a), k maximal."""
    if lam < 2 or a < 2:
        raise ValueError("need connectivity >= 2 and >= 2 terminals")
    # largest k with f_a(k) <= lam, i.e. 2k(a-1) <= a*lam + 1
    k = (a * lam + 1) // (2 * (a - 1))
    delta = lam - _f_general(a, k)
    if not (
        _f_general(a, k + 1) > lam
        and delta in (0, 1)
        and k >= theorem3_tree_floor(lam, a)
    ):
        raise CertificateError(f"general decomposition broken at lambda={lam}, a={a}")
    return DecompositionGeneral(k, delta)


def appendix_b_identity(lam: int, a: int) -> tuple[int, int, int, bool]:
    """Residues of the general decomposition and the modular identity linking them.

    Returns (Delta, Delta_prime, delta, holds) where
    Delta = 2k(a-1) + a-2 - a(lam - delta) in {0..a-1},
    Delta_prime = (a*lam - a + 2) mod 2(a-1), and ``holds`` asserts
    (Delta_prime + Delta) mod 2(a-1) == a*delta together with the
    biconditional Delta_prime = 0 iff (Delta = 0 and delta = 0).
    """
    dec = decompose_general(lam, a)
    k, delta = dec.k, dec.delta
    big = 2 * k * (a - 1) + a - 2 - a * (lam - delta)
    if not 0 <= big < a:
        raise CertificateError(f"residue {big} outside 0..{a - 1} at lambda={lam}, a={a}")
    big_prime = (a * lam - a + 2) % (2 * (a - 1))
    congruence = (big_prime + big) % (2 * (a - 1)) == a * delta
    biconditional = (big_prime == 0) == (big == 0 and delta == 0)
    return big, big_prime, delta, congruence and biconditional


def theorem3_lower_bound(lam: int, a: int) -> tuple[Rate, BoundValue]:
    """General lower bound: exact half-integer rate and the fractional limit."""
    if lam < 2 or a < 2:
        raise ValueError("need connectivity >= 2 and >= 2 terminals")
    half_exact = split_rate_floor(lam, a, 2)
    frac_limit = BoundValue(Fraction(lam * a, 2 * (a - 1)), limit=True)
    return half_exact, frac_limit


def corollary2_gain_bound(a: int) -> BoundValue:
    """Fractional coding gain bound 2(a-1)/a; strictly below 2, approaches 2."""
    if a < 2:
        raise ValueError("need >= 2 terminals")
    return BoundValue(Fraction(2 * (a - 1), a), limit=True)


# (``analyze`` label, ``bounds`` label, the rate the row is a floor of, or
# None for a gain ceiling) of each row; the three-terminal rows first
_BOUND_LABELS = (
    ("3-terminal integer lower bound", "pi_i lower bound (3 terminals)", "integer packing"),
    ("3-terminal half-integer lower bound", "pi_1/2 lower bound (3 terminals)", "half-integer rate"),
    ("3-terminal fractional lower bound", "pi_f lower bound (3 terminals)", "LP rate"),
    ("3-terminal gain bound (integer)", "G_i upper bound", None),
    ("3-terminal gain bound (half-integer)", "G_1/2 upper bound", None),
    ("3-terminal gain bound (fractional)", "G_f upper bound", None),
    ("general half-integer lower bound", "pi_1/2 lower bound (general)", "half-integer rate"),
    ("general fractional lower bound", "pi_f lower bound (general)", "LP rate"),
    ("general fractional gain bound", "G_f upper bound (general)", None),
)


def bound_table(lam: int, a: int) -> list[tuple[str, str, str | None, BoundValue]]:
    """The closed-form bounds that apply at connectivity ``lam >= 2`` and ``a``
    terminals, as (``analyze`` label, ``bounds`` label, rate, value) rows:
    Theorem 1 and Corollary 1 when a = 3, then Theorem 3 and Corollary 2.
    ``rate`` names the rate ``analyze`` reports that the value is a floor
    of, and is None for a gain ceiling; an exact value is a BoundValue
    without the limit flag.  Every floor holds at every ``lam``, the
    fractional limits too, since the LP rate scales with capacity."""
    values = [*theorem1_lower_bounds(lam), *corollary1_gain_bounds(lam)] if a == 3 else []
    values += [*theorem3_lower_bound(lam, a), corollary2_gain_bound(a)]
    rows = zip(_BOUND_LABELS[-len(values):], values)
    return [(*labels, v if isinstance(v, BoundValue) else BoundValue(v)) for labels, v in rows]
