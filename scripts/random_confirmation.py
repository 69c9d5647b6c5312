#!/usr/bin/env python3
"""Confirm the closed-form lower bounds on a stream of random instances.

Draws seeded random multigraphs, computes the exact integer, half-integer,
and fractional packing rates, and checks each against the guaranteed floors
for its terminal connectivity.  Prints a summary histogram of the observed
LP-to-floor slack.
"""

import argparse
from collections import Counter
from fractions import Fraction

from mcastcap import (
    fractional_capacity_lp,
    half_integer_capacity,
    max_integer_packing,
    sample_instances,
    solve_tree_lp,
    terminal_connectivity,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--vertices", type=int, default=8)
    ap.add_argument("--extra-edges", type=int, default=6)
    ap.add_argument("--terminals", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    slack = Counter()
    violations = 0
    for g, a in sample_instances(
        args.count, args.vertices, args.extra_edges, args.terminals, seed=args.seed
    ):
        lam = terminal_connectivity(g, a)
        na = len(a.members)
        tree_lp = solve_tree_lp(g, a)
        k, _ = max_integer_packing(g, a, lp=tree_lp)
        half, _ = half_integer_capacity(g, a, lp=tree_lp)
        lp, _ = fractional_capacity_lp(g, a, lp=tree_lp)
        floor_half = Fraction((2 * na * lam - na + 2) // (2 * (na - 1)), 2)
        if not (Fraction(k) <= half <= lp and half >= floor_half):
            violations += 1
            print(f"VIOLATION: lambda={lam} k={k} half={half} lp={lp}")
        slack[lp - floor_half] += 1

    print(f"checked {args.count} instances "
          f"(|V|<={args.vertices}, |A|={args.terminals}): {violations} violations")
    print("LP slack over the half-integer floor:")
    for s in sorted(slack):
        print(f"  {str(s):>6}: {'#' * slack[s]}")


if __name__ == "__main__":
    main()
