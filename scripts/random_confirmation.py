#!/usr/bin/env python3
"""Confirm the closed-form lower bounds on a stream of random instances.

Draws seeded random multigraphs and analyses each with ``analyze_instance``,
which checks the exact integer, half-integer and fractional packing rates
in order and against every floor of the bound table for its terminal
connectivity, raising ``CertificateError`` at the first that fails.
Prints a summary histogram of the observed LP-to-floor slack.
"""

import argparse
from collections import Counter

from mcastcap import analyze_instance, sample_instances, theorem3_lower_bound


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--vertices", type=int, default=8)
    ap.add_argument("--extra-edges", type=int, default=6)
    ap.add_argument("--terminals", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    slack = Counter()
    for g, a in sample_instances(
        args.count, args.vertices, args.extra_edges, args.terminals, seed=args.seed
    ):
        r = analyze_instance(g, a)
        floor_half, _ = theorem3_lower_bound(r.lam, r.num_terminals)
        slack[r.lp_rate - floor_half] += 1

    print(f"checked {args.count} instances "
          f"(|V|<={args.vertices}, |A|={args.terminals}): every rate in order and above its floors")
    print("LP slack over the half-integer floor:")
    for s in sorted(slack):
        print(f"  {str(s):>6}: {'#' * slack[s]}")


if __name__ == "__main__":
    main()
