#!/usr/bin/env python3
"""Sweep the relay-cycle family and print the exact capacity quantities.

For each terminal count the fractional LP rate, edge strength, gamma
bracket and the rate of the explicit routing scheme land on a/(a-1), while
the integer packing stays at 1 — the gap the closed-form gain bounds
quantify.  The scheme is a Steiner tree packing its builder has already
verified.  Exits 1 if the LP rate, the edge strength or the scheme rate of
some member is not a/(a-1).
"""

import argparse
import sys
from fractions import Fraction

from mcastcap import analyze_instance, example2_instance, example2_routing_scheme


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-terminals", type=int, default=7)
    ap.add_argument("--relays", default="0", help="comma-separated gap slots")
    args = ap.parse_args()
    slots = tuple(int(s) for s in args.relays.split(",")) if args.relays else ()

    print(f"{'a':>3} {'lambda':>6} {'k':>3} {'half':>6} {'LP':>6} {'eta':>6} "
          f"{'bracket':>12} {'scheme':>7}")
    wrong = []
    for a in range(3, args.max_terminals + 1):
        gaps = tuple(s for s in slots if s < a)
        rep = analyze_instance(*example2_instance(a, gaps))
        scheme = example2_routing_scheme(a, gaps)
        bracket = f"[{rep.lp_rate}, {rep.eta}]"
        print(f"{a:>3} {rep.lam:>6} {rep.k_int:>3} {str(rep.half_rate):>6} "
              f"{str(rep.lp_rate):>6} {str(rep.eta):>6} {bracket:>12} "
              f"{str(scheme.rate):>7}")
        if not rep.lp_rate == rep.eta == scheme.rate == Fraction(a, a - 1):
            wrong.append(a)
    if wrong:
        sys.exit(f"LP rate, edge strength or scheme rate is not a/(a-1) for a = {wrong}")


if __name__ == "__main__":
    main()
