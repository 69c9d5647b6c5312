#!/usr/bin/env python3
"""Count the inputs that ``analyze`` gives up on, family by family.

    python3 scripts/wall_sweep.py [--count N] [--values]

The sparse families are ``sample_instances(N, n, n, |A|, s)`` for (n, |A|)
in (14, 4), (16, 5), (18, 5), (20, 6), (24, 6) and s in 2000, 3000, 3100,
3200, N = 25 by default.  The named walls follow them: the x7 copy of the
second draw of ``sample_instances(5, 10, 10, 4, 0)``, ``random_instance(30,
30, 6, 0)``, and the x2 copies of the 16th draw of ``sample_instances(20,
8, 8, 4, 200)`` and the 9th of ``sample_instances(20, 8, 8, 4, 400)``.

Each input runs ``analyze_instance`` in this process.  A resource limit
(exit 3 from ``mcastcap analyze``) is counted by its error class; any other
error ends the run.  It prints, per family, the count of inputs that
finish and of those that stop at a limit by class, with the slowest of the
latter, then the totals over the sparse families.  With ``--values`` it
also prints one line per input, its values or its error class, so that
two checkouts' runs can be compared line by line.
"""

from __future__ import annotations

import argparse
import time
from collections import Counter

from mcastcap import analyze_instance, random_instance, sample_instances, scale_capacities
from mcastcap.errors import ResourceLimit

SPARSE = [(n, na, s) for n, na in ((14, 4), (16, 5), (18, 5), (20, 6), (24, 6)) for s in (2000, 3000, 3100, 3200)]


def _draw(args, i, factor=1):
    g, a = list(sample_instances(*args))[i]
    return scale_capacities(g, factor), a


def named_walls():
    """(name, instance) pairs of the named walls."""
    yield "x7 copy of sample_instances(5, 10, 10, 4, 0)[1]", _draw((5, 10, 10, 4, 0), 1, 7)
    yield "random_instance(30, 30, 6, 0)", random_instance(30, 30, 6, 0)
    yield "x2 copy of sample_instances(20, 8, 8, 4, 200)[15]", _draw((20, 8, 8, 4, 200), 15, 2)
    yield "x2 copy of sample_instances(20, 8, 8, 4, 400)[8]", _draw((20, 8, 8, 4, 400), 8, 2)


def _run(instance) -> tuple[str | None, str, float]:
    """The error class of the limit ``analyze_instance`` stopped at (None
    when it finished), the outcome as text and the seconds it took."""
    start = time.perf_counter()
    try:
        r = analyze_instance(*instance)
        limit = None
        out = f"exit 0 lambda={r.lam}" if r.short_circuit else (
            f"exit 0 k={r.k_int} half={r.half_rate} LP={r.lp_rate} eta={r.eta} lambda={r.lam}")
    except ResourceLimit as e:
        limit = type(e).__name__
        out = f"exit 3 {limit}"
    return limit, out, time.perf_counter() - start


def _summary(name: str, runs: list[tuple[str, str | None, float]]) -> Counter:
    """Print one family's line from its (label, limit, seconds) runs, and
    return its count of limits by class."""
    limits = Counter(limit for _, limit, _ in runs if limit)
    line = f"{name:<52} exit 0: {len(runs) - sum(limits.values()):>3}  exit 3: {sum(limits.values()):>3}"
    if limits:
        t, label = max((t, label) for label, limit, t in runs if limit)
        line += " (" + ", ".join(f"{c} {k}" for k, c in sorted(limits.items())) + f"; slowest {label}, {t:.2f} s)"
    print(line)
    return limits


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=25, help="draws per sparse family")
    ap.add_argument("--values", action="store_true", help="print each input's outcome")
    args = ap.parse_args()

    limits = Counter()
    for n, na, seed in SPARSE:
        family = f"sample_instances({args.count}, {n}, {n}, {na}, {seed})"
        runs = []
        for i, instance in enumerate(sample_instances(args.count, n, n, na, seed)):
            limit, out, t = _run(instance)
            runs.append((f"draw {i}", limit, t))
            if args.values:
                print(f"  {family} draw {i}: {out}")
        limits += _summary(family, runs)
    for name, instance in named_walls():
        limit, out, t = _run(instance)
        if args.values:
            print(f"  {name}: {out}")
        _summary(name, [(name, limit, t)])
    total = args.count * len(SPARSE)
    stopped = ", ".join(f"{c} {k}" for k, c in sorted(limits.items())) or "none"
    print(f"sparse families: {total - sum(limits.values())} of {total} exit 0; exit 3: {stopped}")


if __name__ == "__main__":
    main()
