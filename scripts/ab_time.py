#!/usr/bin/env python3
"""Time two checkouts against each other on one perfbench workload.

    python3 scripts/ab_time.py PARENT CHANGE --workload {cycle,random,fat} [--rounds N] [--passes P] [--seed S]

PARENT and CHANGE are the roots of two checkouts.  Each gets one child
process for the whole run, which imports the program from the checkout's
``src/`` and the workload's requests from its ``perfbench/suite.py``, writes
the instance files to a temporary directory and makes one warm-up pass.
Then each round times P whole passes in each child, in-process, every
request a call of ``mcastcap.cli.main`` as perfbench makes it.  The child
that goes first alternates from round to round, so a drift of the host's
speed falls on both sides alike.  Every output is checked against the
checkout's committed digest, after the timer stops.

It prints, per side, the median and quartiles of the time of one pass, the
ratio of the medians and the number of rounds the change was faster in.
It exits 1 if any output differs from its digest.  A perfbench run makes
few passes of each workload, so this is the finer measure of a change.

Nothing is written under either checkout: the children write no bytecode,
and the instance files go to a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("cycle", "random", "fat")


def child(root: Path, workload: str, seed: int) -> None:
    """Serve timed passes: read a pass count per line, answer with one JSON line."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import mcastcap
    import suite
    from mcastcap import cli

    if Path(mcastcap.__file__).resolve().parent != (root / "src" / "mcastcap").resolve():
        raise SystemExit(f"imported mcastcap from {mcastcap.__file__}, not from {root / 'src'}")
    reqs = suite.requests(workload, seed)
    digests = suite.load_digests(workload)
    with tempfile.TemporaryDirectory() as tmp:
        plan = [(r, r.argv(path)) for r, path in zip(reqs, suite.write_instances(reqs, Path(tmp)))]
        for line in sys.stdin:
            outputs = []
            start = time.perf_counter()
            for _ in range(int(line)):
                for r, argv in plan:
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = cli.main(argv)
                    outputs.append((r.name, rc, out.getvalue()))
            seconds = time.perf_counter() - start
            bad = sorted({name for name, rc, out in outputs if rc != 0 or digests.get(name) != suite.digest(out)})
            print(json.dumps({"seconds": seconds, "requests": len(plan), "bad": bad}), flush=True)


class Side:
    """One checkout's child process."""

    def __init__(self, label: str, root: Path, workload: str, seed: int):
        self.label = label
        cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--child", str(root), workload, str(seed)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        self.bad: set[str] = set()
        self.requests = 0

    def run(self, passes: int) -> float:
        """Seconds per pass of ``passes`` timed passes."""
        self.proc.stdin.write(f"{passes}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"{self.label}: the child process ended (exit code {self.proc.wait()})")
        result = json.loads(line)
        self.bad.update(result["bad"])
        self.requests = result["requests"]
        return result["seconds"] / passes

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def summary(label: str, times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return f"{label:<7} median {1000 * q2:9.3f} ms/pass   quartiles {1000 * q1:.3f} - {1000 * q3:.3f}"


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        root, workload, seed = sys.argv[2:]
        child(Path(root).resolve(), workload, int(seed))
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--passes", type=int, default=5, help="timed passes per side and round")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    if args.rounds < 2:
        p.error("--rounds must be at least 2")

    sides = [Side("parent", args.parent.resolve(), args.workload, args.seed),
             Side("change", args.change.resolve(), args.workload, args.seed)]
    try:
        for side in sides:
            side.run(1)  # warm-up
        for i in range(args.rounds):
            for side in sides if i % 2 == 0 else sides[::-1]:
                side.times.append(side.run(args.passes))
    finally:
        for side in sides:
            side.close()

    parent, change = sides
    wins = sum(c < b for b, c in zip(parent.times, change.times))
    print(f"workload {args.workload}: {args.rounds} rounds of {args.passes} passes per side, "
          f"{parent.requests} requests per pass")
    for side in sides:
        print(summary(side.label, side.times))
    ratio = statistics.median(change.times) / statistics.median(parent.times)
    print(f"ratio of medians (change / parent) {ratio:.3f}; change faster in {wins} of {args.rounds} rounds")
    for side in sides:
        if side.bad:
            print(f"{side.label}: outputs differ from the committed digests: {', '.join(sorted(side.bad))}")
    return 1 if any(side.bad for side in sides) else 0


if __name__ == "__main__":
    sys.exit(main())
