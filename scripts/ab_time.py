#!/usr/bin/env python3
"""Time two checkouts against each other on one workload.

    python3 scripts/ab_time.py PARENT CHANGE --workload {cycle,random,fat,strength} [--rounds N] [--passes P] [--seed S]

PARENT and CHANGE are the roots of two checkouts.  Each gets one child
process for the whole run, which imports the program from the checkout's
``src/`` and the workload's requests, writes the instance files to a
temporary directory and makes one warm-up pass.  Then each round times P
whole passes in each child, in-process, every request a call of
``mcastcap.cli.main``.  The child that goes first alternates from round to
round, so a drift of the host's speed falls on both sides alike.

``cycle``, ``random`` and ``fat`` are the perfbench workloads: their
requests come from the checkout's ``perfbench/suite.py`` and are made as
perfbench makes them, and every output is checked against the checkout's
committed digest, after the timer stops.  ``strength`` is the
edge-strength search, which no perfbench workload runs: one ``mcastcap
strength`` request on each of five inputs (``strength_plan``), whose
outputs have no committed digest and are checked between the two sides
instead.  It does not depend on ``--seed``.

It prints, per side, the median and quartiles of the time of one pass, the
ratio of the medians and the number of rounds the change was faster in.
It exits 1 if any request fails or any output differs from its digest or,
for ``strength``, from the other side's.  A perfbench run makes few passes
of each workload, so this is the finer measure of a change.

Nothing is written under either checkout: the children write no bytecode,
and the instance files go to a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("cycle", "random", "fat", "strength")


def strength_plan(directory: Path) -> list[tuple[str, list[str]]]:
    """The ``strength`` workload as (name, argv) pairs, its instance files
    written to ``directory``: a 16-vertex random core at |A| = 4 and at
    |A| = 3, the 10-terminal cycle with relays in gaps 0 and 2, 10
    terminals joined only through one relay, and the 3-terminal cycle with
    20 relays in one gap."""
    from mcastcap import Multigraph, TerminalSet, example2_instance, random_instance
    from mcastcap.multigraph import dump_instance

    hub = [f"t{i:02d}" for i in range(10)]
    inputs = {
        "random_16_12_4": random_instance(16, 12, 4, 0),
        "random_16_10_3": random_instance(16, 10, 3, 0),
        "cycle_10_relays_0_2": example2_instance(10, (0, 2)),
        "hub_star_10": (Multigraph.build([*hub, "hub"], [(t, "hub", 1) for t in hub]),
                        TerminalSet(hub[0], tuple(hub[1:]))),
        "cycle_3_chain_20": example2_instance(3, (0,) * 20),
    }
    plan = []
    for name, (g, a) in inputs.items():
        path = directory / f"{name}.json"
        path.write_text(dump_instance(g, a), encoding="utf-8")
        plan.append((name, ["strength", str(path)]))
    return plan


def child(root: Path, workload: str, seed: int) -> None:
    """Serve timed passes: read a pass count per line, answer with one JSON line."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import mcastcap
    from mcastcap import cli

    if Path(mcastcap.__file__).resolve().parent != (root / "src" / "mcastcap").resolve():
        raise SystemExit(f"imported mcastcap from {mcastcap.__file__}, not from {root / 'src'}")
    with tempfile.TemporaryDirectory() as tmp:
        if workload == "strength":
            plan, digests = strength_plan(Path(tmp)), None
        else:
            import suite

            reqs = suite.requests(workload, seed)
            plan = [(r.name, r.argv(path)) for r, path in zip(reqs, suite.write_instances(reqs, Path(tmp)))]
            digests = suite.load_digests(workload)
        for line in sys.stdin:
            passes, outputs = int(line), []
            per_request = {name: 0.0 for name, _ in plan}
            start = time.perf_counter()
            for _ in range(passes):
                for name, argv in plan:
                    out, err = io.StringIO(), io.StringIO()
                    t = time.perf_counter()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = cli.main(argv)
                    per_request[name] += time.perf_counter() - t
                    outputs.append((name, rc, out.getvalue()))
            seconds = time.perf_counter() - start
            seen = {(name, hashlib.sha256(out.encode("utf-8")).hexdigest()) for name, rc, out in outputs}
            bad = {name for name, rc, _ in outputs if rc != 0}
            if digests is not None:
                bad.update(name for name, d in seen if digests.get(name) != d)
            print(json.dumps({"seconds": seconds / passes, "requests": len(plan), "bad": sorted(bad),
                              "outputs": sorted(seen),
                              "per_request": {name: t / passes for name, t in per_request.items()}}),
                  flush=True)


class Side:
    """One checkout's child process."""

    def __init__(self, label: str, root: Path, workload: str, seed: int):
        self.label = label
        cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--child", str(root), workload, str(seed)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        self.request_times: dict[str, list[float]] = {}
        self.bad: set[str] = set()
        self.outputs: set[tuple[str, str]] = set()  # (request, digest of its stdout)
        self.requests = 0

    def run(self, passes: int) -> dict:
        """The child's answer to ``passes`` timed passes: seconds per pass,
        and per request in ``per_request``."""
        self.proc.stdin.write(f"{passes}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"{self.label}: the child process ended (exit code {self.proc.wait()})")
        result = json.loads(line)
        self.bad.update(result["bad"])
        self.outputs.update(map(tuple, result["outputs"]))
        self.requests = result["requests"]
        return result

    def record(self, passes: int) -> None:
        result = self.run(passes)
        self.times.append(result["seconds"])
        for name, t in result["per_request"].items():
            self.request_times.setdefault(name, []).append(t)

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
                side.record(args.passes)
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
    if args.workload == "strength":  # one search per request: each is its own measure
        for name, before in parent.request_times.items():
            after = change.request_times[name]
            mb, ma = statistics.median(before), statistics.median(after)
            print(f"{name:<20} parent {1000 * mb:9.3f} ms  change {1000 * ma:9.3f} ms  ratio {ma / mb:.3f}  "
                  f"change faster in {sum(c < b for b, c in zip(before, after))} of {args.rounds}")
            print("    rounds (parent/change ms): "
                  + " ".join(f"{1000 * b:.3f}/{1000 * c:.3f}" for b, c in zip(before, after)))
    for side in sides:
        if side.bad:
            print(f"{side.label}: requests failed or outputs differ from the committed digests: "
                  f"{', '.join(sorted(side.bad))}")
    differ = sorted({name for name, _ in parent.outputs ^ change.outputs}) if args.workload == "strength" else []
    if differ:
        print(f"outputs differ between parent and change: {', '.join(differ)}")
    return 1 if differ or any(side.bad for side in sides) else 0


if __name__ == "__main__":
    sys.exit(main())
