"""Benchmark of ``mcastcap analyze``: one closed-loop client, one request at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cycle,random,fat} --seed N --seconds S --trace {0,1}

Each request is an in-process call of ``mcastcap.cli.main`` on an instance
file, with its output captured, so loading, analysis and JSON output are
timed and interpreter start-up is not.  A run makes whole passes over the
workload's requests.  The number of passes is ``S`` divided by the
workload's pass time on the reference machine, so every commit measures
the same inputs the same number of times.  Every output is checked.
Latencies and set-up times are scaled to the reference machine's speed
with a reference loop timed next to them (see ``corrected_latencies``).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs half of its passes untraced and half with every layer
function wrapped, and reports per-layer metrics per pass.  The last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
WORK = Path(__file__).resolve().parent / ".work"
WORKLOADS = ("cycle", "random", "fat")
# Seconds one untraced pass takes on the reference machine (2-core x86,
# Python 3.11).  They fix the number of passes of a run.
PASS_SECONDS = {"cycle": 1.3, "random": 4.7, "fat": 3.4}
# A run starts no pass that would end after this many times its nominal
# length, so that on a slow machine or commit it still ends in time.
MAX_STRETCH = 1.4
SETUP_REPEATS = 5
# Seconds the reference loop takes on the reference machine.
REFERENCE_LOOP_S = 0.0011
# Reference loops on each side of a request that set its host-speed factor.
REFERENCE_WINDOW = 2
# Requests beyond the tail percentile.
TAIL_SAMPLES = 10


def import_suite():
    """Import the program from this checkout's src/ and the suite built on it."""
    src = ROOT / "src"
    if not (src / "mcastcap" / "__init__.py").is_file():
        raise SystemExit(f"no program found: {src / 'mcastcap'} is missing")
    sys.path.insert(0, str(src))
    import mcastcap

    if Path(mcastcap.__file__).resolve().parent != (src / "mcastcap").resolve():
        raise SystemExit(f"imported mcastcap from {mcastcap.__file__}, not from {src}")
    import suite

    return suite


def analyze_request(argv: list[str]) -> tuple[int | None, str, str]:
    """One request: exit code (None if it raised), stdout, stderr."""
    from mcastcap import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed request, not a failed run
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


class Sample(NamedTuple):
    pass_no: int
    index: int  # position of the request in its pass
    request: object
    latency: float
    reference: float  # seconds of the reference loop run just before the request
    rc: int | None
    out: str
    err: str


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work, independent of the program.

    The host's speed swings by up to 1.6x over minutes.  Timing this loop
    next to every request measures the host's speed at that moment.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    values = []
    total = Fraction(0)
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        values.append(i * 7919 % 1009)
        if i % 50 == 0:
            total += Fraction(i, 7)
    values.sort()
    return time.perf_counter() - start


def corrected_latencies(samples: list[Sample]) -> list[float]:
    """Each latency scaled to the reference machine's speed.

    The host-speed factor of a request is the median of the reference loops
    run within ``REFERENCE_WINDOW`` requests of it, over ``REFERENCE_LOOP_S``.
    """
    refs = [s.reference for s in samples]
    out = []
    for j, s in enumerate(samples):
        local = statistics.median(refs[max(0, j - REFERENCE_WINDOW) : j + REFERENCE_WINDOW + 1])
        out.append(s.latency * REFERENCE_LOOP_S / local)
    return out


def _run_passes(plan: list[tuple], passes: int, deadline: float, tracer=None) -> list[Sample]:
    """Closed loop of ``passes`` passes over ``plan``."""
    samples = []
    last = time.perf_counter()
    for pass_no in range(passes):
        for i, (req, argv) in enumerate(plan):
            if tracer is not None:
                tracer.request = len(samples)
            ref = reference_loop()
            t = time.perf_counter()
            rc, out, err = analyze_request(argv)
            samples.append(Sample(pass_no, i, req, time.perf_counter() - t, ref, rc, out, err))
        now = time.perf_counter()
        if now + (now - last) > deadline:  # the next pass would end past the deadline
            break
        last = now
    return samples


def setup(suite, workload: str, seed: int, directory: Path) -> list[tuple]:
    """Write the instance files and warm up; returns (request, argv) pairs."""
    reqs = suite.requests(workload, seed)
    paths = suite.write_instances(reqs, directory)
    plan = [(r, r.argv(path)) for r, path in zip(reqs, paths)]
    analyze_request(plan[0][1])  # warm-up
    return plan


def _setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _failures(suite, samples: list[Sample], workload: str) -> list[str]:
    """One line per failed request: exit code, value checks, committed digest."""
    digests = suite.load_digests(workload)
    failures = []
    for s in samples:
        where = f"{s.request.name} (pass {s.pass_no})"
        if s.rc != 0:
            failures.append(f"{where}: exit code {s.rc}: {s.err.strip()[-300:]}")
            continue
        problems = suite.check_output(s.request, s.out)
        if digests.get(s.request.name) != suite.digest(s.out):
            problems.append("output differs from the committed digest")
        if problems:
            failures.append(f"{where}: {'; '.join(problems)}")
    return failures


def _latency_metrics(samples: list[Sample], latencies: list[float], failed: int) -> tuple[float, float, float, float]:
    """Throughput, p50, tail and tail percentile from per-sample latencies."""
    per_request: dict[int, list[float]] = {}
    for s, latency in zip(samples, latencies):
        per_request.setdefault(s.index, []).append(latency)
    ordered = sorted(latencies)
    n = len(ordered)
    if n > TAIL_SAMPLES:
        tail, pct = ordered[n - TAIL_SAMPLES - 1], 100 * (n - TAIL_SAMPLES) / n
    else:
        tail, pct = ordered[-1], 100.0
    p50 = statistics.median(statistics.median(v) for v in per_request.values())
    return (n - failed) / sum(latencies), p50, tail, pct


def _end_to_end(samples: list[Sample], failed: int, setups: list[float]) -> tuple[dict, list[str]]:
    n = len(samples)
    tput, p50, tail, pct = _latency_metrics(samples, corrected_latencies(samples), failed)
    raw_tput, raw_p50, raw_tail, _ = _latency_metrics(samples, [s.latency for s in samples], failed)
    metrics = {
        "throughput_per_s": (tput, "1/s"),
        "analyze_p50_s": (p50, "s"),
        "analyze_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    host = statistics.median(s.reference for s in samples) / REFERENCE_LOOP_S
    notes = [
        f"analyze_tail_s is the p{pct:.2f} latency of {n} requests ({TAIL_SAMPLES} beyond it)",
        f"host ran {host:.3f}x the reference loop time; uncorrected: throughput_per_s {raw_tput:.6g}, "
        f"analyze_p50_s {raw_p50:.6g}, analyze_tail_s {raw_tail:.6g}",
    ]
    return metrics, notes


def _per_layer(tracer, inputs: dict, expected: set[str], passes: int, overhead: float):
    """Per-pass layer metrics, and the expected spans that recorded no call."""
    from tracer import LAYERS, SPANS

    totals = tracer.totals()
    metrics = {}
    for label in SPANS:
        t = totals[label]
        metrics[f"{label}.calls"] = (t["calls"] / passes, "count")
        metrics[f"{label}.self_s"] = (t["self_s"] / passes, "s")
        metrics[f"{label}.total_s"] = (t["total_s"] / passes, "s")
    all_self = sum(t["self_s"] for t in totals.values()) or 1.0
    for module in LAYERS:
        share = sum(totals[f"{module}.{name}"]["self_s"] for name in LAYERS[module]) / all_self
        metrics[f"{module}.self_share"] = (share, "ratio")
    solves = totals["packing.max_integer_packing"]["calls"] + totals["packing.fractional_capacity_lp"]["calls"]
    metrics["packing.solves"] = (solves / passes, "count")
    adm = totals["splitting.is_admissible"]
    metrics["splitting.is_admissible.accept_ratio"] = (adm["true"] / adm["calls"] if adm["calls"] else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    missing = [label for label in SPANS if totals[label]["calls"] == 0 and label in expected]
    metrics["trace.missing_spans"] = (len(missing), "count")
    for name, value in inputs.items():
        metrics[name] = (value, "count")
    return metrics, missing


def _expected_spans(reqs) -> set[str]:
    """Spans the seed program calls on these requests."""
    from tracer import SPANS

    splitting = any(r.via_splitting for r in reqs)
    return {s for s in SPANS if splitting or not s.startswith("splitting.")}


def _traced_run(suite, args, plan, passes: int, deadline: float):
    """Half the passes untraced, then as many traced.  The tracer is imported
    here so that untraced runs do not pay for its imports in set-up."""
    from tracer import Tracer

    reqs = [req for req, _ in plan]
    inputs = suite.input_properties(reqs)
    half = max(1, passes // 2)
    plain = _run_passes(plan, half, deadline)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_passes(plan, half, deadline, tracer)
    finally:
        tracer.uninstall()
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
    overhead = sum(corrected_latencies(plain)) / sum(corrected_latencies(traced))
    metrics, missing = _per_layer(tracer, inputs, _expected_spans(reqs), traced[-1].pass_no + 1, overhead)
    return plain + traced, metrics, [f"missing span: {m}" for m in missing]


def main(argv=None, started: float | None = None) -> int:
    started = time.perf_counter() if started is None else started
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    suite = import_suite()
    directory = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        plan = setup(suite, args.workload, args.seed, directory)
        setup_s = time.perf_counter() - started
        setup_s *= REFERENCE_LOOP_S / statistics.median(reference_loop() for _ in range(2 * REFERENCE_WINDOW + 1))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
        deadline = time.perf_counter() + MAX_STRETCH * max(args.seconds, 1.0)
        if args.trace:
            samples, metrics, notes = _traced_run(suite, args, plan, passes, deadline)
            failures = _failures(suite, samples, args.workload)
        else:
            samples = _run_passes(plan, passes, deadline)
            failures = _failures(suite, samples, args.workload)
            setups = [setup_s] + [_setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
            metrics, notes = _end_to_end(samples, len(failures), setups)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    for line in notes + [f"failed: {f}" for f in failures]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(samples),
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], STARTED))
