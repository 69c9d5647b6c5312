"""Smoke check of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/smoke.py

It runs every workload at minimal length, untraced and traced, and checks
that the last line of each run is a correct result with exactly the
metrics, and units, that BENCHMARK.json declares.  It then corrupts the
output of one request and checks that the failure is counted, and runs the
benchmark without the program next to it and checks that it fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import time

import run

ARGS = ["--seed", "0", "--seconds", "1"]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + ["--workload", workload, *ARGS, "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            if done.returncode != 0:
                raise AssertionError(f"{workload} trace={trace}: exit code {done.returncode}\n{done.stderr}")
            result = _result(done.stdout)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                raise AssertionError(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{workload} trace={trace}: run not correct\n{done.stdout}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            if got != want:
                raise AssertionError(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
            print(f"ok: {workload} trace={trace}: {len(got)} metrics")


def check_corruption_counted() -> None:
    run.import_suite()
    from mcastcap import cli

    original = cli.main

    def corrupting_main(argv):
        """Answer every request on cycle-a6 with a wrong fractional rate."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = original(argv)
        report = json.loads(out.getvalue())
        if "cycle-a6" in argv[1]:
            report["fractional_rate"] = "7/5"
        print(json.dumps(report, indent=2))
        return rc

    cli.main = corrupting_main
    try:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            run.main(["--workload", "cycle", *ARGS, "--trace", "0"])
    finally:
        cli.main = original
    result = _result(stdout.getvalue())
    ok_ratio = result["metrics"]["ok_ratio"]["value"]
    if result["correct"] or result["failed"] != 1 or ok_ratio != 1 - 1 / result["attempted"]:
        raise AssertionError(f"corrupted output not counted: {result}")
    print(f"ok: corrupted output counted, ok_ratio {ok_ratio}")


def check_fails_without_program(spec: dict) -> None:
    bare = run.WORK / f"bare-{time.time_ns()}"
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        cmd = spec["command"] + ["--workload", "cycle", *ARGS, "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError(f"run without the program: exit code {done.returncode}, output {done.stdout!r}")
    print(f"ok: without the program the run exits {done.returncode}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_corruption_counted()
    check_fails_without_program(spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
