"""Record the digest of every structured ``analyze`` output of the benchmark.

Run from the root of a checkout, only when an output is meant to change:

    python3 perfbench/record_digests.py

The outputs do not depend on the seed, which only renames vertices.  A run
of the benchmark counts every output whose digest differs from the recorded
one as a failed request.
"""

from __future__ import annotations

import json
import shutil
import time

import run


def main() -> int:
    suite = run.import_suite()
    recorded = {}
    for workload in run.WORKLOADS:
        directory = run.WORK / f"digests-{time.time_ns()}"
        try:
            plan = run.setup(suite, workload, suite.DEFAULT_SEED, directory)
            recorded[workload] = {}
            for req, argv in plan:
                rc, out, err = run.analyze_request(argv)
                problems = suite.check_output(req, out) if rc == 0 else [f"exit code {rc}: {err}"]
                if problems:
                    raise SystemExit(f"{req.name}: {'; '.join(problems)}")
                recorded[workload][req.name] = suite.digest(out)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    suite.DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, recorded.values()))} digests to {suite.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
