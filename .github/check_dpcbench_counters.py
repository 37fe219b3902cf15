#!/usr/bin/env python3
"""Check dpcbench's deterministic counters against committed values.

Usage, from the repository root:

    python3 .github/check_dpcbench_counters.py [.github/dpcbench-counters.json]

For every workload in the file, runs `dpcbench/run.py` once traced
(`--trace 1`, the per-layer counters) and once untraced (`--trace 0`, the
end-to-end figures) at the file's seed and seconds. Each run's JSON
summary must report `correct` and no failed operation, and every listed
metric must equal its committed value: exactly, except `query_sim_ms`
(a sum of floats), which may differ by a relative 1e-9. Timings depend
on the machine and are never compared. Exits 1 on any mismatch.

A change that moves a counter on purpose updates the file in the same
commit, with the reason in its description.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, os.pardir, "dpcbench", "run.py")
REL_TOL = {"query_sim_ms": 1e-9}
TRACE = {"traced": "1", "untraced": "0"}


def summary(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", trace],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def mismatches(expected, got):
    for name, want in expected.items():
        metric = got["metrics"].get(name)
        if metric is None:
            yield f"{name}: missing from the summary"
            continue
        have = metric["value"]
        tol = REL_TOL.get(name, 0.0)
        if abs(have - want) > tol * abs(want):
            yield f"{name}: expected {want}, got {have}"


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, "dpcbench-counters.json")
    with open(path) as f:
        spec = json.load(f)
    failures = 0
    for workload, runs in spec["workloads"].items():
        for kind, expected in runs.items():
            label = f"{workload} {kind}"
            got = summary(workload, spec["seed"], spec["seconds"], TRACE[kind])
            if got is None:
                print(f"FAIL {label}: dpcbench exited without a summary")
                failures += 1
                continue
            errors = []
            if got["correct"] is not True or got["failed"] != 0:
                errors.append(f"correct={got['correct']}, failed={got['failed']}")
            errors.extend(mismatches(expected, got))
            for e in errors:
                print(f"FAIL {label}: {e}")
            if not errors:
                print(f"ok   {label}: {len(expected)} metrics match")
            failures += len(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
