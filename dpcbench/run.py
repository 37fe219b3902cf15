#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 dpcbench/run.py --workload fwd-advanced --seed 1 --seconds 12 --trace 0

Builds `dpcbench` with cargo (release, offline) into $CARGO_TARGET_DIR,
by default `.bench_build`, then runs it with the same arguments. The
benchmark's output passes through unchanged; its last line is the JSON
summary. Exits non-zero, with nothing on stdout, when the build or the
run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description="Build and run one dpcbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build_cmd = ["cargo", "build", "--release", "--offline", "--quiet",
                 "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        build = subprocess.run(build_cmd, stdout=sys.stderr, env=env)
    except OSError as e:
        print(f"dpcbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("dpcbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "dpcbench")
    run = subprocess.run([exe, "--workload", args.workload, "--seed", args.seed,
                          "--seconds", args.seconds, "--trace", args.trace], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
