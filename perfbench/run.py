#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The benchmark package
is built in release mode into `$CARGO_TARGET_DIR` (default
`perfbench/target`); build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. Per-run state
(the exact-count records and, with `--trace 1`, the span files) is kept
under `<target>/perfbench-state`. Any further arguments are passed to
the benchmark binary unchanged (see `README.md`).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0")
    args, extra = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: the repository's crates are not beside the benchmark; "
              "run from a full checkout", file=sys.stderr)
        return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    state = os.path.join(target, "perfbench-state")
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--state-dir", state]
    if args.trace != "0":
        cmd += ["--spans", os.path.join(state, f"spans-{args.workload}-{args.seed}.jsonl")]
    return subprocess.run(cmd + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
