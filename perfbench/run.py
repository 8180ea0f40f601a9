#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload job-plain --seed 13 --seconds 20 --trace 0

Builds `perfbench/` in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the binary with the given arguments. `REOPT_*`
variables are removed from the child's environment. Spill files, the cached
reference results and the span file of a traced run go under
`<target dir>/perfbench/`. The binary's standard output is passed through, so
its last line is the JSON result. Exits with the build's or the run's exit code.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REOPT_")}
    env["CARGO_TARGET_DIR"] = target

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    out_dir = os.path.join(target, "perfbench")
    env["REOPT_SPILL_DIR"] = os.path.join(out_dir, "spill")
    command = [os.path.join(target, "release", "reopt-perfbench")]
    command += sys.argv[1:] + ["--out-dir", out_dir]
    try:
        return subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded {} s".format(RUN_TIMEOUT_S), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
