#!/usr/bin/env python3
"""Build gpumc and the benchmark from source, then run a workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload of BENCHMARK.json one after another.

Both `gpumc` (the CLI, needed by serve-mix) and `gpumc-perfbench` are built
in release mode into $CARGO_TARGET_DIR (default: .bench_build). Cargo's
output goes to stderr; the benchmark's report goes to stdout, whose last
line is the JSON result.
"""

import json
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        (os.path.join(root, "Cargo.toml"), ["-p", "gpumc-cli"]),
        (os.path.join(here, "Cargo.toml"), []),
    ]
    for manifest, extra in builds:
        if not os.path.isfile(manifest):
            print(f"run.py: {manifest} is missing; run from a full checkout", file=sys.stderr)
            return 2
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
        built = subprocess.run(cmd, stdout=sys.stderr, env=env)
        if built.returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return built.returncode
    bench = os.path.join(target, "release", "gpumc-perfbench")
    gpumc = os.path.join(target, "release", "gpumc")
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        at = args.index("--workload") + 1
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
        runs = [args[:at] + [w] + args[at + 1:] for w in workloads]
    for run in runs:
        code = subprocess.run([bench] + run + ["--gpumc", gpumc], env=env).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
