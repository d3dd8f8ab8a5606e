#!/usr/bin/env python3
"""Build the seqbench binary from this checkout's sources and run one workload.

    python3 seqbench/run.py --workload flow_guided --seed 1 --seconds 22 --trace 0

The binary is built with CMake (Release) under $CARGO_TARGET_DIR/seqbench,
default .bench_build/seqbench, on first use; later runs rebuild only what
changed. The last line of standard output is the run's result object:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the span
trace is written to <build dir>/traces/<workload>-seed<N>.json.

Exits non-zero, without a result line, when the checkout holds no seqlearn
sources to build, when the build fails, or when the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("flow_guided", "flow_retimed", "learn_industrial", "serve_mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def die(msg):
    print(f"seqbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configure once, then build the seqbench target; output goes to stderr."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(root / "seqbench"), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(build_dir), "--target", "seqbench", "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                die(f"build step failed: {' '.join(cmd)}")
    return build_dir / "seqbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny: a few small circuits, for the self-tests")
    ap.add_argument("--inject", default="none",
                    choices=("none", "tamper_snapshot", "corrupt_reply"),
                    help="deliberate fault proving a check can fail (self-tests only)")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src" / "api").is_dir():
        die(f"no seqlearn sources in {root}; nothing to benchmark")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = target if target.is_absolute() else root / target
    binary = build(root, build_root / "seqbench")

    tmp = build_root / "seqbench" / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--scale", args.scale,
           "--inject", args.inject, "--tmp", str(tmp)]
    if args.trace == "1":
        traces = build_root / "seqbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if done.returncode != 0:
        die(f"{args.workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        die("the seqbench binary printed no result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
