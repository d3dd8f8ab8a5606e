#!/usr/bin/env python3
"""Self-tests for the seqbench benchmark, at tiny sizes (under a minute).

    python3 seqbench/selftest.py

Checks that:
  * BENCHMARK.json is well formed and names exactly the metrics, with the
    units, that the seqbench binary reports;
  * every workload emits every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1), nonzero end-to-end values, a clean run
    (correct, no failures), and the run record (seed, nproc, build type);
  * the traced run writes its spans and reports per-layer self time and
    the tracing overhead;
  * the output checks can fail: a tampered snapshot and a corrupted daemon
    reply are each counted as a failed operation;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    run.py exits non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, trace, inject="none", cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny", "--inject", inject]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=cwd, timeout=600)
    lines = done.stdout.strip().splitlines()
    report = next((json.loads(l)["report"] for l in lines if l.startswith('{"report"')), None)
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done, report, result


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has exactly the required keys")
    check(2 <= len(spec["workloads"]) <= 8 and 1 <= spec["run_seconds"] <= 60,
          "workload count and run_seconds within limits")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
          "every name is valid and used once")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"]),
          "workloads have a name and a short why")
    check(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              for m in spec["end_to_end"]), "end-to-end metrics carry a bound <= 0.25")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in spec["end_to_end"]), "setup_s is an end-to-end metric")
    check(all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
          "per-layer metrics have a name, unit and direction")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
              for m in spec["end_to_end"] + spec["per_layer"]), "units and directions valid")
    check(len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024, "BENCHMARK.json <= 64 KiB")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = target if target.is_absolute() else ROOT / target

    for w in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, e2e), (1, layer)):
            done, report, result = run(w, trace)
            tag = f"{w} --trace {trace}"
            check(done.returncode == 0 and result is not None, f"{tag}: runs and prints a result")
            if result is None:
                print(done.stderr[-2000:])
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{tag}: emits exactly the listed metrics with their units")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{tag}: correct, attempted >= 1, failed 0")
            check(report is not None and report["seed"] == 7 and report["nproc"] >= 1 and
                  report["build_type"] == "Release", f"{tag}: records seed, nproc, build type")
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{tag}: every end-to-end value is nonzero")
            else:
                m = result["metrics"]
                check(m["bench.self_s"]["value"] > 0 and
                      sum(v["value"] for k, v in m.items() if k.endswith(".self_s")) > 0,
                      f"{tag}: per-layer self time reported")
                spans = json.loads((build_root / "seqbench" / "traces" /
                                    f"{w}-seed7.json").read_text())["spans"]
                check(len(spans) > 0 and all(
                    {"name", "op", "parent", "start_ns", "end_ns"} <= set(s) and
                    s["end_ns"] >= s["start_ns"] for s in spans), f"{tag}: spans written")

    done, _, result = run("learn_industrial", 0, inject="tamper_snapshot")
    check(result is not None and result["failed"] >= 1 and not result["correct"],
          "a tampered snapshot is counted as a failed operation")
    done, _, result = run("serve_mixed", 0, inject="corrupt_reply")
    check(result is not None and result["failed"] >= 1 and not result["correct"],
          "a corrupted daemon reply is counted as a failed operation")

    bare = build_root / "seqbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "seqbench")
    done, _, _ = run("flow_guided", 0, cwd=bare, script=bare / "seqbench" / "run.py")
    check(done.returncode != 0 and not done.stdout.strip(),
          "without the program's sources run.py exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
