#!/usr/bin/env python3
"""Collect sets of seqbench runs and compare them.

    # run every workload for seeds 1..10, saving each run's output
    python3 seqbench/compare.py collect OUT_DIR [--seeds 1-10] [--trace 0|1]
                                        [--workloads flow_guided,serve_mixed]
    # spread of one set: median, quartiles and (q3 - q1) / median per metric
    python3 seqbench/compare.py spread OUT_DIR
    # diff two sets, baseline first, for every (workload, metric) pair
    python3 seqbench/compare.py compare BASE_DIR CHANGE_DIR

Each run's output is saved as <workload>-seed<N>-trace<T>.out; compare
reads the {"report": ...} line, which holds every metric the run measured.

Verdicts (end-to-end metrics carry the bound from BENCHMARK.json):
  unresolved  a set's spread exceeds the bound, and not every run of the
              change reads better than every run of the baseline
  worse       the change's median is worse by more than the bound
  better      the change wins at least 9 in 10 seed-paired runs and the
              medians differ by more than the baseline's own spread
  same        none of the above
Per-layer metrics have no bound; they get "exact" when every seed-paired
value is identical (the deterministic counters), else the same rules with
the spread test only.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec = load_spec()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            path = out / f"{w}-seed{seed}-trace{args.trace}.out"
            path.write_text(done.stdout)
            status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
            print(f"{w} seed {seed}: {status} -> {path}", flush=True)


def read_set(directory):
    """{(workload, metric): {seed: (value, unit)}} from every saved run."""
    runs = {}
    for path in sorted(Path(directory).glob("*.out")):
        for line in path.read_text().splitlines():
            if not line.startswith('{"report"'):
                continue
            rep = json.loads(line)["report"]
            for table in ("end_to_end", "per_layer"):
                for name, m in rep[table].items():
                    key = (rep["workload"], name)
                    runs.setdefault(key, {})[rep["seed"]] = (m["value"], m["unit"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def bounds_and_directions():
    spec = load_spec()
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return bound, better


def spread(args):
    bound, _ = bounds_and_directions()
    runs = read_set(args.dir)
    print(f"{'workload':18s} {'metric':28s} {'n':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    worst = {}
    for (w, name), by_seed in sorted(runs.items()):
        if args.end_to_end and name not in bound:
            continue
        values = [v for v, _ in by_seed.values()]
        q1, q2, q3 = quartiles(values)
        s = rel_spread(values)
        b = bound.get(name)
        flag = ""
        if b is not None and s > b / 3:
            flag = "  > bound/3"
        print(f"{w:18s} {name:28s} {len(values):3d} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{s:8.4f} {b if b is not None else '-':>6}{flag}")
        if b is not None:
            worst[name] = max(worst.get(name, 0.0), s)
    if worst:
        print("largest end-to-end spread per metric: " +
              ", ".join(f"{k} {v:.4f}" for k, v in sorted(worst.items())))


def verdict(name, base, change, bound, better):
    """base/change: {seed: value}. Returns the verdict string."""
    seeds = sorted(set(base) & set(change))
    if seeds and all(base[s] == change[s] for s in seeds):
        return "exact"
    b_vals, c_vals = list(base.values()), list(change.values())
    b_med, c_med = statistics.median(b_vals), statistics.median(c_vals)
    sign = 1.0 if better == "lower" else -1.0  # positive = change is worse

    def worse_by(c, b):
        return sign * (c - b) / abs(b) if b else 0.0

    all_better = all(worse_by(c, b) < 0 for c in c_vals for b in b_vals)
    limit = bound if bound is not None else float("inf")
    if (rel_spread(b_vals) > limit or rel_spread(c_vals) > limit) and not all_better:
        return "unresolved"
    if bound is not None and worse_by(c_med, b_med) > bound:
        return "worse"
    wins = sum(1 for s in seeds if worse_by(change[s], base[s]) < 0)
    if seeds and wins >= 0.9 * len(seeds) and -worse_by(c_med, b_med) > rel_spread(b_vals):
        return "better"
    return "same"


def compare(args):
    bound, better = bounds_and_directions()
    base, change = read_set(args.base), read_set(args.change)
    print(f"{'workload':18s} {'metric':28s} {'base median':>12s} {'[q1, q3]':>25s} "
          f"{'change median':>13s} {'[q1, q3]':>25s} {'delta':>8s} {'bound':>6s}  verdict")
    for key in sorted(set(base) & set(change)):
        w, name = key
        b_vals = [v for v, _ in base[key].values()]
        c_vals = [v for v, _ in change[key].values()]
        bq1, bq2, bq3 = quartiles(b_vals)
        cq1, cq2, cq3 = quartiles(c_vals)
        delta = (cq2 - bq2) / abs(bq2) if bq2 else 0.0
        v = verdict(name, {s: x for s, (x, _) in base[key].items()},
                    {s: x for s, (x, _) in change[key].items()}, bound.get(name),
                    better.get(name, "lower"))
        b = bound.get(name)
        print(f"{w:18s} {name:28s} {bq2:12.6g} [{bq1:11.6g}, {bq3:11.6g}] {cq2:13.6g} "
              f"[{cq1:11.6g}, {cq3:11.6g}] {delta:+8.2%} {b if b is not None else '-':>6}  {v}")


def main():
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet exit when piped into head
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", default="0", choices=("0", "1"))
    c.add_argument("--workloads", default="")
    s = sub.add_parser("spread")
    s.add_argument("dir")
    s.add_argument("--end-to-end", action="store_true", help="end-to-end metrics only")
    d = sub.add_parser("compare")
    d.add_argument("base")
    d.add_argument("change")
    args = ap.parse_args()
    {"collect": collect, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
