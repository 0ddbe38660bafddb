#!/usr/bin/env python3
"""Measures the benchmark's same-code spread and records it.

Runs `perfbench/run.py` once per (seed, workload), seeds in the outer loop
so slow drifts of the host touch every workload alike, and reports for each
end-to-end metric x workload the median, quartiles (statistics.quantiles,
n=4), min, max and the interquartile range as a share of the median, next
to the metric's bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --runs 10 --traced --out perfbench/noise.json
    python3 perfbench/spread.py --runs 5 --workloads stream-local

With --compare OLD.json it also checks every median against an earlier
record of the same code: worse by more than the bound is flagged.

Exits 1 when a spread other than setup_s exceeds its bound, a median is
worse than --compare's by more than its bound, or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    prov = next((json.loads(l.split(": ", 1)[1]) for l in lines
                 if l.startswith("perfbench provenance: ")), {})
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, prov, wall
    res = json.loads(lines[-1])
    res["passes"] = next((l.split(": ", 1)[1] for l in lines
                          if l.startswith("perfbench: ")), "")
    return res, prov, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "iqr_frac": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", help="write the spread record here (JSON)")
    ap.add_argument("--compare", help="an earlier spread record to check "
                                      "the medians against")
    ap.add_argument("--traced", action="store_true",
                    help="also record one traced run (per-layer metrics) "
                         "per workload, at the first seed")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    old = json.loads(Path(args.compare).read_text()) if args.compare else None
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values = {w: {} for w in args.workloads}
    walls = {w: [] for w in args.workloads}
    passes = {w: [] for w in args.workloads}
    prov = {}
    ok = True
    for seed in seeds:
        for w in args.workloads:
            res, prov, wall = run_once(w, seed, args.seconds)
            walls[w].append(round(wall, 1))
            if res is not None:
                passes[w].append(res["passes"])
            if res is None or not res["correct"]:
                print(f"{w} seed {seed}: FAILED", flush=True)
                ok = False
                continue
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {wall:.1f} s wall", flush=True)

    record = {"provenance": prov, "run_seconds": args.seconds,
              "seeds": seeds, "workloads": {}}
    for w in args.workloads:
        print(f"\n{w} (run wall s: {walls[w]})")
        print(f"  {'metric':28} {'median':>14} {'iqr/med':>8} {'bound':>6}")
        rows = {}
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            s = summarize(vals)
            rows[name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["iqr_frac"] > bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and s["iqr_frac"] > bound / 3:
                flag = "  (> bound/3)"
            base = (old or {}).get("workloads", {}).get(w, {}) \
                .get("metrics", {}).get(name)
            if base and bound is not None and base["median"]:
                change = (s["median"] - base["median"]) / base["median"]
                worse = -change if better[name] == "higher" else change
                s["vs_compare"] = change
                if worse > bound:
                    flag += f"  WORSE THAN --compare by {worse:.3f}"
                    ok = False
            print(f"  {name:28} {s['median']:14.6g} {s['iqr_frac']:8.4f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        record["workloads"][w] = {"run_wall_s": walls[w], "passes": passes[w],
                                  "metrics": rows}
        if args.traced:
            res, _, _ = run_once(w, seeds[0], args.seconds, trace=1)
            if res is None or not res["correct"]:
                print(f"{w} traced run: FAILED")
                ok = False
            else:
                record["workloads"][w]["traced_run"] = {
                    k: m["value"] for k, m in res["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
