#!/usr/bin/env python3
"""Builds the perfbench driver from the checkout's sources and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload stream-local --seed 1 --seconds 20 --trace 0

The driver is compiled into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use; later runs only re-check the build.
Build output goes to stderr. Stdout carries one provenance line, the
driver's summary lines, and as its last line the result JSON object.
Exits non-zero, without a result, when the library sources are missing or
the build fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("batch-cluster", "stream-local", "stream-bursty")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DRIVER_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out):
    if not (ROOT / "src" / "sim" / "runtime.hpp").is_file():
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench_driver"


def read_text(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance():
    cpu = "unknown"
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    l3 = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(caches.glob("index*")) if caches.is_dir() else []:
        if read_text(idx / "level").strip() == "3":
            l3 = read_text(idx / "size").strip()
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown"
    # The checkout may not be a git repository: a digest of the library
    # sources identifies the code either way.
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "l3": l3,
            "git_sha": git_sha, "src_sha256": h.hexdigest()[:16]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    try:
        driver = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    print("perfbench provenance: " + json.dumps(provenance()), flush=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        rc = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
