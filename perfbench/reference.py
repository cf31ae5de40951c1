#!/usr/bin/env python3
"""Reference figures: every workload on ten seeds, one process per run.

    python3 perfbench/reference.py

Runs `perfbench/run.py` as BENCHMARK.json's command does, one run at a time,
for every workload of BENCHMARK.json with seeds 0-9, and prints for each
end-to-end metric the median, the quartiles and the spread (quartile
distance over the median) next to the metric's bound. Then it makes one
traced run per workload (seed 0) and prints its per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), elapsed, json.loads(lines[-2])["machine"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(SEEDS):
            result, elapsed, machine = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "elapsed_s": elapsed, **result})
            print(f"{workload} seed {seed}: {elapsed:.1f} s, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {SEEDS} seeds, failed share {sorted(shares)}, "
              f"run length {min(r['elapsed_s'] for r in runs):.0f}-"
              f"{max(r['elapsed_s'] for r in runs):.0f} s")
        print("| metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            unit = runs[0]["metrics"][name]["unit"]
            print(f"| {name} ({unit}) | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {bound} |")
        result, elapsed, _ = run_once(workload, 0, spec["run_seconds"], 1)
        print(f"\ntraced run, seed 0 ({elapsed:.0f} s):")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(flush=True)
    print(json.dumps({"machine": machine}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
