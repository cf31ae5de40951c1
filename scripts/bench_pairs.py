#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, written in the layout of the
BENCH_<label>.json files.

Usage:

    python3 scripts/bench_pairs.py BASE CHANGE --out BENCH_N.json --seeds FIRST-LAST \\
        [--seconds 25] [--workloads a,b,c] [--traced] [--label N]

BASE and CHANGE are git revisions of this repository; each is unpacked
with `git archive` into a temporary directory, which is removed at the
end. A side may also be given as an existing directory holding `src/` and
`perfbench/`, which is used as it is (a patched copy, say). Every run is

    python3 <side>/perfbench/run.py --workload W --seed S --seconds T --trace 0

in a process of its own, whose minor page faults (its own and those of
the children it waited for) are read with os.wait4. For each workload and
seed the two sides run one after the other: the base first on odd seeds,
the change first on even ones. With --traced, each side also runs each
workload once with `--seed 0 --seconds 1 --trace 1`, for the per-layer
counts, and `memory_peaks` in a process of its own, for the tracemalloc
peaks of the steps and of the records.

For every end-to-end metric and `minor_faults`, each side's median and
quartiles are statistics.quantiles(n=4, method="inclusive") over its runs;
`median_pair_ratio` is the median over pairs of change/base, and
`change_wins` counts the pairs whose change value is lower (`ties` the
equal ones). The base side is called "parent" in the output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "minor_faults")
SIDES = ("parent", "change")


def checkout(rev: str, into: Path) -> tuple[Path, str]:
    """The directory of one side and the revision it holds: an existing
    directory as it is, else `git archive` of rev unpacked under into."""
    if Path(rev).is_dir():
        return Path(rev).resolve(), f"directory {rev}"
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    data = subprocess.run(["git", "-C", str(ROOT), "archive", sha], check=True,
                          capture_output=True).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")
    return into, sha


def run(side: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run in a process of its own, reaped with os.wait4:
    (its result object with its minor page faults, the machine it ran on)."""
    cmd = [sys.executable, str(side / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    with tempfile.TemporaryFile("w+") as out_file, tempfile.TemporaryFile("w+") as err_file:
        proc = subprocess.Popen(cmd, stdout=out_file, stderr=err_file, text=True)
        _, _, usage = os.wait4(proc.pid, 0)
        proc.returncode = 0  # reaped here; keeps Popen from waiting again
        out_file.seek(0)
        err_file.seek(0)
        lines = out_file.read().strip().splitlines()
        err = err_file.read()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} printed no result:\n{err}")
    result, machine = json.loads(lines[-1]), json.loads(lines[-2])["machine"]
    result["minor_faults"] = usage.ru_minflt
    return result, machine


MEMORY_SIZES = (64, 128, 256)


def memory_peaks(side: str) -> None:
    """Print, as JSON, the tracemalloc peaks of the side's
    stepping_full_n256 operation made at each n of MEMORY_SIZES (seed 0):
    after one untimed warm-up operation, in MB of traced memory, counted
    from before the config is parsed:

    - step_peak_mb: the peak between the first and the last record;
    - record_peak_mb: the largest peak inside one observation (record and
      snapshot);
    - left_by_first_record_mb: traced memory after the first observation
      less that before it.
    """
    import dataclasses
    import tracemalloc

    sys.path[:0] = [str(Path(side) / "src"), str(Path(side) / "perfbench")]
    from oldroyd2d import runner
    from oldroyd2d.config import parse_config
    from workloads import WORKLOADS, fill_caches

    mb = 1024.0 ** -2
    observe = runner._Observer.__call__
    peaks: dict = {}

    def traced_observe(self, state):
        now, before = tracemalloc.get_traced_memory()
        peaks.setdefault("steps", []).append(before)
        tracemalloc.reset_peak()
        observe(self, state)
        after, peak = tracemalloc.get_traced_memory()
        peaks.setdefault("records", []).append(peak)
        peaks.setdefault("left", []).append(after - now)
        tracemalloc.reset_peak()

    runner._Observer.__call__ = traced_observe
    out = {}
    with tempfile.TemporaryDirectory(prefix="memory_peaks_") as tmp:
        for n in MEMORY_SIZES:
            tracemalloc.start()
            w = dataclasses.replace(WORKLOADS["stepping_full_n256"], n=n)
            config = parse_config(w.config_text(0, str(Path(tmp) / "op")))
            fill_caches(config.grid)
            for _ in range(2):  # a warm-up operation, then the one measured
                peaks.clear()
                runner.run(config)
            tracemalloc.stop()
            out[n] = {"step_peak_mb": max(peaks["steps"][1:]) * mb,
                      "record_peak_mb": max(peaks["records"]) * mb,
                      "left_by_first_record_mb": peaks["left"][0] * mb}
    print(json.dumps(out))


def memory_run(side: Path) -> dict:
    """memory_peaks of one side, in a process of its own."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'scripts')!r}); " \
        f"import bench_pairs; bench_pairs.memory_peaks({str(side)!r})"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def flat(result: dict) -> dict:
    values = {"correct": result["correct"], "failed": result["failed"]}
    values.update({name: m["value"] for name, m in result["metrics"].items()})
    values["minor_faults"] = result["minor_faults"]
    return values


def summary(pairs: list[dict]) -> dict:
    out = {}
    for metric in METRICS:
        got = [p for p in pairs if metric in p["parent"] and metric in p["change"]]
        if not got:
            continue
        sides = {side: [p[side][metric] for p in got] for side in SIDES}
        stats = {}
        for side, values in sides.items():
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            stats[side] = {"median": median, "q1": q1, "q3": q3}
        ratios = [c / b for b, c in zip(sides["parent"], sides["change"]) if b]
        out[metric] = {
            **stats,
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            "median_difference": stats["change"]["median"] - stats["parent"]["median"],
            "median_pair_ratio": statistics.median(ratios) if ratios else None,
            "change_wins": sum(c < b for b, c in zip(sides["parent"], sides["change"])),
            "ties": sum(c == b for b, c in zip(sides["parent"], sides["change"])),
            "pairs": len(got),
        }
    return out


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--out", required=True, help="the BENCH file to write")
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workloads", default="observing_qzero_n128,sweep_decay_n64,"
                                                "stepping_full_n256")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--label", type=int, default=None)
    args = parser.parse_args(argv)

    seeds, workloads = seed_range(args.seeds), args.workloads.split(",")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs, revs = {}, {}
        for side, rev in zip(SIDES, (args.base, args.change)):
            dirs[side], revs[side] = checkout(rev, Path(tmp) / side)
        machine = None
        report = {"label": args.label,
                  "base": revs["parent"], "change": revs["change"], "machine": None,
                  "commands": {
                      "pairs": {
                          "description": (
                              f"For each seed {seeds[0]}..{seeds[-1]} and each workload "
                              f"({', then '.join(workloads)}), the parent and the change run "
                              "one after the other, the parent first on odd seeds and the "
                              "change first on even seeds; each run is its own process in a "
                              "separate checkout directory of its side, and its minor page "
                              "faults are read with os.wait4."),
                          "command": ("python3 <checkout>/perfbench/run.py --workload "
                                      f"<workload> --seed <seed> --seconds {args.seconds:g} "
                                      "--trace 0"),
                          "checkouts": {side: f"git archive of {revs[side]}"
                                        if not revs[side].startswith("directory")
                                        else revs[side] for side in SIDES}},
                      "driver": "python3 scripts/bench_pairs.py " + " ".join(
                          sys.argv[1:] if argv is None else argv),
                      "assemble": ("medians and quartiles are statistics.quantiles(n=4, "
                                   "method='inclusive') over the runs of each side; "
                                   "median_pair_ratio is the median over pairs of "
                                   "change/parent; change_wins counts pairs where the "
                                   "change's value is lower.")},
                  "workloads": {}}
        for workload in workloads:
            pairs = []
            for seed in seeds:
                order = SIDES if seed % 2 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    result, machine = run(dirs[side], workload, seed, args.seconds, False)
                    pair[side] = flat(result)
                pair["ratio"] = {m: pair["change"][m] / pair["parent"][m] for m in METRICS
                                 if pair["parent"].get(m)}
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m} {pair['parent'].get(m)} -> {pair['change'].get(m)}" for m in METRICS),
                    flush=True)
            report["workloads"][workload] = {
                "pairs": pairs, "summary": summary(pairs),
                "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
                "failed_operations": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}}
        if args.traced:
            report["commands"]["traced"] = ("python3 <checkout>/perfbench/run.py --workload "
                                            "<workload> --seed 0 --seconds 1 --trace 1")
            report["traced"] = {
                workload: {side: flat(run(dirs[side], workload, 0, 1.0, True)[0])
                           for side in SIDES}
                for workload in workloads}
            report["commands"]["tracemalloc"] = " ".join(memory_peaks.__doc__.split())
            report["tracemalloc"] = {side: memory_run(dirs[side]) for side in SIDES}
        report["machine"] = {**machine, "os": platform.platform()}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
