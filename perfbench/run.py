#!/usr/bin/env python3
"""Benchmark of oldroyd2d: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test

One workload per call, in one process with BLAS/OpenMP threads pinned to 1.
The program is imported from `src/` of the checkout this file sits in; the
run fails without printing a result when it is not there. Outputs go under
`perfbench/.work/` and are removed once checked. The last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it describes the machine. Every round checks
that its operations took the workload's step count.

A run repeats whole rounds of the workload's operations until `--seconds`
have passed. With `--trace 0` it reports the median round's wall (`run_s`)
and CPU (`cpu_s`) time, the median cold set-up time (`setup_s`, sampled
after every round) and the process's peak RSS (under `--workload all`
once, as `process_peak_rss_mb`, since the peak of all workloads so far is
not one workload's own). With `--trace 1` every round is one untraced and
one traced round; the per-layer metrics are medians
over the traced ones, and `trace.overhead_s` is the traced median minus the
untraced one.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("OLDROYD2D_OUT", None)


import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"


def _import_program():
    """Put the checkout's src/ first on the path and import the package from it."""
    if not (SRC / "oldroyd2d" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'oldroyd2d'}")
    sys.path.insert(0, str(SRC))
    import oldroyd2d

    if Path(oldroyd2d.__file__).resolve().parent != SRC / "oldroyd2d":
        sys.exit(f"perfbench: oldroyd2d imported from {oldroyd2d.__file__}, not {SRC}")


@contextlib.contextmanager
def counting_steps(counter: list[int]):
    """Count `stepping.step` calls into counter[0] while installed."""
    from oldroyd2d import stepping

    step = stepping.step

    def counted(*args, **kwargs):
        counter[0] += 1
        return step(*args, **kwargs)

    stepping.step = counted
    try:
        yield
    finally:
        stepping.step = step


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "threads": os.environ["OMP_NUM_THREADS"]}


class Bench:
    """Runs the rounds of one workload and checks every operation's output."""

    def __init__(self, workload, seed: int):
        from oldroyd2d.config import parse_config
        from workloads import fill_caches

        self.w = workload
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out = self.work / "op"
        self.text = workload.config_text(seed, str(self.out))
        self.config = parse_config(self.text)
        fill_caches(self.config.grid)
        self.attempted = 0
        self.failures: list[str] = []  # operations that raised or reported failure
        self.errors: list[str] = []    # output checks that did not hold

    def round(self, tracer=None) -> tuple[float, float]:
        """One round of operations; returns its (wall, cpu) seconds."""
        from oldroyd2d import runner
        from verify import check_operation, sweep_statuses
        from workloads import SWEEP_DELTAS

        self.attempted += self.w.ops_per_round
        failed_before = len(self.failures)
        steps = [0]
        gc.collect()
        start, start_cpu = time.perf_counter(), time.process_time()
        raised = None
        try:
            with counting_steps(steps), \
                    tracer.installed() if tracer else contextlib.nullcontext():
                if self.w.kind == "sweep":
                    runner.sweep(self.config, "initial.delta", SWEEP_DELTAS)
                else:
                    ok = runner.run(self.config).ok
        except Exception as exc:  # a raising operation fails; the run goes on
            raised = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
        if raised:
            self.failures += [raised] * self.w.ops_per_round
        else:
            ok_dirs = (sweep_statuses(self.out, SWEEP_DELTAS) if self.w.kind == "sweep"
                       else [(self.out, ok)])
            for op_dir, ok in ok_dirs:
                if ok:
                    self.errors += check_operation(op_dir, self.w, self.config)
                else:
                    self.failures.append(f"{op_dir.name}: run failed")
        expected = self.w.steps * self.w.ops_per_round
        if len(self.failures) == failed_before and steps[0] != expected:
            self.errors.append(f"{steps[0]} steps in a round, expected {expected}")
        shutil.rmtree(self.out, ignore_errors=True)
        return wall, cpu

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _time_setups(conn, workload, text: str) -> None:
    """Child of `SetupSampler`: answer each count k with k timed set-up batches."""
    while k := conn.recv():
        samples = []
        for _ in range(k):
            gc.collect()
            start = time.perf_counter()
            for _ in range(workload.setup_batch):
                workload.setup(text)
            samples.append((time.perf_counter() - start) / workload.setup_batch)
        conn.send(samples)


class SetupSampler:
    """Times cold set-ups in a child forked before the first round.

    Set-up allocates fresh arrays, and how many pages that faults in depends
    on where earlier work left the heap: in the rounds' own process, a batch
    of eight n=256 set-ups faulted in 0, 21 000 or 32 000 pages after
    different rounds, and its time moved by a third with that. The child's
    heap sees only set-ups, so every sample pays the same faults, as a
    user's fresh run does. The parent waits while the child works.
    """

    def __init__(self, workload, text: str):
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_time_setups, args=(child_conn, workload, text),
                                daemon=True)
        self.proc.start()
        child_conn.close()

    def take(self, k: int) -> list[float]:
        """Seconds per set-up of k batches of `setup_batch` cold set-ups."""
        self.conn.send(k)
        return self.conn.recv()

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.conn.send(0)
        self.proc.join(timeout=30)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.conn.close()


def measure(workload, seed: int, seconds: float, trace: bool, own_rss: bool = True) -> dict:
    """Run whole rounds of one workload for `seconds`; return the result object.

    Untraced, every round is followed by `setup_samples` timed set-up
    batches, so set-up is sampled across the whole window as the rounds are.
    Traced, every round is one untraced and one traced round. `own_rss`
    says the process ran no other workload, so its peak RSS is this one's.
    """
    from tracing import UNITS, Tracer

    bench = Bench(workload, seed)
    sampler = None if trace else SetupSampler(workload, bench.text)
    walls, cpus, setups, traced_walls, layer_runs = [], [], [], [], []
    tracer = None
    try:
        start = time.perf_counter()
        while True:
            wall, cpu = bench.round()
            walls.append(wall)
            cpus.append(cpu)
            if trace:
                tracer = Tracer(workload.n * workload.n)
                traced_walls.append(bench.round(tracer)[0])
                layer_runs.append(tracer.metrics())
            else:
                setups += sampler.take(workload.setup_samples)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        if sampler is not None:
            sampler.close()
        bench.close()

    if trace:
        metrics = {name: {"value": statistics.median(run[name] for run in layer_runs),
                          "unit": unit} for name, unit in UNITS.items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(walls), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        }
        if own_rss:
            metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    for err in bench.failures + bench.errors:
        print(f"perfbench: {workload.name}: {err}", file=sys.stderr)
    return {"correct": not bench.errors, "attempted": bench.attempted,
            "failed": len(bench.failures), "metrics": metrics}


def _print_result(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    print(f"{name}  attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {result['correct']}")


def self_test() -> int:
    """Every workload at a tiny size, both modes: runs, checks, metric names."""
    from workloads import TINY

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    reported = 0
    if {w["name"] for w in spec["workloads"]} != set(TINY):
        problems.append("workload names differ from BENCHMARK.json")
    for workload in TINY.values():
        for trace in (0, 1):
            result = measure(workload, seed=0, seconds=0.0, trace=bool(trace))
            names = set(result["metrics"])
            if names != want[trace]:
                problems.append(f"{workload.name} trace={trace}: metric names "
                                f"{sorted(names ^ want[trace])} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload.name} trace={trace}: outputs failed their checks")
            print(f"self-test {workload.name} trace={trace}: "
                  f"{'FAILED' if len(problems) > reported else 'ok'}")
            for p in problems[reported:]:
                print(f"self-test: {p}", file=sys.stderr)
            reported = len(problems)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    if args.self_test:
        return self_test()

    from workloads import WORKLOADS

    if args.workload == "all":
        names = ["sweep_decay_n64", "observing_qzero_n128", "stepping_full_n256"]
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")

    results = {}
    for name in names:
        results[name] = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                                own_rss=len(names) == 1)
        _print_result(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
        if not args.trace:
            final["metrics"]["process_peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
            print(f"all  process_peak_rss_mb = {peak_rss_mb():.6g} MB")
    print(json.dumps({"machine": machine()}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
