"""Spans and counts around the program's public calls, recorded from outside.

`Tracer.installed()` replaces each traced function with a wrapper in every
module of the package that holds a reference to it (so `from .model import
rhs` in `stepping` is traced too), counts FFTs at the `numpy.fft` boundary,
`numpy.exp` calls and `ScalarField` constructions, and restores everything
on exit. Spans are kept in memory as (name, start, end, parent) tuples; a
span's self time is its duration minus the durations of its children. FFT
counts are attributed to every span open at the time of the call.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

import numpy as np

import oldroyd2d
from oldroyd2d import besov, diagnostics, initial_data, model, operators, runner
from oldroyd2d import snapshots, stepping
from oldroyd2d.fields import ScalarField

TRACED = (
    (stepping, "integrate"), (stepping, "step"), (stepping, "cfl_dt"),
    (model, "rhs"), (model, "gamma_interior"), (model, "commutator_r_advect"),
    (operators, "advect"),
    (diagnostics, "compute_record"), (diagnostics, "enstrophy_balance"),
    (besov, "linf_norm"), (besov, "besov_norm"), (besov, "tensor_besov_norm"),
    (snapshots, "save_snapshot"),
    (initial_data, "make_initial_data"),
)
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")


def _package_modules():
    prefix = oldroyd2d.__name__ + "."
    return [m for name, m in sys.modules.items()
            if m is not None and (name == oldroyd2d.__name__ or name.startswith(prefix))]


class Tracer:
    """Records spans and counts for the calls made while installed."""

    def __init__(self, grid_points: int):
        self.grid_points = grid_points  # n*n: larger transforms are padded ones
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.fft_in: Counter = Counter()  # transforms made inside each span name
        self._stack: list[tuple[str, float, int]] = []  # (name, start, span index)
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][2] if self._stack else -1
        self._stack.append((name, time.perf_counter(), len(self.spans)))
        self.spans.append((name, 0.0, 0.0, parent))

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, index = self._stack.pop()
        self.spans[index] = (name, start, end, self.spans[index][3])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    # --- installation ---

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def _count_fft(self, fn):
        axes = 2 if fn.__name__[-1] in "2n" else 1  # 2-D families transform 2 axes

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            transforms = max(1, out.size // int(np.prod(out.shape[-axes:])))
            points = max(np.size(a), out.size)
            kind = "padded" if points // transforms > self.grid_points else "grid"
            self.counts[f"fft.{kind}_transforms"] += transforms
            self.counts[f"fft.{kind}_points"] += points
            for name in {frame[0] for frame in self._stack}:
                self.fft_in[name] += transforms
            return out
        return counted

    @contextlib.contextmanager
    def installed(self):
        try:
            for module, attr in TRACED:
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                original = getattr(module, attr)
                self._patch_everywhere(original, self._wrap(name, original))
            self._patch(runner, "integrate", self._integrate_with_observer(runner.integrate))
            self._patch(runner, "save_snapshot", self._save_counting_bytes(runner.save_snapshot))
            for name in FFT_NAMES:
                self._patch(np.fft, name, self._count_fft(getattr(np.fft, name)))
            self._patch(np, "exp", self._count_exp(np.exp))
            self._patch(ScalarField, "__post_init__",
                        self._count_fields(ScalarField.__post_init__))
            yield self
        finally:
            while self._patches:
                owner, attr, value = self._patches.pop()
                setattr(owner, attr, value)

    def _integrate_with_observer(self, integrate):
        @functools.wraps(integrate)
        def traced(*args, observer=None, **kwargs):
            if observer is not None:
                observer = self._wrap("runner.observe", observer)
            return integrate(*args, observer=observer, **kwargs)
        return traced

    def _save_counting_bytes(self, save):
        @functools.wraps(save)
        def traced(state, params, path):
            save(state, params, path)
            self.counts["snapshots.bytes_written"] += os.path.getsize(path)
        return traced

    def _count_exp(self, exp):
        def counted(*args, **kwargs):
            if any(frame[0] == "stepping.step" for frame in self._stack):
                self.counts["stepping.exp_calls"] += 1
            return exp(*args, **kwargs)
        return counted

    def _count_fields(self, post_init):
        def counted(field):
            self.counts["fields.scalar_fields_made"] += 1
            post_init(field)
        return counted

    # --- metrics ---

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over everything recorded, keyed by metric name."""
        durations: dict[str, list[float]] = {}
        self_time: Counter = Counter()
        child_time: Counter = Counter()
        for name, start, end, parent in self.spans:
            durations.setdefault(name, []).append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[i]

        def calls(name):
            return len(durations.get(name, ()))

        def total(name):
            return float(sum(durations.get(name, ())))

        def pct_ms(name, q):
            d = durations.get(name)
            return float(np.percentile(d, q)) * 1e3 if d else 0.0

        rhs_calls = calls("model.rhs")
        c = self.counts
        return {
            "stepping.steps": calls("stepping.step"),
            "stepping.step_s": total("stepping.step"),
            "stepping.step_self_s": self_time["stepping.step"],
            "stepping.step_ms_p50": pct_ms("stepping.step", 50),
            "stepping.step_ms_p90": pct_ms("stepping.step", 90),
            "stepping.cfl_dt_s": total("stepping.cfl_dt"),
            "stepping.exp_calls": c["stepping.exp_calls"],
            "model.rhs_calls": rhs_calls,
            "model.rhs_s": total("model.rhs"),
            "model.rhs_ms_p50": pct_ms("model.rhs", 50),
            "model.rhs_transforms": self.fft_in["model.rhs"],
            "model.transforms_per_rhs": self.fft_in["model.rhs"] / max(rhs_calls, 1),
            "model.gamma_interior_calls": calls("model.gamma_interior"),
            "model.commutator_calls": calls("model.commutator_r_advect"),
            "operators.advect_calls": calls("operators.advect"),
            "operators.advect_s": total("operators.advect"),
            "fields.transforms": c["fft.grid_transforms"],
            "fields.transform_points": c["fft.grid_points"],
            "fields.scalar_fields_made": c["fields.scalar_fields_made"],
            "diagnostics.records": calls("diagnostics.compute_record"),
            "diagnostics.compute_record_s": total("diagnostics.compute_record"),
            "diagnostics.compute_record_ms_p50": pct_ms("diagnostics.compute_record", 50),
            "diagnostics.enstrophy_balance_s": total("diagnostics.enstrophy_balance"),
            "besov.linf_norm_calls": calls("besov.linf_norm"),
            "besov.besov_norm_s": total("besov.besov_norm") + total("besov.tensor_besov_norm"),
            "besov.padded_transforms": c["fft.padded_transforms"],
            "besov.padded_points": c["fft.padded_points"],
            "runner.observe_s": total("runner.observe"),
            "runner.observe_self_s": self_time["runner.observe"],
            "snapshots.save_s": total("snapshots.save_snapshot"),
            "snapshots.bytes_written": c["snapshots.bytes_written"],
            "initial_data.make_s": total("initial_data.make_initial_data"),
        }


UNITS = {
    "stepping.steps": "count", "stepping.step_s": "s", "stepping.step_self_s": "s",
    "stepping.step_ms_p50": "ms", "stepping.step_ms_p90": "ms", "stepping.cfl_dt_s": "s",
    "stepping.exp_calls": "count",
    "model.rhs_calls": "count", "model.rhs_s": "s", "model.rhs_ms_p50": "ms",
    "model.rhs_transforms": "count", "model.transforms_per_rhs": "transforms/call",
    "model.gamma_interior_calls": "count", "model.commutator_calls": "count",
    "operators.advect_calls": "count", "operators.advect_s": "s",
    "fields.transforms": "count", "fields.transform_points": "points",
    "fields.scalar_fields_made": "count",
    "diagnostics.records": "count", "diagnostics.compute_record_s": "s",
    "diagnostics.compute_record_ms_p50": "ms", "diagnostics.enstrophy_balance_s": "s",
    "besov.linf_norm_calls": "count", "besov.besov_norm_s": "s",
    "besov.padded_transforms": "count", "besov.padded_points": "points",
    "runner.observe_s": "s", "runner.observe_self_s": "s",
    "snapshots.save_s": "s", "snapshots.bytes_written": "bytes",
    "initial_data.make_s": "s",
}
