"""Experiment orchestration: run and sweep, NDJSON diagnostics, snapshots.

Diagnostics are written as NDJSON, one object per observation, with keys
exactly as in diagnostics.RECORD; a final line holds a single
"summary" object, or "failure" when any exception or an interrupt (SIGINT)
aborts integration, observation or the summary, with partial output
preserved. Every line is strict JSON: a non-finite float is written as null
and its dotted key is listed under "nonfinite" on that line. Reruns of the
same config are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .config import ExperimentConfig, override_value, with_override
from .errors import ConfigError, IntegrationError
from .initial_data import make_initial_data
from .snapshots import save_snapshot
from .stepping import integrate, landing_tolerance

DIAGNOSTICS_FILE = "diagnostics.ndjson"
FLAT_RANGE = 1e-9  # relative range below which a series is not fitted as a decay


@dataclass
class RunResult:
    ok: bool
    records: list
    summary: dict
    out_dir: Path
    error: str | None = None


def _json_line(obj: dict) -> str:
    """One strict-JSON NDJSON line; non-finite floats become null and their
    dotted keys (e.g. "u_hs.3") are listed under "nonfinite"."""
    nonfinite: list[str] = []

    def finite(value, key):
        if isinstance(value, dict):
            return {k: finite(v, f"{key}.{k}" if key else k) for k, v in value.items()}
        if isinstance(value, float) and not math.isfinite(value):
            nonfinite.append(key)
            return None
        return value

    line = finite(obj, "")
    if nonfinite:
        line["nonfinite"] = nonfinite
    return json.dumps(line, allow_nan=False) + "\n"


class _Observer:
    """Writes one record per observation and snapshots at configured times."""

    def __init__(self, config: ExperimentConfig, out_dir: Path, stream):
        self.config = config
        self.out_dir = out_dir
        self.stream = stream
        self.records: list[diag.DiagnosticsRecord] = []
        self.bkm_accum = 0.0
        self._last = None  # (t, grad_u_linf)
        self._pending_snaps = sorted(config.output.snapshot_times)
        self._eps = landing_tolerance(config.step.t_end)  # as integrate lands on them
        self._snap_index = 0
        self.enstrophy_ledger: list[tuple[float, float]] = []

    def __call__(self, state) -> None:
        obs = diag.Observation(state, self.config.params, self.config.diag)
        rec = self._record(obs)
        view, obs = obs.state, None  # the view outlives the record's terms
        self.records.append(rec)
        self.stream.write(_json_line(rec.to_dict()))
        self.stream.flush()

        while self._pending_snaps and state.t >= self._pending_snaps[0] - self._eps:
            self._pending_snaps.pop(0)
            path = self.out_dir / f"snapshot_{self._snap_index:03d}.bin"
            save_snapshot(view, self.config.params, path)
            self._snap_index += 1

    def _record(self, obs: diag.Observation) -> diag.DiagnosticsRecord:
        rec = diag.compute_record(obs)
        if self._last is not None and rec.t > self._last[0]:
            t0, v0 = self._last
            self.bkm_accum += 0.5 * (v0 + rec.grad_u_linf) * (rec.t - t0)
        rec.bkm_accum = self.bkm_accum
        self._last = (rec.t, rec.grad_u_linf)
        if obs.params.energy_law:
            self.enstrophy_ledger.append(diag.enstrophy_balance(obs))
        return rec


def decay_summary(ts, vals) -> dict | None:
    """{"rate", "r_squared"} of diagnostics.decay_fit, or None for fewer than
    10 positive values or for a fitted trailing half that moves by less than
    FLAT_RANGE relative: a conserved norm, whose fit would be one of
    roundoff drift."""
    if len(vals) < 10 or not all(v > 0 for v in vals):
        return None
    tail = vals[len(vals) // 2:]  # the half decay_fit fits
    if max(tail) - min(tail) < FLAT_RANGE * max(tail):
        return None
    f = diag.decay_fit(ts, vals)
    return {"rate": f.rate, "r_squared": f.r_squared}


def _summarize(config: ExperimentConfig, obs: _Observer) -> dict:
    records = obs.records
    params = config.params
    ts = [r.t for r in records]
    summary: dict = {
        "records": len(records),
        "t_final": ts[-1] if ts else None,
        "bkm_integral": obs.bkm_accum,
        "lambda_theory": params.gamma_damping_rate if params.mu > 0 else None,
        "max_omega_linf": max((r.omega_linf for r in records), default=None),
        "max_gamma_b0inf1": max((r.gamma_b0inf1 for r in records), default=None),
        "final_n_value": records[-1].n_value if records else None,
        "final_energy_weighted": records[-1].energy_weighted if records else None,
    }

    summary["decay_grad_u_l2"] = decay_summary(ts, [r.grad_u_l2 for r in records])
    summary["decay_tau_l2"] = decay_summary(ts, [r.tau_l2 for r in records])

    ratios = [
        lhs / maj for lhs, maj in obs.enstrophy_ledger if maj > 1e-14 and lhs > 0
    ]
    summary["enstrophy_ledger_c"] = max(ratios) if ratios else None

    bkm_ratios = [
        v for v in (diag.bkm_log_check(r) for r in records) if v is not None
    ]
    summary["bkm_log_ratio_max"] = max(bkm_ratios) if bkm_ratios else None
    return summary


def run(config: ExperimentConfig) -> RunResult:
    """Integrate the configured experiment, writing diagnostics and snapshots."""
    out_dir = config.output.resolved_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    # Popped into integrate, which then holds the initial state's one
    # reference and frees it with its first step. A bad config or snapshot,
    # or a t_end or snapshot time before the start time (a restart's),
    # still raises here, before the diagnostics file is opened.
    initial = [make_initial_data(config.initial, config.tau_initial, config.grid,
                                 config.params)]
    t0, eps = initial[0].t, landing_tolerance(config.step.t_end)
    for key, times in (("stepping.t_end", (config.step.t_end,)),
                       ("output.snapshot_times", config.output.snapshot_times)):
        for t in times:
            if t < t0 - eps:
                raise ConfigError(f"{key}: {t!r} lies before the start time {t0!r}")

    path = out_dir / DIAGNOSTICS_FILE
    # A blow-up is reported by the failure line and the nonfinite keys, not
    # by numpy's overflow warnings.
    with open(path, "w", encoding="utf-8") as stream, \
            np.errstate(over="ignore", invalid="ignore"):
        obs = _Observer(config, out_dir, stream)
        try:
            integrate(
                initial.pop(), config.params, config.step,
                observer=obs,
                observe_every=config.output.observe_every,
                land_times=config.output.snapshot_times,
            )
            summary = _summarize(config, obs)
        except KeyboardInterrupt:
            # The run ends with a failure line at the last record's t, and
            # the interrupt goes on up, so that a sweep stops there.
            t = obs.records[-1].t if obs.records else None
            stream.write(_json_line({"failure": {"t": t, "error": "interrupted (SIGINT)"}}))
            raise
        except Exception as exc:
            # Any exception ends the run with a failure line: at the failing
            # step's t for an IntegrationError, else at the last record's t.
            if isinstance(exc, IntegrationError):
                t, error = exc.t, str(exc)
            else:
                t = obs.records[-1].t if obs.records else None
                error = f"{type(exc).__name__}: {exc}"
            stream.write(_json_line({"failure": {"t": t, "error": error}}))
            return RunResult(
                ok=False, records=obs.records, summary={}, out_dir=out_dir, error=error,
            )
        stream.write(_json_line({"summary": summary}))
    return RunResult(ok=True, records=obs.records, summary=summary, out_dir=out_dir)


SWEEP_FILE = "sweep.csv"


def sweep(config: ExperimentConfig, param: str, values) -> tuple[bool, Path]:
    """Run the experiment once per parameter value; emit a CSV of summaries.

    Every member's config is built first, so an invalid value, or two values
    that name the same member directory (0.1 and 1e-1), raise ConfigError
    before anything runs. Individual run failures are recorded and the sweep
    continues.
    """
    base_dir = config.output.resolved_dir()
    members = {}  # member directory -> (value as given, CSV label, config)
    for value in values:
        sub = with_override(config, param, value)
        held = override_value(sub, param)
        label = f"{held:g}" if isinstance(held, float) else str(held)
        directory = base_dir / f"{param.replace('.', '_')}_{label}"
        if directory in members:
            raise ConfigError(f"sweep values {members[directory][0]} and {value} "
                              f"both name member directory {directory}")
        output = replace(sub.output, directory=str(directory))
        members[directory] = (value, label, replace(sub, output=output))
    base_dir.mkdir(parents=True, exist_ok=True)
    csv_path = base_dir / SWEEP_FILE
    all_ok = True
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["value", "status", "final_n_value", "decay_rate", "decay_r2",
             "max_gamma_b0inf1", "lambda_theory"]
        )
        for _, label, sub in members.values():
            result = run(sub)
            if not result.ok:
                all_ok = False
                writer.writerow([label, "failed", "", "", "", "", ""])
                continue
            s = result.summary
            fit = s.get("decay_grad_u_l2") or {}
            writer.writerow([
                label, "ok",
                _fmt(s.get("final_n_value")),
                _fmt(fit.get("rate")),
                _fmt(fit.get("r_squared")),
                _fmt(s.get("max_gamma_b0inf1")),
                _fmt(s.get("lambda_theory")),
            ])
    return all_ok, csv_path


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def read_ndjson(path) -> list[dict]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
