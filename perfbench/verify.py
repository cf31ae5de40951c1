"""Output checks for one operation, computed apart from the program.

Norms are recomputed from the stored snapshot bytes with this file's own
parser and numpy code; the decay fit is refitted from the records. The
identity tolerances are the ones the tier-1 tests pin.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from oldroyd2d.snapshots import load_snapshot, save_snapshot

ENERGY_TOL = 1e-9      # energy_identity_residual, tests/test_stock.py and checks.py
GAMMA_TOL = 1e-10      # gamma_residual, tests/test_diagnostics.py and checks.py
NORM_RTOL = 1e-9       # snapshot norms against the record at the same time
ENERGY_RISE_TOL = 1e-9  # relative rise of the weighted energy allowed on q_zero
FIT_R2_MIN = 0.95      # acceptance criterion 7
FIT_BAND = (0.25, 4.0)  # acceptance criterion 7: |rate| / lambda

_SNAP_MAGIC = b"OLDB2D01"
_SNAP_HEADER = struct.Struct("<II9d")


def _reject_constant(token):
    raise ValueError(f"non-JSON number {token} in NDJSON output")


def read_strict_ndjson(path: Path) -> list[dict]:
    """Parse NDJSON as RFC 8259 JSON: NaN and Infinity tokens are errors."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line, parse_constant=_reject_constant)
                for line in fh if line.strip()]


def snapshot_norms(path: Path) -> tuple[float, dict]:
    """(t, norms) from a snapshot file, by the layout in CONVENTIONS.md."""
    data = path.read_bytes()
    if data[:8] != _SNAP_MAGIC:
        raise ValueError(f"{path.name}: bad magic")
    _, n, length, t, _nu, _mu, K, alpha, *_ = _SNAP_HEADER.unpack_from(data, 8)
    arrays = np.frombuffer(data, dtype="<f8", offset=8 + _SNAP_HEADER.size).reshape(4, n, n)
    omega, t11, t12, t22 = arrays
    h = length / n
    omega_l2 = math.sqrt(float(np.sum(omega * omega))) * h
    tau_l2 = math.sqrt(float(np.sum(t11 * t11 + 2.0 * t12 * t12 + t22 * t22))) * h
    # ||u||^2 = L^2 sum_{k != 0} |omega_hat|^2 / |k|^2 for u = biot_savart(omega)
    w_hat = np.fft.fft2(omega) / (n * n)
    k = 2.0 * math.pi / length * (np.fft.fftfreq(n) * n)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    ksq[0, 0] = math.inf
    u_l2 = length * math.sqrt(float(np.sum(np.abs(w_hat) ** 2 / ksq)))
    norms = {
        "u_l2": u_l2,
        "tau_l2": tau_l2,
        "omega_l2": omega_l2,
        "energy_weighted": 0.5 * (alpha * u_l2 ** 2 + K * tau_l2 ** 2),
    }
    return t, norms


def decay_fit(ts, vals) -> tuple[float, float]:
    """Slope of log(v) against t over the trailing half, and its R^2."""
    start = len(ts) // 2
    t = np.asarray(ts[start:], dtype=float)
    y = np.log(np.asarray(vals[start:], dtype=float))
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), 1.0 - float(np.sum(resid ** 2)) / ss_tot


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def sweep_statuses(out: Path, deltas) -> list[tuple[Path, bool]]:
    """(member directory, ok) per sweep member, from the sweep's CSV."""
    rows = {}
    if (out / "sweep.csv").is_file():
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = {row["value"]: row["status"] for row in csv.DictReader(fh)}
    return [(out / f"initial_delta_{d:g}", rows.get(f"{d:g}") == "ok") for d in deltas]


def check_operation(out_dir: Path, workload, config) -> list[str]:
    """Every check of one `runner.run` output directory; returns the failures."""
    try:
        return _check_operation(out_dir, workload, config.params, config.step.t_end)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{out_dir.name}: unreadable output: {exc}"]


def _check_operation(out_dir: Path, workload, params, t_end: float) -> list[str]:
    errors: list[str] = []
    lines = read_strict_ndjson(out_dir / "diagnostics.ndjson")
    records = [line for line in lines if "t" in line]
    if not lines or "summary" not in lines[-1]:
        return [f"{out_dir.name}: last NDJSON line is not a summary"]
    summary = lines[-1]["summary"]
    if len(records) != workload.records:
        errors.append(f"{out_dir.name}: {len(records)} records, expected {workload.records}")
    if records and (records[0]["t"] != 0.0 or not _close(records[-1]["t"], t_end, 1e-12)):
        errors.append(f"{out_dir.name}: records span [{records[0]['t']}, {records[-1]['t']}]")

    by_t = {r["t"]: r for r in records}
    snaps = sorted(out_dir.glob("snapshot_*.bin"))
    if len(snaps) != workload.snapshots:
        errors.append(f"{out_dir.name}: {len(snaps)} snapshots, expected {workload.snapshots}")
    for snap in snaps:
        t, norms = snapshot_norms(snap)
        rec = by_t.get(t)
        if rec is None:
            errors.append(f"{snap.name}: no record at t={t!r}")
        else:
            for key, value in norms.items():
                if not _close(value, rec[key], NORM_RTOL):
                    errors.append(f"{snap.name}: {key} {value!r} != record {rec[key]!r}")
        resaved = snap.with_suffix(".resaved")
        snap_state, snap_params = load_snapshot(snap)
        if snap_params != params:
            errors.append(f"{snap.name}: stored parameters {snap_params} != {params}")
        save_snapshot(snap_state, snap_params, resaved)
        if resaved.read_bytes() != snap.read_bytes():
            errors.append(f"{snap.name}: load + save is not byte-identical")
        resaved.unlink()

    q_zero = params.variant == "q_zero"
    for r in records:
        res = r["energy_identity_residual"]
        if q_zero and (res is None or res > ENERGY_TOL):
            errors.append(f"t={r['t']}: energy_identity_residual {res!r} > {ENERGY_TOL}")
        res = r["gamma_residual"]
        if res is None or res > GAMMA_TOL:
            errors.append(f"t={r['t']}: gamma_residual {res!r} > {GAMMA_TOL}")
    if q_zero:
        energy = [r["energy_weighted"] for r in records]
        for a, b in zip(energy, energy[1:]):
            if b > a + ENERGY_RISE_TOL * max(a, 1.0):
                errors.append(f"weighted energy rose from {a!r} to {b!r}")

    if workload.kind == "sweep":
        lam = params.K * params.alpha / (2.0 * params.mu)
        rate, r2 = decay_fit([r["t"] for r in records], [r["grad_u_l2"] for r in records])
        fit = summary.get("decay_grad_u_l2") or {}
        if not (_close(rate, fit.get("rate", math.nan), 1e-9)
                and _close(r2, fit.get("r_squared", math.nan), 1e-9)):
            errors.append(f"{out_dir.name}: summary fit {fit} != refit ({rate}, {r2})")
        if not (rate < 0 and r2 >= FIT_R2_MIN
                and FIT_BAND[0] <= abs(rate) / lam <= FIT_BAND[1]):
            errors.append(f"{out_dir.name}: decay rate {rate} (R^2 {r2}) vs lambda {lam}")
        if not _close(summary["lambda_theory"], lam, 1e-15):
            errors.append(f"lambda_theory {summary['lambda_theory']} != {lam}")
    return errors
