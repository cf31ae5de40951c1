#!/usr/bin/env python3
"""Write the stock byte-check set, and compare it with another one.

Usage: python scripts/stock_outputs.py OUT [BASE]

Runs stock configs (a)-(e) at n = 32, with t_end cut to at most 1 and one
snapshot at t = 0.5 when t_end reaches it (case_config), plus (b) with
nu = 0.01, (a) with its snapshot at t = 0.35, between two observation
ticks, (a), (b) (Q on) and the Stokes toy (e) observed after every step
(observe_every = their dt_max, so every record reads the first stage the
step before it left), and (a) and (e)
restarted from their own snapshots at t = 0.5, each of which writes a
snapshot at its start time, and (a) at n = 202 up to t = 0.4, whose padded
length 404 = 4 x 101 is not a power of two (pocketfft makes its complex
transforms by Bluestein's algorithm), and two cases that take no step:
(b) with t_end = 0 and (a) restarted at t = 0.5 with t_end = 0.5, whose
one record takes d/dt from rhs of the state's own band, n//3 and n//2
wide; one directory each under OUT. One more
directory, manufactured_n32, holds the final state of the forced run of
`checks.manufactured_error(32)` as a snapshot: its forcing is the only one
of the set, and the stepper's stacks take its width. The package is
imported from the `src` directory next to this script's own directory, so
a copy of the script in a checkout of another revision writes that
revision's set.

Given BASE, a set written the same way, the two trees are compared file by
file: a file is identical in bytes, or its largest relative differences
are printed, per NDJSON key (nested keys dotted, e.g. `u_hs.3`) and per
snapshot header value and array. For an array the difference is the
largest |a - b| over the largest |a| of the BASE array. Exits 1 on any
difference or missing file, else 0.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from oldroyd2d import checks  # noqa: E402
from oldroyd2d.config import load_config, with_override  # noqa: E402
from oldroyd2d.runner import run  # noqa: E402
from oldroyd2d.snapshots import load_snapshot, save_snapshot  # noqa: E402

CASES = {  # directory: (stock config, overrides)
    "stock_a": ("a_large_data_q_zero.cfg", {}),
    "stock_a_snap0.35": ("a_large_data_q_zero.cfg", {"output.snapshot_times": "0.35"}),
    "stock_a_every_step": ("a_large_data_q_zero.cfg", {"output.observe_every": "0.02"}),  # dt_max
    "stock_b": ("b_small_data_decay.cfg", {}),
    "stock_b_nu0.01": ("b_small_data_decay.cfg", {"model.nu": "0.01"}),
    "stock_b_every_step": ("b_small_data_decay.cfg", {"output.observe_every": "0.05"}),  # dt_max
    "stock_c": ("c_max_principle_contrast.cfg", {}),
    "stock_d": ("d_euler_sanity.cfg", {}),
    "stock_e": ("e_stokes_toy.cfg", {}),
    "stock_e_every_step": ("e_stokes_toy.cfg", {"output.observe_every": "0.02"}),  # dt_max
    "stock_a_n202": ("a_large_data_q_zero.cfg", {
        "grid.n": "202", "stepping.t_end": "0.4", "output.snapshot_times": "0.2"}),
    # "{out}" is OUT: the restart reads the snapshot stock_a wrote before it
    "stock_a_restart": ("a_large_data_q_zero.cfg", {
        "initial.snapshot": "{out}/stock_a/snapshot_000.bin", "initial.kind": "from_snapshot"}),
    "stock_e_restart": ("e_stokes_toy.cfg", {
        "initial.snapshot": "{out}/stock_e/snapshot_000.bin", "initial.kind": "from_snapshot"}),
    # one record and no step: d/dt and Q come from time_derivative's own rhs
    # and from gamma_terms, not from a first stage the stepper left
    "stock_b_t0": ("b_small_data_decay.cfg", {
        "stepping.t_end": "0", "output.snapshot_times": "0"}),
    # the same from a start whose band is n//2
    "stock_a_restart_t0.5": ("a_large_data_q_zero.cfg", {
        "initial.snapshot": "{out}/stock_a/snapshot_000.bin", "initial.kind": "from_snapshot",
        "stepping.t_end": "0.5"}),
}


def write_set(out: Path) -> bool:
    """Run every case into out/<case>; True when all of them succeed."""
    ok = True
    for name, (cfg_name, overrides) in CASES.items():
        result = run(case_config(out, name, cfg_name, overrides))
        ok = ok and result.ok
        print(f"{name}: {len(result.records)} records{'' if result.ok else ', FAILED'}")
    error, final = manufactured_run(32)
    (out / "manufactured_n32").mkdir(parents=True)
    save_snapshot(final, checks.MMS_PARAMS, out / "manufactured_n32" / "snapshot_final.bin")
    print(f"manufactured_n32: relative error {error:.6e}")
    return ok


def case_config(out: Path, name: str, cfg_name: str, overrides: dict):
    """The config of one case: the stock config at n = 32, its t_end cut to
    at most 1, one snapshot at t = 0.5 when the case's t_end reaches it,
    and its output in out/<name>, with the case's overrides applied over
    these ("{out}" in a string value is out)."""
    cfg = load_config(ROOT / "configs" / cfg_name)
    t_end = min(cfg.step.t_end, 1.0)
    defaults = {"grid.n": "32", "stepping.t_end": t_end, "output.dir": str(out / name)}
    if float(overrides.get("stepping.t_end", t_end)) >= 0.5:
        defaults["output.snapshot_times"] = "0.5"
    for key, value in {**defaults, **overrides}.items():
        cfg = with_override(cfg, key, value.format(out=out) if isinstance(value, str) else value)
    return cfg


def manufactured_run(n: int):
    """checks.manufactured_error(n) and the final state of its forced run,
    which that function returns no handle to: its call of integrate is
    wrapped while it runs."""
    finals, integrate = [], checks.integrate

    def kept(*args, **kwargs):
        finals.append(integrate(*args, **kwargs))
        return finals[-1]

    checks.integrate = kept
    try:
        error = checks.manufactured_error(n)
    finally:
        checks.integrate = integrate
    return error, finals[0]


def _rel(a, b) -> float:
    """Relative difference of two JSON values; inf when they are not both numbers."""
    if a == b:
        return 0.0
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numbers:
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(value, f"{prefix}.{key}" if prefix else key)
    else:
        yield prefix, obj


def _ndjson_diffs(a: Path, b: Path) -> dict:
    lines_a, lines_b = (p.read_text(encoding="utf-8").splitlines() for p in (a, b))
    if len(lines_a) != len(lines_b):
        return {"line count": math.inf}
    diffs: dict = {}
    for la, lb in zip(lines_a, lines_b):
        fa, fb = (dict(_flatten(json.loads(line))) for line in (la, lb))
        for key in fa.keys() | fb.keys():
            d = math.inf if key not in fa or key not in fb else _rel(fa[key], fb[key])
            if d > 0.0:
                diffs[key] = max(diffs.get(key, 0.0), d)
    return diffs


def _snapshot_diffs(a: Path, b: Path) -> dict:
    (sa, pa), (sb, pb) = load_snapshot(a), load_snapshot(b)
    header_a = {"t": sa.t, **dataclasses.asdict(pa)}
    header_b = {"t": sb.t, **dataclasses.asdict(pb)}
    diffs = {key: _rel(header_a[key], header_b[key]) for key in header_a}
    fields_a = [sa.omega] + list(sa.tau.components)
    fields_b = [sb.omega] + list(sb.tau.components)
    for name, fa, fb in zip(("omega", "tau11", "tau12", "tau22"), fields_a, fields_b):
        if fa.physical.shape != fb.physical.shape:
            diffs[name] = math.inf
            continue
        scale = float(np.max(np.abs(fa.physical)))
        diff = float(np.max(np.abs(fa.physical - fb.physical)))
        diffs[name] = 0.0 if diff == 0.0 else diff / scale if scale > 0.0 else math.inf
    return {key: d for key, d in diffs.items() if d > 0.0}


def compare(base: Path, out: Path) -> list[str]:
    """One line per file of either tree that is missing or differs in bytes."""
    files = sorted({p.relative_to(root) for root in (base, out)
                    for p in root.rglob("*") if p.is_file()})
    report = []
    for rel in files:
        a, b = base / rel, out / rel
        if not (a.is_file() and b.is_file()):
            report.append(f"{rel}: only in {'BASE' if a.is_file() else 'OUT'}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        if rel.suffix == ".ndjson":
            diffs = _ndjson_diffs(a, b)
        elif rel.suffix == ".bin":
            diffs = _snapshot_diffs(a, b)
        else:
            diffs = {}
        detail = ", ".join(f"{key} {d:.3g}" for key, d in sorted(diffs.items()))
        report.append(f"{rel}: bytes differ; largest relative difference: {detail or 'none'}")
    return report


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(args[0])
    if not write_set(out):
        return 1
    if len(args) == 1:
        return 0
    report = compare(Path(args[1]), out)
    for line in report:
        print(line)
    print("identical in bytes" if not report else f"{len(report)} files differ")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
