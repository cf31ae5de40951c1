#!/usr/bin/env python3
"""Write the stock byte-check set, and compare it with another one.

Usage: python scripts/stock_outputs.py OUT [BASE]

Runs stock configs (a)-(e) at n = 32, with t_end cut to at most 1 and one
snapshot at t = 0.5, plus (b) with nu = 0.01, (a) with its snapshot at
t = 0.35, between two observation ticks, and (a) and the Stokes toy (e)
restarted from their own snapshots at t = 0.5, each of which writes a
snapshot at its start time; one directory each under OUT. The package is imported from the `src`
directory next to this script's own directory, so a copy of the script in
a checkout of another revision writes that revision's set.

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

from oldroyd2d.config import load_config, with_override  # noqa: E402
from oldroyd2d.runner import run  # noqa: E402
from oldroyd2d.snapshots import load_snapshot  # noqa: E402

CASES = {  # directory: (stock config, overrides)
    "stock_a": ("a_large_data_q_zero.cfg", {}),
    "stock_a_snap0.35": ("a_large_data_q_zero.cfg", {"output.snapshot_times": "0.35"}),
    "stock_b": ("b_small_data_decay.cfg", {}),
    "stock_b_nu0.01": ("b_small_data_decay.cfg", {"model.nu": "0.01"}),
    "stock_c": ("c_max_principle_contrast.cfg", {}),
    "stock_d": ("d_euler_sanity.cfg", {}),
    "stock_e": ("e_stokes_toy.cfg", {}),
    # "{out}" is OUT: the restart reads the snapshot stock_a wrote before it
    "stock_a_restart": ("a_large_data_q_zero.cfg", {
        "initial.snapshot": "{out}/stock_a/snapshot_000.bin", "initial.kind": "from_snapshot"}),
    "stock_e_restart": ("e_stokes_toy.cfg", {
        "initial.snapshot": "{out}/stock_e/snapshot_000.bin", "initial.kind": "from_snapshot"}),
}


def write_set(out: Path) -> bool:
    """Run every case into out/<case>; True when all of them succeed."""
    ok = True
    for name, (cfg_name, overrides) in CASES.items():
        cfg = load_config(ROOT / "configs" / cfg_name)
        overrides = {"grid.n": "32", "stepping.t_end": min(cfg.step.t_end, 1.0),
                     "output.snapshot_times": "0.5", "output.dir": str(out / name),
                     **overrides}
        for key, value in overrides.items():
            cfg = with_override(cfg, key, value.format(out=out) if isinstance(value, str) else value)
        result = run(cfg)
        ok = ok and result.ok
        print(f"{name}: {len(result.records)} records{'' if result.ok else ', FAILED'}")
    return ok


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
