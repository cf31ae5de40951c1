"""scripts/stock_outputs.py: the comparison of two output trees."""

import importlib.util
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from oldroyd2d.config import parse_config
from oldroyd2d.runner import run

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stock_outputs.py"

TINY = """
[grid]
n = 16

[stepping]
scheme = ifrk2
dt_max = 0.05
t_end = 0.2

[initial]
kind = random_band_limited
amplitude = 0.5
band_lo = 1
band_hi = 4
seed = 3

[initial_tau]
kind = random_band_limited
amplitude = 0.5
band_lo = 1
band_hi = 4
seed = 4

[output]
dir = {out}
observe_every = 0.1
snapshot_times = 0.1
"""


@pytest.fixture(scope="module")
def stock_outputs():
    spec = importlib.util.spec_from_file_location("stock_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_finds_each_perturbed_key(tmp_path, stock_outputs):
    base = tmp_path / "base"
    assert run(parse_config(TINY.format(out=base / "tiny"))).ok
    out = tmp_path / "out"
    shutil.copytree(base, out)
    assert stock_outputs.compare(base, out) == []

    ndjson = out / "tiny" / "diagnostics.ndjson"
    lines = ndjson.read_text().splitlines()
    record = json.loads(lines[1])
    record["u_l2"] *= 1.0 + 1e-13
    record["u_hs"]["3"] *= 1.0 - 1e-12
    lines[1] = json.dumps(record)
    ndjson.write_text("\n".join(lines) + "\n")

    snap = out / "tiny" / "snapshot_000.bin"
    data = bytearray(snap.read_bytes())
    values = np.frombuffer(data, dtype="<f8", count=16 * 16, offset=len(data) - 8 * 16 * 16)
    values[5] += 1e-9 * np.max(np.abs(values))  # one entry of tau22
    snap.write_bytes(bytes(data))
    (out / "tiny" / "extra.txt").write_text("x")

    report = stock_outputs.compare(base, out)
    assert len(report) == 3
    by_file = {line.split(":")[0]: line for line in report}
    assert by_file["tiny/extra.txt"] == "tiny/extra.txt: only in OUT"
    ndjson_diffs = _diffs(by_file["tiny/diagnostics.ndjson"])
    assert ndjson_diffs.keys() == {"u_l2", "u_hs.3"}
    assert ndjson_diffs["u_l2"] == pytest.approx(1e-13, rel=1e-2)
    assert ndjson_diffs["u_hs.3"] == pytest.approx(1e-12, rel=1e-2)
    snap_diffs = _diffs(by_file["tiny/snapshot_000.bin"])
    assert snap_diffs.keys() == {"tau22"}
    assert snap_diffs["tau22"] == pytest.approx(1e-9, rel=1e-2)


def _diffs(line: str) -> dict:
    """{key: difference} from one report line."""
    listed = line.split("largest relative difference: ")[1]
    return {key: float(d) for key, d in (item.split() for item in listed.split(", "))}


def test_relative_difference_of_json_values(stock_outputs):
    rel = stock_outputs._rel
    assert rel(1.0, 1.0) == 0.0 and rel(None, None) == 0.0
    assert rel(2.0, 1.0) == 0.5
    assert rel(None, 1.0) == math.inf and rel("a", "b") == math.inf


def test_a_case_that_ends_before_the_default_snapshot_time_takes_none(tmp_path, stock_outputs,
                                                                       monkeypatch):
    # only t_end is overridden: the default snapshot at t = 0.5 lies past it
    case = ("b_small_data_decay.cfg", {"stepping.t_end": "0"})
    monkeypatch.setattr(stock_outputs, "CASES", {"b_t0": case})
    assert stock_outputs.write_set(tmp_path)
    cfg = stock_outputs.case_config(tmp_path, "b_t0", *case)
    assert cfg.step.t_end == 0.0 and not cfg.output.snapshot_times
    lines = (tmp_path / "b_t0" / "diagnostics.ndjson").read_text().splitlines()
    assert [r["t"] for r in map(json.loads, lines) if "t" in r] == [0.0]
    assert not list((tmp_path / "b_t0").glob("snapshot_*"))
