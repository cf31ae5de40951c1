"""Config parsing, CLI subcommands, determinism, sweep, mutation check."""

import json
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from oldroyd2d import checks, cli, model, runner, stepping
from oldroyd2d import diagnostics as diag
from oldroyd2d import operators as ops
from oldroyd2d.config import load_config, parse_config, with_override
from oldroyd2d.errors import ConfigError
from oldroyd2d.fields import ScalarField
from oldroyd2d.runner import read_ndjson, run, sweep

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
[grid]
n = 16

[stepping]
t_end = 0.0

[initial]
kind = taylor_green
amplitude = 0.5

[output]
dir = {out}
"""

SMALL_RUN = """
[grid]
n = 32

[model]
nu = 0.0
mu = 1.0
k = 1.0
alpha = 1.0
beta = 0.1
variant = q_zero

[stepping]
scheme = ifrk2
cfl = 0.5
dt_max = 0.05
t_end = 0.3

[initial]
kind = random_band_limited
amplitude = 0.5
band_lo = 1
band_hi = 4
seed = 5

[initial_tau]
kind = random_band_limited
amplitude = 0.5
band_lo = 1
band_hi = 4
seed = 6

[output]
dir = {out}
observe_every = 0.1
snapshot_times = 0.15

[diagnostics]
eps = 0.5
hs = 3
"""


# Forced blow-up: IFRK4 pinned at dt = 0.5 on large data. The t = 1.5 record
# holds overflowed and NaN values; integration fails at t = 2.
BLOWUP = """
[grid]
n = 32

[model]
nu = 0.0
mu = 1.0
k = 1.0
alpha = 1.0
variant = q_zero

[stepping]
scheme = ifrk4
dt_min = 0.5
dt_max = 0.5
t_end = 5.0

[initial]
kind = random_band_limited
amplitude = 30.0
band_lo = 1
band_hi = 8
seed = 2

[initial_tau]
kind = zero

[output]
dir = {out}
observe_every = 0.5
"""


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def _count_model_calls(monkeypatch, names):
    """Wrap model functions in every package module that holds them; the
    returned dict counts their calls."""
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in list(sys.modules.items()) if key.startswith("oldroyd2d")]
    for name in names:
        original = getattr(model, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(MINIMAL.format(out=tmp_path))
        assert cfg.grid.n == 16
        assert cfg.params.mu == 1.0
        assert cfg.step.scheme == "ifrk4"
        assert cfg.diag.eps == 0.5
        assert cfg.tau_initial.kind == "zero"

    def test_negative_mu_names_constraint_and_line(self):
        text = "[grid]\nn = 16\n\n[model]\nmu = -1\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        msg = str(exc.value)
        assert "mu" in msg and "line" in msg

    def test_duplicate_key(self):
        text = "[grid]\nn = 16\nn = 32\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_unknown_key_and_section(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[grid]\nbogus = 3\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nope]\nx = 1\n")

    def test_type_mismatch_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[grid]\nn = pony\n")

    def test_errors_collected(self):
        text = "[grid]\nn = pony\n[model]\nmu = -3\nbogus = 1\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert len(exc.value.messages) >= 2

    def test_with_override(self, tmp_path):
        cfg = parse_config(MINIMAL.format(out=tmp_path))
        cfg2 = with_override(cfg, "model.mu", "2.5")
        assert cfg2.params.mu == 2.5
        cfg3 = with_override(cfg, "initial.delta", 0.1)
        assert cfg3.initial.delta == 0.1
        with pytest.raises(ConfigError):
            with_override(cfg, "model.bogus", 1)


class TestRunner:
    def test_t_end_zero_single_record(self, tmp_path):
        cfg = parse_config(MINIMAL.format(out=tmp_path / "r"))
        result = run(cfg)
        assert result.ok
        assert len(result.records) == 1
        assert result.records[0].t == 0.0
        lines = read_ndjson(result.out_dir / "diagnostics.ndjson")
        assert "summary" in lines[-1]

    def test_rerun_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            cfg = parse_config(SMALL_RUN.format(out=tmp_path / sub))
            assert run(cfg).ok
        a = (tmp_path / "a" / "diagnostics.ndjson").read_bytes()
        b = (tmp_path / "b" / "diagnostics.ndjson").read_bytes()
        assert a == b
        sa = (tmp_path / "a" / "snapshot_000.bin").read_bytes()
        sb = (tmp_path / "b" / "snapshot_000.bin").read_bytes()
        assert sa == sb

    def test_records_at_cadence_with_finite_values(self, tmp_path):
        cfg = parse_config(SMALL_RUN.format(out=tmp_path / "c"))
        result = run(cfg)
        ts = [r.t for r in result.records]
        assert ts == pytest.approx([0.0, 0.1, 0.15, 0.2, 0.3], abs=1e-9)
        accums = [r.bkm_accum for r in result.records]
        assert all(b2 >= b1 for b1, b2 in zip(accums, accums[1:]))

    def test_run_lands_exactly_on_ticks_and_t_end(self, tmp_path):
        # q_zero at n = 32 to t_end = 1: the records sit at k * observe_every,
        # and the last one and the summary's t_final at t_end, with no drift
        text = (SMALL_RUN.format(out=tmp_path / "ticks")
                .replace("t_end = 0.3", "t_end = 1.0")
                .replace("snapshot_times = 0.15\n", ""))
        result = run(parse_config(text))
        assert result.ok
        assert [r.t for r in result.records] == [k * 0.1 for k in range(11)]
        summary = read_ndjson(result.out_dir / "diagnostics.ndjson")[-1]["summary"]
        assert summary["t_final"] == 1.0

    def test_snapshot_lands_on_its_own_time_beside_a_tick(self, tmp_path):
        # a snapshot time 5e-11 past a tick is a target of its own: the
        # snapshot is written there, not at the tick before it
        from oldroyd2d.snapshots import load_snapshot

        text = (MINIMAL.format(out=tmp_path / "off").replace("t_end = 0.0", "t_end = 0.3")
                + "observe_every = 0.1\nsnapshot_times = 0.10000000005\n")
        result = run(parse_config(text))
        assert result.ok
        assert [r.t for r in result.records] == [0.0, 0.1, 0.10000000005, 0.2, 0.3]
        assert [p.name for p in result.out_dir.glob("snapshot_*.bin")] == ["snapshot_000.bin"]
        state, _ = load_snapshot(result.out_dir / "snapshot_000.bin")
        assert state.t == 0.10000000005

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OLDROYD2D_OUT", str(tmp_path / "root"))
        cfg = parse_config(MINIMAL.format(out="rel_dir"))
        result = run(cfg)
        assert result.out_dir == tmp_path / "root" / "rel_dir"
        assert (result.out_dir / "diagnostics.ndjson").exists()

    def test_failure_preserves_partial_output(self, tmp_path):
        cfg = parse_config(SMALL_RUN.format(out=tmp_path / "boom"))
        cfg = with_override(cfg, "initial.amplitude", 1e130)
        with np.errstate(over="ignore", invalid="ignore"):
            result = run(cfg)
        assert not result.ok
        lines = read_ndjson(result.out_dir / "diagnostics.ndjson")
        assert "failure" in lines[-1]
        assert "t" in lines[0]  # the initial record was still written

    def test_any_exception_becomes_failure_line(self, tmp_path, monkeypatch, capsys):
        from oldroyd2d import runner

        def disk_full(state, params, path):
            raise OSError("disk full")

        monkeypatch.setattr(runner, "save_snapshot", disk_full)
        path = tmp_path / "small.cfg"
        path.write_text(SMALL_RUN.format(out=tmp_path / "full"))
        assert cli.main(["run", str(path)]) == 1
        assert "run failed: OSError: disk full" in capsys.readouterr().err
        lines = read_ndjson(tmp_path / "full" / "diagnostics.ndjson")
        assert lines[-2]["t"] == pytest.approx(0.15)  # the snapshot time
        assert lines[-1] == {"failure": {"t": lines[-2]["t"], "error": "OSError: disk full"}}

    def test_interrupt_ends_with_a_failure_line_and_exit_130(self, tmp_path, monkeypatch,
                                                              capsys):
        # SIGINT, in process: the third record is interrupted
        compute_record, calls = diag.compute_record, []

        def interrupted(obs):
            calls.append(obs.state.t)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return compute_record(obs)

        monkeypatch.setattr(diag, "compute_record", interrupted)
        cfg = parse_config(SMALL_RUN.format(out=tmp_path / "int"))
        with pytest.raises(KeyboardInterrupt):
            run(cfg)
        lines = read_ndjson(tmp_path / "int" / "diagnostics.ndjson")
        assert [line["t"] for line in lines[:-1]] == calls[:2]
        assert lines[-1] == {"failure": {"t": calls[1], "error": "interrupted (SIGINT)"}}

        calls.clear()
        path = tmp_path / "int.cfg"
        path.write_text(SMALL_RUN.format(out=tmp_path / "int_cli"))
        assert cli.main(["run", str(path)]) == cli.EXIT_INTERRUPTED == 130
        assert "interrupted" in capsys.readouterr().err
        assert read_ndjson(tmp_path / "int_cli" / "diagnostics.ndjson")[-1] == lines[-1]

    def test_interrupt_stops_a_sweep(self, tmp_path, monkeypatch):
        def interrupted(obs):
            raise KeyboardInterrupt

        monkeypatch.setattr(diag, "compute_record", interrupted)
        cfg = parse_config(SMALL_RUN.format(out=tmp_path / "sw"))
        with pytest.raises(KeyboardInterrupt):
            sweep(cfg, "initial.amplitude", [0.5, 0.25])
        lines = read_ndjson(tmp_path / "sw" / "initial_amplitude_0.5" / "diagnostics.ndjson")
        assert lines == [{"failure": {"t": None, "error": "interrupted (SIGINT)"}}]
        assert not (tmp_path / "sw" / "initial_amplitude_0.25").exists()

    def test_step_size_underflow_is_a_failure_line(self, tmp_path, capsys):
        # CFL control with a floor far above the CFL step of the data
        text = SMALL_RUN.format(out=tmp_path / "under").replace(
            "cfl = 0.5\n", "cfl = 0.001\ndt_min = 0.01\n")
        path = tmp_path / "under.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 1
        assert "step size underflow" in capsys.readouterr().err
        lines = read_ndjson(tmp_path / "under" / "diagnostics.ndjson")
        assert [line["t"] for line in lines[:-1]] == [0.0]
        assert lines[-1] == {"failure": {
            "t": 0.0, "error": "integration failed at t=0: step size underflow"}}

    def test_blowup_writes_strict_json(self, tmp_path):
        # the growth guard stops the blow-up at its onset, the step to t = 1
        path = tmp_path / "blowup.cfg"
        path.write_text(BLOWUP.format(out=tmp_path / "blowup"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["run", str(path)]) == 1
        text = (tmp_path / "blowup" / "diagnostics.ndjson").read_text()
        lines = [json.loads(line, parse_constant=_reject_constant)
                 for line in text.splitlines()]
        assert lines[-1]["failure"]["t"] == 1.0
        assert "coefficient max-norm grew" in lines[-1]["failure"]["error"]
        records = {line["t"]: line for line in lines[:-1]}
        assert list(records) == [0.0, 0.5]
        assert all("nonfinite" not in record for record in records.values())

    def test_overflowed_values_are_null(self, tmp_path):
        # initial data whose squares overflow: the t = 0 record writes null
        # for every non-finite value and lists its key under nonfinite
        cfg = with_override(parse_config(BLOWUP.format(out=tmp_path / "huge")),
                            "initial.amplitude", 1e160)
        assert not run(cfg).ok
        text = (tmp_path / "huge" / "diagnostics.ndjson").read_text()
        lines = [json.loads(line, parse_constant=_reject_constant)
                 for line in text.splitlines()]
        assert lines[-1] == {"failure": {
            "t": 0.5, "error": "integration failed at t=0.5: non-finite field values"}}
        (record,) = lines[:-1]
        bad = record["nonfinite"]
        assert {"u_l2", "gamma_residual", "n_value", "u_hs.3"} <= set(bad)
        for key in bad:
            top, _, sub = key.partition(".")
            assert (record[top][sub] if sub else record[top]) is None
        assert record["omega_linf"] is not None

    def test_norm_past_the_float_range_is_null(self, tmp_path):
        # L2 norms of about 1e155, whose squares overflow: the t = 0 record
        # writes them as null instead of the run failing with OverflowError
        cfg = with_override(parse_config(BLOWUP.format(out=tmp_path / "big")),
                            "initial.amplitude", 1e155)
        assert not run(cfg).ok
        text = (tmp_path / "big" / "diagnostics.ndjson").read_text()
        lines = [json.loads(line, parse_constant=_reject_constant)
                 for line in text.splitlines()]
        assert "OverflowError" not in lines[-1]["failure"]["error"]
        (record,) = lines[:-1]
        assert record["t"] == 0.0
        assert {"u_l2", "omega_l2", "energy_weighted"} <= set(record["nonfinite"])
        assert record["u_l2"] is None and record["omega_linf"] is not None

    def test_divergence_fails_before_norms_reach_1e100(self, tmp_path):
        # stock (a) with dt pinned far above its CFL step: the guard fails
        # the run at the onset of the blow-up, with every record finite
        cfg = load_config(CONFIG_DIR / "a_large_data_q_zero.cfg")
        for name, value in (("grid.n", 32), ("stepping.dt_max", 0.5),
                            ("stepping.dt_min", 0.5), ("initial.amplitude", 30.0),
                            ("initial.seed", 2), ("stepping.t_end", 3.0),
                            ("output.observe_every", 0.5),
                            ("output.dir", str(tmp_path / "onset"))):
            cfg = with_override(cfg, name, value)
        assert not run(cfg).ok
        text = (tmp_path / "onset" / "diagnostics.ndjson").read_text()
        lines = [json.loads(line, parse_constant=_reject_constant)
                 for line in text.splitlines()]
        assert "coefficient max-norm grew" in lines[-1]["failure"]["error"]
        assert lines[-1]["failure"]["t"] == 1.0

        def values(x):
            if isinstance(x, dict):
                for v in x.values():
                    yield from values(v)
            elif isinstance(x, list):
                for v in x:
                    yield from values(v)
            elif isinstance(x, float):
                yield x

        assert [line["t"] for line in lines[:-1]] == [0.0, 0.5]
        for record in lines[:-1]:
            assert "nonfinite" not in record
            assert max(abs(v) for v in values(record)) <= 1e100

    def test_no_state_outlives_its_use(self, tmp_path, monkeypatch):
        # each state handed to the observer is freed before the next
        # observation, and the initial state as soon as its first step returns
        observed, alive_at_step = [], []
        observe, step = runner._Observer.__call__, stepping.step

        def observing(self, state):
            assert [r() for r in observed] == [None] * len(observed)
            observed.append(weakref.ref(state))
            observe(self, state)

        def stepping_on(state, *args, **kwargs):
            alive_at_step.append(observed[0]() is not None)
            return step(state, *args, **kwargs)

        monkeypatch.setattr(runner._Observer, "__call__", observing)
        monkeypatch.setattr(stepping, "step", stepping_on)
        text = (MINIMAL.format(out=tmp_path / "life")
                .replace("t_end = 0.0", "t_end = 0.3\ndt_max = 0.05")
                + "observe_every = 0.1\nsnapshot_times = 0.2\n[model]\nvariant = q_zero\n")
        result = run(parse_config(text))
        assert result.ok and len(observed) == 4
        assert alive_at_step[0] and not any(alive_at_step[1:])

    def test_restart_writes_its_source_snapshot_at_its_start(self, tmp_path):
        # a snapshot loaded as initial data keeps its stored grid values,
        # and the run's snapshot at its start time is written from them; a
        # Stokes-toy restart keeps its loaded vorticity too
        for variant in model.VARIANTS:
            text = (MINIMAL.replace("kind = taylor_green",
                                    "kind = random_band_limited\nband_hi = 4\nseed = 3")
                    + "snapshot_times = 0.0\n[initial_tau]\nkind = random_band_limited\n"
                    + f"band_hi = 4\nseed = 4\n[model]\nvariant = {variant}\n")
            first = run(parse_config(text.format(out=tmp_path / variant / "first")))
            source = first.out_dir / "snapshot_000.bin"
            restart = text.replace("kind = random_band_limited\nband_hi = 4\nseed = 3",
                                   f"kind = from_snapshot\nsnapshot = {source}")
            result = run(parse_config(restart.format(out=tmp_path / variant / "restart")))
            assert first.ok and result.ok
            assert (result.out_dir / "snapshot_000.bin").read_bytes() == source.read_bytes()

    @pytest.mark.parametrize("model_text, want_rhs, want_gamma", [
        ("variant = q_zero", 1, 1),
        ("variant = full", 1, 1),
        ("variant = full\nnu = 0.1", 0, 0),
        ("variant = stokes_toy", 0, 0),
    ], ids=["q_zero", "full", "full_viscous", "stokes_toy"])
    def test_one_observation_evaluates_shared_terms_once(
            self, tmp_path, monkeypatch, model_text, want_rhs, want_gamma):
        # the record's Gamma-equation terms come from one gamma_terms call,
        # which makes the interior terms where the Gamma law holds
        counts = _count_model_calls(
            monkeypatch, ("rhs", "gamma_terms", "gamma_interior", "commutator_r_advect"))
        made, gamma_terms = [], diag.gamma_terms
        monkeypatch.setattr(diag, "gamma_terms",
                            lambda *args: made.append(gamma_terms(*args)) or made[-1])
        cfg = parse_config(MINIMAL.format(out=tmp_path / "one") + "[model]\n" + model_text)
        assert len(run(cfg).records) == 1
        assert counts == {"rhs": want_rhs, "gamma_terms": 1, "gamma_interior": 0,
                          "commutator_r_advect": 0}
        assert [t.interior is not None for t in made] == [bool(want_gamma)]


class TestSweep:
    def test_single_value_sweep_matches_run(self, tmp_path):
        cfg = parse_config(SMALL_RUN.format(out=tmp_path / "plain"))
        plain = run(cfg)

        cfg_sweep = parse_config(SMALL_RUN.format(out=tmp_path / "sw"))
        ok, csv_path = sweep(cfg_sweep, "initial.amplitude", [0.5])
        assert ok and csv_path.exists()
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 2  # header + one value
        sub = read_ndjson(tmp_path / "sw" / "initial_amplitude_0.5" / "diagnostics.ndjson")
        assert sub[-1]["summary"]["final_n_value"] == plain.summary["final_n_value"]

    def test_failed_value_recorded_and_continues(self, tmp_path):
        cfg = parse_config(SMALL_RUN.format(out=tmp_path / "sf"))
        with np.errstate(over="ignore", invalid="ignore"):
            ok, csv_path = sweep(cfg, "initial.amplitude", [1e130, 0.5])
        rows = csv_path.read_text().strip().splitlines()
        assert not ok
        assert rows[1].startswith("1e+130,failed")
        assert rows[2].startswith("0.5,ok")


class TestCli:
    def test_run_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        path.write_text(SMALL_RUN.format(out=tmp_path / "cli_run"))
        assert cli.main(["run", str(path)]) == 0

        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nmu = -2\n")
        assert cli.main(["run", str(bad)]) == 2
        assert "mu" in capsys.readouterr().err

    def test_norms_subcommand(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        path.write_text(SMALL_RUN.format(out=tmp_path / "cli_norms"))
        assert cli.main(["run", str(path)]) == 0
        snap = tmp_path / "cli_norms" / "snapshot_000.bin"
        assert cli.main(["norms", str(snap), "--norm", "u_l2,gamma_b0inf1"]) == 0
        out = capsys.readouterr().out
        assert "u_l2" in out and "gamma_b0inf1" in out

        assert cli.main(["norms", str(snap), "--norm", "bogus_norm"]) == 2

    def test_directory_argument_is_an_error_line(self, tmp_path, capsys):
        for argv in (["run", str(tmp_path)], ["norms", str(tmp_path)],
                     ["sweep", str(tmp_path), "--param", "model.mu", "--values", "1"]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("t_end, snapshot_times, named", [
        ("0.3", "", "stepping.t_end: 0.3"),
        ("1.0", "snapshot_times = 0.2, 0.7", "output.snapshot_times: 0.2"),
    ], ids=["t_end", "snapshot_times"])
    def test_restart_times_before_its_start_are_config_errors(
            self, tmp_path, capsys, t_end, snapshot_times, named):
        # a run from a snapshot at t = 0.5 cannot end or write a snapshot
        # before t = 0.5: a config error line, and no diagnostics file
        source = tmp_path / "source"
        first = MINIMAL.replace("t_end = 0.0", "t_end = 0.5") + "snapshot_times = 0.5\n"
        assert run(parse_config(first.format(out=source))).ok
        out = tmp_path / "restart"
        path = tmp_path / "restart.cfg"
        path.write_text(f"[grid]\nn = 16\n[stepping]\nt_end = {t_end}\n"
                        f"[initial]\nkind = from_snapshot\n"
                        f"snapshot = {source / 'snapshot_000.bin'}\n"
                        f"[output]\ndir = {out}\n{snapshot_times}\n")
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err and "0.5" in err
        assert not (out / runner.DIAGNOSTICS_FILE).exists()

    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("[grid]\n# Z\u00fcrich\nn = 16\n".encode("latin-1"))
        assert cli.main(["run", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_norms_zero_snapshot(self, tmp_path, capsys):
        from oldroyd2d.grid import Grid
        from oldroyd2d.model import ModelParams, make_state
        from oldroyd2d.fields import SymTensorField
        from oldroyd2d.snapshots import save_snapshot

        grid = Grid(16)
        state = make_state(0.0, ScalarField.zeros(grid), SymTensorField.zeros(grid))
        snap = tmp_path / "zero.bin"
        save_snapshot(state, ModelParams(), snap)
        assert cli.main(["norms", str(snap), "--norm", "u_l2,tau_l2,omega_linf"]) == 0
        out = capsys.readouterr().out
        assert "0.0" in out


    def test_norms_match_record_fields(self, tmp_path, capsys):
        from oldroyd2d.grid import Grid
        from oldroyd2d.initial_data import random_state
        from oldroyd2d.model import ModelParams
        from oldroyd2d.snapshots import load_snapshot, save_snapshot

        snap = tmp_path / "state.bin"
        params = ModelParams(beta=0.2, b=0.3)
        save_snapshot(random_state(Grid(32), (1, 8), [0]), params, snap)
        state, params = load_snapshot(snap)
        record = diag.compute_record(diag.Observation(state, params)).to_dict()
        names = tuple(diag.RECORD) + tuple(cli.NORMS)
        assert cli.main(["norms", str(snap), "--norm", ",".join(names)]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        printed = dict(line.split(maxsplit=1) for line in lines)
        assert list(printed) == list(names)
        assert list(record) == list(diag.RECORD) and not set(cli.NORMS) & set(record)
        for name in diag.RECORD:  # repr: floats equal to the last bit, None, dicts
            assert printed[name] == repr(record[name]), name
        for name in cli.NORMS:
            want = cli.NORMS[name](diag.Observation(state, params))
            assert float(printed[name]) == want, name

    def test_norms_evaluates_only_the_names_asked_for(self, tmp_path, capsys, monkeypatch):
        # u_l2 and gamma_linf need neither d/dt of the state nor the
        # commutator, which gamma_terms makes
        from oldroyd2d.grid import Grid
        from oldroyd2d.initial_data import random_state
        from oldroyd2d.model import ModelParams
        from oldroyd2d.snapshots import load_snapshot, save_snapshot

        snap = tmp_path / "state.bin"
        save_snapshot(random_state(Grid(32), (1, 8), [0]), ModelParams(variant="q_zero"), snap)
        calls = []
        for name in ("time_derivative", "gamma_terms"):
            def counted(*args, _name=name, _fn=getattr(diag, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(diag, name, counted)
        assert cli.main(["norms", str(snap), "--norm", "u_l2,gamma_linf"]) == 0
        assert calls == []
        diag.compute_record(diag.Observation(*load_snapshot(snap)))  # a whole record makes both
        assert sorted(calls) == ["gamma_terms", "time_derivative"]


class TestMutationSensitivity:
    def test_flipped_riesz_sign_fails_cancellation(self, monkeypatch):
        true_riesz = ops.riesz_r

        def flipped(tau):
            out = true_riesz(tau)
            return ScalarField(out.grid, -out.coeffs)

        monkeypatch.setattr(ops, "riesz_r", flipped)
        result = checks.check_cancellation(quick=True)
        assert not result.passed

    def test_unpatched_passes(self):
        assert checks.check_cancellation(quick=True).passed


class TestValueRules:
    """One set of rules for config files, overrides, sweep values and the CLI."""

    # (target, rejected value, accepted value)
    BAD_VALUES = [
        ("output.observe_every", "0", "0.1"),
        ("output.observe_every", "-1", "0.1"),
        ("diagnostics.eps", "1.5", "0.4"),
        ("diagnostics.eps", "5", "0.4"),
        ("diagnostics.eps", "0", "0.4"),
        ("diagnostics.n_functional_m", "0", "10"),
        ("diagnostics.hs", "1", "3"),
        ("diagnostics.hs", "2", "3"),
        ("diagnostics.hs", "inf", "3"),
    ]

    @pytest.mark.parametrize("target, bad, good", BAD_VALUES)
    def test_bad_value_rejected_everywhere(self, tmp_path, capsys, target, bad, good):
        section, key = target.split(".")
        text = MINIMAL.format(out=tmp_path / "p") + f"\n[{section}]\n{key} = {bad}\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.messages[0].startswith(f"line {len(text.splitlines())}: ")

        cfg = parse_config(SMALL_RUN.format(out=tmp_path / "sw"))
        assert with_override(cfg, target, good) is not None
        with pytest.raises(ConfigError):
            with_override(cfg, target, bad)

        path = tmp_path / "sweep.cfg"
        path.write_text(SMALL_RUN.format(out=tmp_path / "sw"))
        argv = ["sweep", str(path), "--param", target, "--values", f"{good},{bad}"]
        assert cli.main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    NONFINITE = [
        ("stepping.t_end", "nan"), ("stepping.t_end", "inf"), ("model.nu", "nan"),
        ("model.k", "inf"), ("model.alpha", "-inf"), ("model.beta", "nan"),
        ("grid.length", "inf"), ("output.snapshot_times", "0.5, nan"),
    ]

    @pytest.mark.parametrize("target, bad", NONFINITE)
    def test_nonfinite_value_rejected(self, tmp_path, capsys, target, bad):
        # a nan t_end never ended a run, an inf one ended it after the t0
        # record, a nan snapshot time was dropped, and a non-finite model
        # coefficient failed at the first step
        section, key = target.split(".")
        got = bad.split(",")[-1].strip()
        text = f"[grid]\nn = 16\n[output]\ndir = {tmp_path / 'p'}\n[{section}]\n{key} = {bad}\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.messages == [f"line 6: bad value for {key!r}: "
                                      f"expected a finite number, got {got}"]

        cfg = parse_config(SMALL_RUN.format(out=tmp_path / "o"))
        value = (0.5, float(got)) if "," in bad else float(got)
        for v in (bad, value):
            with pytest.raises(ConfigError, match="expected a finite number"):
                with_override(cfg, target, v)

        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_empty_hs_rejected(self, tmp_path):
        text = MINIMAL.format(out=tmp_path) + "\n[diagnostics]\nhs =\n"
        with pytest.raises(ConfigError, match=f"line {len(text.splitlines())}: hs"):
            parse_config(text)
        with pytest.raises(ConfigError):
            with_override(parse_config(MINIMAL.format(out=tmp_path)), "diagnostics.hs", "")

    def test_override_converts_by_key_type(self, tmp_path):
        cfg = parse_config(MINIMAL.format(out=tmp_path))
        assert with_override(cfg, "grid.n", "32").grid.n == 32
        assert with_override(cfg, "initial.seed", "3").initial.seed == 3
        assert with_override(cfg, "stepping.scheme", "IFRK2").step.scheme == "ifrk2"
        assert with_override(cfg, "model.q_enabled", "off").params.q_enabled is False
        assert with_override(cfg, "model.k", "2").params.K == 2.0
        assert with_override(cfg, "output.dir", "x").output.directory == "x"
        assert with_override(cfg, "diagnostics.hs", "2.5").diag.hs == (2.5,)
        for target, value in (("grid.n", "pony"), ("grid.n", "7"), ("model.mu", "-1"),
                              ("stepping.scheme", "euler"), ("grid", "32")):
            with pytest.raises(ConfigError):
                with_override(cfg, target, value)

    def test_override_checks_non_string_values_by_key_type(self, tmp_path):
        cfg = parse_config(MINIMAL.format(out=tmp_path))
        for target, value in (("grid.n", 64.0), ("initial.seed", 3.7), ("initial.seed", 3.0),
                              ("grid.n", True), ("model.mu", None),
                              ("model.q_enabled", 1), ("stepping.scheme", 4)):
            with pytest.raises(ConfigError, match=f"^{target} = {value!r}: expected"):
                with_override(cfg, target, value)
        assert with_override(cfg, "grid.n", 64).grid.n == 64
        assert with_override(cfg, "initial.seed", np.int64(3)).initial.seed == 3
        assert with_override(cfg, "model.q_enabled", False).params.q_enabled is False

    def test_override_keeps_numbers_for_float_keys(self, tmp_path):
        cfg = parse_config(MINIMAL.format(out=tmp_path))
        assert with_override(cfg, "initial.delta", 0.1).initial.delta == 0.1
        mu = with_override(cfg, "model.mu", 2).params.mu
        assert mu == 2.0 and isinstance(mu, float)
        assert with_override(cfg, "stepping.t_end", np.float64(0.5)).step.t_end == 0.5

    def test_override_checks_band_against_grid(self, tmp_path):
        cfg = parse_config(SMALL_RUN.format(out=tmp_path))
        with pytest.raises(ConfigError, match="cutoff"):
            with_override(cfg, "grid.n", "8")

    @pytest.mark.parametrize("kind, key", [("random_band_limited", "band_hi"),
                                           ("single_mode", "band_lo")])
    def test_band_past_the_cutoff_names_its_line(self, tmp_path, kind, key):
        # n = 16 keeps modes up to 5; the key the kind reads is 7
        text = (MINIMAL.format(out=tmp_path) + "[initial_tau]\n"
                f"kind = {kind}\nseed = 1\nband_lo = {7 if key == 'band_lo' else 1}\n"
                f"band_hi = {7 if key == 'band_hi' else 8}\n")
        lineno = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(key))
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.messages == [f"line {lineno}: tau band exceeds dealias cutoff 5 at n=16"]

    def test_bad_snapshot_times_name_their_line(self, tmp_path):
        text = SMALL_RUN.format(out=tmp_path).replace(
            "snapshot_times = 0.15", "snapshot_times = 0.2, 0.2, 0.9")
        lineno = text.splitlines().index("snapshot_times = 0.2, 0.2, 0.9") + 1
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.messages == [f"line {lineno}: snapshot time 0.2 is repeated",
                                      f"line {lineno}: snapshot time 0.9 lies past t_end = 0.3"]

    @pytest.mark.parametrize("times, message", [
        ("0.2, 0.1, 0.2", "snapshot time 0.2 is repeated"),
        ("0.1, 0.9", "snapshot time 0.9 lies past t_end = 0.3"),
    ], ids=["repeated", "past_t_end"])
    def test_override_checks_snapshot_times(self, tmp_path, times, message):
        cfg = parse_config(SMALL_RUN.format(out=tmp_path))
        with pytest.raises(ConfigError, match=message):
            with_override(cfg, "output.snapshot_times", times)
        assert with_override(cfg, "output.snapshot_times", "0.1, 0.3").output.snapshot_times \
            == (0.1, 0.3)

    def test_sweep_rejects_t_end_before_a_snapshot_time(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(SMALL_RUN.format(out=tmp_path / "sw"))  # a snapshot at t = 0.15
        argv = ["sweep", str(path), "--param", "stepping.t_end", "--values", "0.3,0.1"]
        assert cli.main(argv) == 2
        assert "snapshot time 0.15 lies past t_end = 0.1" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("target, value, slug", [
        ("grid.n", "16", "grid_n_16"),
        ("initial.seed", "3", "initial_seed_3"),
        ("stepping.scheme", "ifrk4", "stepping_scheme_ifrk4"),
    ])
    def test_cli_sweep_over_non_float_keys(self, tmp_path, target, value, slug):
        path = tmp_path / "sweep.cfg"
        path.write_text(SMALL_RUN.format(out=tmp_path / "sw"))
        assert cli.main(["sweep", str(path), "--param", target, "--values", value]) == 0
        rows = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
        assert rows[1].startswith(f"{value},ok,")
        assert "summary" in read_ndjson(tmp_path / "sw" / slug / "diagnostics.ndjson")[-1]

    def test_float_sweep_keeps_names_and_csv_values(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(SMALL_RUN.format(out=tmp_path / "cli"))
        assert cli.main(["sweep", str(path), "--param", "initial.delta",
                         "--values", "0.02, 1e-1"]) == 0
        cfg = parse_config(SMALL_RUN.format(out=tmp_path / "api"))
        assert sweep(cfg, "initial.delta", [0.02, 0.1])[0]
        for sub in ("cli", "api"):
            out = tmp_path / sub
            assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
                "initial_delta_0.02", "initial_delta_0.1"]
            rows = (out / "sweep.csv").read_text().strip().splitlines()
            assert [row.split(",")[0] for row in rows] == ["value", "0.02", "0.1"]
        assert ((tmp_path / "cli" / "initial_delta_0.1" / "diagnostics.ndjson").read_bytes()
                == (tmp_path / "api" / "initial_delta_0.1" / "diagnostics.ndjson").read_bytes())

    def test_sweep_rejects_values_naming_one_member(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(SMALL_RUN.format(out=tmp_path / "sw"))
        argv = ["sweep", str(path), "--param", "initial.delta",
                "--values", "0.02,1e-1,0.10"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "1e-1 and 0.10" in err and "initial_delta_0.1" in err
        assert not (tmp_path / "sw").exists()
        cfg = parse_config(SMALL_RUN.format(out=tmp_path / "api"))
        with pytest.raises(ConfigError, match="initial_delta_0.1"):
            sweep(cfg, "initial.delta", [0.1, 0.1000001])
        assert not (tmp_path / "api").exists()

    @pytest.mark.parametrize("eps", ["1.5", "5", "0"])
    def test_norms_rejects_eps_outside_unit_interval(self, tmp_path, capsys, eps):
        from oldroyd2d.grid import Grid
        from oldroyd2d.initial_data import random_state
        from oldroyd2d.model import ModelParams
        from oldroyd2d.snapshots import save_snapshot

        snap = tmp_path / "state.bin"
        save_snapshot(random_state(Grid(16), (1, 4), [0]), ModelParams(), snap)
        assert cli.main(["norms", str(snap), "--eps", eps]) == 2
        assert "eps must lie in (0, 1)" in capsys.readouterr().err
        assert cli.main(["norms", str(snap), "--eps", "0.25", "--norm", "tau_bepsinf1"]) == 0


class TestBlowupQuiet:
    def test_blowup_emits_no_runtime_warning(self, tmp_path, capsys):
        path = tmp_path / "blowup.cfg"
        path.write_text(BLOWUP.format(out=tmp_path / "blowup"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", str(path)]) == 1
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err.startswith("run failed: integration failed at t=1:")
