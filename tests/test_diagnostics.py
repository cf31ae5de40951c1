"""Diagnostic calculators: energies, residuals, ledgers, fits."""

import math
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oldroyd2d import besov, fields
from oldroyd2d import diagnostics as diag
from oldroyd2d.config import load_config
from oldroyd2d.fields import ScalarField, SymTensorField, VectorField, sq_norm
from oldroyd2d.grid import Grid
from oldroyd2d.initial_data import make_initial_data
from oldroyd2d.model import FirstStage, ModelParams, make_state, rhs
from oldroyd2d.runner import decay_summary
from oldroyd2d.snapshots import load_snapshot, save_snapshot

from conftest import field_from, rand_state, rand_tensor

Q_ZERO = ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=0.9, beta=0.4,
                     q_enabled=False, variant="q_zero")


def zero_state(grid):
    return make_state(0.0, ScalarField.zeros(grid), SymTensorField.zeros(grid))


def obs(state, params, **opts):
    """The Observation of the state under params and DiagnosticsOptions(**opts)."""
    return diag.Observation(state, params, diag.DiagnosticsOptions(**opts))


class TestEnergyWeighted:
    def test_zero(self, grid16):
        assert diag.energy_weighted(zero_state(grid16), ModelParams()) == 0.0

    def test_single_mode_closed_form(self, grid16):
        # u = (0, -cos x), alpha = 2: E = ||u||^2 = 2 pi^2
        params = ModelParams(alpha=2.0, K=1.0)
        state = make_state(0.0, field_from(grid16, lambda x, y: np.sin(x)),
                           SymTensorField.zeros(grid16))
        assert abs(diag.energy_weighted(state, params) - 2 * math.pi**2) < 1e-12

    def test_additive_in_both_terms(self, grid32):
        params = ModelParams(alpha=1.5, K=0.8)
        state = rand_state(grid32, 1)
        only_u = make_state(0.0, state.omega, SymTensorField.zeros(grid32))
        only_tau = make_state(0.0, ScalarField.zeros(grid32), state.tau)
        total = diag.energy_weighted(state, params)
        split = diag.energy_weighted(only_u, params) + diag.energy_weighted(only_tau, params)
        assert abs(total - split) < 1e-12 * max(total, 1.0)


class TestNFunctional:
    def test_zero(self, grid16):
        state = zero_state(grid16)
        assert diag.n_functional(obs(state, ModelParams(), n_functional_m=5.0)) == 0.0

    def test_tau_free_reduction(self, grid32):
        params = ModelParams(mu=0.8, K=1.0, alpha=1.2)
        state = rand_state(grid32, 2, tau_amp=0.0)
        M = 7.0
        u_sq = state.u.l2() ** 2
        gu_sq = state.omega.l2() ** 2  # ||grad u|| = ||omega|| for div-free u
        want = M * params.alpha * (u_sq + gu_sq) + params.mu**2 * state.omega.l2() ** 2
        got = diag.n_functional(obs(state, params, n_functional_m=M))
        assert abs(got - want) < 1e-10 * want

    def test_monotone_in_m(self, grid32):
        state = rand_state(grid32, 3)
        params = ModelParams()
        assert diag.n_functional(obs(state, params, n_functional_m=20.0)) \
            > diag.n_functional(obs(state, params, n_functional_m=10.0))

    def test_m_positive_required(self, grid16):
        with pytest.raises(ValueError):
            diag.n_functional(obs(zero_state(grid16), ModelParams(), n_functional_m=0.0))


class TestEnergyIdentity:
    def test_zero_state(self, grid16):
        assert diag.energy_identity_residual(obs(zero_state(grid16), Q_ZERO)) == 0.0

    def test_random_states_machine_precision(self, grid32):
        worst = max(
            diag.energy_identity_residual(obs(rand_state(grid32, 10 + i), Q_ZERO))
            for i in range(20)
        )
        assert worst <= 1e-9

    def test_beta_zero_variant(self, grid32):
        params = ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=0.9, beta=0.0,
                             q_enabled=False, variant="q_zero")
        assert diag.energy_identity_residual(obs(rand_state(grid32, 30), params)) <= 1e-9

    def test_viscous_term_included(self, grid32):
        params = ModelParams(nu=0.2, mu=0.7, K=1.3, alpha=0.9, beta=0.1,
                             q_enabled=False, variant="q_zero")
        assert diag.energy_identity_residual(obs(rand_state(grid32, 31), params)) <= 1e-9

    def test_holds_for_nonpositive_alpha(self, grid32):
        # the identity is sign-blind in alpha; only positivity of E is lost
        params = ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=-1.1, beta=0.2,
                             q_enabled=False, variant="q_zero")
        assert diag.energy_identity_residual(obs(rand_state(grid32, 32), params)) <= 1e-9

    def test_q_on_rejected(self, grid16):
        with pytest.raises(ValueError, match="Q"):
            diag.energy_identity_residual(obs(zero_state(grid16), ModelParams(q_enabled=True)))


class TestEnstrophyBalance:
    def test_zero_state(self, grid16):
        bal = diag.enstrophy_balance(obs(zero_state(grid16), Q_ZERO))
        assert bal.lhs == 0.0 and bal.majorant == 0.0

    def test_rest_state_closed_form(self, grid32):
        # u = 0: lhs = -(2 mu - 1/2) ||Lap tau||^2 - 2 beta ||grad tau||^2
        tau = rand_tensor(grid32, 4)
        state = make_state(0.0, ScalarField.zeros(grid32), tau)
        bal = diag.enstrophy_balance(obs(state, Q_ZERO))
        want = -(2 * Q_ZERO.mu - 0.5) * sq_norm(tau, grid32.ksq**2) \
            - 2 * Q_ZERO.beta * sq_norm(tau, grid32.ksq)
        assert abs(bal.lhs - want) < 1e-9 * abs(want)
        assert bal.majorant == 0.0


class TestGammaResidual:
    def test_zero_state(self, grid16):
        assert diag.gamma_residual(obs(zero_state(grid16), Q_ZERO)) == 0.0

    def test_random_states(self, grid32):
        p_on = ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=0.9, beta=0.4, b=0.6)
        worst = 0.0
        for i in range(20):
            s = rand_state(grid32, 40 + i)
            worst = max(worst, diag.gamma_residual(obs(s, Q_ZERO)),
                        diag.gamma_residual(obs(s, p_on)))
        assert worst <= 1e-10

    def test_band_limited_refinement_invariance(self):
        # the same band-limited state gives a roundoff-level residual at any n
        for n in (32, 64):
            s = rand_state(Grid(n), 50, band=(1, 8))
            assert diag.gamma_residual(obs(s, Q_ZERO)) <= 1e-12

    def test_nu_rejected(self, grid16):
        with pytest.raises(ValueError):
            diag.gamma_residual(obs(zero_state(grid16), ModelParams(nu=0.5)))


class TestCommutatorRatio:
    def test_constant_velocity_gives_zero(self, grid32):
        c1 = np.zeros(grid32.shape, dtype=np.complex128)
        c1[0, 0] = 1.0
        u = VectorField(ScalarField(grid32, c1), ScalarField.zeros(grid32))
        tau = rand_tensor(grid32, 5)
        # omega = 0 for constant u, so the majorant degenerates -> None
        assert diag.commutator_ratio(u, tau, 0.5) is None

    def test_amplitude_invariance(self, grid32):
        state = rand_state(grid32, 6)
        r1 = diag.commutator_ratio(state.u, state.tau, 0.5)
        r2 = diag.commutator_ratio(state.u, 3.7 * state.tau, 0.5)
        assert r1 is not None
        assert abs(r1 - r2) < 1e-8 * r1

    def test_degenerate_denominator(self, grid16):
        u = VectorField(ScalarField.zeros(grid16), ScalarField.zeros(grid16))
        assert diag.commutator_ratio(u, SymTensorField.zeros(grid16), 0.5) is None

    def test_eps_validated(self, grid16):
        u = VectorField(ScalarField.zeros(grid16), ScalarField.zeros(grid16))
        with pytest.raises(ValueError):
            diag.commutator_ratio(u, SymTensorField.zeros(grid16), 1.5)


class TestBkm:
    def test_log_check_single_mode(self, grid32):
        # u = (0, -cos x): |grad u|_inf = 1, |omega|_inf = 1
        params = ModelParams()
        state = make_state(0.0, field_from(grid32, lambda x, y: np.sin(x)),
                           SymTensorField.zeros(grid32))
        rec = diag.compute_record(obs(state, params, hs=(3.0,)))
        got = diag.bkm_log_check(rec)
        u_h3 = rec.u_hs["3"]
        want = 1.0 / (1.0 * math.log(math.e + u_h3))
        assert got == pytest.approx(want, rel=1e-10)

    def test_log_check_zero_vorticity(self, grid16):
        rec = diag.compute_record(obs(zero_state(grid16), ModelParams()))
        assert diag.bkm_log_check(rec) is None


class TestDecayFit:
    def test_exact_exponential(self):
        ts = np.linspace(0.0, 5.0, 40)
        fit = diag.decay_fit(ts, np.exp(-2.0 * ts))
        assert abs(fit.rate + 2.0) < 1e-6
        assert fit.r_squared > 0.999999

    def test_constant_series(self):
        ts = np.linspace(0.0, 5.0, 20)
        fit = diag.decay_fit(ts, np.full(20, 3.3))
        assert abs(fit.rate) < 1e-12
        assert fit.r_squared == 1.0

    def test_modulated_exponential(self):
        lam = 0.7
        ts = np.linspace(0.0, 10.0, 200)
        vals = np.exp(-lam * ts) * (1.0 + 0.01 * np.sin(ts))
        fit = diag.decay_fit(ts, vals)
        assert abs(fit.rate + lam) < 0.02

    def test_requirements(self):
        with pytest.raises(ValueError):
            diag.decay_fit([0, 1, 2], [1, 1, 1])
        ts = np.linspace(0, 1, 12)
        with pytest.raises(ValueError):
            diag.decay_fit(ts, np.linspace(-1, 1, 12))


class TestDecaySummary:
    def test_conserved_series_has_no_fit(self):
        # a conserved norm drifting by roundoff: no decay rate is reported
        ts = list(np.linspace(0.0, 5.0, 20))
        vals = list(2.5 * (1.0 + 1e-13 * np.sin(np.arange(20.0))))
        assert decay_summary(ts, vals) is None

    def test_decaying_series_is_fitted(self):
        ts = list(np.linspace(0.0, 5.0, 20))
        vals = list(np.exp(-0.3 * np.array(ts)))
        fit = diag.decay_fit(ts, vals)
        assert decay_summary(ts, vals) == {"rate": fit.rate, "r_squared": fit.r_squared}
        assert decay_summary(ts[:9], vals[:9]) is None


class TestRecord:
    def test_all_finite_and_serializable(self, grid32):
        import json

        state = rand_state(grid32, 7)
        rec = diag.compute_record(obs(state, Q_ZERO, hs=(2.5, 3.0)))
        payload = rec.to_dict()
        text = json.dumps(payload)
        back = json.loads(text)
        for key, val in back.items():
            if isinstance(val, float):
                assert math.isfinite(val), key
        assert set(back["u_hs"]) == {"2.5", "3"}

    def test_key_order(self, grid16):
        # the NDJSON keys of a record, in order
        assert list(diag.compute_record(obs(zero_state(grid16), Q_ZERO)).to_dict()) == [
            "t", "u_l2", "tau_l2", "grad_u_l2", "grad_tau_l2", "lap_tau_l2",
            "omega_linf", "omega_l2", "gamma_linf", "gamma_b0inf1", "tau_bepsinf1",
            "tau_h2", "grad_u_linf", "bkm_accum", "energy_weighted", "n_value",
            "energy_identity_residual", "gamma_residual", "commutator_norm",
            "gamma_rhs_linf", "u_hs", "tau_hs",
        ]

    def test_residuals_none_when_inapplicable(self, grid16):
        state = zero_state(grid16)
        rec = diag.compute_record(obs(state, ModelParams(nu=0.1, q_enabled=True)))
        assert rec.energy_identity_residual is None
        assert rec.gamma_residual is None
        assert rec.gamma_rhs_linf is None


    def test_each_parseval_sum_once_per_observation(self, monkeypatch):
        # the record and the enstrophy ledger of stock (a) at n = 128 share
        # the observation's L2 norms of u and tau and its gradient and
        # Laplacian squares, each summed once
        config = load_config(Path(__file__).resolve().parent.parent / "configs"
                             / "a_large_data_q_zero.cfg")
        state = make_initial_data(config.initial, config.tau_initial, Grid(128), config.params)
        calls, mode_sum = [], fields.mode_sum

        def counted(*args):
            calls.append(1)
            return mode_sum(*args)

        for module in (fields, diag):
            monkeypatch.setattr(module, "mode_sum", counted)
        o = diag.Observation(state, config.params, config.diag)
        rec = diag.compute_record(o)
        diag.enstrophy_balance(o)
        assert len(calls) == 39
        ksq = state.grid.ksq
        assert (rec.u_l2, rec.tau_l2) == (state.u.l2(), state.tau.l2())
        assert rec.grad_tau_l2 == math.sqrt(sq_norm(state.tau, ksq))
        assert rec.lap_tau_l2 == math.sqrt(sq_norm(state.tau, ksq**2))
        assert o.grad_u_sq == sq_norm(state.u, ksq)


class TestObservationView:
    @pytest.mark.parametrize("params", [
        Q_ZERO,
        ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=0.9, beta=0.4, b=0.3),
        ModelParams(nu=0.1, mu=0.7, K=1.3, alpha=0.9, beta=0.4, variant="stokes_toy"),
    ], ids=["q_zero", "full", "stokes_toy"])
    def test_diagnostics_leave_the_state_as_it_was(self, tmp_path, grid32, params):
        # every cache a record makes lands on the observation's view, which
        # holds the state's stack and the grid values a snapshot stored
        s = rand_state(grid32, 21)
        save_snapshot(make_state(0.0, s.omega, s.tau, params), params, tmp_path / "s.bin")
        state = load_snapshot(tmp_path / "s.bin")[0]
        state.tau.t12.physical
        objects = [state, state.omega, state.tau, *state.tau.components]
        keys = [set(vars(x)) for x in objects]
        o = obs(state, params)
        diag.compute_record(o)
        if params.energy_law:
            diag.enstrophy_balance(o)
        assert [set(vars(x)) for x in objects] == keys
        assert o.state.y is state.y
        for f, v in zip((o.state.omega, *o.state.tau.components), state.values):
            assert f.physical.ctypes.data == v.ctypes.data
        assert {"u", "grad_u", "omega", "tau"} <= set(vars(o.state))

    def test_padded_transform_dies_with_the_observation(self):
        grid = Grid(26)  # a grid of this test alone: nothing else holds its buffer
        o = obs(rand_state(grid, 22), Q_ZERO)
        diag.compute_record(o)
        pad = weakref.ref(besov.padded_transform(grid))
        assert pad() is o._padded
        del o
        assert pad() is None


class TestRecordMemory:
    @staticmethod
    def warm_observation_peak(params, n=64):
        """The traced peak, in packed stacks, of the first stage integrate
        carries across an observation and of one warm observation (record
        and enstrophy ledger) of the state that holds it."""
        grid = Grid(n)
        seed = rand_state(grid, 23, band=(1, n // 3))
        state = make_state(0.0, seed.omega, seed.tau, params)

        def observe():
            k0 = rhs(state.y, grid, params)
            k0.setflags(write=False)
            o = obs(replace(state, first_stage=FirstStage(params, state.y, k0)), params)
            diag.compute_record(o)
            if params.energy_law:
                diag.enstrophy_balance(o)

        observe()
        tracemalloc.start()
        try:
            observe()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (4 * n * (n // 2 + 1) * 16)

    @pytest.mark.parametrize("params, bound", [
        (ModelParams(nu=0.0, mu=1.0, K=1.0, alpha=1.0, beta=0.0, variant="q_zero"), 8.5),
        (ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=0.9, beta=0.4, b=0.3), 10.3),
    ], ids=["stock_a", "full"])
    def test_warm_observation_peak(self, params, bound):
        # the record makes its shared terms before its other fields, and
        # takes d/dt from the carried first stage: 7.5 (stock (a) physics)
        # and 9.6 (Q on) packed stacks traced here, the carried stack
        # included, where the record alone, with its own rhs, peaked at 10.3
        assert self.warm_observation_peak(params) < bound
