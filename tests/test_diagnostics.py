"""Diagnostic calculators: energies, residuals, ledgers, fits."""

import math

import numpy as np
import pytest

from oldroyd2d import diagnostics as diag
from oldroyd2d.fields import ScalarField, SymTensorField, VectorField, sq_norm
from oldroyd2d.grid import Grid
from oldroyd2d.model import ModelParams, make_state

from conftest import field_from, rand_state, rand_tensor

Q_ZERO = ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=0.9, beta=0.4,
                     q_enabled=False, variant="q_zero")


def zero_state(grid):
    return make_state(0.0, ScalarField.zeros(grid), SymTensorField.zeros(grid))


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
        assert diag.n_functional(zero_state(grid16), ModelParams(), 5.0) == 0.0

    def test_tau_free_reduction(self, grid32):
        params = ModelParams(mu=0.8, K=1.0, alpha=1.2)
        state = rand_state(grid32, 2, tau_amp=0.0)
        M = 7.0
        u_sq = state.u.l2() ** 2
        gu_sq = state.omega.l2() ** 2  # ||grad u|| = ||omega|| for div-free u
        want = M * params.alpha * (u_sq + gu_sq) + params.mu**2 * state.omega.l2() ** 2
        got = diag.n_functional(state, params, M)
        assert abs(got - want) < 1e-10 * want

    def test_monotone_in_m(self, grid32):
        state = rand_state(grid32, 3)
        params = ModelParams()
        assert diag.n_functional(state, params, 20.0) > diag.n_functional(state, params, 10.0)

    def test_m_positive_required(self, grid16):
        with pytest.raises(ValueError):
            diag.n_functional(zero_state(grid16), ModelParams(), 0.0)


class TestEnergyIdentity:
    def test_zero_state(self, grid16):
        assert diag.energy_identity_residual(zero_state(grid16), Q_ZERO) == 0.0

    def test_random_states_machine_precision(self, grid32):
        worst = max(
            diag.energy_identity_residual(rand_state(grid32, 10 + i), Q_ZERO)
            for i in range(20)
        )
        assert worst <= 1e-9

    def test_beta_zero_variant(self, grid32):
        params = ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=0.9, beta=0.0,
                             q_enabled=False, variant="q_zero")
        assert diag.energy_identity_residual(rand_state(grid32, 30), params) <= 1e-9

    def test_viscous_term_included(self, grid32):
        params = ModelParams(nu=0.2, mu=0.7, K=1.3, alpha=0.9, beta=0.1,
                             q_enabled=False, variant="q_zero")
        assert diag.energy_identity_residual(rand_state(grid32, 31), params) <= 1e-9

    def test_holds_for_nonpositive_alpha(self, grid32):
        # the identity is sign-blind in alpha; only positivity of E is lost
        params = ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=-1.1, beta=0.2,
                             q_enabled=False, variant="q_zero")
        assert diag.energy_identity_residual(rand_state(grid32, 32), params) <= 1e-9

    def test_q_on_rejected(self, grid16):
        with pytest.raises(ValueError, match="Q"):
            diag.energy_identity_residual(zero_state(grid16), ModelParams(q_enabled=True))


class TestEnstrophyBalance:
    def test_zero_state(self, grid16):
        bal = diag.enstrophy_balance(zero_state(grid16), Q_ZERO)
        assert bal.lhs == 0.0 and bal.majorant == 0.0

    def test_rest_state_closed_form(self, grid32):
        # u = 0: lhs = -(2 mu - 1/2) ||Lap tau||^2 - 2 beta ||grad tau||^2
        tau = rand_tensor(grid32, 4)
        state = make_state(0.0, ScalarField.zeros(grid32), tau)
        bal = diag.enstrophy_balance(state, Q_ZERO)
        want = -(2 * Q_ZERO.mu - 0.5) * sq_norm(tau, grid32.ksq**2) \
            - 2 * Q_ZERO.beta * sq_norm(tau, grid32.ksq)
        assert abs(bal.lhs - want) < 1e-9 * abs(want)
        assert bal.majorant == 0.0


class TestGammaResidual:
    def test_zero_state(self, grid16):
        assert diag.gamma_residual(zero_state(grid16), Q_ZERO) == 0.0

    def test_random_states(self, grid32):
        p_on = ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=0.9, beta=0.4, b=0.6)
        worst = 0.0
        for i in range(20):
            s = rand_state(grid32, 40 + i)
            worst = max(worst, diag.gamma_residual(s, Q_ZERO), diag.gamma_residual(s, p_on))
        assert worst <= 1e-10

    def test_band_limited_refinement_invariance(self):
        # the same band-limited state gives a roundoff-level residual at any n
        for n in (32, 64):
            s = rand_state(Grid(n), 50, band=(1, 8))
            assert diag.gamma_residual(s, Q_ZERO) <= 1e-12

    def test_nu_rejected(self, grid16):
        with pytest.raises(ValueError):
            diag.gamma_residual(zero_state(grid16), ModelParams(nu=0.5))


class TestCommutatorRatio:
    def test_constant_velocity_gives_zero(self, grid32):
        c1 = np.zeros((32, 32), dtype=np.complex128)
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
    def test_constant_integrand(self):
        assert diag.bkm_integral([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == pytest.approx(2.0)

    def test_empty(self):
        assert diag.bkm_integral([], []) == 0.0

    def test_linear_ramp(self):
        ts = np.linspace(0.0, 1.0, 11)
        assert diag.bkm_integral(ts, ts) == pytest.approx(0.5)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            diag.bkm_integral([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])

    def test_log_check_single_mode(self, grid32):
        # u = (0, -cos x): |grad u|_inf = 1, |omega|_inf = 1
        params = ModelParams()
        state = make_state(0.0, field_from(grid32, lambda x, y: np.sin(x)),
                           SymTensorField.zeros(grid32))
        rec = diag.compute_record(state, params, diag.DiagnosticsOptions(hs=(3.0,)))
        got = diag.bkm_log_check(rec)
        u_h3 = rec.u_hs["3"]
        want = 1.0 / (1.0 * math.log(math.e + u_h3))
        assert got == pytest.approx(want, rel=1e-10)

    def test_log_check_zero_vorticity(self, grid16):
        rec = diag.compute_record(zero_state(grid16), ModelParams())
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


class TestRecord:
    def test_all_finite_and_serializable(self, grid32):
        import json

        state = rand_state(grid32, 7)
        rec = diag.compute_record(state, Q_ZERO, diag.DiagnosticsOptions(hs=(2.5, 3.0)))
        payload = rec.to_dict()
        text = json.dumps(payload)
        back = json.loads(text)
        for key, val in back.items():
            if isinstance(val, float):
                assert math.isfinite(val), key
        assert set(back["u_hs"]) == {"2.5", "3"}

    def test_residuals_none_when_inapplicable(self, grid16):
        state = zero_state(grid16)
        rec = diag.compute_record(state, ModelParams(nu=0.1, q_enabled=True))
        assert rec.energy_identity_residual is None
        assert rec.gamma_residual is None
        assert rec.gamma_rhs_linf is None
