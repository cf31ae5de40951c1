"""Model right-hand sides, Q, Gamma transform, commutator, Stokes toy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oldroyd2d import operators as ops
from oldroyd2d.errors import ConfigError
from oldroyd2d.fields import ScalarField, SymTensorField, VectorField
from oldroyd2d.grid import Grid
from oldroyd2d.model import (
    ModelParams,
    SimState,
    apply_symbol,
    commutator_r_advect,
    gamma_interior,
    gamma_of,
    gamma_terms,
    linear_symbol,
    make_state,
    rhs,
    stokes_toy_velocity,
    time_derivative,
)
from oldroyd2d.snapshots import load_snapshot, save_snapshot
from oldroyd2d.stepping import StepConfig, step

from conftest import (field_from, full_coeffs, full_wavevectors, grad, half_field, max_divergence,
                      nyquist_state, q_form, rand_state, rand_tensor, rel_err, stack)


class TestModelParams:
    def test_mu_positive_required(self):
        with pytest.raises(ConfigError, match="mu"):
            ModelParams(mu=0.0, variant="q_zero")
        with pytest.raises(ConfigError, match="mu"):
            ModelParams(mu=-1.0, variant="full")

    def test_stokes_toy_allows_zero_mu(self):
        p = ModelParams(mu=0.0, variant="stokes_toy", q_enabled=False)
        assert p.mu == 0.0

    def test_q_zero_forces_q_off(self):
        p = ModelParams(variant="q_zero", q_enabled=True)
        assert not p.q_enabled

    def test_slip_parameter_range(self):
        with pytest.raises(ConfigError, match="b must"):
            ModelParams(b=1.5)

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError, match="K"):
            ModelParams(K=-0.1)

    def test_damping_rate(self):
        p = ModelParams(mu=2.0, K=1.0, alpha=1.0)
        assert p.gamma_damping_rate == 0.25


class TestSimState:
    def test_mean_vorticity_rejected(self, grid16):
        omega = ScalarField.from_physical(grid16, np.ones((16, 16)))
        with pytest.raises(ValueError, match="zero mean"):
            make_state(0.0, omega, SymTensorField.zeros(grid16))
        y = np.zeros((4,) + grid16.shape, dtype=np.complex128)
        y[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="zero mean"):
            SimState(t=0.0, y=y, grid=grid16)

    def test_velocity_cache_consistent(self, grid32):
        state = rand_state(grid32, 1)
        back = ops.curl(state.u)
        assert np.max(np.abs(back.coeffs - state.omega.coeffs)) < 1e-12
        assert max_divergence(state.u) < 1e-12


class TestQForm:
    def test_zero_tau(self, grid16):
        state = rand_state(grid16, 2, band=(1, 4))
        q = q_form(state.grad_u, SymTensorField.zeros(grid16), b=0.7)
        assert all(np.max(np.abs(c.coeffs)) < 1e-14 for c in q.components)

    def test_rotation_against_constant_diagonal_tau(self, grid16):
        # u = (0, -cos x): Omega_12 = sin(x)/2; tau = diag(1, 0)
        u = ops.biot_savart(field_from(grid16, lambda x, y: np.sin(x)))
        one = ScalarField.from_physical(grid16, np.ones((16, 16)))
        z = ScalarField.zeros(grid16)
        tau = SymTensorField(one, z, z)
        q = q_form(ops.velocity_gradient(u), tau, b=0.0)
        want = -0.5 * np.sin(grid16.x)
        assert np.max(np.abs(q.t11.physical)) < 1e-13
        assert rel_err(q.t12.physical, want) < 1e-12
        assert np.max(np.abs(q.t22.physical)) < 1e-13

    def test_symmetric_part_with_identity_tau(self, grid16):
        # symmetric grad u (Omega = 0), tau = I, b = 1: Q = 2 Du
        phi = field_from(grid16, lambda x, y: np.sin(x) * np.sin(y))
        gx, gy = grad(phi)
        u = VectorField(gx, gy)  # gradient field: grad u symmetric
        one = ScalarField.from_physical(grid16, np.ones((16, 16)))
        z = ScalarField.zeros(grid16)
        tau = SymTensorField(one, z, one)
        q = q_form(ops.velocity_gradient(u), tau, b=1.0)
        du = ops.sym_grad(u)
        for got, want in zip(q.components, du.components):
            assert np.max(np.abs(got.coeffs - 2.0 * ops.dealias(want).coeffs)) < 1e-12

    @settings(max_examples=10, deadline=None)
    @given(c=st.floats(-3, 3, allow_nan=False))
    def test_linear_in_tau(self, c):
        grid = Grid(16)
        state = rand_state(grid, 3, band=(1, 4))
        tau = rand_tensor(grid, 4, band=(1, 4))
        q1 = q_form(state.grad_u, tau, b=0.5)
        q2 = q_form(state.grad_u, c * tau, b=0.5)
        for a, b_ in zip(q1.components, q2.components):
            assert np.max(np.abs(c * a.coeffs - b_.coeffs)) < 1e-12 * max(1.0, abs(c))

    def test_output_symmetric_by_construction(self, grid32):
        state = rand_state(grid32, 5)
        q = q_form(state.grad_u, state.tau, b=-0.4)
        assert isinstance(q, SymTensorField)


class TestRhs:
    def test_zero_state(self, grid16):
        state = make_state(0.0, ScalarField.zeros(grid16), SymTensorField.zeros(grid16))
        d_omega, d_tau = time_derivative(state, ModelParams())
        assert d_omega.l2() == 0.0
        assert all(c.l2() == 0.0 for c in d_tau.components)

    def test_diagonal_decay_example(self, grid16):
        # u = 0, tau = cos(x) I: d tau = -(beta + mu) cos(x) I, d omega = 0
        params = ModelParams(nu=0.0, mu=0.7, K=1.0, alpha=1.0, beta=0.3,
                             q_enabled=False, variant="q_zero")
        c = field_from(grid16, lambda x, y: np.cos(x))
        z = ScalarField.zeros(grid16)
        state = make_state(0.0, ScalarField.zeros(grid16), SymTensorField(c, z, c))
        d_omega, d_tau = time_derivative(state, params)
        want = -(params.beta + params.mu) * np.cos(grid16.x)
        assert rel_err(d_tau.t11.physical, want) < 1e-12
        assert rel_err(d_tau.t22.physical, want) < 1e-12
        assert np.max(np.abs(d_tau.t12.coeffs)) < 1e-14
        assert d_omega.l2() < 1e-14

    def test_single_mode_vorticity_with_zero_tau(self, grid16):
        params = ModelParams(nu=0.35, mu=1.0, K=1.0, alpha=0.8,
                             q_enabled=False, variant="q_zero")
        omega = field_from(grid16, lambda x, y: np.sin(x))
        state = make_state(0.0, omega, SymTensorField.zeros(grid16))
        d_omega, d_tau = time_derivative(state, params)
        du = ops.sym_grad(state.u)
        for got, want in zip(d_tau.components, du.components):
            assert np.max(np.abs(got.coeffs - params.alpha * want.coeffs)) < 1e-13
        lap = ops.laplacian(omega)
        assert np.max(np.abs(d_omega.coeffs - params.nu * lap.coeffs)) < 1e-13

    def test_stiff_plus_explicit_is_full(self, grid32):
        params = ModelParams(nu=0.1, mu=0.5, K=1.2, alpha=0.9, beta=0.4, b=0.3)
        state = rand_state(grid32, 6)
        y = state.y
        full = stack(*time_derivative(state, params))
        stiff = apply_symbol(linear_symbol(grid32, params), y)
        assert np.max(np.abs(full - rhs(y, grid32, params) - stiff)) < 1e-12

        # u = 0, K = alpha = 0, Q off: only diffusion and relaxation act on
        # tau, and rhs, which holds no stiff part, is exactly zero
        relax = ModelParams(nu=0.1, mu=0.5, K=0.0, alpha=0.0, beta=0.4,
                            q_enabled=False, variant="q_zero")
        still = make_state(0.0, ScalarField.zeros(grid32), state.tau)
        assert not np.any(rhs(still.y, grid32, relax))
        assert np.any(stack(*time_derivative(still, relax)))

    def test_vorticity_rhs_zero_mean(self, grid32):
        state = rand_state(grid32, 7)
        d_omega, _ = time_derivative(state, ModelParams(b=0.5))
        assert abs(d_omega.coeffs[0, 0]) < 1e-14

    def test_tensor_advection_skew_symmetry(self, grid32):
        from oldroyd2d.fields import inner

        state = rand_state(grid32, 18)
        adv = ops.advect_tensor(state.u, state.tau)
        integral = inner(adv, state.tau)
        assert abs(integral) <= 1e-10 * state.u.l2() * state.tau.l2() ** 2


def predicted_dgamma(state, params):
    """d/dt Gamma by the transformed equation (nu = 0 only):
    -u.grad Gamma + K beta R tau - (K alpha/2) omega + K [R, u.grad] tau - K R(Q)."""
    if params.nu != 0.0:
        raise ValueError("the Gamma equation requires nu = 0")
    r_tau = ops.riesz_r(state.tau)
    gamma = gamma_of(state, params, r_tau)
    return -1.0 * ops.advect(state.u, gamma) + gamma_terms(state, params, r_tau, gamma).interior


class TestGamma:
    def test_gamma_of_zero_tau(self, grid16):
        params = ModelParams(mu=0.6, K=2.0)
        state = make_state(0.0, field_from(grid16, lambda x, y: np.sin(x)),
                           SymTensorField.zeros(grid16))
        g = gamma_of(state, params)
        assert np.max(np.abs(g.coeffs - 0.6 * state.omega.coeffs)) < 1e-14

    def test_gamma_of_single_mode_tau(self, grid16):
        params = ModelParams(mu=1.0, K=1.5)
        z = ScalarField.zeros(grid16)
        tau = SymTensorField(z, field_from(grid16, lambda x, y: np.cos(x)), z)
        state = make_state(0.0, ScalarField.zeros(grid16), tau)
        g = gamma_of(state, params)
        assert rel_err(g.physical, -1.5 * np.cos(grid16.x)) < 1e-12

    def test_gamma_linear(self, grid32):
        params = ModelParams(mu=0.8, K=1.1)
        s1 = rand_state(grid32, 8)
        s2 = rand_state(grid32, 9)
        s_sum = make_state(0.0, s1.omega + s2.omega, s1.tau + s2.tau)
        lhs = gamma_of(s_sum, params)
        rhs_ = gamma_of(s1, params) + gamma_of(s2, params)
        assert np.max(np.abs(lhs.coeffs - rhs_.coeffs)) < 1e-13

    def test_zero_state_rhs(self, grid16):
        params = ModelParams(nu=0.0)
        state = make_state(0.0, ScalarField.zeros(grid16), SymTensorField.zeros(grid16))
        assert predicted_dgamma(state, params).l2() == 0.0

    def test_nu_nonzero_rejected(self, grid16):
        params = ModelParams(nu=0.1)
        state = make_state(0.0, ScalarField.zeros(grid16), SymTensorField.zeros(grid16))
        with pytest.raises(ValueError, match="nu"):
            predicted_dgamma(state, params)

    def test_pure_vorticity_reduction(self, grid32):
        # Q off and tau = 0: d Gamma = -u.grad(Gamma) - (K alpha / 2) omega
        params = ModelParams(nu=0.0, mu=0.9, K=1.4, alpha=1.1,
                             q_enabled=False, variant="q_zero")
        state = rand_state(grid32, 11, tau_amp=0.0)
        got = predicted_dgamma(state, params)
        gamma = params.mu * state.omega
        want = -1.0 * ops.advect(state.u, gamma) \
            - (params.K * params.alpha / 2.0) * state.omega
        assert (got - want).l2() <= 1e-12 * max(want.l2(), 1e-30)

    def test_finite_difference_oracle(self):
        # (Gamma(t+2h) - Gamma(t)) / 2h matches the predicted rhs at t+h to O(h^2)
        grid = Grid(32)
        params = ModelParams(nu=0.0, mu=0.8, K=1.2, alpha=0.9, beta=0.3, b=0.4)
        state = rand_state(grid, 12, omega_amp=0.3, tau_amp=0.3, band=(1, 4))

        def fd_error(h):
            cfg = StepConfig(scheme="ifrk4", dt_max=h, dt_min=h, t_end=2 * h)
            s1 = step(state, h, params, cfg)
            s2 = step(s1, h, params, cfg)
            fd = (1.0 / (2 * h)) * (gamma_of(s2, params) - gamma_of(state, params))
            pred = predicted_dgamma(s1, params)
            return (fd - pred).l2() / max(pred.l2(), 1e-30)

        hs = np.array([0.02, 0.01, 0.005])
        errs = np.array([fd_error(h) for h in hs])
        slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
        assert errs[-1] < 1e-3
        assert 1.6 <= slope <= 2.4  # second-order central difference


class TestCommutator:
    def test_constant_velocity(self, grid32):
        c1 = np.zeros(grid32.shape, dtype=np.complex128)
        c2 = c1.copy()
        c1[0, 0], c2[0, 0] = 1.3, -0.2
        u = VectorField(ScalarField(grid32, c1), ScalarField(grid32, c2))
        tau = rand_tensor(grid32, 13)
        assert commutator_r_advect(u, tau).l2() < 1e-12

    def test_constant_tau(self, grid32):
        u = rand_state(grid32, 14).u
        one = ScalarField.from_physical(grid32, np.ones((32, 32)))
        tau = SymTensorField(one, 0.3 * one, -0.7 * one)
        assert commutator_r_advect(u, tau).l2() < 1e-13

    def test_dense_convolution_oracle(self):
        """Brute-force circular-convolution evaluation of both orderings."""
        grid = Grid(16)
        state = rand_state(grid, 15, band=(1, 4))
        u, tau = state.u, state.tau

        def conv(fc, gc):
            out = np.zeros_like(fc)
            for m1 in range(grid.n):
                for m2 in range(grid.n):
                    c = fc[m1, m2]
                    if c == 0:
                        continue
                    out += c * np.roll(np.roll(gc, m1, axis=0), m2, axis=1)
            return out

        g = full_wavevectors(grid)  # full-layout spectra of the grid values
        u1, u2 = full_coeffs(u.u1), full_coeffs(u.u2)

        def advect_coeffs(scalar_coeffs):
            gx = 1j * g.deriv_k1 * scalar_coeffs
            gy = 1j * g.deriv_k2 * scalar_coeffs
            return (conv(u1, gx) + conv(u2, gy)) * g.dealias_mask

        def riesz_coeffs(t11, t12, t22):
            num = (g.k1**2 - g.k2**2) * t12 + g.k1 * g.k2 * (t22 - t11)
            return num * g.inv_ksq

        t = [full_coeffs(c) for c in tau.components]
        term1 = riesz_coeffs(*(advect_coeffs(c) for c in t))
        term2 = advect_coeffs(riesz_coeffs(*t))
        want = half_field(grid, term1 - term2).coeffs

        got = commutator_r_advect(u, tau)
        scale = max(np.max(np.abs(want)), 1e-30)
        assert np.max(np.abs(got.coeffs - want)) <= 1e-12 * scale


class TestStokesToy:
    def test_zero(self, grid16):
        u = stokes_toy_velocity(SymTensorField.zeros(grid16))
        assert u.l2() == 0.0

    def test_single_mode_closed_form(self, grid16):
        # tau12 = cos x: div tau = (0, -sin x), already divergence-free,
        # so -Lap u = div tau gives u = (0, -sin x) at |k| = 1
        z = ScalarField.zeros(grid16)
        tau = SymTensorField(z, field_from(grid16, lambda x, y: np.cos(x)), z)
        u = stokes_toy_velocity(tau)
        assert np.max(np.abs(u.u1.physical)) < 1e-13
        assert rel_err(u.u2.physical, -np.sin(grid16.x)) < 1e-12

    def test_divergence_free(self, grid32):
        tau = rand_tensor(grid32, 16)
        u = stokes_toy_velocity(tau)
        assert max_divergence(u) <= 1e-12 * max(np.max(np.abs(u.u1.coeffs)), 1e-30)

    @pytest.mark.parametrize("q_enabled", [False, True])
    def test_time_derivative_matches_a_step(self, grid32, q_enabled):
        # The Stokes toy's omega = -R(tau) moves with tau: its d/dt is the
        # forward difference of one short step, to the step's O(h) gap.
        params = ModelParams(nu=0.0, mu=0.3, alpha=1.0, beta=0.2, b=0.6,
                             q_enabled=q_enabled, variant="stokes_toy")
        s = rand_state(grid32, 3)
        state, h = make_state(0.0, s.omega, s.tau, params), 1e-5
        new = step(state, h, params, StepConfig(dt_max=h, t_end=h))
        d_omega, d_tau = time_derivative(state, params)
        for got, old, now in ((d_omega, state.omega, new.omega), (d_tau, state.tau, new.tau)):
            fd = (now - old) * (1.0 / h)
            assert (got - fd).l2() <= 1e-3 * fd.l2()

    def test_stokes_state_and_rhs(self, grid32):
        params = ModelParams(nu=0.0, mu=0.0, beta=0.0, alpha=1.0,
                             q_enabled=False, variant="stokes_toy")
        tau = rand_tensor(grid32, 17)
        state = make_state(0.0, ScalarField.zeros(grid32), tau, params)
        want = stokes_toy_velocity(tau)
        assert (state.u.u1 - want.u1).l2() < 1e-12
        d_omega, d_tau = time_derivative(state, params)
        # no vorticity equation: omega = -R(tau) moves with tau
        assert np.array_equal(d_omega.coeffs, (-ops.riesz_r(d_tau)).coeffs)
        du = ops.sym_grad(state.u)
        adv = ops.advect_tensor(state.u, tau)
        for got, a, b_ in zip(d_tau.components, adv.components, du.components):
            assert np.max(np.abs(got.coeffs - (-a.coeffs + b_.coeffs))) < 1e-12


class TestGammaTerms:
    """model.gamma_terms against the field operators it replaces in a record."""

    PARAMS = [
        ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=0.9, beta=0.4, q_enabled=False,
                    variant="q_zero"),
        ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=0.9, beta=0.4, b=0.3),
        ModelParams(nu=0.0, mu=0.8, K=1.1, alpha=-1.2, beta=0.0, b=0.0),
    ]

    @staticmethod
    def field_interior(state, params, commutator):
        """The interior terms as field arithmetic, in gamma_interior's order."""
        interior = (params.K * params.beta * ops.riesz_r(state.tau)
                    - (params.K * params.alpha / 2.0) * state.omega
                    + params.K * commutator)
        if params.q_enabled:
            interior = interior - params.K * ops.riesz_r(q_form(state.grad_u, state.tau,
                                                                 params.b))
        return interior

    @pytest.mark.parametrize("params", PARAMS, ids=["q_zero", "full", "full_b0"])
    @pytest.mark.parametrize("kind", ["dealiased", "nyquist", "loaded"])
    def test_bytes_of_the_field_operators(self, grid32, params, kind, tmp_path):
        if kind == "nyquist":
            state = nyquist_state(grid32, 3, params)
        else:
            seed = rand_state(grid32, 4, band=(1, 10))
            state = make_state(0.0, seed.omega, seed.tau, params)
        if kind == "loaded":  # Q takes the stored tau values of a loaded state
            save_snapshot(state, params, tmp_path / "s.bin")
            state = load_snapshot(tmp_path / "s.bin")[0]
        r_tau = ops.riesz_r(state.tau)
        gamma = gamma_of(state, params, r_tau)
        got = gamma_terms(state, params, r_tau, gamma)
        commutator = commutator_r_advect(state.u, state.tau)
        want = (commutator, self.field_interior(state, params, commutator),
                ops.advect(state.u, gamma))
        for g, w in zip(got, want):  # equal values; only a zero's sign may differ
            assert np.array_equal(g.coeffs, w.coeffs)
        alone = gamma_terms(state, params, r_tau)
        assert np.array_equal(alone.commutator.coeffs, commutator.coeffs)
        assert alone.interior is None and alone.advected is None

    def test_stokes_toy_commutator(self, grid32):
        params = ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=0.9, variant="stokes_toy")
        seed = rand_state(grid32, 5)
        state = make_state(0.0, seed.omega, seed.tau, params)
        got = gamma_terms(state, params, ops.riesz_r(state.tau)).commutator
        assert np.array_equal(got.coeffs, commutator_r_advect(state.u, state.tau).coeffs)

    def test_gamma_interior_is_the_gamma_terms_interior(self, grid32):
        params = self.PARAMS[1]
        seed = rand_state(grid32, 6)
        state = make_state(0.0, seed.omega, seed.tau, params)
        want = self.field_interior(state, params, commutator_r_advect(state.u, state.tau))
        assert gamma_interior(state, params).coeffs.tobytes() == want.coeffs.tobytes()
