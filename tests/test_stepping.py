"""Time integration: CFL control, integrating-factor exactness, cadence."""

import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from oldroyd2d import stepping
from oldroyd2d.errors import ConfigError, IntegrationError
from oldroyd2d.fields import ScalarField, SymTensorField
from oldroyd2d.grid import Grid
from oldroyd2d.model import ModelParams, SimState, make_state, rhs, unstack
from oldroyd2d.stepping import StepConfig, StepWorkspace, cfl_dt, integrate, step

from conftest import (assert_packed, field_from, full_coeffs, full_r, full_values,
                      full_wavevectors, nyquist_state, rand_state, unpacked)


class TestStepConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            StepConfig(scheme="rk4")
        with pytest.raises(ConfigError):
            StepConfig(cfl=0.0)
        with pytest.raises(ConfigError):
            StepConfig(dt_min=0.1, dt_max=0.01)

    def test_scheme_normalized(self):
        assert StepConfig(scheme="IFRK2").scheme == "ifrk2"


class TestCflDt:
    def test_unit_velocity(self):
        grid = Grid(128)
        # omega = sin(x) gives u = (0, -cos x), |u|_inf = 1
        state = make_state(0.0, field_from(grid, lambda x, y: np.sin(x)),
                           SymTensorField.zeros(grid))
        config = StepConfig(cfl=0.5, dt_max=10.0, dt_min=1e-12, t_end=1.0)
        assert abs(cfl_dt(state, config) - math.pi / 128) < 1e-12

    def test_zero_velocity_hits_dt_max(self, grid32):
        state = make_state(0.0, ScalarField.zeros(grid32), SymTensorField.zeros(grid32))
        config = StepConfig(dt_max=0.123, t_end=1.0)
        assert cfl_dt(state, config) == 0.123

    def test_clamping(self, grid32):
        state = rand_state(grid32, 1, omega_amp=100.0)
        config = StepConfig(dt_min=0.05, dt_max=0.06, t_end=1.0)
        assert cfl_dt(state, config) == 0.05


@pytest.mark.parametrize("params", [
    ModelParams(nu=0.0, mu=0.7, K=1.2, alpha=0.9, beta=0.3, b=0.4),
    ModelParams(nu=0.0, mu=1.0, K=1.0, alpha=0.8, beta=0.1, variant="q_zero"),
    ModelParams(nu=0.05, mu=0.3, alpha=1.0, beta=0.2, variant="stokes_toy"),
], ids=["full", "q_zero", "stokes_toy"])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_cfl_dt_matches_full_layout_velocity(params, n):
    # max|u| of cfl_dt and of the state's velocity against the full-layout
    # Biot-Savart velocity of the full-layout spectra of the state's grid
    # values (for the Stokes toy, of -R(tau)), whose real fields drop any
    # Nyquist part the half spectrum cannot hold
    state = nyquist_state(Grid(n), n, params)
    g = full_wavevectors(state.grid)
    w, *t = (full_coeffs(c) for c in (state.omega, *state.tau.components))
    psi = g.inv_ksq * (-full_r(g, *t) if params.variant == "stokes_toy" else w)
    umax = float(np.max(np.hypot(full_values(1j * g.k2 * psi), full_values(-1j * g.k1 * psi))))
    assert abs(float(np.max(np.hypot(*state.u.values))) - umax) <= 1e-15 * umax
    config = StepConfig(cfl=0.5, dt_max=1e6, dt_min=1e-300, t_end=1.0)
    want = config.cfl * state.grid.h / umax
    assert abs(cfl_dt(state, config) - want) <= 1e-15 * want


class TestStep:
    def test_pure_diffusion_exact(self, grid32):
        params = ModelParams(nu=0.0, mu=0.9, K=0.0, alpha=0.0, beta=0.25,
                             q_enabled=False, variant="q_zero")
        tau = rand_state(grid32, 2).tau
        state = make_state(0.0, ScalarField.zeros(grid32), tau)
        dt = 0.2
        out = step(state, dt, params, StepConfig(dt_max=dt, t_end=dt))
        decay = np.exp(-(params.beta + params.mu * grid32.ksq) * dt)
        scale = max(c.max_abs_coeff() for c in tau.components)
        for got, want in zip(out.tau.components, tau.components):
            assert np.max(np.abs(got.coeffs - decay * want.coeffs)) <= 1e-12 * scale

    def test_zero_state_fixed(self, grid16):
        state = make_state(0.0, ScalarField.zeros(grid16), SymTensorField.zeros(grid16))
        out = step(state, 0.1, ModelParams(), StepConfig(t_end=0.1))
        assert out.omega.l2() == 0.0
        assert out.t == pytest.approx(0.1)

    def test_nonpositive_dt_rejected(self, grid16):
        state = make_state(0.0, ScalarField.zeros(grid16), SymTensorField.zeros(grid16))
        with pytest.raises(ValueError):
            step(state, 0.0, ModelParams(), StepConfig(t_end=1.0))

    def test_nonfinite_detected(self, grid16):
        huge = 1e200 * field_from(grid16, lambda x, y: np.sin(x))
        state = make_state(0.0, huge, SymTensorField.zeros(grid16))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError) as exc:
                step(state, 1.0, ModelParams(), StepConfig(dt_max=1.0, t_end=1.0))
        assert exc.value.t == pytest.approx(1.0)

    @pytest.mark.parametrize("omega_amp, forced, fails", [
        (0.0, 5.0, False),  # from a zero state: the floor 1 sets the limit 10
        (0.0, 50.0, True),
        (1e3, 5e3, False),  # relative to the old max-norm 1e3
        (1e3, 2e4, True),
    ])
    def test_growth_guard(self, grid16, omega_amp, forced, fails):
        # plain Euler, and omega in modes (1, 0) and (2, 0) only is steady, so
        # one step of size 1 adds the forcing to the (2, 0) coefficient
        half = np.zeros((4, 16, 9), dtype=np.complex128)
        half[0, 1, 0] = half[0, -1, 0] = omega_amp
        omega, tau = unstack(grid16, half)
        state = make_state(0.0, omega, tau)
        forcing = np.zeros_like(half)
        forcing[0, 2, 0] = forcing[0, -2, 0] = forced
        params, config = ModelParams(K=0.0, alpha=0.0), StepConfig(dt_max=1.0, t_end=1.0)
        if fails:
            with pytest.raises(IntegrationError, match="coefficient max-norm grew") as exc:
                step(state, 1.0, params, config, forcing)
            assert exc.value.t == 1.0
        else:
            out = step(state, 1.0, params, config, forcing)
            assert out.omega.coeffs[2, 0] == pytest.approx(forced, rel=1e-12)

    def test_symmetry_and_mean_preserved(self, grid32):
        params = ModelParams(nu=0.0, mu=0.5, b=0.3)
        state = rand_state(grid32, 3)
        out = step(state, 0.05, params, StepConfig(t_end=1.0))
        assert abs(out.omega.coeffs[0, 0]) < 1e-13
        assert isinstance(out.tau, SymTensorField)


def _componentwise_step(state, dt, params, scheme):
    """One IFRK2/IFRK4 step written per packed row of (omega, tau11, tau12, tau22)."""
    grid = state.grid
    ksq = grid.ksq
    sym_w = -params.nu * ksq
    sym_t = -(params.beta + params.mu * ksq)
    exps = [np.exp(dt * sym_w)] + [np.exp(dt * sym_t)] * 3

    def n_of(y):
        return list(rhs(np.stack(y), grid, params))

    y = list(state.y)
    k1 = n_of(y)
    if scheme == "ifrk2":
        y2 = [e * (a + dt * b) for e, a, b in zip(exps, y, k1)]
        k2 = n_of(y2)
        ynew = [e * a + 0.5 * dt * (e * b + c) for e, a, b, c in zip(exps, y, k1, k2)]
    else:
        halfs = [np.exp(0.5 * dt * sym_w)] + [np.exp(0.5 * dt * sym_t)] * 3
        y2 = [h * (a + 0.5 * dt * b) for h, a, b in zip(halfs, y, k1)]
        k2 = n_of(y2)
        y3 = [h * a + 0.5 * dt * b for h, a, b in zip(halfs, y, k2)]
        k3 = n_of(y3)
        y4 = [e * a + dt * h * b for e, h, a, b in zip(exps, halfs, y, k3)]
        k4 = n_of(y4)
        ynew = [
            e * a + (dt / 6.0) * (e * b1 + 2.0 * h * (b2 + b3) + b4)
            for e, h, a, b1, b2, b3, b4 in zip(exps, halfs, y, k1, k2, k3, k4)
        ]
    return SimState.from_stack(state.t + dt, np.stack(ynew), grid, params)


class TestStackedStages:
    @pytest.mark.parametrize("scheme", ["ifrk2", "ifrk4"])
    @pytest.mark.parametrize("params", [
        ModelParams(nu=0.02, mu=0.5, K=1.0, alpha=0.8, beta=0.1, variant="q_zero"),
        ModelParams(nu=0.0, mu=0.7, K=1.2, alpha=0.9, beta=0.3, b=0.4),
        ModelParams(nu=0.05, mu=0.3, alpha=1.0, beta=0.2, q_enabled=False,
                    variant="stokes_toy"),
    ], ids=["q_zero", "full_b", "stokes_toy"])
    def test_step_matches_componentwise_reference(self, grid32, params, scheme):
        # The Stokes toy's nu only enters the vorticity row, which is
        # re-diagnosed from tau at every stage, so it must not matter.
        seed = rand_state(grid32, 5)
        state = make_state(0.1, seed.omega, seed.tau, params)
        got = step(state, 0.05, params, StepConfig(scheme=scheme, t_end=1.0))
        want = _componentwise_step(state, 0.05, params, scheme)
        assert got.t == want.t
        assert np.array_equal(got.y, want.y)


class TestStepWorkspace:
    PARAMS = ModelParams(nu=0.0, mu=0.7, K=1.2, alpha=0.9, beta=0.3, b=0.4)

    @staticmethod
    def warm_step_peak(n, scheme, params):
        """The traced peak of a step that reuses its workspace, in packed stacks."""
        grid, config = Grid(n), StepConfig(scheme=scheme)
        seed = rand_state(grid, 10, band=(1, n // 3))
        state = make_state(0.0, seed.omega, seed.tau, params)
        work = StepWorkspace(grid, scheme)
        state = step(state, 0.01, params, config, work=work)
        tracemalloc.start()
        try:
            step(state, 0.01, params, config, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (4 * n * (n // 2 + 1) * 16)

    @pytest.mark.parametrize("scheme", ["ifrk2", "ifrk4"])
    @pytest.mark.parametrize("n", [32, 64])
    def test_warm_step_allocates_little(self, n, scheme):
        # A step that reuses its workspace allocates the new state's stack
        # and little else: the traced peak stays under 4 packed stacks.
        assert self.warm_step_peak(n, scheme, self.PARAMS) < 4

    @pytest.mark.parametrize("scheme", ["ifrk2", "ifrk4"])
    @pytest.mark.parametrize("n", [32, 64])
    def test_warm_stokes_toy_step_allocates_little(self, n, scheme):
        # A Stokes-toy step reads its state's stack in place too, and sets
        # the new stack's vorticity row in place: under 2.5 packed stacks,
        # where stacking the state afresh at every step made it 3.1-3.2.
        params = replace(self.PARAMS, variant="stokes_toy")
        assert self.warm_step_peak(n, scheme, params) < 2.5

    @pytest.mark.parametrize("scheme", ["ifrk2", "ifrk4"])
    def test_reused_workspace_gives_fresh_bytes(self, grid32, scheme):
        # a Nyquist state widens every band, and the next state narrows it;
        # a step from a state gives the bytes of one from a copy of its stack
        params, config = self.PARAMS, StepConfig(scheme=scheme)
        work = StepWorkspace(grid32, scheme)
        for state in (rand_state(grid32, 11, band=(1, 10)), nyquist_state(grid32, 12, params),
                      rand_state(grid32, 13, band=(1, 10))):
            state = make_state(0.0, state.omega, state.tau, params)
            for _ in range(2):  # then from a state that a step made
                got = step(state, 0.01, params, config, work=work)
                want = step(state, 0.01, params, config)
                apart = step(unpacked(state), 0.01, params, config)
                assert got.y.tobytes() == want.y.tobytes() == apart.y.tobytes()
                state = got

    @pytest.mark.parametrize("scheme", ["ifrk2", "ifrk4"])
    def test_step_returns_a_packed_state(self, grid32, scheme):
        state = rand_state(grid32, 16)
        assert_packed(state)
        out = step(state, 0.01, self.PARAMS, StepConfig(scheme=scheme))
        assert_packed(out)
        assert_packed(step(out, 0.01, self.PARAMS, StepConfig(scheme=scheme)))

    def test_step_phase_peak(self):
        # integrate's IFRK4 steps at n = 64 hold the workspace (stage, slopes,
        # two rows of integrating factors, rhs buffers as wide as the band),
        # the live states and their temporaries: 13.7 packed stacks traced,
        # where a copy of the state, four rows of factors and full-width
        # band buffers in the workspace made it 16.0
        grid, params = Grid(64), self.PARAMS
        seed = rand_state(grid, 17, band=(1, 21))
        state = make_state(0.0, seed.omega, seed.tau, params)
        config = StepConfig(dt_max=0.002, t_end=0.01)
        integrate(state, params, config)  # makes the grid's per-mode arrays
        tracemalloc.start()
        try:
            integrate(state, params, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14.5 * (4 * 64 * 33 * 16)

    def test_integrate_drops_the_workspace_before_observing(self, grid32, monkeypatch):
        made = []

        class Tracked(StepWorkspace):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        alive = []
        monkeypatch.setattr(stepping, "StepWorkspace", Tracked)
        state = rand_state(grid32, 14, omega_amp=0.1, tau_amp=0.1)
        integrate(state, self.PARAMS, StepConfig(dt_max=0.03, t_end=0.3),
                  observer=lambda s: alive.append(sum(r() is not None for r in made)),
                  observe_every=0.1)
        assert alive == [0, 0, 0, 0]
        assert len(made) == 3  # one per stretch between observations


class TestIntegrate:
    def test_zero_horizon_returns_initial(self, grid16):
        state = rand_state(grid16, 4, band=(1, 4))
        out = integrate(state, ModelParams(), StepConfig(t_end=0.0))
        assert out is state

    def test_deterministic(self, grid32):
        params = ModelParams(nu=0.0, mu=0.8, K=1.0, alpha=1.0, b=0.2)
        config = StepConfig(scheme="ifrk4", cfl=0.4, dt_max=0.05, t_end=0.5)
        outs = []
        for _ in range(2):
            state = rand_state(grid32, 5)
            outs.append(integrate(state, params, config))
        assert np.array_equal(outs[0].omega.coeffs, outs[1].omega.coeffs)
        assert np.array_equal(outs[0].tau.t12.coeffs, outs[1].tau.t12.coeffs)

    def test_observer_cadence(self, grid32):
        state = rand_state(grid32, 6, omega_amp=0.1, tau_amp=0.1)
        seen = []
        integrate(state, ModelParams(), StepConfig(dt_max=0.03, t_end=1.0),
                  observer=lambda s: seen.append(s.t), observe_every=0.25)
        assert seen == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-9)

    def test_ticks_and_t_end_hit_exactly(self, grid32):
        # tick k is t0 + k * observe_every, not an accumulated sum, and a step
        # shortened onto a target ends at that target's time exactly
        state = rand_state(grid32, 6, omega_amp=0.5, tau_amp=0.5)
        seen = []
        params = ModelParams(variant="q_zero")
        out = integrate(state, params, StepConfig(dt_max=0.03, t_end=1.0),
                        observer=lambda s: seen.append(s.t), observe_every=0.1)
        assert seen == [k * 0.1 for k in range(11)]
        assert out.t == 1.0

        later = make_state(0.25, state.omega, state.tau)
        seen = []
        integrate(later, params, StepConfig(dt_max=0.03, t_end=0.95),
                  observer=lambda s: seen.append(s.t), observe_every=0.1,
                  land_times=(0.5, 0.7))
        assert seen == sorted([0.25 + k * 0.1 for k in range(7)] + [0.5, 0.7]) + [0.95]

    def test_land_times_hit_exactly(self, grid32):
        state = rand_state(grid32, 7, omega_amp=0.1, tau_amp=0.1)
        seen = []
        integrate(state, ModelParams(), StepConfig(dt_max=0.04, t_end=0.5),
                  observer=lambda s: seen.append(s.t), observe_every=0.5,
                  land_times=(0.1234,))
        assert any(abs(t - 0.1234) < 1e-9 for t in seen)

    def test_step_size_underflow_raises(self, grid32):
        # the CFL step at t = 0 is about 2e-3, below dt_min = 0.01
        state = rand_state(grid32, 9, omega_amp=100.0)
        config = StepConfig(cfl=0.1, dt_min=0.01, dt_max=0.05, t_end=0.1)
        assert cfl_dt(state, config) == 0.01
        with pytest.raises(IntegrationError, match="step size underflow") as exc:
            integrate(state, ModelParams(), config)
        assert exc.value.t == 0.0

    def test_fixed_step_mode_ignores_cfl(self, grid32):
        state = rand_state(grid32, 9, omega_amp=100.0)
        config = StepConfig(cfl=0.1, dt_min=0.01, dt_max=0.01, t_end=0.02)
        assert integrate(state, ModelParams(), config).t == 0.02

    def test_euler_conserves_enstrophy_to_scheme_order(self):
        grid = Grid(64)
        params = ModelParams(nu=0.0, mu=1.0, K=0.0, alpha=0.0,
                             q_enabled=False, variant="q_zero")
        state = rand_state(grid, 8, band=(1, 6), tau_amp=0.0)
        w0 = state.omega.l2()

        def drift(dt):
            config = StepConfig(scheme="ifrk2", cfl=1.0, dt_max=dt, dt_min=dt, t_end=0.5)
            out = integrate(state, params, config)
            return abs(out.omega.l2() - w0) / w0

        d1, d2 = drift(0.02), drift(0.01)
        assert d1 < 1e-4
        assert d1 / d2 > 2.0  # at least the scheme order under halving
