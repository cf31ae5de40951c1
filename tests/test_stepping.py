"""Time integration: CFL control, integrating-factor exactness, cadence."""

import math
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oldroyd2d import diagnostics as diag
from oldroyd2d import model, stepping
from oldroyd2d.config import load_config
from oldroyd2d.errors import ConfigError, IntegrationError
from oldroyd2d.fields import ScalarField, SymTensorField
from oldroyd2d.grid import Grid
from oldroyd2d.initial_data import make_initial_data
from oldroyd2d.model import ModelParams, SimState, make_state, rhs, unstack
from oldroyd2d.stepping import (StepConfig, StepWorkspace, band_width, cfl_dt, integrate,
                                step)

from conftest import (assert_packed, field_from, full_coeffs, full_r, full_values,
                      full_wavevectors, nyquist_state, rand_state, stage_speed, unpacked)


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
        assert abs(cfl_dt(state, config, stage_speed(state)) - math.pi / 128) < 1e-12

    def test_zero_velocity_hits_dt_max(self, grid32):
        state = make_state(0.0, ScalarField.zeros(grid32), SymTensorField.zeros(grid32))
        config = StepConfig(dt_max=0.123, t_end=1.0)
        assert cfl_dt(state, config, stage_speed(state)) == 0.123

    def test_clamping(self, grid32):
        state = rand_state(grid32, 1, omega_amp=100.0)
        config = StepConfig(dt_min=0.05, dt_max=0.06, t_end=1.0)
        assert cfl_dt(state, config, stage_speed(state)) == 0.05


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
    assert abs(cfl_dt(state, config, stage_speed(state, params)) - want) <= 1e-15 * want


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


def _componentwise_step(state, dt, params, scheme, forcing=None):
    """One IFRK2/IFRK4 step written per packed row of (omega, tau11, tau12,
    tau22), on the half spectrum, under the packed forcing when given."""
    grid = state.grid
    ksq = grid.ksq
    sym_w = -params.nu * ksq
    sym_t = -(params.beta + params.mu * ksq)
    exps = [np.exp(dt * sym_w)] + [np.exp(dt * sym_t)] * 3

    def n_of(y):
        return list(rhs(np.stack(y), grid, params, forcing))

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

    @pytest.mark.parametrize("scheme", ["ifrk2", "ifrk4"])
    @pytest.mark.parametrize("params", [
        ModelParams(nu=0.02, mu=0.5, K=1.0, alpha=0.8, beta=0.1, variant="q_zero"),
        ModelParams(nu=0.0, mu=0.7, K=1.2, alpha=0.9, beta=0.3, b=0.4),
        ModelParams(nu=0.05, mu=0.3, alpha=1.0, beta=0.2, variant="stokes_toy"),
    ], ids=["q_zero", "full_b", "stokes_toy"])
    def test_a_wider_forcing_sets_the_width(self, grid32, params, scheme):
        # a dealiased state under a forcing with Nyquist content: the run's
        # stacks take the forcing's width n//2+1, and three steps give the
        # bytes of three half-spectrum reference steps
        seed = rand_state(grid32, 5)
        state = make_state(0.0, seed.omega, seed.tau, params)
        forcing = 0.1 * nyquist_state(grid32, 6, params).y
        assert band_width(state) == 11 and band_width(state, forcing) == 17
        dt = 1.0 / 32.0
        config = StepConfig(scheme=scheme, dt_min=dt, dt_max=dt, t_end=3 * dt)
        got = integrate(state, params, config, forcing=forcing)
        assert got.first_stage.k0.shape == (4, 32, 17)
        want = state
        for _ in range(3):
            want = _componentwise_step(want, dt, params, scheme, forcing)
        assert got.t == want.t
        assert got.y.tobytes() == want.y.tobytes()


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
        # two rows of integrating factors, and u_hat and a product for rhs,
        # all in the band layout, n//3+1 columns wide), the live states and
        # their temporaries: 10.7 packed stacks traced, where half-spectrum
        # stage, slopes and factors, and rhs's copies of its input and
        # output rows, made it 13.7, and a copy of the state, four rows of
        # factors and full-width band buffers 16.0
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
        assert peak < 11.35 * (4 * 64 * 33 * 16)

    @pytest.mark.parametrize("scheme", ["ifrk2", "ifrk4"])
    def test_stacks_are_band_wide(self, grid32, monkeypatch, scheme):
        # integrate's workspace stacks, factors and first stage are
        # w = Grid.band + 1 columns wide, contiguous, for a dealiased state
        made = []

        class Tracked(StepWorkspace):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(stepping, "StepWorkspace", Tracked)
        state = rand_state(grid32, 18, band=(1, 10))
        out = integrate(state, self.PARAMS, StepConfig(scheme=scheme, dt_max=0.01, t_end=0.02))
        assert band_width(state) == band_width(out) == 11
        assert made and out.first_stage is made[0].first
        for work in made:
            assert work.width == 11 and work.factors.shape[-2:] == (32, 11)
            for a in (work.stage, *work.k, work.first.k0):
                assert a.shape == (4, 32, 11) and a.flags.c_contiguous

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
        assert cfl_dt(state, config, stage_speed(state)) == 0.01
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


class TestCarriedFirstStage:
    """First same as last: integrate makes the first stage at t0 when a step
    follows, and each step leaves the first stage of the state it returns,
    which serves as the record's d/dt and the next step's first stage;
    every CFL step reads the velocity of its step's first stage."""

    PARAMS = {
        "q_zero": ModelParams(nu=0.0, mu=0.7, K=1.2, alpha=0.9, beta=0.3, variant="q_zero"),
        "full": ModelParams(nu=0.0, mu=0.7, K=1.2, alpha=0.9, beta=0.3, b=0.4),
        "stokes_toy": ModelParams(nu=0.0, mu=0.7, K=1.2, alpha=0.9, beta=0.3,
                                  variant="stokes_toy"),
    }
    CONFIG = dict(dt_max=0.02, t_end=0.1)  # five steps at dt_max

    def state(self, grid, params):
        seed = rand_state(grid, 31, omega_amp=0.5, tau_amp=0.5)
        return make_state(0.0, seed.omega, seed.tau, params)

    @pytest.mark.parametrize("scheme, stages", [("ifrk2", 2), ("ifrk4", 4)])
    @pytest.mark.parametrize("name", PARAMS)
    def test_one_rhs_per_observation(self, grid32, monkeypatch, scheme, stages, name):
        # a record after every step: stages x steps rhs calls and one more,
        # the d/dt of the last record; cfl_dt makes no transform
        params = self.PARAMS[name]
        calls, steps, cfl_calls, in_cfl = [], [], [], []
        rhs, step, cfl = model.rhs, stepping.step, stepping.cfl_dt
        for module in (model, stepping):
            monkeypatch.setattr(module, "rhs", lambda *a, **k: calls.append(1) or rhs(*a, **k))
        monkeypatch.setattr(stepping, "step", lambda *a: steps.append(1) or step(*a))

        def counted_cfl(*args):
            cfl_calls.append(1)
            before = len(transforms)
            try:
                return cfl(*args)
            finally:
                in_cfl.append(len(transforms) - before)

        monkeypatch.setattr(stepping, "cfl_dt", counted_cfl)
        transforms = []
        for name_ in ("fft", "ifft", "rfft", "irfft"):
            fn = getattr(np.fft, name_)
            monkeypatch.setattr(np.fft, name_, lambda *a, _fn=fn, **k:
                                transforms.append(1) or _fn(*a, **k))
        records = []
        config = StepConfig(scheme=scheme, **self.CONFIG)
        integrate(self.state(grid32, params), params, config,
                  observer=lambda s: records.append(diag.Observation(s, params).deriv),
                  observe_every=config.dt_max)
        assert len(steps) == 5 and len(records) == 6 and len(cfl_calls) == 5
        assert len(calls) == stages * len(steps) + 1
        assert transforms and in_cfl == [0] * 5

    @pytest.mark.parametrize("scheme", ["ifrk2", "ifrk4"])
    @pytest.mark.parametrize("name", PARAMS)
    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    def test_observed_run_keeps_the_bytes(self, grid32, scheme, name, forced):
        # the same landing times with and without an observer: every step
        # after a record starts from the first stage made for that record
        params = self.PARAMS[name]
        config = StepConfig(scheme=scheme, **self.CONFIG)
        forcing = 0.1 * rand_state(grid32, 32).y if forced else None
        ticks = [k * config.dt_max for k in range(1, 5)]
        plain = integrate(self.state(grid32, params), params, config, forcing=forcing,
                          land_times=ticks)
        seen = []
        observed = integrate(self.state(grid32, params), params, config, forcing=forcing,
                             observer=lambda s: seen.append(s.first_stage is not None),
                             observe_every=config.dt_max)
        assert seen == [True] * 6
        assert observed.y.tobytes() == plain.y.tobytes()

    @pytest.mark.parametrize("name", PARAMS)
    def test_record_derivative_is_time_derivative(self, grid32, name):
        # from a dealiased start and from one whose band is n//2, where
        # time_derivative's own rhs takes the whole half spectrum
        params = self.PARAMS[name]
        got, want, widths = [], [], []

        def observer(s):
            got.append(diag.Observation(s, params).deriv)
            want.append(model.time_derivative(replace(s, first_stage=None), params))
            widths.append(s.first_stage.k0.shape[-1])

        for start in (self.state(grid32, params), nyquist_state(grid32, 32, params)):
            integrate(start, params, StepConfig(**self.CONFIG),
                      observer=observer, observe_every=0.02)
        assert widths == [grid32.n // 3 + 1] * 6 + [grid32.n // 2 + 1] * 6
        for g, w in zip(got, want):
            for a, b in zip((g[0], *g[1].components), (w[0], *w[1].components)):
                assert a.coeffs.tobytes() == b.coeffs.tobytes()

    def kept_states(self, grid, params, scheme="ifrk4"):
        """The states integrate hands its observer, a record after every step."""
        kept = []
        integrate(self.state(grid, params), params, StepConfig(scheme=scheme, **self.CONFIG),
                  observer=kept.append, observe_every=0.02)
        return kept

    @staticmethod
    def fresh_derivative(state, params):
        d = model.time_derivative(replace(state, first_stage=None), params)
        return np.stack([d[0].coeffs, *(c.coeffs for c in d[1].components)])

    @staticmethod
    def derivative(state, params):
        d = model.time_derivative(state, params)
        return np.stack([d[0].coeffs, *(c.coeffs for c in d[1].components)])

    @pytest.mark.parametrize("scheme", ["ifrk2", "ifrk4"])
    def test_one_first_stage_stack_per_integrate(self, grid32, monkeypatch, scheme):
        # every observed state, the one at t_end included, carries the same
        # FirstStage and stack, and every stretch's workspace makes its
        # first stages in it
        firsts = []

        class Tracked(StepWorkspace):
            def __init__(self, *args):
                super().__init__(*args)
                firsts.append(self.first)

        monkeypatch.setattr(stepping, "StepWorkspace", Tracked)
        kept = self.kept_states(grid32, self.PARAMS["full"], scheme)
        assert len({id(s.first_stage) for s in kept}) == 1
        assert len({id(s.first_stage.k0) for s in kept}) == 1
        assert len(firsts) == 5 and all(f is kept[0].first_stage for f in firsts)

    @pytest.mark.parametrize("name", PARAMS)
    def test_a_kept_state_does_not_read_a_later_first_stage(self, grid32, name):
        # every step rewrites the run's stack: a state kept from an earlier
        # observation no longer takes its d/dt from it, and the last one,
        # the state integrate returns, does
        params = self.PARAMS[name]
        kept = self.kept_states(grid32, params)
        assert [s.first_stage.of(s, params) is not None for s in kept] == [False] * 5 + [True]
        for s in kept:
            assert self.derivative(s, params).tobytes() == \
                self.fresh_derivative(s, params).tobytes()

    def test_another_stack_does_not_read_the_first_stage(self, grid32):
        # replace(state, y=...) keeps first_stage, which is not that stack's
        params = self.PARAMS["full"]
        seen = []

        def observer(s):
            other = replace(s, y=s.y.copy() * 2)
            assert other.first_stage is s.first_stage
            assert s.first_stage.of(s, params) is not None
            assert other.first_stage.of(other, params) is None
            assert s.first_stage.of(s, replace(params, beta=0.5)) is None
            seen.append(self.derivative(other, params).tobytes()
                        == self.fresh_derivative(other, params).tobytes())

        integrate(self.state(grid32, params), params, StepConfig(**self.CONFIG),
                  observer=observer, observe_every=0.02)
        assert seen == [True] * 6

    @pytest.mark.parametrize("scheme, stages", [("ifrk2", 2), ("ifrk4", 4)])
    @pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "observed"])
    def test_rhs_calls_observed_or_not(self, grid32, monkeypatch, scheme, stages, observed):
        # the t0 stage, then stages x steps: each step makes its later
        # stages and the first stage of the state it returns
        params = self.PARAMS["full"]
        calls = []
        rhs = model.rhs
        for module in (model, stepping):
            monkeypatch.setattr(module, "rhs", lambda *a, **k: calls.append(1) or rhs(*a, **k))
        config = StepConfig(scheme=scheme, **self.CONFIG)
        kwargs = dict(observer=lambda s: None, observe_every=0.04) if observed else {}
        out = integrate(self.state(grid32, params), params, config, **kwargs)
        assert out.t == config.t_end
        assert len(calls) == stages * 5 + 1

    @pytest.mark.parametrize("scheme", ["ifrk2", "ifrk4"])
    def test_stokes_toy_step_carries_the_rhs_of_its_stack(self, grid32, scheme):
        # from_stack sets the new stack's vorticity row from its tau rows
        # before the step makes that stack's first stage
        params = self.PARAMS["stokes_toy"]
        state = self.state(grid32, params)
        for _ in range(2):
            state = step(state, 0.02, params, StepConfig(scheme=scheme))
            k0 = state.first_stage.of(state, params)
            assert not k0.flags.writeable
            assert k0.tobytes() == rhs(state.y, grid32, params)[..., :k0.shape[-1]].tobytes()
            assert state.first_stage.umax == stage_speed(state, params)


class TestTransformCounts:
    """The 2-D transforms that each layer makes, pinned as counts: a change
    that adds transform work fails here, whatever the clock says."""

    CONFIGS = Path(__file__).resolve().parent.parent / "configs"
    STOCK = {"a": "a_large_data_q_zero.cfg", "b": "b_small_data_decay.cfg",
             "e": "e_stokes_toy.cfg"}
    # one rhs at n = 64, per stock physics
    RHS = {"a": {"inverse": 10, "forward": 4}, "b": {"inverse": 17, "forward": 4},
           "e": {"inverse": 8, "forward": 3}}

    def stock(self, name, n):
        config = load_config(self.CONFIGS / self.STOCK[name])
        state = make_initial_data(config.initial, config.tau_initial, Grid(n), config.params)
        return config, state

    @pytest.mark.parametrize("name", STOCK)
    def test_rhs(self, count_transforms, name):
        config, state = self.stock(name, 64)
        counts = count_transforms(lambda: rhs(state.y, state.grid, config.params), 64)
        assert counts == self.RHS[name]

    @pytest.mark.parametrize("scheme, stages", [("ifrk2", 2), ("ifrk4", 4)])
    @pytest.mark.parametrize("name", STOCK)
    def test_warm_step(self, count_transforms, name, scheme, stages):
        # a warm step reads its first stage from the step before it
        config, state = self.stock(name, 64)
        step_config = replace(config.step, scheme=scheme)
        work = StepWorkspace(state.grid, scheme)
        state = step(state, 0.001, config.params, step_config, work=work)
        counts = count_transforms(
            lambda: step(state, 0.001, config.params, step_config, work=work), 64)
        assert counts == {kind: stages * c for kind, c in self.RHS[name].items()}

    # A record of stock (a) at n = 128, at t = 0 and after integrate to
    # t = 0.5 (whose state carries its first stage, so the record makes no
    # rhs): its padded maxima transform, in batches, only the padded rows
    # whose bound reaches the largest value found before them, at most 45%
    # of the 42 x 256 rows of its 42 padded grids
    def record_counts(self, count_transforms, t_end):
        config, state = self.stock("a", 128)
        if t_end:
            state = integrate(state, config.params, replace(config.step, t_end=t_end))
        counts = count_transforms(
            lambda: diag.compute_record(diag.Observation(state, config.params, config.diag)), 128)
        assert counts["padded_rows"] <= 0.45 * 42 * 256
        return counts

    def test_record(self, count_transforms):
        assert self.record_counts(count_transforms, 0.0) == {
            "padded": 52, "padded_rows": 3914, "inverse": 22, "forward": 9}

    def test_record_after_integrate(self, count_transforms):
        assert self.record_counts(count_transforms, 0.5) == {
            "padded": 58, "padded_rows": 4225, "inverse": 12, "forward": 5}
