"""Integrating-factor Runge-Kutta time integration.

The stiff linear part (diffusion and relaxation, diagonal in Fourier) is
integrated exactly by the exponential of its symbol; only advection,
coupling, and Q are advanced explicitly, so the CFL restriction is
advective. IFRK2 is Heun's method under the integrating factor, IFRK4 the
classical four-stage scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationError
from .model import ModelParams, SimState, linear_symbol, make_state, rhs, stack, unstack

SCHEMES = ("ifrk2", "ifrk4")

CFL_VELOCITY_FLOOR = 1e-8


@dataclass(frozen=True)
class StepConfig:
    scheme: str = "ifrk4"
    cfl: float = 0.5
    dt_max: float = 0.05
    dt_min: float = 1e-8
    t_end: float = 1.0

    def __post_init__(self):
        if self.scheme.lower() not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        object.__setattr__(self, "scheme", self.scheme.lower())
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ConfigError(
                f"need 0 < dt_min <= dt_max, got dt_min={self.dt_min}, dt_max={self.dt_max}"
            )
        if self.t_end < 0.0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")

    @property
    def order(self) -> int:
        return 2 if self.scheme == "ifrk2" else 4


def cfl_dt(state: SimState, config: StepConfig) -> float:
    """Advective CFL step: clamp(cfl * h / max(|u|_inf, floor), dt_min, dt_max)."""
    h = state.grid.h
    umax = float(np.max(np.hypot(state.u.u1.physical, state.u.u2.physical)))
    dt = config.cfl * h / max(umax, CFL_VELOCITY_FLOOR)
    return min(max(dt, config.dt_min), config.dt_max)


def _as_state(t: float, y: np.ndarray, grid, params: ModelParams) -> SimState:
    return make_state(t, *unstack(grid, y), params)


def step(state: SimState, dt: float, params: ModelParams, config: StepConfig,
         forcing: np.ndarray | None = None) -> SimState:
    """Advance one step of size dt > 0.

    The state is stacked once as (omega, tau11, tau12, tau22). Each stage
    is one whole-array expression in that stack, the integrating factors
    exp(c dt L) of the linear symbol L and the explicit tendencies from rhs.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    sym = linear_symbol(grid, params)
    e = np.exp(dt * sym)

    t = state.t
    y = stack(state.omega, state.tau)
    n_of = lambda tt, yy: rhs(_as_state(tt, yy, grid, params), params, forcing)

    k1 = n_of(t, y)
    if config.scheme == "ifrk2":
        k2 = n_of(t + dt, e * (y + dt * k1))
        ynew = e * y + 0.5 * dt * (e * k1 + k2)
    else:
        h = np.exp(0.5 * dt * sym)
        k2 = n_of(t + 0.5 * dt, h * (y + 0.5 * dt * k1))
        k3 = n_of(t + 0.5 * dt, h * y + 0.5 * dt * k2)
        k4 = n_of(t + dt, e * y + dt * h * k3)
        ynew = e * y + (dt / 6.0) * (e * k1 + 2.0 * h * (k2 + k3) + k4)

    out = _as_state(t + dt, ynew, grid, params)
    if not out.is_finite():
        raise IntegrationError(t + dt, "non-finite field values")
    return out


def integrate(state0: SimState, params: ModelParams, config: StepConfig,
              observer=None, observe_every: float | None = None,
              forcing: np.ndarray | None = None, land_times=()) -> SimState:
    """Advance from state0.t to config.t_end under CFL step control.

    The observer, if given, is called with the state at t0, at every
    cadence tick, and at t_end; steps are shortened so ticks are hit
    exactly. land_times lists additional times to land on exactly (the
    observer is called there too, e.g. for snapshot output).
    """
    state = state0
    t_end = config.t_end
    eps = 1e-12 * max(1.0, abs(t_end))

    if observer is not None:
        observer(state)
    if t_end <= state.t + eps:
        return state

    next_tick = None
    if observer is not None and observe_every is not None and observe_every > 0:
        next_tick = state.t + observe_every
    pending = sorted(t for t in land_times if state.t + eps < t < t_end - eps)

    while state.t < t_end - eps:
        dt = cfl_dt(state, config)
        if next_tick is not None:
            dt = min(dt, next_tick - state.t)
        if pending:
            dt = min(dt, pending[0] - state.t)
        dt = min(dt, t_end - state.t)
        state = step(state, dt, params, config, forcing)

        landed = False
        if next_tick is not None and state.t >= next_tick - eps:
            landed = True
            while next_tick <= state.t + eps:
                next_tick += observe_every
        while pending and state.t >= pending[0] - eps:
            landed = True
            pending.pop(0)
        if landed and observer is not None and state.t < t_end - eps:
            observer(state)  # the t_end call below covers the final landing

    if observer is not None:
        observer(state)
    return state
