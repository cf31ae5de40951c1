"""Integrating-factor Runge-Kutta time integration.

The stiff linear part (diffusion and relaxation, diagonal in Fourier) is
integrated exactly by the exponential of its symbol; only advection,
coupling, and Q are advanced explicitly, so the CFL restriction is
advective. IFRK2 is Heun's method under the integrating factor, IFRK4 the
classical four-stage scheme.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, IntegrationError
from .grid import Grid
from .model import (FirstStage, ModelParams, SimState, Workspace, apply_symbol, linear_symbol,
                    rhs)

SCHEMES = ("ifrk2", "ifrk4")

CFL_VELOCITY_FLOOR = 1e-8

# A step whose coefficient max-norm exceeds this factor times the old one,
# or times 1 for a smaller state, is taken as divergence (step).
STEP_GROWTH_LIMIT = 10.0


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


def cfl_dt(state: SimState, config: StepConfig, umax: float | None = None) -> float:
    """Advective CFL step: clamp(cfl * h / max(|u|_inf, floor), dt_min, dt_max).

    max|u| is umax when given: integrate passes the one of the velocity
    that rhs made for the step's first stage, so the step makes no
    transform of its own. Otherwise it is taken on the grid from the
    velocity modes of the state (for a Stokes-toy state, the Stokes
    velocity of its tau), with two inverse transforms in a Workspace.
    """
    if umax is None:
        work = Workspace(state.grid)
        work.load(state.y)
        work.velocity(state.stokes_toy)
        umax = work.max_speed()
    dt = config.cfl * state.grid.h / max(umax, CFL_VELOCITY_FLOOR)
    return min(max(dt, config.dt_min), config.dt_max)


def _max_norm(y: np.ndarray) -> float:
    """Largest modulus of the real and imaginary parts of a packed stack;
    NaN or inf when any part is."""
    v = y.view(np.float64)
    return max(float(np.max(v)), -float(np.min(v)))


class StepWorkspace:
    """The buffers of step for one grid and scheme: the stage input, the
    slope accumulators after the first stage, the integrating factors of the
    two rows of linear_symbol, the rhs Workspace, and the first stage's
    stack, the given one when given. integrate owns one while it steps and
    drops it before each observation, and gives each the one first-stage
    stack it carries across an observation (CONVENTIONS.md "Time
    stepping")."""

    def __init__(self, grid: Grid, scheme: str, first: np.ndarray | None = None):
        ifrk2 = scheme == "ifrk2"
        self.factors = np.empty((1 if ifrk2 else 2, 2) + grid.shape)  # e, h
        stacks = np.empty((2 if ifrk2 else 3, 4) + grid.shape, dtype=np.complex128)
        self.stage, self.k = stacks[0], stacks[1:]
        self.rhs = Workspace(grid)
        self.first = np.empty_like(self.stage) if first is None else first


def first_stage(state: SimState, params: ModelParams, work: Workspace,
                out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """rhs(state.y) without a forcing, in out (a new stack when None), and
    max|u| over the grid of the velocity it made (Workspace.max_speed)."""
    k0 = rhs(state.y, state.grid, params, out=out, work=work)
    return k0, work.max_speed()


def _carry(carried: FirstStage, state: SimState, params: ModelParams,
           work: Workspace) -> tuple[SimState, float]:
    """The state holding carried as its first stage, made in carried.k0
    (first_stage) and then read-only, and max|u| of the velocity it made."""
    carried.y = None
    umax = first_stage(state, params, work, carried.k0)[1]
    carried.k0.setflags(write=False)
    carried.y = state.y
    return replace(state, first_stage=carried), umax


def step(state: SimState, dt: float, params: ModelParams, config: StepConfig,
         forcing: np.ndarray | None = None, work: StepWorkspace | None = None,
         k0: np.ndarray | None = None) -> SimState:
    """Advance one step of size dt > 0.

    The state's packed stack is read in place, and the new state holds the
    new stack (SimState.from_stack), the one array a step allocates
    when given the StepWorkspace work of its grid and scheme (made here when
    not given). Each stage is the whole-array expression in its comment,
    evaluated in that order into the workspace, from the integrating factors
    exp(c dt L) of the linear symbol L (model.apply_symbol) and the explicit
    tendencies from rhs; a forcing is a packed stack too. k0, when given, is
    rhs(state.y) without the forcing, made already (first_stage), in
    work.first or elsewhere; a forcing is added to it in work.first.

    Raises IntegrationError at t + dt when the new stack holds a non-finite
    value, or when its coefficient max-norm (over real and imaginary parts)
    exceeds STEP_GROWTH_LIMIT * max(old max-norm, 1): a divergence is
    stopped at its onset, before its norms overflow.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    work = StepWorkspace(grid, config.scheme) if work is None else work
    y, s, k = state.y, work.stage, work.k
    e = work.factors[0]
    np.exp(np.multiply(dt, linear_symbol(grid, params, out=e), out=e), out=e)

    def n_of(yy, out):
        return rhs(yy, grid, params, forcing, out=out, work=work.rhs)

    if k0 is None:
        k0 = n_of(y, work.first)
    elif forcing is not None:         # rhs adds a forcing last, as here
        k0 = np.add(k0, forcing, out=work.first)
    if config.scheme == "ifrk2":
        np.multiply(dt, k0, out=s)
        s += y
        apply_symbol(e, s, out=s)
        n_of(s, k[0])                 # k1 = N(e * (y + dt * k0))
        apply_symbol(e, k0, out=s)
        s += k[0]
        s *= 0.5 * dt                 # 0.5 * dt * (e * k0 + k1)
    else:
        h = work.factors[1]
        np.exp(np.multiply(0.5 * dt, linear_symbol(grid, params, out=h), out=h), out=h)
        r = s.reshape(-1).view(np.float64)[:h.size].reshape(h.shape)  # a real scratch in s
        np.multiply(0.5 * dt, k0, out=s)
        s += y
        apply_symbol(h, s, out=s)
        n_of(s, k[0])                 # k1 = N(h * (y + 0.5 * dt * k0))
        np.multiply(0.5 * dt, k[0], out=k[1])
        apply_symbol(h, y, out=s)
        s += k[1]
        n_of(s, k[1])                 # k2 = N(h * y + 0.5 * dt * k1)
        k[0] += k[1]                  # k1 + k2
        np.multiply(dt, h, out=r)
        apply_symbol(r, k[1], out=k[1])
        apply_symbol(e, y, out=s)     # overwrites r
        s += k[1]
        n_of(s, k[1])                 # k3 = N(e * y + dt * h * k2), in k2's place
        apply_symbol(e, k0, out=s)
        h *= 2.0
        apply_symbol(h, k[0], out=k[0])
        s += k[0]
        s += k[1]
        s *= dt / 6.0                 # dt / 6 * (e * k0 + 2.0 * h * (k1 + k2) + k3)
    ynew = apply_symbol(e, y)
    ynew += s                         # e * y + the sum above

    peak = _max_norm(ynew)
    if not math.isfinite(peak):
        raise IntegrationError(state.t + dt, "non-finite field values")
    old = _max_norm(y)
    if peak > STEP_GROWTH_LIMIT * max(old, 1.0):
        raise IntegrationError(
            state.t + dt, f"coefficient max-norm grew from {old:.3g} to {peak:.3g}")
    return SimState.from_stack(state.t + dt, ynew, grid, params)


def landing_tolerance(t_end: float) -> float:
    """How near a time must be to a target of integrate, ending at t_end,
    to count as on it: 1e-12 relative to t_end. A step that ends this near
    the target is cut to end on it, and requested times this near each
    other are landed on once."""
    return 1e-12 * max(1.0, abs(t_end))


def _targets(t0: float, t_end: float, every: float | None, land_times):
    """The times integrate lands on after t0, in order: the cadence ticks
    t0 + k * every (for a given every > 0) merged with the land times, one
    per cluster within the landing tolerance above the time landed on
    before it, and then t_end, which stands for every time near or past it."""
    eps = landing_tolerance(t_end)
    ticking = every is not None and every > 0
    ticks = (t0 + k * every for k in itertools.count(1)) if ticking else ()
    last = t0
    for t in heapq.merge(ticks, sorted(land_times)):
        if t >= t_end - eps:
            break
        if t > last + eps:
            yield t
            last = t
    yield t_end


def integrate(state0: SimState, params: ModelParams, config: StepConfig,
              observer=None, observe_every: float | None = None,
              forcing: np.ndarray | None = None, land_times=()) -> SimState:
    """Advance from state0.t to config.t_end under CFL step control.

    The observer, if given, is called with the state at t0, at every
    cadence tick t0 + k * observe_every, and at t_end; land_times lists
    additional times to land on (the observer is called there too, e.g. for
    snapshot output). A step that would reach the next of these targets (to
    within landing_tolerance) is cut to end on it, and the state it makes
    carries the target's time exactly.

    Under CFL control (dt_min < dt_max), a CFL step at or below dt_min
    raises IntegrationError("step size underflow") rather than step with a
    Courant number above cfl; with dt_min == dt_max every step is that size.

    Each step's CFL step is read from the velocity of its first stage
    (first_stage). The steps up to each target share one StepWorkspace,
    dropped before the observer is called there. Where a step follows an
    observation, the first stage of that step is made before the observer
    is called and handed to it as the state's first_stage, which its d/dt
    reads (time_derivative). Its stack is the StepWorkspaces' first-stage
    stack, allocated once, before any workspace: the one stack carried
    across an observation (FirstStage). No reference to state0 is kept
    past the first step, so a caller that holds none frees it there.
    """
    state, state0 = state0, None
    t_end = config.t_end
    eps = landing_tolerance(t_end)
    carried = FirstStage(params, None, np.empty_like(state.y))
    umax = None  # max|u| of the state's carried first stage, when it has one
    if observer is not None and t_end > state.t + eps:
        state, umax = _carry(carried, state, params, Workspace(state.grid))
    if observer is not None:
        observer(state)
    if t_end <= state.t + eps:
        return state

    every = observe_every if observer is not None else None
    for target in _targets(state.t, t_end, every, land_times):
        work = StepWorkspace(state.grid, config.scheme, carried.k0)
        while state.t < target:
            if umax is None:
                k0, umax = first_stage(state, params, work.rhs, work.first)
            else:  # the carried first stage, which the steps may write from here
                k0, carried.y = work.first, None
                k0.setflags(write=True)
            dt, umax = cfl_dt(state, config, umax), None
            if dt <= config.dt_min < config.dt_max:
                raise IntegrationError(state.t, "step size underflow")
            t_new = state.t + dt
            if t_new >= target - eps:  # the step reaches the target: end it there
                dt, t_new = target - state.t, target
            state = step(state, dt, params, config, forcing, work, k0)
            if state.t != t_new:
                state = replace(state, t=t_new)
        k0 = None
        if observer is not None and target < t_end:  # a step follows
            state, umax = _carry(carried, state, params, work.rhs)
        elif target == t_end:  # nothing is carried past t_end
            carried = None
        work = None
        if observer is not None:
            observer(state)
    return state
