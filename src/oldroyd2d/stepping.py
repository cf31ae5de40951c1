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


def cfl_dt(state: SimState, config: StepConfig, umax: float) -> float:
    """Advective CFL step: clamp(cfl * h / max(umax, floor), dt_min, dt_max),
    where umax is max|u| over the grid of the state's velocity: integrate
    passes the one of its first stage (FirstStage.umax)."""
    dt = config.cfl * state.grid.h / max(umax, CFL_VELOCITY_FLOOR)
    return min(max(dt, config.dt_min), config.dt_max)


def _max_norm(y: np.ndarray) -> float:
    """Largest modulus of the real and imaginary parts of a packed stack;
    NaN or inf when any part is."""
    v = y.view(np.float64)
    return max(float(np.max(v)), -float(np.min(v)))


def band_width(state: SimState, forcing: np.ndarray | None = None) -> int:
    """The columns w of the stepper's stacks for steps from the state under
    the forcing: Grid.band of both, plus 1. No step widens it
    (CONVENTIONS.md "Time stepping")."""
    return state.grid.band(*((state.y,) if forcing is None else (state.y, forcing))) + 1


class StepWorkspace:
    """The buffers of step for one grid and scheme, in rhs's band layout
    (model.Workspace), w columns wide: the stage input, the slope
    accumulators after the first stage, the integrating factors of the two
    rows of linear_symbol, the rhs Workspace, and the FirstStage that step
    reads and writes. w is the given first stage's width, else the given
    width, else the whole half spectrum's n//2+1. integrate owns one while
    it steps and drops it before each observation, and gives each the
    run's one FirstStage (CONVENTIONS.md "Time stepping")."""

    def __init__(self, grid: Grid, scheme: str, first: FirstStage | None = None,
                 width: int | None = None):
        if first is None:
            width = grid.n // 2 + 1 if width is None else width
            first = FirstStage(None, None, np.empty((4, grid.n, width), dtype=np.complex128))
        self.first, self.width = first, first.k0.shape[-1]
        shape = (grid.n, self.width)
        ifrk2 = scheme == "ifrk2"
        self.factors = np.empty((1 if ifrk2 else 2, 2) + shape)  # e, h
        stacks = np.empty((2 if ifrk2 else 3, 4) + shape, dtype=np.complex128)
        self.stage, self.k = stacks[0], stacks[1:]
        self.rhs = Workspace(grid, self.width)


def step(state: SimState, dt: float, params: ModelParams, config: StepConfig,
         forcing: np.ndarray | None = None, work: StepWorkspace | None = None) -> SimState:
    """Advance one step of size dt > 0.

    The stages work on the first w columns of the packed stacks, in rhs's
    band layout, where w is the width of the StepWorkspace work of the
    grid and scheme (made here, band_width wide, when not given), which
    must hold the band of the state and of the forcing: the state's stack
    is read in place there, and so is a forcing, a packed stack too. Each
    stage is the whole-array expression in its comment, evaluated in that
    order into the workspace, from the integrating factors exp(c dt L) of
    the linear symbol L (model.apply_symbol) and the explicit tendencies
    from rhs. The new band stack is written into work.k[0] once no stage
    reads it, and then into the new state's stack (SimState.from_stack),
    zero past w: the one array a step allocates. The first stage k0 is
    rhs(state.y) without the forcing, read from work.first when it is the
    state's (FirstStage.of) and made there otherwise; a forcing is added to
    it in place. The new state carries work.first, made for its stack from
    k[0] (first same as last): the next step's first stage and the d/dt of
    a record of the new state (time_derivative).

    Raises IntegrationError at t + dt when the new stack holds a non-finite
    value, or when its coefficient max-norm (over real and imaginary parts)
    exceeds STEP_GROWTH_LIMIT * max(old max-norm, 1): a divergence is
    stopped at its onset, before its norms overflow.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    if work is None:
        work = StepWorkspace(grid, config.scheme, width=band_width(state, forcing))
    w, s, k, first = work.width, work.stage, work.k, work.first
    y = state.y[..., :w]
    forcing = None if forcing is None else forcing[..., :w]
    e = work.factors[0]
    np.exp(np.multiply(dt, linear_symbol(grid, params, out=e), out=e), out=e)

    def n_of(yy, out):
        return rhs(yy, grid, params, forcing, out=out, work=work.rhs)

    k0 = first.of(state, params)
    if k0 is None:
        k0 = first.make(state, params, work.rhs)
    if forcing is not None:           # rhs adds a forcing last, as here
        first.y = None
        k0.setflags(write=True)
        k0 += forcing
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
    band = apply_symbol(e, y, out=k[0])
    band += s                         # e * y + the sum above

    peak = _max_norm(band)
    if not math.isfinite(peak):
        raise IntegrationError(state.t + dt, "non-finite field values")
    old = _max_norm(y)
    if peak > STEP_GROWTH_LIMIT * max(old, 1.0):
        raise IntegrationError(
            state.t + dt, f"coefficient max-norm grew from {old:.3g} to {peak:.3g}")
    ynew = np.empty(state.y.shape, dtype=np.complex128)
    ynew[..., :w] = band
    ynew[..., w:] = 0.0
    new = SimState.from_stack(state.t + dt, ynew, grid, params, first)
    if new.stokes_toy:                # from_stack set the vorticity row
        band[0] = ynew[0, :, :w]
    first.make(new, params, work.rhs, band)
    return new


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
    (FirstStage.umax). The run has one FirstStage, its stack allocated
    before any StepWorkspace: integrate makes it for state0 when a step
    follows, and each step leaves it made for the state it returns (step),
    so every state after t0 that the observer is handed, and the returned
    one, carries its first stage, which its d/dt reads (time_derivative).
    The steps up to each target share one StepWorkspace, dropped before the
    observer is called there. The run's stacks are band_width(state0,
    forcing) columns wide. No reference to state0 is kept past the first
    step, so a caller that holds none frees it there.
    """
    state, state0 = state0, None
    t_end = config.t_end
    eps = landing_tolerance(t_end)
    width = band_width(state, forcing)
    first = FirstStage(params, None, np.empty((4, state.grid.n, width), dtype=np.complex128))
    if t_end > state.t + eps:  # a step follows
        first.make(state, params, Workspace(state.grid, width))
        state = replace(state, first_stage=first)
    if observer is not None:
        observer(state)
    if t_end <= state.t + eps:
        return state

    every = observe_every if observer is not None else None
    for target in _targets(state.t, t_end, every, land_times):
        work = StepWorkspace(state.grid, config.scheme, first)
        while state.t < target:
            dt = cfl_dt(state, config, first.umax)
            if dt <= config.dt_min < config.dt_max:
                raise IntegrationError(state.t, "step size underflow")
            t_new = state.t + dt
            if t_new >= target - eps:  # the step reaches the target: end it there
                dt, t_new = target - state.t, target
            state = step(state, dt, params, config, forcing, work)
            if state.t != t_new:
                state = replace(state, t=t_new)
        work = None
        if observer is not None:
            observer(state)
    return state
