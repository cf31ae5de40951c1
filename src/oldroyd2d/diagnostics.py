"""Monitored quantities: norms, identity residuals, inequality ledgers, and
decay-rate fits.

Time derivatives inside identity residuals are semi-discrete: they are
assembled from the right-hand side, so the residuals isolate spatial
operator correctness from time-stepping error. Inequality-style quantities
are reported as ledgers (both sides and the implied constant); nothing
asserts a specific constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import besov
from . import operators as ops
from .errors import ConfigError
from .fields import ScalarField, SymTensorField, VectorField, inner, mode_sum, sq_norm
from .model import (
    ModelParams,
    SimState,
    gamma_interior,
    commutator_r_advect,
    gamma_of,
    time_derivative,
)

_TINY = 1e-30

Derivative = tuple[ScalarField, SymTensorField]  # d/dt (omega, tau), from time_derivative


def velocity_inner_from_vorticity(omega: ScalarField, domega: ScalarField) -> float:
    """<u, u_t> where u = biot_savart(omega), u_t = biot_savart(domega)."""
    g = omega.grid
    return mode_sum(omega.coeffs, domega.coeffs, g.inv_ksq) * g.length**2


def energy_weighted(state: SimState, params: ModelParams) -> float:
    """(alpha ||u||^2 + K ||tau||^2) / 2."""
    return 0.5 * (
        params.alpha * state.u.l2() ** 2 + params.K * state.tau.l2() ** 2
    )


def n_functional(obs: Observation) -> float:
    """M (alpha||u||^2 + K||tau||^2) + M (alpha||grad u||^2 + K||grad tau||^2)
    + ||Gamma||^2, with M the options' n_functional_m."""
    state, params, M = obs.state, obs.params, obs.opts.n_functional_m
    u_sq = state.u.l2() ** 2
    tau_sq = state.tau.l2() ** 2
    gu_sq = sq_norm(state.u, state.grid.ksq)
    gt_sq = sq_norm(state.tau, state.grid.ksq)
    return (
        M * (params.alpha * u_sq + params.K * tau_sq)
        + M * (params.alpha * gu_sq + params.K * gt_sq)
        + obs.gamma.l2() ** 2
    )


def energy_identity_residual(obs: Observation) -> float:
    """Relative residual of d/dt E + mu K ||grad tau||^2 + beta K ||tau||^2
    + nu alpha ||grad u||^2 = 0, with d/dt E from the observation's d/dt."""
    state, params = obs.state, obs.params
    if not params.energy_law:
        raise ValueError("energy identity requires Q disabled and no Stokes toy")
    d_omega, d_tau = obs.deriv
    de = params.alpha * velocity_inner_from_vorticity(state.omega, d_omega) \
        + params.K * inner(state.tau, d_tau)
    dissipation = (
        params.mu * params.K * sq_norm(state.tau, state.grid.ksq)
        + params.beta * params.K * state.tau.l2() ** 2
        + params.nu * params.alpha * sq_norm(state.u, state.grid.ksq)
    )
    scale = max(abs(de), abs(dissipation), _TINY)
    return abs(de + dissipation) / scale


class EnstrophyBalance(NamedTuple):
    """Both sides of the gradient-energy inequality ledger."""

    lhs: float       # d/dt(||grad u||^2 + ||grad tau||^2) + ||Lap tau||^2 / 2
    majorant: float  # ||grad u||^2 * ||grad tau||^2


def enstrophy_balance(obs: Observation) -> EnstrophyBalance:
    state = obs.state
    if not obs.params.energy_law:
        raise ValueError("enstrophy balance requires Q disabled and no Stokes toy")
    d_omega, d_tau = obs.deriv
    ksq = state.grid.ksq
    d_grad_u_sq = 2.0 * inner(state.omega, d_omega)
    lap_tau = state.tau.map(ops.laplacian)
    d_grad_tau_sq = -2.0 * inner(lap_tau, d_tau)
    lhs = d_grad_u_sq + d_grad_tau_sq + 0.5 * sq_norm(state.tau, ksq**2)
    return EnstrophyBalance(lhs=lhs,
                            majorant=sq_norm(state.u, ksq) * sq_norm(state.tau, ksq))


def gamma_residual(obs: Observation) -> float:
    """Relative L2 mismatch between d/dt Gamma from the observation's d/dt
    and the transformed-equation prediction. Requires nu = 0 and no Stokes
    toy."""
    params = obs.params
    if not params.gamma_law:
        raise ValueError("Gamma residual requires nu = 0 and no Stokes toy")
    d_omega, d_tau = obs.deriv
    dgamma = params.mu * d_omega - params.K * ops.riesz_r(d_tau)
    adv = ops.advect(obs.state.u, obs.gamma)
    res = dgamma + adv - obs.interior
    scale = max(dgamma.l2(), adv.l2(), obs.interior.l2(), _TINY)
    return res.l2() / scale


def commutator_ratio(u: VectorField, tau: SymTensorField, eps: float) -> float | None:
    """||[R, u.grad] tau||_{B^0_{inf,1}} over the commutator-estimate majorant.

    Returns None when the majorant is degenerate.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    omega = ops.curl(u)
    num = besov.besov_norm(commutator_r_advect(u, tau), 0.0, math.inf, 1)
    den = (besov.linf_norm(omega) + omega.l2()) * (
        besov.tensor_besov_norm(tau, eps, math.inf, 1) + tau.l2()
    )
    if den < 1e-14:
        return None
    return num / den


class DecayFit(NamedTuple):
    rate: float
    r_squared: float


def decay_fit(ts, vals) -> DecayFit:
    """Least-squares slope of log(v) vs t over the trailing half of the series."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if vals.size < 10:
        raise ValueError(f"decay fit needs >= 10 samples, got {vals.size}")
    if np.any(vals <= 0):
        raise ValueError("decay fit requires positive values")
    start = ts.size // 2
    t = ts[start:]
    y = np.log(vals[start:])
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot < 1e-28 else 1.0 - ss_res / ss_tot
    return DecayFit(rate=float(slope), r_squared=r2)


@dataclass(frozen=True)
class DiagnosticsOptions:
    """Which configurable diagnostics to evaluate per observation."""

    eps: float = 0.5                  # regularity of the tau Besov ledger norm
    hs: tuple = (3.0,)                # Sobolev exponents recorded for (u, tau)
    n_functional_m: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")
        if not self.n_functional_m > 0.0:
            raise ConfigError(f"n_functional_m must be > 0, got {self.n_functional_m}")
        if not (all(map(math.isfinite, self.hs)) and any(s > 2.0 for s in self.hs)):
            raise ConfigError(f"hs must hold finite exponents, one above 2, got {self.hs}")


@dataclass
class Observation:
    """One state as the diagnostics see it, and the one input of every
    per-state diagnostic: the state, the params, the options, and the terms
    several metrics share (Gamma, the commutator, d/dt of the state and the
    Gamma interior terms), each made on first use and then kept.

    `state` is a view of the state given, replace(state): a SimState over
    the same stack and stored values (SimState.values, which a loaded
    snapshot holds). Every cache a diagnostic makes (fields, velocity, its
    gradient, grid values) lands on the view, and the grid's padded
    transform is held here, so all of it dies with the observation and the
    state given is left as it was."""

    state: SimState
    params: ModelParams
    opts: DiagnosticsOptions = DiagnosticsOptions()

    def __post_init__(self):
        self.state = replace(self.state)
        self._padded = besov.padded_transform(self.state.grid)

    @cached_property
    def gamma(self) -> ScalarField:
        return gamma_of(self.state, self.params)

    @cached_property
    def commutator(self) -> ScalarField:
        return commutator_r_advect(self.state.u, self.state.tau)

    @cached_property
    def deriv(self) -> Derivative:
        return time_derivative(self.state, self.params)

    @cached_property
    def interior(self) -> ScalarField:
        return gamma_interior(self.state, self.params, self.commutator)


def _where(law: str, metric: Callable) -> Callable:
    """metric where the ModelParams property law holds, else None."""
    return lambda o: metric(o) if getattr(o.params, law) else None


# Every metric of a diagnostics record, in record (and NDJSON key) order.
# The entries call through module attributes (besov.linf_norm, gamma_of,
# ...) at evaluation time, so that replacing one of those is seen here.
RECORD: dict[str, Callable[[Observation], object]] = {
    "t": lambda o: o.state.t,
    "u_l2": lambda o: o.state.u.l2(),
    "tau_l2": lambda o: o.state.tau.l2(),
    "grad_u_l2": lambda o: o.state.grad_u.l2(),
    "grad_tau_l2": lambda o: math.sqrt(sq_norm(o.state.tau, o.state.grid.ksq)),
    "lap_tau_l2": lambda o: math.sqrt(sq_norm(o.state.tau, o.state.grid.ksq**2)),
    "omega_linf": lambda o: besov.linf_norm(o.state.omega),
    "omega_l2": lambda o: o.state.omega.l2(),
    "gamma_linf": lambda o: besov.linf_norm(o.gamma),
    "gamma_b0inf1": lambda o: besov.besov_norm(o.gamma, 0.0, math.inf, 1),
    "tau_bepsinf1": lambda o: besov.tensor_besov_norm(o.state.tau, o.opts.eps, math.inf, 1),
    "tau_h2": lambda o: besov.sobolev_norm(o.state.tau, 2.0),
    "grad_u_linf": lambda o: besov.linf_norm(o.state.grad_u),
    "bkm_accum": lambda o: 0.0,  # accumulated over records by the caller
    "energy_weighted": lambda o: energy_weighted(o.state, o.params),
    "n_value": lambda o: n_functional(o),
    "energy_identity_residual": _where("energy_law", lambda o: energy_identity_residual(o)),
    "gamma_residual": _where("gamma_law", lambda o: gamma_residual(o)),
    "commutator_norm": lambda o: besov.besov_norm(o.commutator, 0.0, math.inf, 1),
    # Gronwall majorant integrand for ||Gamma||_inf
    "gamma_rhs_linf": _where("gamma_law", lambda o: besov.linf_norm(o.interior)),
    "u_hs": lambda o: {f"{s:g}": besov.sobolev_norm(o.state.u, s) for s in o.opts.hs},
    "tau_hs": lambda o: {f"{s:g}": besov.sobolev_norm(o.state.tau, s) for s in o.opts.hs},
}


class DiagnosticsRecord(SimpleNamespace):
    """One time-stamped row of every RECORD metric, as attributes in RECORD
    order; an undefined residual is None."""

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def compute_record(obs: Observation) -> DiagnosticsRecord:
    """Every RECORD metric of the observation. bkm_accum is left 0: it
    accumulates over records, which the caller holds."""
    return DiagnosticsRecord(**{name: metric(obs) for name, metric in RECORD.items()})


def bkm_log_check(record: DiagnosticsRecord, s: float | None = None) -> float | None:
    """||grad u||_inf / (||omega||_inf * log(e + ||u||_{H^s})).

    Returns None when the vorticity vanishes. s defaults to the largest
    recorded Sobolev exponent above 2.
    """
    if record.omega_linf <= _TINY:
        return None
    if s is None:
        candidates = [float(k) for k in record.u_hs if float(k) > 2.0]
        if not candidates:
            raise ValueError("no recorded H^s norm with s > 2")
        s = max(candidates)
    u_hs = record.u_hs[f"{s:g}"]
    return record.grad_u_linf / (record.omega_linf * math.log(math.e + u_hs))
