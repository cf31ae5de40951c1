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
    GammaTerms,
    ModelParams,
    SimState,
    commutator_r_advect,
    gamma_of,
    gamma_terms,
    time_derivative,
)

_TINY = 1e-30

Derivative = tuple[ScalarField, SymTensorField]  # d/dt (omega, tau), from time_derivative


def velocity_inner_from_vorticity(omega: ScalarField, domega: ScalarField) -> float:
    """<u, u_t> where u = biot_savart(omega), u_t = biot_savart(domega)."""
    g = omega.grid
    return mode_sum(omega.coeffs, domega.coeffs, g.inv_ksq) * g.length**2


def weighted_energy(params: ModelParams, u_l2: float, tau_l2: float) -> float:
    """(alpha ||u||^2 + K ||tau||^2) / 2 from the two L2 norms."""
    return 0.5 * (params.alpha * u_l2 ** 2 + params.K * tau_l2 ** 2)


def energy_weighted(state: SimState, params: ModelParams) -> float:
    """(alpha ||u||^2 + K ||tau||^2) / 2."""
    return weighted_energy(params, state.u.l2(), state.tau.l2())


def n_functional(obs: Observation) -> float:
    """M (alpha||u||^2 + K||tau||^2) + M (alpha||grad u||^2 + K||grad tau||^2)
    + ||Gamma||^2, with M the options' n_functional_m."""
    params, M = obs.params, obs.opts.n_functional_m
    return (
        M * (params.alpha * obs.u_l2 ** 2 + params.K * obs.tau_l2 ** 2)
        + M * (params.alpha * obs.grad_u_sq + params.K * obs.grad_tau_sq)
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
        params.mu * params.K * obs.grad_tau_sq
        + params.beta * params.K * obs.tau_l2 ** 2
        + params.nu * params.alpha * obs.grad_u_sq
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
    d_grad_u_sq = 2.0 * inner(state.omega, d_omega)
    lap_tau = state.tau.map(ops.laplacian)
    d_grad_tau_sq = -2.0 * inner(lap_tau, d_tau)
    lhs = d_grad_u_sq + d_grad_tau_sq + 0.5 * obs.lap_tau_sq
    return EnstrophyBalance(lhs=lhs, majorant=obs.grad_u_sq * obs.grad_tau_sq)


def gamma_residual(obs: Observation) -> float:
    """Relative L2 mismatch between d/dt Gamma from the observation's d/dt
    and the transformed-equation prediction. Requires nu = 0 and no Stokes
    toy."""
    params = obs.params
    if not params.gamma_law:
        raise ValueError("Gamma residual requires nu = 0 and no Stokes toy")
    adv = obs.terms.advected  # made before d/dt: their buffers do not meet
    d_omega, d_tau = obs.deriv
    dgamma = params.mu * d_omega - params.K * ops.riesz_r(d_tau)
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
    num = besov.besov_norm(commutator_r_advect(u, tau), 0.0)
    den = (besov.linf_norm(omega) + omega.l2()) * (
        besov.tensor_besov_norm(tau, eps) + tau.l2()
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
    several metrics share (R(tau), Gamma, the Gamma-equation terms of
    model.gamma_terms, d/dt of the state, and the Parseval sums that the
    record, the energy law and the enstrophy ledger share), each made on
    first use and then kept.

    `state` is a view of the state given, replace(state): a SimState over
    the same stack, stored values and first stage (SimState.first_stage,
    which integrate hands its observer, and time_derivative reads). Every
    cache a diagnostic makes (fields, velocity, its gradient, grid values)
    lands on the view, and the grid's padded transform is held here, so all
    of it dies with the observation and the state given is left as it
    was."""

    state: SimState
    params: ModelParams
    opts: DiagnosticsOptions = DiagnosticsOptions()

    def __post_init__(self):
        self.state = replace(self.state)
        self._padded = besov.padded_transform(self.state.grid)

    @cached_property
    def u_l2(self) -> float:
        return self.state.u.l2()

    @cached_property
    def tau_l2(self) -> float:
        return self.state.tau.l2()

    @cached_property
    def grad_u_sq(self) -> float:
        """||grad u||^2 as sq_norm(u, |k|^2)."""
        return sq_norm(self.state.u, self.state.grid.ksq)

    @cached_property
    def grad_tau_sq(self) -> float:
        return sq_norm(self.state.tau, self.state.grid.ksq)

    @cached_property
    def lap_tau_sq(self) -> float:
        return sq_norm(self.state.tau, self.state.grid.ksq**2)

    @cached_property
    def r_tau(self) -> ScalarField:
        return ops.riesz_r(self.state.tau)

    @cached_property
    def gamma(self) -> ScalarField:
        return gamma_of(self.state, self.params, self.r_tau)

    @cached_property
    def terms(self) -> GammaTerms:
        """The commutator and, where the Gamma law holds, the interior terms
        and u . grad Gamma (model.gamma_terms)."""
        gamma = self.gamma if self.params.gamma_law else None
        return gamma_terms(self.state, self.params, self.r_tau, gamma)

    commutator = property(lambda self: self.terms.commutator)
    interior = property(lambda self: self.terms.interior)

    @cached_property
    def deriv(self) -> Derivative:
        return time_derivative(self.state, self.params)


def _where(law: str, metric: Callable) -> Callable:
    """metric where the ModelParams property law holds, else None."""
    return lambda o: metric(o) if getattr(o.params, law) else None


# Every metric of a diagnostics record, in record (and NDJSON key) order.
# The entries call through module attributes (besov.linf_norm, gamma_of,
# ...) at evaluation time, so that replacing one of those is seen here.
RECORD: dict[str, Callable[[Observation], object]] = {
    "t": lambda o: o.state.t,
    "u_l2": lambda o: o.u_l2,
    "tau_l2": lambda o: o.tau_l2,
    "grad_u_l2": lambda o: o.state.grad_u.l2(),
    "grad_tau_l2": lambda o: math.sqrt(o.grad_tau_sq),
    "lap_tau_l2": lambda o: math.sqrt(o.lap_tau_sq),
    "omega_linf": lambda o: besov.linf_norm(o.state.omega),
    "omega_l2": lambda o: o.state.omega.l2(),
    "gamma_linf": lambda o: besov.linf_norm(o.gamma),
    "gamma_b0inf1": lambda o: besov.besov_norm(o.gamma, 0.0),
    "tau_bepsinf1": lambda o: besov.tensor_besov_norm(o.state.tau, o.opts.eps),
    "tau_h2": lambda o: besov.sobolev_norm(o.state.tau, 2.0),
    "grad_u_linf": lambda o: besov.linf_norm(o.state.grad_u),
    "bkm_accum": lambda o: 0.0,  # accumulated over records by the caller
    "energy_weighted": lambda o: weighted_energy(o.params, o.u_l2, o.tau_l2),
    "n_value": lambda o: n_functional(o),
    "energy_identity_residual": _where("energy_law", lambda o: energy_identity_residual(o)),
    "gamma_residual": _where("gamma_law", lambda o: gamma_residual(o)),
    "commutator_norm": lambda o: besov.besov_norm(o.commutator, 0.0),
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
    accumulates over records, which the caller holds. The Gamma-equation
    terms are made first, before the fields the other metrics make."""
    obs.terms
    return DiagnosticsRecord(**{name: metric(obs) for name, metric in RECORD.items()})


def bkm_log_check(record: DiagnosticsRecord) -> float | None:
    """||grad u||_inf / (||omega||_inf * log(e + ||u||_{H^s})), s the largest
    recorded Sobolev exponent above 2; None when the vorticity vanishes."""
    if record.omega_linf <= _TINY:
        return None
    candidates = [float(k) for k in record.u_hs if float(k) > 2.0]
    if not candidates:
        raise ValueError("no recorded H^s norm with s > 2")
    u_hs = record.u_hs[f"{max(candidates):g}"]
    return record.grad_u_linf / (record.omega_linf * math.log(math.e + u_hs))
