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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import besov
from . import operators as ops
from .errors import ConfigError
from .fields import ScalarField, SymTensorField, VectorField, inner, sq_norm
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
    s = np.sum(np.conj(omega.coeffs) * domega.coeffs * g.inv_ksq)
    return float(s.real) * g.length**2


def energy_weighted(state: SimState, params: ModelParams) -> float:
    """(alpha ||u||^2 + K ||tau||^2) / 2."""
    return 0.5 * (
        params.alpha * state.u.l2() ** 2 + params.K * state.tau.l2() ** 2
    )


def n_functional(state: SimState, params: ModelParams, M: float,
                 gamma: ScalarField | None = None) -> float:
    """M (alpha||u||^2 + K||tau||^2) + M (alpha||grad u||^2 + K||grad tau||^2)
    + ||Gamma||^2."""
    if not M > 0.0:
        raise ValueError(f"M must be positive, got {M}")
    u_sq = state.u.l2() ** 2
    tau_sq = state.tau.l2() ** 2
    gu_sq = sq_norm(state.u, state.grid.ksq)
    gt_sq = sq_norm(state.tau, state.grid.ksq)
    gamma = gamma if gamma is not None else gamma_of(state, params)
    return (
        M * (params.alpha * u_sq + params.K * tau_sq)
        + M * (params.alpha * gu_sq + params.K * gt_sq)
        + gamma.l2() ** 2
    )


def energy_identity_residual(state: SimState, params: ModelParams,
                             deriv: Derivative | None = None) -> float:
    """Relative residual of d/dt E + mu K ||grad tau||^2 + beta K ||tau||^2
    + nu alpha ||grad u||^2 = 0, with d/dt E from time_derivative."""
    if not params.energy_law:
        raise ValueError("energy identity requires Q disabled and no Stokes toy")
    d_omega, d_tau = deriv if deriv is not None else time_derivative(state, params)
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


def enstrophy_balance(state: SimState, params: ModelParams,
                      deriv: Derivative | None = None) -> EnstrophyBalance:
    if not params.energy_law:
        raise ValueError("enstrophy balance requires Q disabled and no Stokes toy")
    d_omega, d_tau = deriv if deriv is not None else time_derivative(state, params)
    ksq = state.grid.ksq
    d_grad_u_sq = 2.0 * inner(state.omega, d_omega)
    lap_tau = state.tau.map(ops.laplacian)
    d_grad_tau_sq = -2.0 * inner(lap_tau, d_tau)
    lhs = d_grad_u_sq + d_grad_tau_sq + 0.5 * sq_norm(state.tau, ksq**2)
    return EnstrophyBalance(lhs=lhs,
                            majorant=sq_norm(state.u, ksq) * sq_norm(state.tau, ksq))


def gamma_residual(state: SimState, params: ModelParams,
                   deriv: Derivative | None = None,
                   gamma: ScalarField | None = None,
                   interior: ScalarField | None = None) -> float:
    """Relative L2 mismatch between d/dt Gamma from time_derivative and the
    transformed-equation prediction. Requires nu = 0 and no Stokes toy."""
    if not params.gamma_law:
        raise ValueError("Gamma residual requires nu = 0 and no Stokes toy")
    d_omega, d_tau = deriv if deriv is not None else time_derivative(state, params)
    dgamma = params.mu * d_omega - params.K * ops.riesz_r(d_tau)
    gamma = gamma if gamma is not None else gamma_of(state, params)
    adv = ops.advect(state.u, gamma)
    interior = interior if interior is not None else gamma_interior(state, params)
    res = dgamma + adv - interior
    scale = max(dgamma.l2(), adv.l2(), interior.l2(), _TINY)
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


def bkm_integral(ts, vals) -> float:
    """Trapezoidal integral of ||grad u||_inf over time."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if ts.size == 0:
        return 0.0
    if np.any(np.diff(ts) <= 0):
        raise ValueError("times must be strictly increasing")
    return float(np.trapezoid(vals, ts))


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
class DiagnosticsRecord:
    """One time-stamped row of every monitored quantity.

    Residual fields are None where undefined: the energy residual unless
    ModelParams.energy_law, the Gamma fields unless ModelParams.gamma_law.
    """

    t: float
    u_l2: float
    tau_l2: float
    grad_u_l2: float
    grad_tau_l2: float
    lap_tau_l2: float
    omega_linf: float
    omega_l2: float
    gamma_linf: float
    gamma_b0inf1: float
    tau_bepsinf1: float
    tau_h2: float
    grad_u_linf: float
    bkm_accum: float
    energy_weighted: float
    n_value: float
    energy_identity_residual: float | None
    gamma_residual: float | None
    commutator_norm: float
    gamma_rhs_linf: float | None  # Gronwall majorant integrand for ||Gamma||_inf
    u_hs: dict = field(default_factory=dict)
    tau_hs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def compute_record(state: SimState, params: ModelParams,
                   opts: DiagnosticsOptions = DiagnosticsOptions(),
                   deriv: Derivative | None = None) -> DiagnosticsRecord:
    """One observation; time_derivative (only where a residual is defined),
    Gamma, the commutator and the Gamma interior terms are each evaluated once.
    bkm_accum is left 0: it accumulates over records, which the caller holds."""
    ksq = state.grid.ksq
    gamma = gamma_of(state, params)
    commutator = commutator_r_advect(state.u, state.tau)
    if deriv is None and (params.energy_law or params.gamma_law):
        deriv = time_derivative(state, params)

    energy_res = None
    if params.energy_law:
        energy_res = energy_identity_residual(state, params, deriv)
    gamma_res = None
    gamma_rhs_linf = None
    if params.gamma_law:
        interior = gamma_interior(state, params, commutator)
        gamma_res = gamma_residual(state, params, deriv, gamma, interior)
        gamma_rhs_linf = besov.linf_norm(interior)

    rec = DiagnosticsRecord(
        t=state.t,
        u_l2=state.u.l2(),
        tau_l2=state.tau.l2(),
        grad_u_l2=state.grad_u.l2(),
        grad_tau_l2=math.sqrt(sq_norm(state.tau, ksq)),
        lap_tau_l2=math.sqrt(sq_norm(state.tau, ksq**2)),
        omega_linf=besov.linf_norm(state.omega),
        omega_l2=state.omega.l2(),
        gamma_linf=besov.linf_norm(gamma),
        gamma_b0inf1=besov.besov_norm(gamma, 0.0, math.inf, 1),
        tau_bepsinf1=besov.tensor_besov_norm(state.tau, opts.eps, math.inf, 1),
        tau_h2=besov.sobolev_norm(state.tau, 2.0),
        grad_u_linf=besov.linf_norm(state.grad_u),
        bkm_accum=0.0,
        energy_weighted=energy_weighted(state, params),
        n_value=n_functional(state, params, opts.n_functional_m, gamma),
        energy_identity_residual=energy_res,
        gamma_residual=gamma_res,
        commutator_norm=besov.besov_norm(commutator, 0.0, math.inf, 1),
        gamma_rhs_linf=gamma_rhs_linf,
    )
    for s in opts.hs:
        key = f"{s:g}"
        rec.u_hs[key] = besov.sobolev_norm(state.u, s)
        rec.tau_hs[key] = besov.sobolev_norm(state.tau, s)
    return rec


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
