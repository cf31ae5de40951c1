"""Oldroyd-type model: parameters, state, the right-hand side in vorticity form
(an explicit tendency plus a stiff symbol diagonal in Fourier), the bilinear
form Q, the transformed variable Gamma and its evolution equation, and the
Stokes toy variant.

The system integrated is

    d/dt omega + u . grad omega = K curl(div tau) + nu Laplace(omega)
    d/dt tau + u . grad tau + beta tau
        = mu Laplace(tau) + alpha Du + Q(grad u, tau)

with u = biot_savart(omega) (or diagnosed from tau in the Stokes toy
variant) and Q(grad u, tau) = Omega tau - tau Omega + b (Du tau + tau Du).

Key discrete identity (exact at the multiplier level): for divergence-free
u, R(Du) = omega / 2, where R = -(-Laplace)^{-1} curl div and
Du = (grad u + grad u^T)/2. Every Gamma-equation coefficient carries the
resulting 1/2: the transport damping rate is lambda = K alpha / (2 mu).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .fields import ScalarField, SymTensorField, VectorField
from .grid import Grid
from . import operators as ops

VARIANTS = ("full", "q_zero", "stokes_toy")


@dataclass(frozen=True)
class ModelParams:
    """Physical coefficients and model variant.

    nu >= 0 velocity viscosity, mu stress diffusivity (> 0 except in the
    Stokes toy), K >= 0 stress coupling, alpha velocity forcing of the
    stress (any sign), beta >= 0 relaxation, b in [-1, 1] slip parameter.
    variant q_zero forces q_enabled off.
    """

    nu: float = 0.0
    mu: float = 1.0
    K: float = 1.0
    alpha: float = 1.0
    beta: float = 0.0
    b: float = 0.0
    q_enabled: bool = True
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.variant == "q_zero" and self.q_enabled:
            object.__setattr__(self, "q_enabled", False)
        if self.variant != "stokes_toy" and not self.mu > 0.0:
            raise ConfigError(f"mu must be > 0 for variant {self.variant}, got {self.mu}")
        if self.mu < 0.0:
            raise ConfigError(f"mu must be >= 0, got {self.mu}")
        if self.nu < 0.0:
            raise ConfigError(f"nu must be >= 0, got {self.nu}")
        if self.beta < 0.0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.K < 0.0:
            raise ConfigError(f"K must be >= 0, got {self.K}")
        if not (-1.0 <= self.b <= 1.0):
            raise ConfigError(f"b must lie in [-1, 1], got {self.b}")

    @property
    def energy_law(self) -> bool:
        """Energy identity and enstrophy ledger hold: Q off, not the Stokes toy."""
        return not self.q_enabled and self.variant != "stokes_toy"

    @property
    def gamma_law(self) -> bool:
        """The Gamma equation holds: nu = 0, not the Stokes toy."""
        return self.nu == 0.0 and self.variant != "stokes_toy"

    @property
    def gamma_damping_rate(self) -> float:
        """lambda = K alpha / (2 mu), the hidden damping rate of Gamma."""
        return self.K * self.alpha / (2.0 * self.mu)


@dataclass(frozen=True)
class SimState:
    """Prognostic pair (omega, tau) at time t with derived velocity cache."""

    t: float
    omega: ScalarField
    tau: SymTensorField

    def __post_init__(self):
        scale = max(self.omega.max_abs_coeff(), 1.0)
        if abs(self.omega.coeffs[0, 0]) > 1e-12 * scale:
            raise ValueError("vorticity must have zero mean")

    @property
    def grid(self) -> Grid:
        return self.omega.grid

    @cached_property
    def u(self) -> VectorField:
        return ops.biot_savart(self.omega)

    @cached_property
    def grad_u(self) -> ops.VelocityGradient:
        return ops.velocity_gradient(self.u)

    def is_finite(self) -> bool:
        arrays = [self.omega.coeffs] + [c.coeffs for c in self.tau.components]
        return all(np.all(np.isfinite(a)) for a in arrays)


def make_state(t: float, omega: ScalarField, tau: SymTensorField,
               params: ModelParams | None = None) -> SimState:
    """Build a state; for the Stokes toy the vorticity is diagnosed from tau."""
    if params is not None and params.variant == "stokes_toy":
        omega = ops.curl(stokes_toy_velocity(tau))
    return SimState(t=t, omega=omega, tau=tau)


def stack(omega: ScalarField, tau: SymTensorField) -> np.ndarray:
    """The (4, n, n) coefficient stack (omega, tau11, tau12, tau22)."""
    return np.stack([omega.coeffs] + [c.coeffs for c in tau.components])


def unstack(grid: Grid, y: np.ndarray) -> tuple[ScalarField, SymTensorField]:
    """(omega, tau) as views of the rows of a coefficient stack."""
    return ScalarField(grid, y[0]), SymTensorField(*(ScalarField(grid, c) for c in y[1:]))


def linear_symbol(grid: Grid, params: ModelParams) -> np.ndarray:
    """Stiff part of d/dt of the stack, diagonal in Fourier, as (4, n, n).

    -nu |k|^2 for omega and -beta - mu |k|^2 for each tau component. The
    vorticity row is 0 for the Stokes toy, whose omega is diagnosed from tau.
    """
    sym = np.empty((4, grid.n, grid.n))
    sym[0] = 0.0 if params.variant == "stokes_toy" else -params.nu * grid.ksq
    sym[1:] = -(params.beta + params.mu * grid.ksq)
    return sym


def q_form(grad_u: ops.VelocityGradient, tau: SymTensorField, b: float) -> SymTensorField:
    """Q(grad u, tau) = Omega tau - tau Omega + b (Du tau + tau Du), dealiased.

    Omega is the skew part of grad u; with (grad u)_{ij} = d_i u_j this is
    Omega_12 = omega/2.
    """
    g = grad_u.grid
    a = 0.5 * (grad_u.g12.physical - grad_u.g21.physical)  # omega/2
    t11, t12, t22 = (c.physical for c in tau.components)

    q11 = 2.0 * a * t12
    q12 = a * (t22 - t11)
    q22 = -2.0 * a * t12

    if b != 0.0:
        d11 = grad_u.g11.physical
        d12 = 0.5 * (grad_u.g12.physical + grad_u.g21.physical)
        d22 = grad_u.g22.physical
        q11 = q11 + b * 2.0 * (d11 * t11 + d12 * t12)
        q12 = q12 + b * (d12 * (t11 + t22) + t12 * (d11 + d22))
        q22 = q22 + b * 2.0 * (d22 * t22 + d12 * t12)

    return SymTensorField(
        ops.multiply_physical(g, q11),
        ops.multiply_physical(g, q12),
        ops.multiply_physical(g, q22),
    )


def stokes_toy_velocity(tau: SymTensorField) -> VectorField:
    """Velocity of the Stokes problem -Laplace(u) + grad p = div(tau)."""
    g = tau.grid
    div1 = ops.deriv(tau.t11, 1) + ops.deriv(tau.t12, 2)
    div2 = ops.deriv(tau.t12, 1) + ops.deriv(tau.t22, 2)
    unprojected = VectorField(
        ScalarField(g, div1.coeffs * g.inv_ksq),
        ScalarField(g, div2.coeffs * g.inv_ksq),
    )
    return ops.leray_project(unprojected)


def rhs(state: SimState, params: ModelParams,
        forcing: np.ndarray | None = None) -> np.ndarray:
    """Explicit tendency of (omega, tau11, tau12, tau22) as one (4, n, n) stack.

    This is d/dt of the state without the stiff part linear_symbol * stack,
    which the integrating factor carries; time_derivative gives the full
    d/dt. Every quadratic product is dealiased. For the Stokes toy variant
    the vorticity equation is dropped (its row is 0) and the advecting
    velocity is state.u, which make_state keeps consistent with tau. A
    forcing stack is added as it is.
    """
    grid = state.grid
    u = state.u
    tau = state.tau

    if params.variant == "stokes_toy":
        omega_explicit = ScalarField.zeros(grid)
    else:
        adv_omega = ops.advect(u, state.omega)
        omega_coeffs = -adv_omega.coeffs
        if params.K != 0.0:
            omega_coeffs = omega_coeffs + params.K * ops.curl_div(tau).coeffs
        omega_coeffs[0, 0] = 0.0
        omega_explicit = ScalarField(grid, omega_coeffs)

    adv_tau = ops.advect_tensor(u, tau)
    tau_explicit = -1.0 * adv_tau
    if params.alpha != 0.0:
        tau_explicit = tau_explicit + params.alpha * ops.sym_grad_of(state.grad_u)
    if params.q_enabled:
        tau_explicit = tau_explicit + q_form(state.grad_u, tau, params.b)

    out = stack(omega_explicit, tau_explicit)
    if forcing is not None:
        out += forcing
    return out


def time_derivative(state: SimState,
                    params: ModelParams) -> tuple[ScalarField, SymTensorField]:
    """d/dt (omega, tau) at the state: rhs plus linear_symbol * stack, the one
    place where the explicit/stiff split is undone."""
    grid = state.grid
    d = rhs(state, params) + linear_symbol(grid, params) * stack(state.omega, state.tau)
    return unstack(grid, d)


def gamma_of(state: SimState, params: ModelParams) -> ScalarField:
    """Gamma = mu * omega - K * R(tau)."""
    return params.mu * state.omega - params.K * ops.riesz_r(state.tau)


def commutator_r_advect(u: VectorField, tau: SymTensorField) -> ScalarField:
    """[R, u.grad] tau = R(u.grad tau) - u.grad(R tau), consistently dealiased."""
    term1 = ops.riesz_r(ops.advect_tensor(u, tau))
    term2 = ops.advect(u, ops.riesz_r(tau))
    return term1 - term2


def gamma_interior(state: SimState, params: ModelParams,
                   commutator: ScalarField | None = None) -> ScalarField:
    """Gamma-equation source terms other than transport and damping."""
    commutator = commutator if commutator is not None else commutator_r_advect(state.u, state.tau)
    interior = (
        params.K * params.beta * ops.riesz_r(state.tau)
        - (params.K * params.alpha / 2.0) * state.omega
        + params.K * commutator
    )
    if params.q_enabled:
        q = q_form(state.grad_u, state.tau, params.b)
        interior = interior - params.K * ops.riesz_r(q)
    return interior


def gamma_rhs_theoretical(state: SimState, params: ModelParams,
                          form: str = "transport") -> ScalarField:
    """d/dt Gamma predicted by the transformed equation (requires nu = 0).

    form="transport": -u.grad Gamma + K beta R tau - (K alpha/2) omega
                      + K [R, u.grad] tau - K R(Q).
    form="damped":    same value regrouped around the damping term
                      -lambda Gamma with lambda = K alpha / (2 mu).
    """
    if not params.gamma_law:
        raise ValueError("Gamma equation requires nu = 0 and no Stokes toy")
    if form not in ("transport", "damped"):
        raise ValueError(f"unknown form {form!r}")

    gamma = gamma_of(state, params)
    adv = ops.advect(state.u, gamma)
    if form == "transport":
        return -1.0 * adv + gamma_interior(state, params)

    lam = params.gamma_damping_rate
    r_tau = ops.riesz_r(state.tau)
    out = (
        -1.0 * adv
        - lam * gamma
        + (params.K * params.beta - lam * params.K) * r_tau
        + params.K * commutator_r_advect(state.u, state.tau)
    )
    if params.q_enabled:
        q = q_form(state.grad_u, state.tau, params.b)
        out = out - params.K * ops.riesz_r(q)
    return out
