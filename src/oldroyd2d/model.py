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
    """Prognostic pair (omega, tau) at time t with derived velocity cache.

    A Stokes-toy state takes its velocity from tau (stokes_toy_velocity):
    Biot-Savart of its vorticity -R(tau) would lose the Nyquist-row term that
    the stepper's velocity keeps."""

    t: float
    omega: ScalarField
    tau: SymTensorField
    stokes_toy: bool = False

    def __post_init__(self):
        scale = max(self.omega.max_abs_coeff(), 1.0)
        if abs(self.omega.coeffs[0, 0]) > 1e-12 * scale:
            raise ValueError("vorticity must have zero mean")

    @property
    def grid(self) -> Grid:
        return self.omega.grid

    @cached_property
    def u(self) -> VectorField:
        if self.stokes_toy:
            return stokes_toy_velocity(self.tau)
        return ops.biot_savart(self.omega)

    @cached_property
    def grad_u(self) -> ops.VelocityGradient:
        return ops.velocity_gradient(self.u)


def make_state(t: float, omega: ScalarField, tau: SymTensorField,
               params: ModelParams | None = None) -> SimState:
    """Build a state; for the Stokes toy the vorticity is diagnosed from tau."""
    stokes_toy = params is not None and params.variant == "stokes_toy"
    if stokes_toy:
        omega = ScalarField(tau.grid, stokes_toy_vorticity(
            tau.grid, *(c.coeffs for c in tau.components)))
    return SimState(t=t, omega=omega, tau=tau, stokes_toy=stokes_toy)


def stack(omega: ScalarField, tau: SymTensorField) -> np.ndarray:
    """The packed (4, n, n//2+1) stack of the coefficient arrays (omega,
    tau11, tau12, tau22)."""
    return np.stack([omega.coeffs] + [c.coeffs for c in tau.components])


def unstack(grid: Grid, y: np.ndarray) -> tuple[ScalarField, SymTensorField]:
    """(omega, tau) holding the rows of a packed stack as they are: views,
    so the stack must not be written afterwards."""
    return ScalarField(grid, y[0]), SymTensorField(*(ScalarField(grid, c) for c in y[1:]))


def linear_symbol(grid: Grid, params: ModelParams) -> np.ndarray:
    """Stiff part of d/dt of the packed stack, diagonal in Fourier.

    -nu |k|^2 for omega and -beta - mu |k|^2 for each tau component. The
    vorticity row is 0 for the Stokes toy, whose omega is diagnosed from tau.
    """
    ksq = grid.ksq
    sym = np.empty((4,) + ksq.shape)
    sym[0] = 0.0 if params.variant == "stokes_toy" else -params.nu * ksq
    sym[1:] = -(params.beta + params.mu * ksq)
    return sym


def q_products(g11, g12, g21, g22, t11, t12, t22, b: float):
    """Physical (q11, q12, q22) of Q(grad u, tau) = Omega tau - tau Omega
    + b (Du tau + tau Du), from the physical values of g_ij = d_i u_j and tau.

    Omega is the skew part of grad u; Omega_12 = omega/2.
    """
    a = 0.5 * (g12 - g21)  # omega/2
    q11 = 2.0 * a * t12
    q12 = a * (t22 - t11)
    q22 = -q11

    if b != 0.0:
        d12 = 0.5 * (g12 + g21)
        d12t12 = d12 * t12
        q11 += b * 2.0 * (g11 * t11 + d12t12)
        q12 += b * (d12 * (t11 + t22) + t12 * (g11 + g22))
        q22 += b * 2.0 * (g22 * t22 + d12t12)
    return q11, q12, q22


def q_form(grad_u: ops.VelocityGradient, tau: SymTensorField, b: float) -> SymTensorField:
    """Q(grad u, tau) (q_products), dealiased."""
    g = grad_u.grid
    q = q_products(*(c.physical for c in grad_u.components),
                   *(c.physical for c in tau.components), b)
    return SymTensorField(*(ops.multiply_physical(g, v) for v in q))


def stokes_toy_vorticity(g: Grid, t11: np.ndarray, t12: np.ndarray,
                         t22: np.ndarray) -> np.ndarray:
    """Per mode, the vorticity -R(tau) of the Stokes problem
    -Laplace(u) + grad p = div(tau), whose curl is -Laplace(omega) = curl div
    tau."""
    return -ops.r_numerator(g, t11, t12, t22) * g.inv_ksq


def stokes_toy_velocity_modes(g: Grid, t11: np.ndarray, t12: np.ndarray,
                              t22: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per mode, the Biot-Savart velocity (i k2, -i k1) psi of that vorticity,
    psi = -N / |k|^4 with N = r_numerator, expanded so that the k1 k1 k2 term
    of -i k1 psi is written with |k|^2 - k2^2 and stays even in k1 on the
    Nyquist row (Grid)."""
    k1, k2 = g.k1, g.k2
    k2sq = k2**2
    d = t22 - t11
    diff = g.ksq - 2.0 * k2sq  # k1^2 - k2^2
    inv4 = g.inv_ksq**2
    u1 = -1j * k2 * (diff * t12 + k1 * k2 * d) * inv4
    u2 = 1j * (k1 * diff * t12 + (g.ksq - k2sq) * k2 * d) * inv4
    return u1, u2


def stokes_toy_velocity(tau: SymTensorField) -> VectorField:
    """Velocity of the Stokes problem -Laplace(u) + grad p = div(tau)."""
    g = tau.grid
    u1, u2 = stokes_toy_velocity_modes(g, *(c.coeffs for c in tau.components))
    return VectorField(ScalarField(g, u1), ScalarField(g, u2))


def packed_velocity_modes(g: Grid, y, stokes_toy: bool):
    """Per mode, the velocity of a packed stack y (or of any sequence of its
    four rows): the Biot-Savart velocity of the vorticity row or, for the
    Stokes toy, the Stokes velocity of the tau rows."""
    if stokes_toy:
        return stokes_toy_velocity_modes(g, *y[1:])
    return ops.velocity_modes(g, y[0])


def rhs(y: np.ndarray, grid: Grid, params: ModelParams,
        forcing: np.ndarray | None = None) -> np.ndarray:
    """Explicit tendency of a packed stack (omega, tau11, tau12, tau22), as a
    packed stack.

    This is d/dt of the state without the stiff part linear_symbol * y,
    which the integrating factor carries; time_derivative gives the full
    d/dt. Every quadratic product is dealiased; advection and Q are summed
    in physical space, so each row takes one forward transform. For the
    Stokes toy the vorticity row is 0 and the velocity comes from the tau
    rows. A packed forcing stack is added as it is. Every array transformed
    back is a per-mode multiple of rows of y, so one check of y sets the
    band of every inverse transform (Grid.band).
    """
    mask = grid.dealias_mask
    ik1, ik2 = 1j * grid.deriv_k1, 1j * grid.deriv_k2
    phys = grid.inverse(grid.band(y))

    stokes = params.variant == "stokes_toy"
    u1_hat, u2_hat = packed_velocity_modes(grid, y, stokes)
    transport = ops.transport(phys, (phys(u1_hat), phys(u2_hat)), (ik1, ik2))

    out = np.empty_like(y)
    if stokes:
        out[0] = 0.0
    else:
        np.multiply(np.fft.rfft2(transport(y[0]), norm="forward"), mask, out=out[0])
        if params.K != 0.0:
            out[0] -= params.K * ops.r_numerator(grid, *y[1:])  # K curl(div(tau))
        out[0, 0, 0] = 0.0

    grad_u = (ik1 * u1_hat, ik1 * u2_hat, ik2 * u1_hat, ik2 * u2_hat)  # g_ij = d_i u_j
    tendency = [transport(t) for t in y[1:]]
    if params.q_enabled:
        q = q_products(*map(phys, grad_u), *map(phys, y[1:]), params.b)
        for values, q_c in zip(tendency, q):
            values += q_c
    for row, values in zip(out[1:], tendency):
        np.multiply(np.fft.rfft2(values, norm="forward"), mask, out=row)
    if params.alpha != 0.0:
        g11, g12, g21, g22 = grad_u
        out[1] += params.alpha * g11
        out[2] += params.alpha * (0.5 * (g12 + g21))
        out[3] += params.alpha * g22

    if forcing is not None:
        out += forcing
    return out


def time_derivative(state: SimState,
                    params: ModelParams) -> tuple[ScalarField, SymTensorField]:
    """d/dt (omega, tau) at the state: rhs plus linear_symbol * stack, the one
    place where the explicit/stiff split is undone."""
    grid = state.grid
    y = stack(state.omega, state.tau)
    return unstack(grid, rhs(y, grid, params) + linear_symbol(grid, params) * y)


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

