"""Spectral field algebra: derivatives, inversions, projections, and the
degree-zero operator R, all as exact Fourier multipliers.

Velocity gradients use the convention (grad u)_{ij} = d_i u_j, so the
vorticity is omega = g12 - g21 and the rotation Omega_12 = omega / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, SymTensorField, VectorField
from .grid import Grid


def deriv(f: ScalarField, axis: int) -> ScalarField:
    """Partial derivative along axis 1 (x) or 2 (y)."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    k = f.grid.deriv_k1 if axis == 1 else f.grid.deriv_k2
    return ScalarField(f.grid, 1j * k * f.coeffs)


def grad(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    return deriv(f, 1), deriv(f, 2)


def laplacian(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, -f.grid.ksq * f.coeffs)


def invert_laplacian(f: ScalarField) -> ScalarField:
    """Solve Laplace(g) = f for the zero-mean part; the mean is discarded."""
    return ScalarField(f.grid, -f.grid.inv_ksq * f.coeffs)


def divergence(v: VectorField) -> ScalarField:
    return deriv(v.u1, 1) + deriv(v.u2, 2)


def curl(v: VectorField) -> ScalarField:
    """Scalar curl d1 u2 - d2 u1."""
    return deriv(v.u2, 1) - deriv(v.u1, 2)


def leray_project(v: VectorField) -> VectorField:
    """Orthogonal projection onto divergence-free fields (mean preserved)."""
    g = v.grid
    kdotv = g.k1 * v.u1.coeffs + g.k2 * v.u2.coeffs
    corr = g.inv_ksq * kdotv
    return VectorField(
        ScalarField(g, v.u1.coeffs - g.k1 * corr),
        ScalarField(g, v.u2.coeffs - g.k2 * corr),
    )


def biot_savart(omega: ScalarField) -> VectorField:
    """Divergence-free velocity with curl(u) = omega.

    Per mode u_hat = (i k2, -i k1) omega_hat / |k|^2. Requires zero-mean
    omega: a nonzero mean admits no periodic velocity.
    """
    g = omega.grid
    scale = max(omega.max_abs_coeff(), 1.0)
    if abs(omega.coeffs[0, 0]) > 1e-12 * scale:
        raise ValueError(
            f"biot_savart requires zero-mean vorticity, mean={omega.mean:.3e}"
        )
    psi = g.inv_ksq * omega.coeffs  # stream function: -Laplace(psi) = omega
    return VectorField(
        ScalarField(g, 1j * g.k2 * psi),
        ScalarField(g, -1j * g.k1 * psi),
    )


@dataclass(frozen=True)
class VelocityGradient:
    """The four fields g_{ij} = d_i u_j."""

    g11: ScalarField
    g12: ScalarField
    g21: ScalarField
    g22: ScalarField

    @property
    def grid(self) -> Grid:
        return self.g11.grid


def velocity_gradient(u: VectorField) -> VelocityGradient:
    return VelocityGradient(
        g11=deriv(u.u1, 1),
        g12=deriv(u.u2, 1),
        g21=deriv(u.u1, 2),
        g22=deriv(u.u2, 2),
    )


def sym_grad(u: VectorField) -> SymTensorField:
    """Symmetric velocity gradient Du = (grad u + grad u^T) / 2."""
    return sym_grad_of(velocity_gradient(u))


def sym_grad_of(g: VelocityGradient) -> SymTensorField:
    return SymTensorField(t11=g.g11, t12=0.5 * (g.g12 + g.g21), t22=g.g22)


def _r_numerator(tau: SymTensorField) -> np.ndarray:
    """Per mode (k1^2 - k2^2) t12 + k1 k2 (t22 - t11), shared by R and curl div."""
    g = tau.grid
    return (g.k1**2 - g.k2**2) * tau.t12.coeffs + g.k1 * g.k2 * (
        tau.t22.coeffs - tau.t11.coeffs
    )


def riesz_r(tau: SymTensorField) -> ScalarField:
    """R(tau) = -(-Laplace)^{-1} curl(div(tau)), a degree-zero multiplier.

    Per mode [(k1^2 - k2^2) t12 + k1 k2 (t22 - t11)] / |k|^2; zero mode -> 0.
    """
    return ScalarField(tau.grid, _r_numerator(tau) * tau.grid.inv_ksq)


def curl_div(tau: SymTensorField) -> ScalarField:
    """curl(div(tau)); per mode -[(k1^2 - k2^2) t12 + k1 k2 (t22 - t11)].

    Equals Laplace(R(tau)) exactly at the multiplier level.
    """
    return ScalarField(tau.grid, -_r_numerator(tau))


def riesz_component(f: ScalarField, i: int) -> ScalarField:
    """Riesz transform d_i / |D|; zero mode -> 0."""
    if i not in (1, 2):
        raise ValueError(f"component must be 1 or 2, got {i}")
    g = f.grid
    k = g.k1 if i == 1 else g.k2
    mult = np.zeros_like(g.kmag)
    np.divide(k, g.kmag, out=mult, where=g.kmag > 0)
    return ScalarField(g, 1j * mult * f.coeffs)


def dealias_scalar(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, f.coeffs * f.grid.dealias_mask)


def dealias(field):
    """Two-thirds-rule mask on any field type."""
    if isinstance(field, ScalarField):
        return dealias_scalar(field)
    if isinstance(field, VectorField):
        return VectorField(dealias_scalar(field.u1), dealias_scalar(field.u2))
    if isinstance(field, SymTensorField):
        return field.map(dealias_scalar)
    raise TypeError(f"cannot dealias {type(field).__name__}")


def multiply_physical(grid: Grid, values: np.ndarray) -> ScalarField:
    """Wrap a physical-space product and dealias it."""
    return dealias_scalar(ScalarField.from_physical(grid, values))


def advect(u: VectorField, f: ScalarField) -> ScalarField:
    """u . grad f, pseudospectral product, dealiased."""
    fx, fy = grad(f)
    values = u.u1.physical * fx.physical + u.u2.physical * fy.physical
    return multiply_physical(f.grid, values)


def advect_tensor(u: VectorField, tau: SymTensorField) -> SymTensorField:
    return tau.map(lambda c: advect(u, c))
