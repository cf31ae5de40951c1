"""Spectral field algebra: derivatives, Biot-Savart and the degree-zero
operator R, exact Fourier multipliers whose factors Factors makes.

Velocity gradients use the convention (grad u)_{ij} = d_i u_j, so the
vorticity is omega = g12 - g21 and the rotation Omega_12 = omega / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import FieldKind, ScalarField, SymTensorField, VectorField
from .grid import Grid, inverse_rfft2


def deriv(f: ScalarField, axis: int) -> ScalarField:
    """Partial derivative along axis 1 (x) or 2 (y)."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    k = f.grid.deriv_k1 if axis == 1 else f.grid.deriv_k2
    return ScalarField(f.grid, 1j * k * f.coeffs)


def laplacian(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, -f.grid.ksq * f.coeffs)


def curl(v: VectorField) -> ScalarField:
    """Scalar curl d1 u2 - d2 u1."""
    return deriv(v.u2, 1) - deriv(v.u1, 2)


class Factors:
    """The per-mode factors of the multiplier kernels on columns 0..width-1
    of the grid, made on first use, each a contiguous complex array: numpy
    would cast a real factor, or copy a strided window, through a fresh
    buffer in every product with a complex array. None is kept past the
    field-operator call or the model.Workspace that makes it."""

    def __init__(self, grid: Grid, width: int):
        self.grid, self.width = grid, width

    def _cut(self, *names: str) -> list[np.ndarray]:
        return [getattr(self.grid, name)[:, :self.width] for name in names]

    @cached_property
    def ik(self) -> tuple[np.ndarray, ...]:
        """i k1 and i k2 of the derivatives in advect and model.Workspace."""
        k1, k2 = self._cut("deriv_k1", "deriv_k2")
        return _contiguous(1j * k1, 1j * k2)

    @cached_property
    def mask(self) -> np.ndarray:
        """The dealias mask."""
        return _contiguous(*self._cut("dealias_mask"))[0]

    @cached_property
    def velocity(self) -> tuple[np.ndarray, ...]:
        """1/|k|^2, i k2 and -i k1 of velocity_modes."""
        k1, k2, inv_ksq = self._cut("k1", "k2", "inv_ksq")
        return _contiguous(inv_ksq, 1j * k2, -1j * k1)

    @cached_property
    def r(self) -> tuple[np.ndarray, ...]:
        """k1^2 - k2^2 and k1 k2 of r_numerator. k1^2 - k2^2 is written
        |k|^2 - 2 k2^2, which keeps it even in k1 on the Nyquist row (Grid)."""
        k1, k2, ksq = self._cut("k1", "k2", "ksq")
        return _contiguous(ksq - 2.0 * k2**2, k1 * k2)

    @cached_property
    def stokes_toy(self) -> tuple[np.ndarray, ...]:
        """-i k2, 1/|k|^4, k1 (k1^2 - k2^2) and (|k|^2 - k2^2) k2 of
        model.stokes_toy_velocity_modes, which takes the r factors too."""
        k1, k2, ksq, inv_ksq = self._cut("k1", "k2", "ksq", "inv_ksq")
        return _contiguous(-1j * k2, inv_ksq**2, k1 * (ksq - 2.0 * k2**2),
                           (ksq - k2**2) * k2)


def _contiguous(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    return tuple(np.asarray(a, dtype=np.complex128, order="C") for a in arrays)


def in_band(*fields: ScalarField) -> tuple[Factors, list[np.ndarray]]:
    """The Factors of the band of the fields' coefficients (Grid.band) and
    the coefficients' columns within it, the columns a field operator
    computes; its output is zero past them, as model.Workspace.store
    writes."""
    g = fields[0].grid
    width = g.band(*(f.coeffs for f in fields)) + 1
    return Factors(g, width), [f.coeffs[:, :width] for f in fields]


def velocity_modes(factors: Factors, w: np.ndarray, out) -> tuple[np.ndarray, np.ndarray]:
    """Biot-Savart per mode, u_hat = (i k2, -i k1) w_hat / |k|^2, in the pair out."""
    inv_ksq, i_k2, minus_i_k1 = factors.velocity
    u1, u2 = out
    psi = np.multiply(inv_ksq, w, out=u2)  # stream function: -Laplace(psi) = omega
    np.multiply(i_k2, psi, out=u1)
    return u1, np.multiply(minus_i_k1, psi, out=psi)


def biot_savart(omega: ScalarField) -> VectorField:
    """Divergence-free velocity with curl(u) = omega (velocity_modes).

    Requires zero-mean omega: a nonzero mean admits no periodic velocity.
    """
    g = omega.grid
    scale = max(omega.max_abs_coeff(), 1.0)
    if abs(omega.coeffs[0, 0]) > 1e-12 * scale:
        raise ValueError(
            f"biot_savart requires zero-mean vorticity, mean={omega.mean:.3e}"
        )
    factors, (w,) = in_band(omega)
    u = np.zeros((2,) + g.shape, dtype=np.complex128)
    velocity_modes(factors, w, u[..., :factors.width])
    return VectorField(ScalarField(g, u[0]), ScalarField(g, u[1]))


@dataclass(frozen=True)
class VelocityGradient(FieldKind):
    """The four fields g_{ij} = d_i u_j; its norms are those of the full
    matrix, each entry weighted 1."""

    g11: ScalarField
    g12: ScalarField
    g21: ScalarField
    g22: ScalarField

    weights = (1.0, 1.0, 1.0, 1.0)

    @property
    def grid(self) -> Grid:
        return self.g11.grid

    @property
    def components(self) -> tuple[ScalarField, ...]:
        return (self.g11, self.g12, self.g21, self.g22)


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


def r_numerator(factors: Factors, t11: np.ndarray, t12: np.ndarray, t22: np.ndarray,
                out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Per mode (k1^2 - k2^2) t12 + k1 k2 (t22 - t11), shared by R and curl
    div, written to out, with t22 - t11 in scratch (as velocity_modes)."""
    diff, k1k2 = factors.r
    np.multiply(diff, t12, out=out)
    d = np.subtract(t22, t11, out=scratch)
    d *= k1k2
    out += d
    return out


def riesz_r(tau: SymTensorField) -> ScalarField:
    """R(tau) = -(-Laplace)^{-1} curl(div(tau)), a degree-zero multiplier.

    Per mode [(k1^2 - k2^2) t12 + k1 k2 (t22 - t11)] / |k|^2; zero mode -> 0.
    """
    g = tau.grid
    factors, t = in_band(*tau.components)
    out = np.zeros(g.shape, dtype=np.complex128)
    r = r_numerator(factors, *t, out[:, :factors.width], np.empty_like(t[0]))
    r *= g.inv_ksq[:, :factors.width]
    return ScalarField(g, out)


def dealias(field: FieldKind) -> FieldKind:
    """Two-thirds-rule mask on every component of any field kind."""
    return field.map(lambda f: ScalarField(f.grid, f.coeffs * f.grid.dealias_mask))


def multiply_physical(grid: Grid, values: np.ndarray) -> ScalarField:
    """Wrap a physical-space product and dealias it."""
    return dealias(ScalarField.from_physical(grid, values))


def transport(derivative, u: tuple[np.ndarray, np.ndarray]):
    """The function from a half spectrum f to the grid values of the
    transport term -u . grad f, written to out when given: derivative(f, i,
    out) gives the grid values of the derivative of f along axis i = 0, 1
    (the multiplier i k1 or i k2 and an inverse transform), in out when it
    is not None, and u holds the velocity's grid values. model.rhs and
    advect are this one kernel."""
    u1, u2 = u

    def minus_advection(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        a = derivative(f, 0, out)
        a *= u1
        b = derivative(f, 1, None)
        b *= u2
        a += b
        return np.negative(a, out=a)

    return minus_advection


def advect(u: VectorField, f: ScalarField) -> ScalarField:
    """u . grad f, pseudospectral product, dealiased, through the transport
    kernel of model.rhs; the velocity's grid values are made once per
    VectorField (VectorField.values)."""
    g = f.grid
    factors, (a,) = in_band(f)
    work, ik = np.zeros(g.shape, dtype=np.complex128), factors.ik
    minus = transport(lambda c, i, out: inverse_rfft2(ik[i] * c, factors.width, work,
                                                      np.empty((g.n, g.n))), u.values)
    out = np.fft.rfft2(minus(a), norm="forward")
    np.multiply(out, g.dealias_mask, out=out)
    return ScalarField(g, np.negative(out, out=out))


def advect_tensor(u: VectorField, tau: SymTensorField) -> SymTensorField:
    return tau.map(lambda c: advect(u, c))
