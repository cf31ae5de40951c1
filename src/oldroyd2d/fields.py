"""Periodic fields stored as spectral coefficient arrays.

A ScalarField holds the complex coefficient array of a real field; vector
and symmetric-tensor fields are built from scalar components. The tensor
stores only (t11, t12, t22); symmetry is structural.

L2 norms of tensors use the Frobenius weight (t11^2 + 2 t12^2 + t22^2),
i.e. the off-diagonal component is counted twice, so that quadratic energy
identities close exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .grid import Grid


def _check_shape(grid: Grid, arr: np.ndarray) -> None:
    if arr.shape != (grid.n, grid.n):
        raise ConfigError(
            f"field shape {arr.shape} does not match grid ({grid.n}, {grid.n})"
        )


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    coeffs: np.ndarray  # complex128, conjugate-symmetric

    def __post_init__(self):
        _check_shape(self.grid, self.coeffs)
        self.coeffs.setflags(write=False)

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "ScalarField":
        values = np.asarray(values, dtype=np.float64)
        _check_shape(grid, values)
        return cls(grid, np.fft.fft2(values, norm="forward"))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros((grid.n, grid.n), dtype=np.complex128))

    @cached_property
    def physical(self) -> np.ndarray:
        out = np.fft.ifft2(self.coeffs, norm="forward").real
        out.setflags(write=False)
        return out

    @property
    def mean(self) -> float:
        return float(self.coeffs[0, 0].real)

    def l2(self) -> float:
        """Physical L2 norm; equals L * sqrt(sum |c|^2) by Parseval."""
        return self.grid.length * float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.grid, self.coeffs - other.coeffs)

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.coeffs)

    def __mul__(self, c: float) -> "ScalarField":
        return ScalarField(self.grid, c * self.coeffs)

    __rmul__ = __mul__


@dataclass(frozen=True)
class VectorField:
    u1: ScalarField
    u2: ScalarField

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(ScalarField.zeros(grid), ScalarField.zeros(grid))

    def l2(self) -> float:
        return float(np.hypot(self.u1.l2(), self.u2.l2()))

    def max_divergence(self) -> float:
        """max over modes of |k . u_hat| (0 for divergence-free fields)."""
        g = self.grid
        return float(
            np.max(np.abs(g.k1 * self.u1.coeffs + g.k2 * self.u2.coeffs))
        )

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.u1 - other.u1, self.u2 - other.u2)

    def __mul__(self, c: float) -> "VectorField":
        return VectorField(c * self.u1, c * self.u2)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SymTensorField:
    t11: ScalarField
    t12: ScalarField
    t22: ScalarField

    @property
    def grid(self) -> Grid:
        return self.t11.grid

    @classmethod
    def zeros(cls, grid: Grid) -> "SymTensorField":
        z = ScalarField.zeros(grid)
        return cls(z, z, z)

    @property
    def components(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        return (self.t11, self.t12, self.t22)

    def l2(self) -> float:
        """Frobenius L2 norm: sqrt(||t11||^2 + 2 ||t12||^2 + ||t22||^2)."""
        return float(
            np.sqrt(self.t11.l2() ** 2 + 2.0 * self.t12.l2() ** 2 + self.t22.l2() ** 2)
        )

    def map(self, fn) -> "SymTensorField":
        return SymTensorField(fn(self.t11), fn(self.t12), fn(self.t22))

    def __add__(self, other: "SymTensorField") -> "SymTensorField":
        return SymTensorField(
            self.t11 + other.t11, self.t12 + other.t12, self.t22 + other.t22
        )

    def __sub__(self, other: "SymTensorField") -> "SymTensorField":
        return SymTensorField(
            self.t11 - other.t11, self.t12 - other.t12, self.t22 - other.t22
        )

    def __mul__(self, c: float) -> "SymTensorField":
        return SymTensorField(c * self.t11, c * self.t12, c * self.t22)

    __rmul__ = __mul__


def frobenius_inner(a: SymTensorField, b: SymTensorField) -> float:
    """Quadrature of the full tensor contraction a : b (off-diagonal twice)."""
    g = a.grid
    s = (
        np.vdot(a.t11.coeffs, b.t11.coeffs)
        + 2.0 * np.vdot(a.t12.coeffs, b.t12.coeffs)
        + np.vdot(a.t22.coeffs, b.t22.coeffs)
    )
    return float(s.real) * g.length**2


def scalar_inner(a: ScalarField, b: ScalarField) -> float:
    """L2 inner product via Parseval."""
    return float(np.vdot(a.coeffs, b.coeffs).real) * a.grid.length**2
