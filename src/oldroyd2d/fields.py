"""Periodic fields stored as spectral coefficient arrays.

A ScalarField holds the complex coefficient array of a real field; vector
and symmetric-tensor fields are built from scalar components. The tensor
stores only (t11, t12, t22); symmetry is structural.

Every field kind states its scalar `components`, their Frobenius `weights`
and a `map` over them, and every norm goes through those: the pointwise
square is sum_c w_c c^2. The tensor weights are (1, 2, 1), i.e. the
off-diagonal component is counted twice, so that quadratic energy
identities close exactly.
"""

from __future__ import annotations

import math
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


class FieldKind:
    """Base of every field kind: subclasses give `grid`, `components` (scalar
    fields) and their Frobenius `weights`, one per component."""

    weights: tuple[float, ...]

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(*[ScalarField.zeros(grid)] * len(cls.weights))

    def map(self, fn):
        """The same kind with fn applied to every component."""
        return type(self)(*(fn(c) for c in self.components))

    def __add__(self, other):
        return type(self)(*(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        return type(self)(*(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, c: float):
        return self.map(lambda f: c * f)

    __rmul__ = __mul__

    def l2(self) -> float:
        """Physical L2 norm with the Frobenius weights."""
        return norm(self)


def _parseval_sums(f: FieldKind, mult: np.ndarray | None):
    """(w_c, sum_k mult_k |c_k|^2) for each component c of f; mult = 1 when None."""
    for c, w in zip(f.components, f.weights):
        sq = np.abs(c.coeffs) ** 2
        yield w, float(np.sum(sq if mult is None else mult * sq))


def square(x: float) -> float:
    """x ** 2, or inf where that float power overflows (|x| above about
    1.3e154) and raises OverflowError."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def norm(f: FieldKind, mult: np.ndarray | None = None) -> float:
    """sqrt(sum_c w_c ||m(D) c||_{L2}^2) for the multiplier with |m|^2 = mult
    per mode (m = 1 when None), each ||m(D) c|| = L * sqrt(sum_k mult_k |c_k|^2)
    by Parseval: the L2 norm, or an H^s norm, of any field kind. Taking each
    component's norm first keeps a scalar's norm exactly L * sqrt(sum); a
    norm past the float range is inf."""
    length = f.grid.length
    return math.sqrt(sum(w * square(length * math.sqrt(s)) for w, s in _parseval_sums(f, mult)))


def sq_norm(f: FieldKind, mult: np.ndarray) -> float:
    """sum_c w_c ||m(D) c||_{L2}^2 with |m|^2 = mult per mode, each term
    L^2 sum_k mult_k |c_k|^2 by Parseval: mult = |k|^2 gives ||grad f||^2 and
    |k|^4 gives ||Laplace f||^2."""
    area = f.grid.length**2
    return sum(w * (s * area) for w, s in _parseval_sums(f, mult))


def inner(a: FieldKind, b: FieldKind) -> float:
    """L2 inner product with the Frobenius weights (a : b for tensors), by
    Parseval."""
    s = sum(w * np.vdot(x.coeffs, y.coeffs)
            for x, y, w in zip(a.components, b.components, a.weights))
    return float(s.real) * a.grid.length**2


@dataclass(frozen=True)
class ScalarField(FieldKind):
    grid: Grid
    coeffs: np.ndarray  # complex128, conjugate-symmetric

    weights = (1.0,)

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

    @property
    def components(self) -> tuple["ScalarField"]:
        return (self,)

    def map(self, fn) -> "ScalarField":
        return fn(self)

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
class VectorField(FieldKind):
    u1: ScalarField
    u2: ScalarField

    weights = (1.0, 1.0)

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    @property
    def components(self) -> tuple[ScalarField, ScalarField]:
        return (self.u1, self.u2)

    @cached_property
    def values(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid values of (u1, u2) from their half spectra (HalfSpectrum.of)
        through the pruned inverse transform, made once per field: the
        velocity that operators.advect transports with."""
        g = self.grid.half
        modes = [g.of(c.coeffs) for c in self.components]
        inverse = g.inverse(g.width(*modes))
        out = tuple(inverse(m) for m in modes)
        for v in out:
            v.setflags(write=False)
        return out

    def max_divergence(self) -> float:
        """max over modes of |k . u_hat| (0 for divergence-free fields)."""
        g = self.grid
        return float(
            np.max(np.abs(g.k1 * self.u1.coeffs + g.k2 * self.u2.coeffs))
        )


@dataclass(frozen=True)
class SymTensorField(FieldKind):
    t11: ScalarField
    t12: ScalarField
    t22: ScalarField

    weights = (1.0, 2.0, 1.0)

    @property
    def grid(self) -> Grid:
        return self.t11.grid

    @property
    def components(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        return (self.t11, self.t12, self.t22)

