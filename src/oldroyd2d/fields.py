"""Periodic fields stored as spectral coefficient arrays.

A ScalarField holds the (n, n//2+1) rfft2 half spectrum of a real field
(grid.py); vector and symmetric-tensor fields are built from scalar
components. The tensor stores only (t11, t12, t22); symmetry is
structural.

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
from .grid import Grid, inverse_rfft2


def _check_shape(arr: np.ndarray, shape: tuple[int, int]) -> None:
    if arr.shape != shape:
        raise ConfigError(f"field shape {arr.shape} does not match grid {shape}")


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


def hermitian_part(e: np.ndarray) -> np.ndarray:
    """(x[m1] + conj x[-m1]) / 2 for the rows m1 of e (fftfreq order, modulo
    n). In columns 0 and n/2 of a half spectrum the mode (m1, m2) pairs with
    (-m1, m2), and this is the part of such a column that the grid values
    hold."""
    return 0.5 * (e + np.conj(np.concatenate((e[:1], e[:0:-1]))))


def mode_sum(a: np.ndarray, b: np.ndarray, mult: np.ndarray | None = None) -> float:
    """Re sum_k mult_k conj(a_k) b_k over all n x n modes of the real fields
    whose half spectra are a and b (mult = 1 when None; mult even in k, as
    every multiplier here). Columns 1..n/2-1 count twice, once for their
    conjugate partners. Columns 0 and n/2 count once, with their Hermitian
    parts Ha, Hb (hermitian_part): summed over such a column, conj(Ha) Hb
    has the real part of conj(a) Hb."""
    h = a.shape[1] - 1
    prod = np.conj(a) * b
    edges = prod[:, ::h]
    np.multiply(np.conj(a[:, ::h]), hermitian_part(b[:, ::h]), out=edges)
    edges *= 0.5
    if mult is not None:
        prod *= mult
    return 2.0 * float(np.sum(prod.real))


def _parseval_sums(f: FieldKind, mult: np.ndarray | None):
    """(w_c, sum_k mult_k |c_k|^2) for each component c of f (mode_sum)."""
    for c, w in zip(f.components, f.weights):
        yield w, mode_sum(c.coeffs, c.coeffs, mult)


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
    s = sum(w * mode_sum(x.coeffs, y.coeffs)
            for x, y, w in zip(a.components, b.components, a.weights))
    return s * a.grid.length**2


@dataclass(frozen=True)
class ScalarField(FieldKind):
    grid: Grid
    coeffs: np.ndarray  # complex128 half spectrum, shape grid.shape

    weights = (1.0,)

    def __post_init__(self):
        _check_shape(self.coeffs, self.grid.shape)
        self.coeffs.setflags(write=False)

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "ScalarField":
        values = np.asarray(values, dtype=np.float64)
        _check_shape(values, (grid.n, grid.n))
        return cls(grid, np.fft.rfft2(values, norm="forward"))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    @cached_property
    def physical(self) -> np.ndarray:
        a, g = self.coeffs, self.grid
        out = inverse_rfft2(a, g.band(a) + 1, np.zeros(g.shape, complex), np.empty((g.n, g.n)))
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
        """Grid values of (u1, u2), made once per field: the velocity that
        operators.advect transports with."""
        return self.u1.physical, self.u2.physical


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

