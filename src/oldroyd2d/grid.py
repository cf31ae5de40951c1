"""Periodic square grid with precomputed wavevectors and dealias mask, in
the full layout and in the half-spectrum (rfft2) layout of the stepper, and
the package's one inverse transform of a half spectrum (inverse_rfft2).

Spectral coefficients follow the Fourier-series convention

    f(x) = sum_m c_m exp(i k_m . x),     k_m = (2 pi / L) * m,

with integer frequencies m laid out as in ``numpy.fft.fftfreq``. Under this
convention ``sin(x)`` on an L = 2 pi grid has coefficients -i/2 at m = (1, 0)
and +i/2 at m = (-1, 0). See CONVENTIONS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Grid:
    """n x n periodic grid on [0, L)^2.

    n must be even and at least 8; the two-thirds dealias mask keeps
    integer frequencies with |m1|, |m2| <= n/3.
    """

    n: int
    length: float = TWO_PI

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 8:
            raise ConfigError(f"grid n must be even and >= 8, got {self.n}")
        if not (self.length > 0.0):
            raise ConfigError(f"grid length must be positive, got {self.length}")

    @property
    def h(self) -> float:
        return self.length / self.n

    @cached_property
    def freq(self) -> np.ndarray:
        """Integer frequencies m along one axis, fftfreq layout."""
        return (np.fft.fftfreq(self.n) * self.n).astype(np.int64)

    @cached_property
    def m1(self) -> np.ndarray:
        m1 = np.repeat(self.freq[:, None], self.n, axis=1)
        m1.setflags(write=False)
        return m1

    @cached_property
    def m2(self) -> np.ndarray:
        m2 = np.repeat(self.freq[None, :], self.n, axis=0)
        m2.setflags(write=False)
        return m2

    @cached_property
    def k1(self) -> np.ndarray:
        k = (TWO_PI / self.length) * self.m1
        k.setflags(write=False)
        return k

    @cached_property
    def k2(self) -> np.ndarray:
        k = (TWO_PI / self.length) * self.m2
        k.setflags(write=False)
        return k

    @cached_property
    def ksq(self) -> np.ndarray:
        k = self.k1 * self.k1 + self.k2 * self.k2
        k.setflags(write=False)
        return k

    @cached_property
    def inv_ksq(self) -> np.ndarray:
        """1/|k|^2 with the zero mode mapped to 0."""
        out = np.zeros_like(self.ksq)
        np.divide(1.0, self.ksq, out=out, where=self.ksq > 0)
        out.setflags(write=False)
        return out

    @cached_property
    def kmag(self) -> np.ndarray:
        k = np.sqrt(self.ksq)
        k.setflags(write=False)
        return k

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        cut = self.n / 3.0
        mask = (np.abs(self.m1) <= cut) & (np.abs(self.m2) <= cut)
        mask.setflags(write=False)
        return mask

    @property
    def dealias_cutoff(self) -> int:
        """Largest retained integer frequency per axis."""
        return int(self.n // 3)

    @cached_property
    def x(self) -> np.ndarray:
        xs = np.arange(self.n) * self.h
        x, _ = np.meshgrid(xs, xs, indexing="ij")
        x.setflags(write=False)
        return x

    @cached_property
    def y(self) -> np.ndarray:
        xs = np.arange(self.n) * self.h
        _, y = np.meshgrid(xs, xs, indexing="ij")
        y.setflags(write=False)
        return y

    # Nyquist column is its own conjugate partner; odd-derivative multipliers
    # zero it to keep outputs real-symmetric.
    @cached_property
    def deriv_k1(self) -> np.ndarray:
        k = self.k1.copy()
        k[np.abs(self.m1) == self.n // 2] = 0.0
        k.setflags(write=False)
        return k

    @cached_property
    def deriv_k2(self) -> np.ndarray:
        k = self.k2.copy()
        k[np.abs(self.m2) == self.n // 2] = 0.0
        k.setflags(write=False)
        return k

    @cached_property
    def half(self) -> "HalfSpectrum":
        """The wavevector arrays in rfft2 layout, made on first use."""
        return HalfSpectrum(self)


class HalfSpectrum:
    """Columns 0..n/2 of the grid's per-mode arrays: the rfft2 layout.

    A half spectrum stores one mode of each conjugate pair, except in
    columns 0 and n/2, which are stored whole. On the Nyquist row
    m1 = -n/2, (-n/2, m2) pairs with (-n/2, -m2), where k1 has the same
    value, so between those columns a multiplier odd in k1 must vanish for
    the stored values to stay those of a real field (as deriv_k1 does).
    Hence `k1` is zero there, and even powers of k1 are written with `ksq`
    and `k2`.

    `inverse` is the inverse transform of this layout, for the stepper: its
    column pass takes only the `width` columns that may be nonzero.
    """

    def __init__(self, grid: Grid):
        h = grid.n // 2
        for name in ("k1", "k2", "deriv_k1", "deriv_k2", "ksq", "inv_ksq", "dealias_mask"):
            setattr(self, name, np.array(getattr(grid, name)[:, : h + 1]))
        self.k1[h, 1:h] = 0.0
        self.partner_rows = -np.arange(grid.n) % grid.n  # row of the partner -m1
        for arr in vars(self).values():
            arr.setflags(write=False)
        self.n = grid.n

    def of(self, a: np.ndarray) -> np.ndarray:
        """The half spectrum of the real field ifft2(a).real of a full-layout
        array a: columns 0..n/2 of its Hermitian part (a[m] + conj a[-m]) / 2.
        Where a is conjugate-symmetric (a real field's) these are a's own
        columns; a part that no real field has, as an odd multiplier leaves
        on the Nyquist row, is dropped, as ifft2(a).real drops it."""
        h = self.n // 2
        p = np.empty((self.n, h + 1), dtype=np.complex128)  # a[-m], indices modulo n
        p[0, 0], p[0, 1:] = a[0, 0], a[0, : h - 1 : -1]
        p[1:, 0], p[1:, 1:] = a[:0:-1, 0], a[:0:-1, : h - 1 : -1]
        np.conjugate(p, out=p)
        p += a[:, : h + 1]
        p *= 0.5
        return p

    def full(self, y: np.ndarray) -> np.ndarray:
        """The full-layout arrays of half spectra y (..., n, n//2+1), columns
        n/2+1..n-1 filled by conjugate symmetry: c(m1, m2) = conj c(-m1, -m2)."""
        n, h = self.n, self.n // 2
        out = np.empty(y.shape[:-1] + (n,), dtype=np.complex128)
        out[..., : h + 1] = y
        np.conjugate(y[..., self.partner_rows, h - 1 : 0 : -1], out=out[..., h + 1 :])
        return out

    def width(self, *arrays: np.ndarray) -> int:
        """The columns an inverse transform of these half spectra must take:
        n//3 + 1 when every column past the dealias cutoff n/3 is zero (a
        dealiased stack), else all n//2 + 1."""
        cut = self.n // 3 + 1
        return self.n // 2 + 1 if any(a[..., cut:].any() for a in arrays) else cut

    def inverse(self, width: int):
        """A function from a half spectrum a whose columns width.. are zero
        to its n x n grid values, irfft2(a, s=(n, n), norm="forward") in
        bytes. Its calls share one buffer, zero here and past width for
        good; one is made per rhs or cfl_dt call, so none is kept."""
        n = self.n
        work = np.zeros((n, n // 2 + 1), dtype=np.complex128)
        return lambda a: inverse_rfft2(a, width, work, np.empty((n, n)))


def inverse_rfft2(a: np.ndarray, width: int, work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """irfftn(a, s=out.shape, norm="forward") of the 2-D half spectrum a,
    whose columns width.. are zero, written to out.

    Column pass: ifft along axis 0 of columns 0..width-1 of a, into the same
    columns of work, whose other columns must be zero; work may be a itself.
    Row pass: irfft along axis 1 of work into out. These are the 1-D
    transforms irfftn makes, in its order, and an all-zero column transforms
    to zeros, so out is irfftn's in bytes; the column pass skips the zero
    columns (FFT pruning, Markel 1971).
    """
    if width:
        np.fft.ifft(a[:, :width], axis=0, norm="forward", out=work[:, :width])
    return np.fft.irfft(work, n=out.shape[1], axis=1, norm="forward", out=out)
