"""Periodic square grid with precomputed wavevectors and dealias mask in the
rfft2 half-spectrum layout, the package's one coefficient layout, and its
one inverse transform (inverse_rfft2).

Spectral coefficients follow the Fourier-series convention

    f(x) = sum_m c_m exp(i k_m . x),     k_m = (2 pi / L) * m,

with integer frequencies m laid out as in ``numpy.fft.rfft2``: rows m1 in
``fftfreq`` order, columns m2 = 0..n/2. A real field's coefficients at
m2 < 0 are the conjugates c(-m1, -m2) of stored ones, and are not stored.
Under this convention ``sin(x)`` on an L = 2 pi grid has coefficients -i/2
at m = (1, 0) and +i/2 at m = (-1, 0). See CONVENTIONS.md.
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
    """n x n periodic grid on [0, L)^2, with per-mode arrays of shape
    (n, n//2+1), made on first use.

    n must be even and at least 8; the two-thirds dealias mask keeps
    integer frequencies with |m1|, |m2| <= n/3.

    Column n/2 holds frequency -n/2, and the modes of columns 0 and n/2
    pair with their conjugates within the column (m1 with -m1). On the
    Nyquist row m1 = -n/2, (-n/2, m2) pairs with (-n/2, -m2), where k1 has
    the same value, so between those columns a multiplier odd in k1 must
    vanish for the stored values to stay those of a real field (as
    deriv_k1 does). Hence `k1` is zero there, and even powers of k1 are
    written with `ksq` and `k2`.
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

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of a coefficient array: (n, n//2+1)."""
        return (self.n, self.n // 2 + 1)

    @cached_property
    def freq(self) -> np.ndarray:
        """Integer frequencies m along one axis, fftfreq layout."""
        return (np.fft.fftfreq(self.n) * self.n).astype(np.int64)

    @cached_property
    def m1(self) -> np.ndarray:
        m1 = np.repeat(self.freq[:, None], self.n // 2 + 1, axis=1)
        m1.setflags(write=False)
        return m1

    @cached_property
    def m2(self) -> np.ndarray:
        m2 = np.repeat(self.freq[None, : self.n // 2 + 1], self.n, axis=0)
        m2.setflags(write=False)
        return m2

    def _k(self, m: np.ndarray) -> np.ndarray:
        return (TWO_PI / self.length) * m

    @cached_property
    def k1(self) -> np.ndarray:
        k = self._k(self.m1)
        k[self.n // 2, 1 : self.n // 2] = 0.0
        k.setflags(write=False)
        return k

    @cached_property
    def k2(self) -> np.ndarray:
        k = self._k(self.m2)
        k.setflags(write=False)
        return k

    @cached_property
    def ksq(self) -> np.ndarray:
        k1 = self._k(self.m1)
        k = k1 * k1 + self.k2 * self.k2
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

    # x and y are np.repeat of the sample points, as the wavevectors are:
    # np.meshgrid leaves a few bytes alive per call under numpy 2.4
    @cached_property
    def x(self) -> np.ndarray:
        x = np.repeat((np.arange(self.n) * self.h)[:, None], self.n, axis=1)
        x.setflags(write=False)
        return x

    @cached_property
    def y(self) -> np.ndarray:
        y = np.repeat((np.arange(self.n) * self.h)[None, :], self.n, axis=0)
        y.setflags(write=False)
        return y

    # The Nyquist row and column are their own conjugate partners;
    # odd-derivative multipliers zero them to keep outputs real-symmetric.
    @cached_property
    def deriv_k1(self) -> np.ndarray:
        k = self._k(self.m1)
        k[self.n // 2] = 0.0
        k.setflags(write=False)
        return k

    @cached_property
    def deriv_k2(self) -> np.ndarray:
        k = self.k2.copy()
        k[:, self.n // 2] = 0.0
        k.setflags(write=False)
        return k

    def band(self, *arrays: np.ndarray) -> int:
        """The largest frequency per axis that these coefficient arrays (or
        stacks of them) may hold: n//3 when every one is zero past the
        dealias cutoff n/3 on both axes (a dealiased field), else n//2."""
        lo, hi = self.n // 3 + 1, self.n - self.n // 3  # rows of |m1| > n/3
        wide = any(a[..., lo:hi, :].any() or a[..., lo:].any() for a in arrays)
        return self.n // 2 if wide else self.n // 3


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
    np.fft.ifft(a[:, :width], axis=0, norm="forward", out=work[:, :width])
    return np.fft.irfft(work, n=out.shape[1], axis=1, norm="forward", out=out)
