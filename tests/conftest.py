import math

import numpy as np
import pytest

from oldroyd2d import operators as ops
from oldroyd2d.fields import ScalarField, SymTensorField
from oldroyd2d.grid import Grid
from oldroyd2d.initial_data import random_scalar, random_state
from oldroyd2d.model import make_state


@pytest.fixture
def grid16():
    return Grid(16)


@pytest.fixture
def grid32():
    return Grid(32)


@pytest.fixture
def grid64():
    return Grid(64)


def field_from(grid, fn):
    """Sample fn(x, y) on the grid."""
    return ScalarField.from_physical(grid, fn(grid.x, grid.y))


def rand_scalar(grid, seed, band=(1, 8)):
    return random_scalar(grid, band, [seed])


def rand_state(grid, seed, band=(1, 8), **kw):
    return random_state(grid, band, [seed], **kw)


def rand_tensor(grid, seed, band=(1, 8)):
    return SymTensorField(
        random_scalar(grid, band, [seed, 11], zero_mean=False),
        random_scalar(grid, band, [seed, 12], zero_mean=False),
        random_scalar(grid, band, [seed, 13], zero_mean=False),
    )


def pad_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Reference zero-padding of n x n coefficients to 2n x 2n: each quadrant
    is copied into a corner, so the Nyquist row and column stay at frequency
    -n/2."""
    h = coeffs.shape[0] // 2
    big = np.zeros((4 * h, 4 * h), dtype=np.complex128)
    big[:h, :h] = coeffs[:h, :h]
    big[:h, -h:] = coeffs[:h, h:]
    big[-h:, :h] = coeffs[h:, :h]
    big[-h:, -h:] = coeffs[h:, h:]
    return big


def padded_values(coeffs: np.ndarray) -> np.ndarray:
    """Reference padded grid values, ifft2(pad_coeffs(c)).real to roundoff:
    irfft2 of columns 0..n of the padded spectrum's Hermitian part
    (P[k] + conj P[-k]) / 2, with -k taken modulo 2n."""
    big = pad_coeffs(coeffs)
    m = big.shape[0]
    neg = -np.arange(m) % m
    herm = 0.5 * (big + np.conj(big[neg][:, neg]))
    return np.fft.irfft2(herm[:, : m // 2 + 1], s=(m, m), norm="forward")


def reference_linf_norm(f) -> float:
    """besov.linf_norm through the full (n+1, n+1) centred array of every
    component, as before the padded transform took windows: the same folds,
    scaling and transforms on whole arrays, with the column pass over the
    columns that the centred array's extent reaches."""
    n, h = f.grid.n, f.grid.n // 2
    peak = max(c.max_abs_coeff() for c in f.components)
    exponent = max(math.frexp(peak)[1], -1000)
    s = 0.5 * math.ldexp(1.0, -exponent)
    c = np.zeros((n + 1, n + 1), dtype=np.complex128)
    mag = np.zeros((2 * n, 2 * n))
    for comp, w in zip(f.components, f.weights):
        coeffs = comp.coeffs
        b = np.zeros((2 * n, n + 1), dtype=np.complex128)
        np.multiply(coeffs[h:, h:], s, out=c[:h, :h])
        np.multiply(coeffs[h:, :h], s, out=c[:h, h:n])
        np.multiply(coeffs[:h, h:], s, out=c[h:n, :h])
        np.multiply(coeffs[:h, :h], s, out=c[h:n, h:n])
        top, bottom = b[: h + 1, : h + 1], b[3 * h :, : h + 1]
        np.conjugate(c[h::-1, h::-1], out=top)
        np.conjugate(c[:h:-1, h::-1], out=bottom)
        top += c[h:, h:]
        bottom += c[:h, h:]
        m2 = np.flatnonzero(c.any(axis=0))
        width = max(h - m2[0], m2[-1] - h) + 1 if m2.size else 0
        if width:
            np.fft.ifft(b[:, :width], axis=0, norm="forward", out=b[:, :width])
        p = np.fft.irfft(b, n=2 * n, axis=1, norm="forward")
        np.multiply(p, p, out=p)
        if w != 1.0:
            p *= w
        mag += p
    return float(np.ldexp(math.sqrt(float(np.max(mag))), exponent))


def reference_advect(u, f):
    """u . grad f in the full layout, as operators.advect made it before it
    took the half spectrum: complex ifft2 of the velocity and the gradient,
    the product on the grid, fft2 and the dealias mask."""
    fx, fy = ops.grad(f)
    values = u.u1.physical * fx.physical + u.u2.physical * fy.physical
    return ops.multiply_physical(f.grid, values)


def reference_advect_tensor(u, tau):
    return tau.map(lambda c: reference_advect(u, c))


def reference_commutator(u, tau):
    """[R, u.grad] tau through reference_advect."""
    return ops.riesz_r(reference_advect_tensor(u, tau)) - reference_advect(u, ops.riesz_r(tau))


def nyquist_state(grid, seed, params):
    """White-noise fields: every mode, the Nyquist row and column included."""
    rng = np.random.default_rng(seed)
    f = [ScalarField.from_physical(grid, rng.standard_normal((grid.n, grid.n)))
         for _ in range(4)]
    omega = ScalarField(grid, f[0].coeffs - f[0].coeffs[0, 0] * (grid.ksq == 0))
    return make_state(0.0, omega, SymTensorField(*f[1:]), params)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)
