from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oldroyd2d import operators as ops
from oldroyd2d.fields import ScalarField, SymTensorField
from oldroyd2d.grid import Grid
from oldroyd2d.initial_data import random_scalar, random_state
from oldroyd2d.model import FirstStage, ModelParams, Workspace, make_state, q_products


@pytest.fixture
def grid16():
    return Grid(16)


@pytest.fixture
def grid32():
    return Grid(32)


@pytest.fixture
def grid64():
    return Grid(64)


@pytest.fixture
def count_transforms(monkeypatch):
    """count_transforms(fn, n): the count of each kind of 2-D transform that
    fn() makes on a grid of n points per axis, as a dict. numpy.fft makes a 2-D transform
    as a column pass and a row pass, and each row-pass call counts as one
    transform: an irfft as "inverse", or as "padded" when its output is 2n
    wide, and an rfft (also rfft2's row pass) as "forward"."""
    counts, width = Counter(), [0]
    for name, kind in (("irfft", "inverse"), ("rfft", "forward")):
        def counted(a, *args, _fn=getattr(np.fft, name), _kind=kind, **kwargs):
            out = _fn(a, *args, **kwargs)
            counts["padded" if _kind == "inverse" and out.shape[-1] == width[0] else _kind] += 1
            return out

        for module in (np.fft, np.fft._pocketfft):  # rfft2 calls the latter's rfft
            monkeypatch.setattr(module, name, counted)

    def count(fn, n):
        counts.clear()
        width[0] = 2 * n
        fn()
        return dict(counts)

    return count


def field_from(grid, fn):
    """Sample fn(x, y) on the grid."""
    return ScalarField.from_physical(grid, fn(grid.x, grid.y))


def grad(f):
    return ops.deriv(f, 1), ops.deriv(f, 2)


def stage_speed(state, params=ModelParams()):
    """max|u| of the state's first stage under params (FirstStage.make):
    the speed that integrate gives stepping.cfl_dt."""
    first = FirstStage(None, None, np.empty_like(state.y))
    first.make(state, params, Workspace(state.grid))
    return first.umax


def max_divergence(u):
    """max over modes of |k . u_hat| (0 for divergence-free fields)."""
    g = u.grid
    return float(np.max(np.abs(g.k1 * u.u1.coeffs + g.k2 * u.u2.coeffs)))


def assert_packed(state):
    """The state's stack is read-only, and its fields hold the stack's rows
    as they are."""
    assert not state.y.flags.writeable
    for row, f in zip(state.y, (state.omega, *state.tau.components)):
        assert f.coeffs.ctypes.data == row.ctypes.data and f.coeffs.strides == row.strides


def q_form(grad_u, tau, b):
    """Q(grad u, tau) of model.q_products on the fields' grid values, dealiased:
    the field-operator form of the Q that rhs makes."""
    g = grad_u.grid
    q = q_products(*(c.physical for c in grad_u.components),
                   *(c.physical for c in tau.components), b)
    return SymTensorField(*(ops.dealias(ScalarField.from_physical(g, v)) for v in q))


def stack(omega, tau):
    """A fresh packed stack of the coefficient arrays of (omega, tau)."""
    return np.stack([omega.coeffs] + [c.coeffs for c in tau.components])


def unpacked(state):
    """A copy of the state over a stack of its own."""
    return replace(state, y=state.y.copy())


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


def full_coeffs(f) -> np.ndarray:
    """The full n x n coefficient array of the real field f, from its grid
    values: the full-layout references below start from it, not from the
    half spectrum that f holds, so that they stay independent of it."""
    return np.fft.fft2(f.physical, norm="forward")


def full_wavevectors(grid):
    """The per-mode arrays of the full n x n layout, as the package kept them
    before it held half spectra: k1 and k2 as they are, and the derivative
    multipliers with the Nyquist row or column zeroed."""
    k = (2.0 * np.pi / grid.length) * grid.freq
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    ksq = k1 * k1 + k2 * k2
    inv_ksq = np.zeros_like(ksq)
    np.divide(1.0, ksq, out=inv_ksq, where=ksq > 0)
    m = np.abs(grid.freq)
    nyq = m == grid.n // 2
    return SimpleNamespace(
        k1=k1, k2=k2, ksq=ksq, inv_ksq=inv_ksq,
        deriv_k1=np.where(nyq[:, None], 0.0, k1), deriv_k2=np.where(nyq[None, :], 0.0, k2),
        dealias_mask=(m[:, None] <= grid.n / 3) & (m[None, :] <= grid.n / 3))


def half_field(grid, a: np.ndarray) -> ScalarField:
    """The field of the full-layout array a: columns 0..n/2 of its Hermitian
    part (a[m] + conj a[-m]) / 2, the part its real grid values hold."""
    neg = -np.arange(grid.n) % grid.n
    herm = 0.5 * (a + np.conj(a[neg][:, neg]))
    return ScalarField(grid, herm[:, : grid.n // 2 + 1])


def full_values(a: np.ndarray) -> np.ndarray:
    """The real grid values of the full-layout array a."""
    return np.fft.ifft2(a, norm="forward").real


def full_r(g, t11, t12, t22) -> np.ndarray:
    """R(tau) per mode in the full layout g (full_wavevectors)."""
    return ((g.k1**2 - g.k2**2) * t12 + g.k1 * g.k2 * (t22 - t11)) * g.inv_ksq


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
    """Reference padded grid values of the full n x n coefficients,
    ifft2(pad_coeffs(c)).real to roundoff: irfft2 of columns 0..n of the
    padded spectrum's Hermitian part (P[k] + conj P[-k]) / 2, with -k taken
    modulo 2n."""
    big = pad_coeffs(coeffs)
    m = big.shape[0]
    neg = -np.arange(m) % m
    herm = 0.5 * (big + np.conj(big[neg][:, neg]))
    return np.fft.irfft2(herm[:, : m // 2 + 1], s=(m, m), norm="forward")


def reference_linf_norm(f) -> float:
    """besov.linf_norm from the full-layout spectra of the components' grid
    values (full_coeffs), padded as padded_values pads them."""
    mag = sum(w * padded_values(full_coeffs(c)) ** 2 for c, w in zip(f.components, f.weights))
    return float(np.sqrt(np.max(mag)))


def full_advect(g, u: tuple, c: np.ndarray) -> np.ndarray:
    """u . grad c in the full layout g (full_wavevectors), as operators.advect
    made it before it took the half spectrum: complex ifft2 of the gradient,
    the product with the velocity's grid values u, fft2 and the dealias mask."""
    values = u[0] * full_values(1j * g.deriv_k1 * c) + u[1] * full_values(1j * g.deriv_k2 * c)
    return np.fft.fft2(values, norm="forward") * g.dealias_mask


def reference_advect(u, f):
    """u . grad f through full_advect, from the grid values of u and f."""
    g = full_wavevectors(f.grid)
    return half_field(f.grid, full_advect(g, (u.u1.physical, u.u2.physical), full_coeffs(f)))


def reference_advect_tensor(u, tau):
    return tau.map(lambda c: reference_advect(u, c))


def reference_commutator(u, tau):
    """[R, u.grad] tau in the full layout, through full_advect and full_r."""
    g = full_wavevectors(tau.grid)
    uv, t = (u.u1.physical, u.u2.physical), [full_coeffs(c) for c in tau.components]
    term1 = full_r(g, *(full_advect(g, uv, c) for c in t))
    return half_field(tau.grid, term1 - full_advect(g, uv, full_r(g, *t)))


def nyquist_state(grid, seed, params):
    """White-noise fields: every mode, the Nyquist row and column included."""
    rng = np.random.default_rng(seed)
    f = [ScalarField.from_physical(grid, rng.standard_normal((grid.n, grid.n)))
         for _ in range(4)]
    omega = ScalarField(grid, f[0].coeffs - f[0].coeffs[0, 0] * (grid.ksq == 0))
    return make_state(0.0, omega, SymTensorField(*f[1:]), params)


def invert_laplacian(f):
    """Solve Laplace(g) = f for the zero-mean part; the mean is discarded."""
    return ScalarField(f.grid, -f.grid.inv_ksq * f.coeffs)


def curl_div(tau):
    """curl(div(tau)); per mode -[(k1^2 - k2^2) t12 + k1 k2 (t22 - t11)],
    with k1^2 - k2^2 written |k|^2 - 2 k2^2 (Grid). Equals Laplace(R(tau))
    exactly at the multiplier level."""
    g = tau.grid
    t11, t12, t22 = (c.coeffs for c in tau.components)
    return ScalarField(g, -((g.ksq - 2.0 * g.k2**2) * t12 + g.k1 * g.k2 * (t22 - t11)))


def riesz_component(f, i: int):
    """Riesz transform d_i / |D|; zero mode -> 0."""
    if i not in (1, 2):
        raise ValueError(f"component must be 1 or 2, got {i}")
    g = f.grid
    k = g.k1 if i == 1 else g.k2
    mult = np.zeros_like(g.kmag)
    np.divide(k, g.kmag, out=mult, where=g.kmag > 0)
    return ScalarField(g, 1j * mult * f.coeffs)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)
