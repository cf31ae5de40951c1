"""Every norm takes every field kind through one path.

The references below are the per-kind formulas the package used before the
field kinds stated their components and Frobenius weights once, on the
half spectra the fields now hold, and every norm reproduces them exactly,
but one: the L2 and H^s norms of a vector
field were the hypot of the component norms and are now the root of their
summed squares, as for every other kind, which may differ in the last bit.
"""

import math

import numpy as np
import pytest

from oldroyd2d import besov
from oldroyd2d import operators as ops
from oldroyd2d.fields import ScalarField, inner, mode_sum, sq_norm
from oldroyd2d.grid import Grid
from oldroyd2d.initial_data import random_state
from oldroyd2d.model import ModelParams, stokes_toy_velocity

from conftest import curl_div, nyquist_state, q_form, riesz_component


KINDS = ("scalar", "vector", "velocity_gradient", "tensor")
HYPOT_RTOL = 1e-15


def _field(kind: str, seed: int):
    state = random_state(Grid(32), (1, 10), [77, seed], omega_amp=3.0, tau_amp=0.7)
    return {"scalar": state.omega, "vector": state.u,
            "velocity_gradient": state.grad_u, "tensor": state.tau}[kind]


# --- the old formulas, written out ---
# Each per-component spectral sum is fields.mode_sum, the one sum over the
# half spectrum; test_parseval_matches_grid_values pins it to the grid values.

def _old_scalar_l2(f):
    return f.grid.length * float(np.sqrt(mode_sum(f.coeffs, f.coeffs)))


def _old_scalar_sobolev(f, s):
    g = f.grid
    w = np.ones_like(g.ksq)
    pos = g.ksq > 0
    w[pos] += g.ksq[pos] ** s
    return g.length * float(np.sqrt(mode_sum(f.coeffs, f.coeffs, w)))


def _old_combine(kind, norms):
    """How the old per-kind code combined per-component L2-type norms."""
    if kind == "scalar":
        return norms[0]
    if kind == "vector":  # VectorField.l2, besov.vector_sobolev
        return float(np.hypot(*norms))
    if kind == "tensor":  # SymTensorField.l2, besov.tensor_sobolev
        return math.sqrt(norms[0] ** 2 + 2.0 * norms[1] ** 2 + norms[2] ** 2)
    return math.sqrt(sum(c ** 2 for c in norms))  # diagnostics.grad_u_l2


def _old_multiplier_sq(f, mult):
    """diagnostics._grad_sq / _lap_sq per component, weighted as
    _grad_u_sq, tensor_grad_sq and tensor_lap_sq did."""
    sq = [mode_sum(c.coeffs, c.coeffs, mult) * f.grid.length**2 for c in f.components]
    return sum(w * v for w, v in zip(f.weights, sq))


def _padded(c):
    """The padded grid values, as the irfftn of the padded half spectrum,
    which test_inverse_transform pins to the full-layout padded values."""
    n = c.grid.n
    w = besov.field_window(c, n // 2)[0]
    b = np.zeros((2 * n, n + 1), dtype=np.complex128)
    b[: n // 2 + 1, : n // 2 + 1], b[3 * n // 2 :, : n // 2 + 1] = w[n // 2 :], w[: n // 2]
    return np.fft.irfftn(b, s=(2 * n, 2 * n), axes=(0, 1), norm="forward")


def _old_linf(kind, f):
    p = [_padded(c) for c in f.components]
    if kind == "scalar":  # besov.linf_norm
        return float(np.max(np.abs(p[0])))
    if kind == "tensor":  # besov.tensor_linf
        return float(np.max(np.sqrt(p[0] * p[0] + 2.0 * p[1] * p[1] + p[2] * p[2])))
    return float(np.max(np.sqrt(sum(c ** 2 for c in p))))  # compute_record's grad_mag


def _old_besov_inf1(kind, f, s):
    """besov.besov_norm / tensor_besov_norm, B^s_{inf,1}."""
    dec = besov.decomposition_for(f.grid)
    terms = []
    for q in dec.qs:
        m = dec.multiplier(q)
        block = f.map(lambda c: ScalarField(c.grid, m * c.coeffs))
        terms.append((2.0 ** (q * s)) * _old_linf(kind, block))
    return float(sum(terms))


def _check(new, old, hypot=False):
    if hypot:
        assert abs(new - old) <= HYPOT_RTOL * abs(old)
    else:
        assert new == old


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(4))
class TestOnePathMatchesOldFormulas:
    def test_l2(self, kind, seed):
        f = _field(kind, seed)
        old = _old_combine(kind, [_old_scalar_l2(c) for c in f.components])
        _check(f.l2(), old, hypot=kind == "vector")

    def test_gradient_and_laplacian_squares(self, kind, seed):
        f = _field(kind, seed)
        for mult in (f.grid.ksq, f.grid.ksq ** 2):
            _check(sq_norm(f, mult), _old_multiplier_sq(f, mult))

    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
    def test_sobolev(self, kind, seed, s):
        f = _field(kind, seed)
        old = _old_combine(kind, [_old_scalar_sobolev(c, s) for c in f.components])
        _check(besov.sobolev_norm(f, s), old, hypot=kind == "vector")

    def test_padded_linf(self, kind, seed):
        f = _field(kind, seed)
        _check(besov.linf_norm(f), _old_linf(kind, f))

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_besov_inf1(self, kind, seed, s):
        f = _field(kind, seed)
        new = besov.besov_norm(f, s) if kind == "scalar" else besov.tensor_besov_norm(f, s)
        _check(new, _old_besov_inf1(kind, f, s))


@pytest.mark.parametrize("kind", KINDS)
def test_linf_scales_exactly_near_the_float_range(kind):
    """A power-of-two scaling passes through the padded max exactly, so a
    blown-up field reads finite where its squares would overflow, and a tiny
    one keeps its digits where its squares would underflow."""
    f = _field(kind, 0)
    base = besov.linf_norm(f)
    for e in (600, -600):
        scaled = f.map(lambda c: ScalarField(c.grid, math.ldexp(1.0, e) * c.coeffs))
        assert besov.linf_norm(scaled) == math.ldexp(base, e)


def test_norm_past_the_float_range_is_inf():
    # L * sqrt(sum |c|^2) is about 4.4e154 here, and its square overflows
    grid = Grid(16)
    c = np.zeros(grid.shape, dtype=np.complex128)
    c[1, 0] = c[-1, 0] = 5e153
    f = ScalarField(grid, c)
    assert f.l2() == math.inf
    assert besov.sobolev_norm(f, 1.0) == math.inf
    small = ScalarField(grid, c * 1e-150)  # a finite norm keeps the old formula's bytes
    s = mode_sum(small.coeffs, small.coeffs)
    assert small.l2() == math.sqrt((grid.length * math.sqrt(s)) ** 2)


def _grid_inner(a, b) -> float:
    """The L2 inner product with the Frobenius weights by grid quadrature."""
    s = sum(w * float(np.sum(x.physical * y.physical))
            for x, y, w in zip(a.components, b.components, a.weights))
    return s * a.grid.h**2


NYQUIST_OUTPUTS = {
    "riesz_r": lambda s: ops.riesz_r(s.tau),
    "curl_div": lambda s: curl_div(s.tau),
    "deriv": lambda s: ops.VelocityGradient(*(ops.deriv(c, i) for i in (1, 2)
                                              for c in (s.omega, s.tau.t12))),
    "biot_savart": lambda s: ops.biot_savart(s.omega),
    "stokes_toy_velocity": lambda s: stokes_toy_velocity(s.tau),
    "q_form": lambda s: q_form(s.grad_u, s.tau, 0.4),
    "advect": lambda s: ops.advect_tensor(s.u, s.tau),
}


@pytest.mark.parametrize("name", list(NYQUIST_OUTPUTS))
def test_parseval_matches_grid_values(name):
    # White noise holds every mode; raw odd multipliers leave, in columns 0
    # and n/2, a part that the grid values do not hold, and the norms must
    # not count it.
    state = nyquist_state(Grid(16), 3, ModelParams())
    f = NYQUIST_OUTPUTS[name](state)
    want = math.sqrt(_grid_inner(f, f))
    assert abs(f.l2() - want) <= 1e-13 * want
    other = f.map(lambda c: riesz_component(c, 2))
    want = _grid_inner(f, other)
    assert abs(inner(f, other) - want) <= 1e-13 * f.l2() * other.l2()
