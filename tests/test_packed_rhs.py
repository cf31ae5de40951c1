"""The packed rhs and advection against the full-layout field algebra.

`reference_rhs` is the explicit tendency composed in the full (n, n)
layout from the grid values of the state: Biot-Savart (or the Stokes-toy
velocity), advection (conftest.full_advect), curl div, the symmetric
velocity gradient and Q. The packed kernel must agree with it on every
row, including a state with Nyquist content, and so must ops.advect and the
commutator.
"""

import numpy as np
import pytest

from oldroyd2d import operators as ops
from oldroyd2d.fields import ScalarField, VectorField
from oldroyd2d.grid import Grid
from oldroyd2d.model import (ModelParams, Workspace, commutator_r_advect, make_state, q_products,
                             rhs, stokes_toy_velocity, unstack)

from conftest import (full_advect, full_coeffs, full_r, full_values, full_wavevectors,
                      half_field, nyquist_state, rand_state, reference_advect,
                      reference_commutator, stack)

TOL = 1e-13

VARIANTS = {
    "full_b": ModelParams(nu=0.0, mu=0.7, K=1.2, alpha=0.9, beta=0.3, b=0.4),
    "q_zero": ModelParams(nu=0.0, mu=1.0, K=1.0, alpha=0.8, beta=0.1, variant="q_zero"),
    "full_viscous": ModelParams(nu=0.05, mu=0.5, K=0.8, alpha=1.1, beta=0.2, b=-0.3),
    "stokes_toy": ModelParams(nu=0.0, mu=0.3, alpha=1.0, beta=0.2, q_enabled=False,
                              variant="stokes_toy"),
    "stokes_toy_q": ModelParams(nu=0.0, mu=0.3, alpha=1.0, beta=0.2, b=0.6,
                                variant="stokes_toy"),
}


def reference_rhs(state, params):
    """The explicit tendency as a full-layout (4, n, n) stack."""
    grid = state.grid
    g = full_wavevectors(grid)
    w, *t = (full_coeffs(c) for c in (state.omega, *state.tau.components))
    stokes = params.variant == "stokes_toy"
    if stokes:
        w = -full_r(g, *t)
    psi = g.inv_ksq * w
    u_hat = (1j * g.k2 * psi, -1j * g.k1 * psi)
    u = tuple(map(full_values, u_hat))
    grad_u = [1j * k * v for k in (g.deriv_k1, g.deriv_k2) for v in u_hat]  # g_ij = d_i u_j
    if stokes:
        w_out = np.zeros_like(w)
    else:
        w_out = -full_advect(g, u, w)
        if params.K != 0.0:
            w_out += params.K * full_r(g, *t) * -g.ksq  # K curl(div(tau))
        w_out[0, 0] = 0.0
    t_out = [-full_advect(g, u, c) for c in t]
    if params.alpha != 0.0:
        g11, g12, g21, g22 = grad_u
        for row, d in zip(t_out, (g11, 0.5 * (g12 + g21), g22)):
            row += params.alpha * d
    if params.q_enabled:
        q = q_products(*map(full_values, grad_u), *map(full_values, t), params.b)
        for row, q_c in zip(t_out, q):
            row += np.fft.fft2(q_c, norm="forward") * g.dealias_mask
    return np.stack([w_out] + t_out)


def halves(grid, full):
    """The half spectra (conftest.half_field) of a full-layout stack."""
    return np.stack([half_field(grid, a).coeffs for a in full])


def row_errors(got, want):
    return [float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))
            for a, b in zip(got, want)]


def band_state(grid, seed, params):
    s = rand_state(grid, seed, band=(1, grid.n // 3))
    return make_state(0.0, s.omega, s.tau, params)


class TestPackedRhs:
    @pytest.mark.parametrize("name", list(VARIANTS))
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_matches_full_layout_reference(self, name, n):
        grid = Grid(n)
        params = VARIANTS[name]
        state = band_state(grid, 21, params)
        got = rhs(state.y, grid, params)
        want = halves(grid, reference_rhs(state, params))
        assert max(row_errors(got, want)) <= TOL

    def test_forced_state(self, grid32):
        params = VARIANTS["full_b"]
        state = band_state(grid32, 22, params)
        push = band_state(grid32, 23, params)
        forcing = push.y
        got = rhs(state.y, grid32, params, forcing)
        want = halves(grid32, reference_rhs(state, params)) + forcing
        assert max(row_errors(got, want)) <= TOL

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_nyquist_content(self, name, grid32):
        # A full-layout array may hold, on the Nyquist row, a part that no
        # real field has (raw odd multipliers such as i k1 there); its real
        # field drops it, and the half spectrum never stores it. So the
        # real fields of the two are compared.
        grid, params = grid32, VARIANTS[name]
        state = nyquist_state(grid, 24, params)
        assert np.any(state.tau.t12.coeffs[16, 1:16]) and np.any(state.tau.t12.coeffs[1:16, 16])
        got = rhs(state.y, grid, params)
        want = reference_rhs(state, params)
        got_values = [np.fft.irfft2(a, s=(32, 32), norm="forward") for a in got]
        want_values = [full_values(a) for a in want]
        assert max(row_errors(got_values, want_values)) <= TOL


class TestWorkspace:
    """A Workspace reused across calls whose band narrows and widens again
    gives the bytes of a fresh one: a column of the inverse transform's
    buffer or of the output left by a wide call must not show in a
    narrow one."""

    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    @pytest.mark.parametrize("name", ["full_b", "q_zero", "stokes_toy_q"])
    def test_reused_workspace_gives_fresh_bytes(self, name, forced, grid32):
        grid, params = grid32, VARIANTS[name]
        push = band_state(grid, 35, params)
        forcing = push.y if forced else None
        states = [band_state(grid, 36, params), nyquist_state(grid, 37, params),
                  band_state(grid, 38, params)]
        work, out = Workspace(grid), np.empty((4,) + grid.shape, dtype=np.complex128)
        bands = []
        for state in states:
            y = state.y
            bands.append(grid.band(y))
            got = rhs(y, grid, params, forcing, out=out, work=work)
            assert got is out
            want = rhs(y, grid, params, forcing)
            assert got.tobytes() == want.tobytes()
        assert bands == [10, 16, 10]

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("make", [band_state, nyquist_state], ids=["dealiased", "nyquist"])
    @pytest.mark.parametrize("name", ["full_b", "stokes_toy"])
    def test_field_velocity_is_the_workspace_velocity(self, name, make, n):
        # One kernel per multiplier: the field operator and the stepper's
        # workspace give the same velocity modes in bytes over the band.
        grid, params = Grid(n), VARIANTS[name]
        state = make(grid, 39, params)
        stokes = params.variant == "stokes_toy"
        u = stokes_toy_velocity(state.tau) if stokes else ops.biot_savart(state.omega)
        work = Workspace(grid)
        work.load(state.y)
        work.velocity(stokes)
        assert work.width == (grid.n // 3 if make is band_state else grid.n // 2) + 1
        for field, modes in zip(u.components, work.u_hat):
            assert field.coeffs[:, :work.width].tobytes() == modes.tobytes()


class TestPackUnpack:
    def test_pack_of_unpack_is_bit_exact(self, grid32):
        rng = np.random.default_rng(25)
        shape = (4, 32, 17)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        omega, tau = unstack(grid32, y)
        assert np.array_equal(stack(omega, tau), y)

    def test_unpack_of_pack_restores_a_real_state(self, grid32):
        state = rand_state(grid32, 26, band=(1, 10))
        omega, tau = unstack(grid32, state.y)
        assert np.array_equal(omega.coeffs, state.omega.coeffs)
        for got, want in zip(tau.components, state.tau.components):
            assert np.array_equal(got.coeffs, want.coeffs)

    def test_unpacked_fields_are_the_half_spectrum_fields(self, grid32):
        # each unstacked field's grid values are irfft2 of its row of the stack
        rng = np.random.default_rng(27)
        y = rng.standard_normal((4, 32, 17)) + 1j * rng.standard_normal((4, 32, 17))
        y[:, 0, 0] = y[:, 0, 0].real
        omega, tau = unstack(grid32, y)
        for row, field in zip(y, (omega,) + tau.components):
            want = np.fft.irfft2(row, s=(32, 32), norm="forward")
            assert np.max(np.abs(field.physical - want)) <= 1e-13 * np.max(np.abs(want))


def constant_velocity(grid, a, b):
    """A spatially constant velocity (a, b), as checks.py builds one."""
    c1 = np.zeros(grid.shape, dtype=np.complex128)
    c2 = c1.copy()
    c1[0, 0], c2[0, 0] = a, b
    return VectorField(ScalarField(grid, c1), ScalarField(grid, c2))


def coeff_error(got, want):
    scale = max(np.max(np.abs(want.coeffs)), 1e-300)
    return float(np.max(np.abs(got.coeffs - want.coeffs)) / scale)


class TestPackedAdvection:
    """ops.advect through the half spectrum against the full-layout
    conftest.reference_advect, and the commutator built on each."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_band_limited_states(self, n):
        grid = Grid(n)
        for name in ("full_b", "stokes_toy"):
            state = band_state(grid, 31, VARIANTS[name])
            u, tau = state.u, state.tau
            for f in (state.omega, *tau.components, ops.riesz_r(tau)):
                assert coeff_error(ops.advect(u, f), reference_advect(u, f)) <= TOL
            assert coeff_error(commutator_r_advect(u, tau), reference_commutator(u, tau)) <= TOL

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_nyquist_state(self, name, grid32):
        # the velocity of biot_savart holds, on the Nyquist column, a part
        # that no real field has; the transport must drop it
        state = nyquist_state(grid32, 32, VARIANTS[name])
        u, tau = state.u, state.tau
        for f in (state.omega, *tau.components, ops.riesz_r(tau)):
            assert coeff_error(ops.advect(u, f), reference_advect(u, f)) <= TOL
        assert coeff_error(commutator_r_advect(u, tau), reference_commutator(u, tau)) <= TOL

    def test_constant_velocity(self, grid64):
        u = constant_velocity(grid64, 0.7, -0.4)
        tau = rand_state(grid64, 33, band=(1, 10)).tau
        scale = 0.0
        for f in (*tau.components, ops.riesz_r(tau)):
            want = reference_advect(u, f)
            assert coeff_error(ops.advect(u, f), want) <= TOL
            scale = max(scale, float(np.max(np.abs(want.coeffs))))
        got = commutator_r_advect(u, tau)
        assert np.max(np.abs(got.coeffs - reference_commutator(u, tau).coeffs)) <= TOL * scale

    def test_velocity_values_made_once(self, grid32):
        u = rand_state(grid32, 34).u
        assert u.values is u.values
        for got, want in zip(u.values, (u.u1.physical, u.u2.physical)):
            assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(want))
