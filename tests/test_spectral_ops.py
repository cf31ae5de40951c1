"""Spectral core: transforms, derivatives, inversions, projections, R."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oldroyd2d import operators as ops
from oldroyd2d.errors import ConfigError
from oldroyd2d.fields import ScalarField, SymTensorField, VectorField, inner
from oldroyd2d.grid import Grid

from conftest import field_from, rand_scalar, rand_state, rand_tensor, rel_err


class TestGrid:
    def test_rejects_odd_or_tiny_n(self):
        with pytest.raises(ConfigError):
            Grid(15)
        with pytest.raises(ConfigError):
            Grid(4)

    def test_dealias_mask_cutoff(self):
        g = Grid(16)
        cut = g.dealias_cutoff
        assert cut == 5
        # mode (n/2 - 1, 0) is removed, (1, 1) kept
        assert not g.dealias_mask[7, 0]
        assert g.dealias_mask[1, 1]
        assert g.dealias_mask[cut, 0]
        assert not g.dealias_mask[cut + 1, 0]

    def test_shape_mismatch_is_config_error(self, grid16):
        with pytest.raises(ConfigError):
            ScalarField.from_physical(grid16, np.zeros((8, 8)))


class TestTransform:
    def test_constant_field_is_mean_mode(self, grid16):
        f = ScalarField.from_physical(grid16, np.full((16, 16), 3.25))
        assert abs(f.coeffs[0, 0] - 3.25) < 1e-14
        rest = f.coeffs.copy()
        rest[0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-14

    def test_sin_x_coefficients(self, grid16):
        # under f = sum c_m exp(i k x): sin(x) has c_{(1,0)} = -i/2
        f = field_from(grid16, lambda x, y: np.sin(x))
        assert abs(f.coeffs[1, 0] - (-0.5j)) < 1e-14
        assert abs(f.coeffs[-1, 0] - 0.5j) < 1e-14

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_identity(self, seed):
        g = Grid(16)
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((16, 16))
        f = ScalarField.from_physical(g, vals)
        assert rel_err(f.physical, vals) < 1e-13

    def test_parseval(self, grid32):
        f = rand_scalar(grid32, 5)
        quad = math.sqrt(np.sum(f.physical**2) * grid32.h**2)
        assert abs(f.l2() - quad) <= 1e-12 * quad


class TestDeriv:
    def test_sin_x(self, grid16):
        d = ops.deriv(field_from(grid16, lambda x, y: np.sin(x)), 1)
        assert rel_err(d.physical, np.cos(grid16.x)) < 1e-13

    def test_constant(self, grid16):
        d = ops.deriv(ScalarField.from_physical(grid16, np.ones((16, 16))), 1)
        assert np.max(np.abs(d.physical)) < 1e-14

    def test_sin_3y_axis2(self, grid16):
        d = ops.deriv(field_from(grid16, lambda x, y: np.sin(3 * y)), 2)
        assert rel_err(d.physical, 3 * np.cos(3 * grid16.y)) < 1e-13

    def test_bad_axis(self, grid16):
        with pytest.raises(ValueError):
            ops.deriv(ScalarField.zeros(grid16), 3)


class TestInvertLaplacian:
    def test_sin_x_eigenfunction(self, grid16):
        out = ops.invert_laplacian(field_from(grid16, lambda x, y: np.sin(x)))
        assert rel_err(out.physical, -np.sin(grid16.x)) < 1e-13

    def test_sin_2x(self, grid16):
        out = ops.invert_laplacian(field_from(grid16, lambda x, y: np.sin(2 * x)))
        assert rel_err(out.physical, -np.sin(2 * grid16.x) / 4) < 1e-13

    def test_constant_discarded(self, grid16):
        out = ops.invert_laplacian(ScalarField.from_physical(grid16, np.ones((16, 16))))
        assert np.max(np.abs(out.physical)) < 1e-14

    def test_laplacian_of_inverse(self, grid32):
        f = rand_scalar(grid32, 11)
        back = ops.laplacian(ops.invert_laplacian(f))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


class TestLeray:
    def test_pure_gradient_annihilated(self, grid16):
        phi = field_from(grid16, lambda x, y: np.sin(x + y))
        v = VectorField(*ops.grad(phi))
        out = ops.leray_project(v)
        assert max(np.max(np.abs(out.u1.physical)), np.max(np.abs(out.u2.physical))) < 1e-13

    def test_idempotent_and_divergence_free(self, grid32):
        v = VectorField(rand_scalar(grid32, 21), rand_scalar(grid32, 22))
        once = ops.leray_project(v)
        twice = ops.leray_project(once)
        assert np.max(np.abs(once.u1.coeffs - twice.u1.coeffs)) < 1e-13
        assert once.max_divergence() <= 1e-12 * max(np.max(np.abs(once.u1.coeffs)), 1e-30)

    def test_divergence_free_fixed_point(self, grid16):
        v = VectorField(field_from(grid16, lambda x, y: np.sin(y)), ScalarField.zeros(grid16))
        out = ops.leray_project(v)
        assert rel_err(out.u1.physical, np.sin(grid16.y)) < 1e-13


class TestBiotSavart:
    def test_sin_x(self, grid16):
        u = ops.biot_savart(field_from(grid16, lambda x, y: np.sin(x)))
        assert np.max(np.abs(u.u1.physical)) < 1e-13
        assert rel_err(u.u2.physical, -np.cos(grid16.x)) < 1e-13

    def test_sin_y(self, grid16):
        u = ops.biot_savart(field_from(grid16, lambda x, y: np.sin(y)))
        assert rel_err(u.u1.physical, np.cos(grid16.y)) < 1e-13
        assert np.max(np.abs(u.u2.physical)) < 1e-13

    def test_zero(self, grid16):
        u = ops.biot_savart(ScalarField.zeros(grid16))
        assert u.l2() == 0.0

    def test_curl_inverts(self, grid32):
        w = rand_scalar(grid32, 31)
        back = ops.curl(ops.biot_savart(w))
        assert np.max(np.abs(back.coeffs - w.coeffs)) < 1e-12

    def test_nonzero_mean_rejected(self, grid16):
        f = ScalarField.from_physical(grid16, np.ones((16, 16)))
        with pytest.raises(ValueError, match="zero-mean"):
            ops.biot_savart(f)


class TestSymGrad:
    def test_single_mode(self, grid16):
        u = ops.biot_savart(field_from(grid16, lambda x, y: np.sin(x)))  # (0, -cos x)
        du = ops.sym_grad(u)
        assert rel_err(du.t12.physical, 0.5 * np.sin(grid16.x)) < 1e-13
        assert np.max(np.abs(du.t11.physical)) < 1e-13
        assert np.max(np.abs(du.t22.physical)) < 1e-13

    def test_constant_velocity(self, grid16):
        c = np.zeros((16, 16), dtype=np.complex128)
        c[0, 0] = 2.0
        u = VectorField(ScalarField(grid16, c), ScalarField(grid16, 0.5 * c))
        du = ops.sym_grad(u)
        assert all(np.max(np.abs(t.physical)) < 1e-14 for t in du.components)

    def test_periodic_shear_pair(self, grid16):
        u = VectorField(
            field_from(grid16, lambda x, y: np.sin(y)),
            field_from(grid16, lambda x, y: np.sin(x)),
        )
        du = ops.sym_grad(u)
        want = 0.5 * (np.cos(grid16.x) + np.cos(grid16.y))
        assert rel_err(du.t12.physical, want) < 1e-13

    def test_trace_free_for_divergence_free(self, grid32):
        u = ops.biot_savart(rand_scalar(grid32, 41))
        du = ops.sym_grad(u)
        trace = du.t11 + du.t22
        assert np.max(np.abs(trace.coeffs)) <= 1e-12


class TestRieszR:
    def test_offdiagonal_single_mode(self, grid16):
        z = ScalarField.zeros(grid16)
        tau = SymTensorField(z, field_from(grid16, lambda x, y: np.cos(x)), z)
        out = ops.riesz_r(tau)
        assert rel_err(out.physical, np.cos(grid16.x)) < 1e-13

    def test_diagonal_single_mode_vanishes(self, grid16):
        z = ScalarField.zeros(grid16)
        tau = SymTensorField(field_from(grid16, lambda x, y: np.cos(x)), z, z)
        assert np.max(np.abs(ops.riesz_r(tau).physical)) < 1e-14

    def test_constant_tensor(self, grid16):
        one = ScalarField.from_physical(grid16, np.ones((16, 16)))
        tau = SymTensorField(one, 2.0 * one, -1.0 * one)
        assert np.max(np.abs(ops.riesz_r(tau).coeffs)) < 1e-14

    def test_multiplier_norm_bound(self, grid32):
        g = grid32
        norm = np.sqrt((g.k1 * g.k2) ** 2 * 2 + (g.k1**2 - g.k2**2) ** 2)
        bound = norm * g.inv_ksq
        assert np.max(bound) <= 1.0 + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_l2_contraction(self, seed):
        grid = Grid(32)
        tau = rand_tensor(grid, seed)
        euclid = math.sqrt(sum(c.l2() ** 2 for c in tau.components))
        assert ops.riesz_r(tau).l2() <= euclid + 1e-12

    def test_cancellation_r_du_is_half_omega(self, grid64):
        for seed in range(5):
            w = rand_scalar(grid64, 100 + seed, band=(1, 20))
            r_du = ops.riesz_r(ops.sym_grad(ops.biot_savart(w)))
            assert (r_du - 0.5 * w).l2() <= 1e-12 * w.l2()


class TestCurlDiv:
    def test_single_mode(self, grid16):
        z = ScalarField.zeros(grid16)
        tau = SymTensorField(z, field_from(grid16, lambda x, y: np.cos(x)), z)
        out = ops.curl_div(tau)
        assert rel_err(out.physical, -np.cos(grid16.x)) < 1e-13

    def test_constant(self, grid16):
        one = ScalarField.from_physical(grid16, np.ones((16, 16)))
        tau = SymTensorField(one, one, one)
        assert np.max(np.abs(ops.curl_div(tau).coeffs)) < 1e-14

    def test_equals_laplacian_of_r(self, grid32):
        tau = rand_tensor(grid32, 51)
        lhs = ops.curl_div(tau)
        rhs = ops.laplacian(ops.riesz_r(tau))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-11


class TestRieszComponent:
    def test_zero_support(self, grid16):
        out = ops.riesz_component(field_from(grid16, lambda x, y: np.sin(y)), 1)
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_constant(self, grid16):
        out = ops.riesz_component(
            ScalarField.from_physical(grid16, np.ones((16, 16))), 1
        )
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_squares_sum_to_minus_identity(self, grid32):
        f = rand_scalar(grid32, 61)
        total = (
            ops.riesz_component(ops.riesz_component(f, 1), 1)
            + ops.riesz_component(ops.riesz_component(f, 2), 2)
        )
        assert np.max(np.abs(total.coeffs + f.coeffs)) < 1e-12


class TestDealias:
    def test_high_mode_removed_low_kept(self):
        g = Grid(16)
        c = np.zeros((16, 16), dtype=np.complex128)
        c[7, 0] = 1.0  # n/2 - 1
        c[1, 1] = 1.0
        out = ops.dealias(ScalarField(g, c))
        assert out.coeffs[7, 0] == 0.0
        assert out.coeffs[1, 1] == 1.0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_idempotent(self, seed):
        g = Grid(16)
        rng = np.random.default_rng(seed)
        f = ScalarField.from_physical(g, rng.standard_normal((16, 16)))
        once = ops.dealias(f)
        twice = ops.dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)


class TestAdvection:
    def test_skew_symmetry(self, grid32):
        st_ = rand_state(grid32, 71)
        f = ops.dealias(rand_scalar(grid32, 72))
        integral = inner(ops.advect(st_.u, f), f)
        bound = 1e-10 * st_.u.l2() * f.l2() ** 2
        assert abs(integral) <= bound
