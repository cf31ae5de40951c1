"""Littlewood-Paley decomposition and norm calculators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oldroyd2d import besov
from oldroyd2d import operators as ops
from oldroyd2d.fields import ScalarField, SymTensorField, VectorField
from oldroyd2d.grid import Grid
from oldroyd2d.initial_data import random_scalar

from conftest import (field_from, full_coeffs, grad, pad_coeffs, padded_values, rand_scalar,
                      reference_linf_norm, riesz_component)

INF = math.inf


class TestDecomposition:
    def test_partition_of_unity(self):
        for n in (64, 128, 256):
            dec = besov.decomposition_for(Grid(n))
            total = sum(dec.multipliers)
            assert np.max(np.abs(total - 1.0)) < 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_blocks_sum_to_field(self, seed):
        g = Grid(32)
        rng = np.random.default_rng(seed)
        f = ScalarField.from_physical(g, rng.standard_normal((32, 32)))
        dec = besov.decomposition_for(g)
        total = sum((dec.block(f, q).coeffs for q in dec.qs), np.zeros_like(f.coeffs))
        assert np.max(np.abs(total - f.coeffs)) < 1e-12

    def test_annulus_support(self, grid64):
        g = grid64
        dec = besov.decomposition_for(g)
        retained = g.dealias_mask
        for q in range(0, dec.q_max + 1):
            mult = dec.multiplier(q)
            active = (np.abs(mult) > 1e-14) & retained
            if not np.any(active):
                continue
            kmag = g.kmag[active]
            assert np.all(kmag >= 0.5 * 2.0**q)
            assert np.all(kmag <= 2.0 * 2.0**q + 1e-12)

    def test_low_block_support(self, grid64):
        dec = besov.decomposition_for(grid64)
        active = np.abs(dec.multiplier(-1)) > 1e-14
        assert np.all(grid64.kmag[active] <= 2.0)

    def test_distant_blocks_disjoint(self, grid64):
        dec = besov.decomposition_for(grid64)
        for q in range(0, dec.q_max + 1):
            for q2 in range(q + 2, dec.q_max + 1):
                overlap = np.abs(dec.multiplier(q) * dec.multiplier(q2))
                assert np.max(overlap) < 1e-14

    def test_constant_lives_in_low_block(self, grid16):
        f = ScalarField.from_physical(grid16, np.full((16, 16), 2.0))
        dec = besov.decomposition_for(grid16)
        assert abs(dec.block(f, -1).coeffs[0, 0] - 2.0) < 1e-14
        for q in range(0, dec.q_max + 1):
            assert np.max(np.abs(dec.block(f, q).coeffs)) < 1e-14

    def test_pure_dyadic_mode_in_its_block(self, grid64):
        dec = besov.decomposition_for(grid64)
        for q in range(0, dec.q_max + 1):
            f = field_from(grid64, lambda x, y, q=q: np.sin(2.0**q * x))
            block = dec.block(f, q)
            assert block.l2() >= 0.99 * f.l2()

    def test_q_out_of_range(self, grid16):
        f = ScalarField.zeros(grid16)
        dec = besov.decomposition_for(grid16)
        with pytest.raises(ValueError):
            dec.block(f, 99)
        with pytest.raises(ValueError):
            dec.block(f, -2)


class TestBesovNorm:
    def test_zero_field(self, grid32):
        assert besov.besov_norm(ScalarField.zeros(grid32), 0.0, INF, 1) == 0.0

    def test_single_dyadic_mode_regression(self, grid64):
        # A sin(2^q x) sits in exactly one block, so B^0_{inf,1} = A exactly
        for q, amp in [(1, 1.0), (3, 2.5)]:
            f = field_from(grid64, lambda x, y, q=q: amp * np.sin(2.0**q * x))
            val = besov.besov_norm(f, 0.0, INF, 1)
            assert abs(val - amp) < 1e-12
            assert 0.9 * amp <= val <= 1.2 * amp

    def test_l1_dominates_linf_aggregation(self, grid32):
        f = rand_scalar(grid32, 7)
        assert besov.besov_norm(f, 0.0, INF, 1) >= besov.besov_norm(f, 0.0, INF, INF)

    def test_unsupported_arguments(self, grid16):
        f = ScalarField.zeros(grid16)
        with pytest.raises(ValueError):
            besov.besov_norm(f, 0.0, 3, 1)
        with pytest.raises(ValueError):
            besov.besov_norm(f, 0.0, INF, 7)
        with pytest.raises(ValueError):
            besov.besov_norm(f, 2.5, INF, 1)


class TestLebesgueSobolev:
    def test_l2_closed_form(self, grid16):
        f = field_from(grid16, lambda x, y: np.sin(x))
        assert abs(f.l2() - math.pi * math.sqrt(2.0)) < 1e-12

    def test_l4_closed_form(self, grid16):
        f = field_from(grid16, lambda x, y: np.sin(x))
        want = (3.0 / 8.0 * (2 * math.pi) ** 2) ** 0.25
        assert abs(besov.lebesgue_norm(f, 4) - want) < 1e-12

    def test_l1_closed_form(self, grid64):
        # int |sin x| dx dy = 4 * 2 pi; plain quadrature, kinks limit accuracy
        f = field_from(grid64, lambda x, y: np.sin(x))
        want = 8 * math.pi
        assert abs(besov.lebesgue_norm(f, 1) - want) < 2e-3 * want

    def test_linf_padded(self, grid16):
        f = field_from(grid16, lambda x, y: np.sin(x))
        assert abs(besov.linf_norm(f) - 1.0) < 1e-12

    def test_pad_matches_centred_embedding(self):
        # reference: centre the spectrum, embed it in the 2n grid, shift back
        rng = np.random.default_rng(3)
        for n in (8, 32, 64):
            coeffs = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert np.all(coeffs[n // 2] != 0) and np.all(coeffs[:, n // 2] != 0)
            big = np.zeros((2 * n, 2 * n), dtype=np.complex128)
            big[n // 2 : 3 * n // 2, n // 2 : 3 * n // 2] = np.fft.fftshift(coeffs)
            want = np.fft.ifftshift(big)
            got = pad_coeffs(coeffs)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_half_spectrum_matches_complex_transform(self):
        # Non-Hermitian half spectra, Nyquist row and column included: the
        # padded transform must give the padded values of the real field on
        # the grid, as the real part of the complex padded transform of its
        # full-layout spectrum does.
        rng = np.random.default_rng(4)
        for n in (8, 32, 64):
            for _ in range(5):
                grid = Grid(n)
                c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
                f = ScalarField(grid, c)
                assert np.all(f.coeffs[n // 2] != 0) and np.all(f.coeffs[:, n // 2] != 0)
                coeffs = full_coeffs(f)
                want = np.fft.ifft2(pad_coeffs(coeffs), norm="forward").real
                pad = besov.padded_transform(f.grid)
                got = pad.physical(besov.field_window(f, n // 2)[0], np.empty((2 * n, 2 * n)))
                for values in (got, padded_values(coeffs)):
                    assert np.max(np.abs(values - want)) <= 1e-15 * np.max(np.abs(want))

    def test_unsupported_p(self, grid16):
        with pytest.raises(ValueError):
            besov.lebesgue_norm(ScalarField.zeros(grid16), 3)

    def test_h0_is_sqrt2_l2(self, grid32):
        f = rand_scalar(grid32, 8)
        assert abs(besov.sobolev_norm(f, 0.0) - math.sqrt(2.0) * f.l2()) < 1e-12

    def test_hs_single_mode_closed_form(self, grid16):
        f = field_from(grid16, lambda x, y: np.sin(2 * x))
        # ||f||_{H^s}^2 = (1 + |k|^{2s}) ||f||_{L2}^2 at |k| = 2
        for s in (1.0, 2.0, -0.5):
            want = math.sqrt(1 + 4.0**s) * f.l2()
            assert abs(besov.sobolev_norm(f, s) - want) < 1e-12


def _ensemble(grid, count, band=(1, 10)):
    return [random_scalar(grid, band, [7000, i]) for i in range(count)]


class TestEmpiricalLedgers:
    def test_ladyzhenskaya_constant_stable(self):
        # ||f||_{L4}^2 <= C ||f||_{L2} ||grad f||_{L2}; same functions across n
        consts = {}
        for n in (64, 128, 256):
            grid = Grid(n)
            best = 0.0
            for f in _ensemble(grid, 100):
                l4 = besov.lebesgue_norm(f, 4)
                gx, gy = grad(f)
                gl2 = math.sqrt(gx.l2() ** 2 + gy.l2() ** 2)
                best = max(best, l4**2 / (f.l2() * gl2))
            consts[n] = best
        base = consts[64]
        assert all(abs(c - base) <= 0.10 * base for c in consts.values())

    def test_bernstein_ratio_stable_across_q(self, grid64):
        dec = besov.decomposition_for(grid64)
        ratios = {}
        for f in _ensemble(grid64, 30, band=(1, 20)):
            for q in range(0, dec.q_max + 1):
                block = dec.block(f, q)
                l2 = block.l2()
                if l2 < 1e-12:
                    continue
                r = besov.linf_norm(block) / (2.0**q * l2)
                ratios.setdefault(q, []).append(r)
        per_q = {q: max(v) for q, v in ratios.items() if v}
        assert len(per_q) >= 3
        vals = list(per_q.values())
        assert max(vals) <= 10 * min(vals)  # same order of magnitude across q

    def test_riesz_on_blocks_bounded(self, grid64):
        dec = besov.decomposition_for(grid64)
        worst = 0.0
        for f in _ensemble(grid64, 30, band=(1, 20)):
            for q in range(0, dec.q_max + 1):
                block = dec.block(f, q)
                denom = besov.linf_norm(block)
                if denom < 1e-12:
                    continue
                r = besov.linf_norm(dec.block(riesz_component(f, 1), q))
                worst = max(worst, r / denom)
        assert worst <= 10.0

    def test_h2_embeds_in_linf(self, grid64):
        worst = max(
            besov.linf_norm(f) / besov.sobolev_norm(f, 2.0)
            for f in _ensemble(grid64, 100)
        )
        assert worst <= 1.0


def _banded(grid, seed, band):
    """White noise kept at the frequencies |m1|, |m2| <= band."""
    rng = np.random.default_rng(seed)
    f = ScalarField.from_physical(grid, rng.standard_normal((grid.n, grid.n)))
    keep = (np.abs(grid.m1) <= band) & (np.abs(grid.m2) <= band)
    return ScalarField(grid, f.coeffs * keep)


def _kinds(grid, seed, band):
    """One field of every kind, each component of band `band`."""
    c = [_banded(grid, seed + i, band) for i in range(4)]
    return [c[0], VectorField(c[0], c[1]), SymTensorField(*c[1:]),
            ops.VelocityGradient(*c)]


def _bytes(values):
    return np.array(values, dtype=np.float64).tobytes()


def _all_norms(f):
    return [besov.linf_norm(f)] + besov.block_linf_norms(f)


def _whole_array_norms(f):
    """The padded maxima of f and of its blocks, each from its whole padded
    spectrum (band n/2) rather than from its window."""
    dec = besov.decomposition_for(f.grid)
    return [besov._padded_max(besov.field_window(b, f.grid.n // 2), f.weights, f.grid)
            for b in [f] + [dec.block(f, q) for q in dec.qs]]


def _check_windowed(f):
    """In bytes against the whole-array path, and to roundoff against
    conftest.reference_linf_norm, from the full-layout spectra of the grid
    values."""
    dec = besov.decomposition_for(f.grid)
    got = _all_norms(f)
    assert _bytes(got) == _bytes(_whole_array_norms(f)), type(f).__name__
    want = [reference_linf_norm(b) for b in [f] + [dec.block(f, q) for q in dec.qs]]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-14 * want[0], type(f).__name__


class TestWindowedBlocks:
    """The windowed padded maxima against the whole-array path, in bytes:
    the window drops only exact zeros, and the buffer is zero again between
    calls; and against the full-layout conftest.reference_linf_norm."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_every_kind_band_and_block(self, n):
        grid = Grid(n)
        for band in sorted({0, 1, 3, n // 3, n // 2 - 1}):
            for f in _kinds(grid, 10 * band, band):
                assert besov.field_band(f) == (n // 3 if band <= n // 3 else n // 2)
                _check_windowed(f)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_nyquist_content_takes_the_whole_array(self, n):
        grid = Grid(n)
        rng = np.random.default_rng(n)
        shape = grid.shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.all(c[n // 2] != 0) and np.all(c[:, n // 2] != 0)
        d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for f in (ScalarField(grid, c), VectorField(ScalarField(grid, c), ScalarField(grid, d))):
            assert besov.field_band(f) == n // 2
            _check_windowed(f)

    def test_zero_field(self, grid32):
        for f in _kinds(grid32, 0, 0):
            zero = f.map(lambda c: ScalarField.zeros(grid32))
            assert besov.linf_norm(zero) == 0.0
            assert besov.block_linf_norms(zero) == [0.0] * len(besov.decomposition_for(grid32).qs)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_wide_narrow_wide_on_one_grid(self, n):
        # a value left in the half buffer by a wider call would show in the
        # narrower call after it; the buffer is held, so that every call
        # shares it
        grid = Grid(n)
        pad = besov.padded_transform(grid)
        wide, narrow = _banded(grid, 1, n // 2), _banded(grid, 2, 3)
        for f in (wide, narrow, wide, _banded(grid, 3, n // 3), narrow, narrow, wide):
            _check_windowed(f)
            assert besov.padded_transform(grid) is pad and not pad.half.any()

    def test_block_supports(self):
        # each multiplier is zero outside its window, and its window is the
        # smallest that holds it: blocks -1 and q_max hold no roundoff
        # outside their annuli
        for n in (64, 128):
            grid = Grid(n)
            dec = besov.decomposition_for(grid)
            m = np.maximum(np.abs(grid.m1), np.abs(grid.m2))
            for q, s in zip(dec.qs, dec.supports):
                mult = dec.multiplier(q)
                assert not np.any(mult[m > s]) and np.any(mult[m == s])
            assert dec.supports[:5] == (0, 1, 3, 7, 15)
        assert dec.supports == (0, 1, 3, 7, 15, 31, 64)
