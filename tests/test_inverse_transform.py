"""The pruned inverse transform of a half spectrum against numpy's.

`grid.inverse_rfft2` (the n x n grid), called as `ScalarField.physical`
calls it, must equal `np.fft.irfft2` in bytes, and
`PaddedTransform.physical` (the padded 2n x 2n grid of the L-infinity
norms) the `irfftn` of the same padded half spectrum, and to roundoff the
padded values of the full-layout spectrum of the field's grid values
(conftest.padded_values), for band-limited input, for white noise with a
non-Hermitian Nyquist row and column, and along a sequence whose band goes
wide, narrow and wide again on one grid, where a column or row left over
from an earlier call would show.
"""

import numpy as np
import pytest

from oldroyd2d import besov
from oldroyd2d.fields import ScalarField
from oldroyd2d.grid import Grid, inverse_rfft2
from oldroyd2d.model import ModelParams, make_state, rhs
from oldroyd2d.stepping import StepConfig, cfl_dt

from conftest import full_coeffs, padded_values, rand_state, stage_speed

SIZES = (8, 32, 64)


def white_half(rng, n):
    """White noise in every (n, n//2+1) slot: not Hermitian in columns 0
    and n/2, nonzero on the Nyquist row and column."""
    a = rng.standard_normal((n, n // 2 + 1)) + 1j * rng.standard_normal((n, n // 2 + 1))
    assert np.all(a[n // 2] != 0) and np.all(a[:, n // 2] != 0)
    return a


def dealiased_stack(grid, seed):
    return rand_state(grid, seed, band=(1, grid.n // 3)).y.copy()


def inverse(grid, a, work=None):
    """The grid values of the half spectrum a (inverse_rfft2) within its band,
    in a zeroed buffer of their own unless work is given."""
    work = np.zeros(grid.shape, dtype=np.complex128) if work is None else work
    return inverse_rfft2(a, grid.band(a) + 1, work, np.empty((grid.n, grid.n)))


def padded(f, band):
    """PaddedTransform.physical of the field f from its window of
    frequencies |m| <= band."""
    n = f.grid.n
    pad = besov.padded_transform(f.grid)
    return pad.physical(besov.field_window(f, band)[0], np.empty((2 * n, 2 * n)))


def padded_irfftn(f, band):
    """The irfftn of the padded half spectrum that padded(f, band) transforms."""
    n, w = f.grid.n, besov.field_window(f, band)[0]
    b = np.zeros((2 * n, n + 1), dtype=np.complex128)
    b[: band + 1, : band + 1], b[2 * n - band :, : band + 1] = w[band:], w[:band]
    return np.fft.irfftn(b, s=(2 * n, 2 * n), axes=(0, 1), norm="forward")


def check_padded(f, band):
    got = padded(f, band)
    assert same_bytes(got, padded_irfftn(f, band))
    want = padded_values(full_coeffs(f))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGridTransform:
    @pytest.mark.parametrize("n", SIZES)
    def test_width_reads_the_band(self, n):
        g = Grid(n)
        assert g.band(dealiased_stack(g, 1)) == n // 3
        assert g.band(white_half(np.random.default_rng(n), n)) == n // 2
        y = dealiased_stack(g, 1)
        y[2, 3, n // 2] = 1e-300  # one Nyquist-column value takes the full band
        assert g.band(y) == n // 2
        y = dealiased_stack(g, 1)
        y[1, n // 2, 0] = 1e-300  # and so does one Nyquist-row value
        assert g.band(y) == n // 2

    @pytest.mark.parametrize("n", SIZES)
    def test_dealiased_stack_matches_irfft2(self, n):
        grid = Grid(n)
        y = dealiased_stack(grid, 2)
        work = np.zeros(grid.shape, dtype=np.complex128)
        for row in y:  # one buffer for every row, as in rhs
            want = np.fft.irfft2(row, s=(n, n), norm="forward")
            assert same_bytes(inverse(grid, row, work), want)

    @pytest.mark.parametrize("n", SIZES)
    def test_white_noise_matches_irfft2(self, n):
        grid, rng = Grid(n), np.random.default_rng(3)
        for _ in range(4):
            a = white_half(rng, n)
            want = np.fft.irfft2(a, s=(n, n), norm="forward")
            assert same_bytes(inverse(grid, a), want)

    @pytest.mark.parametrize("n", SIZES)
    def test_wide_narrow_wide_on_one_grid(self, n):
        grid, rng = Grid(n), np.random.default_rng(4)
        narrow = dealiased_stack(grid, 5)[1]
        for a in (white_half(rng, n), narrow, white_half(rng, n), narrow, narrow):
            want = np.fft.irfft2(a, s=(n, n), norm="forward")
            assert same_bytes(inverse(grid, a), want)

    @pytest.mark.parametrize("params", [
        ModelParams(nu=0.0, mu=0.7, K=1.2, alpha=0.9, beta=0.3, b=0.4),
        ModelParams(nu=0.0, mu=1.0, K=1.0, alpha=0.8, beta=0.1, variant="q_zero"),
        ModelParams(nu=0.05, mu=0.3, alpha=1.0, beta=0.2, b=0.6, variant="stokes_toy"),
    ], ids=["full", "q_zero", "stokes_toy"])
    def test_rhs_and_cfl_dt_do_not_depend_on_the_width(self, params, monkeypatch):
        # the pruned transforms of a dealiased state against full-width ones
        grid = Grid(32)
        s = rand_state(grid, 6, band=(1, 10))
        state = make_state(0.0, s.omega, s.tau, params)
        y = state.y
        config = StepConfig(cfl=0.5, dt_max=10.0, dt_min=1e-12)
        assert grid.band(y) == 10
        pruned, dt = rhs(y, grid, params), cfl_dt(state, config, stage_speed(state, params))
        monkeypatch.setattr(Grid, "band", lambda self, *arrays: self.n // 2)
        assert same_bytes(rhs(y, grid, params), pruned)
        assert cfl_dt(state, config, stage_speed(state, params)) == dt


class TestPaddedTransform:
    @pytest.mark.parametrize("n", SIZES)
    def test_band_limited_field_and_blocks_match_irfftn(self, n):
        grid = Grid(n)
        dec = besov.decomposition_for(grid)
        f = rand_state(grid, 8, band=(1, n // 3)).omega
        for c in [f] + [dec.block(f, q) for q in dec.qs]:
            for band in (n // 3, n // 2):  # the dealiased window and the whole array
                check_padded(c, band)

    @pytest.mark.parametrize("n", SIZES)
    def test_white_noise_matches_irfftn(self, n):
        grid, rng = Grid(n), np.random.default_rng(9)
        for _ in range(4):
            check_padded(ScalarField(grid, white_half(rng, n)), n // 2)

    @pytest.mark.parametrize("n", SIZES)
    def test_wide_narrow_wide_on_one_grid(self, n):
        grid, rng = Grid(n), np.random.default_rng(10)
        pad = besov.padded_transform(grid)  # held, so that every call shares it
        dec = besov.decomposition_for(grid)
        low = dec.block(rand_state(grid, 11, band=(1, n // 3)).omega, 0)
        white = lambda: ScalarField(grid, white_half(rng, n))  # noqa: E731
        for f in (white(), low, white(), white(), low):
            check_padded(f, n // 2)
            assert besov.padded_transform(grid) is pad
