"""Initial-data generators and snapshot persistence."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oldroyd2d import besov, cli
from oldroyd2d import operators as ops
from oldroyd2d.errors import ConfigError, SnapshotError
from oldroyd2d.fields import ScalarField
from oldroyd2d.grid import Grid
from oldroyd2d.initial_data import (
    InitialSpec,
    TauInitialSpec,
    make_initial_data,
    random_scalar,
    smallness_norm,
    taylor_green_vorticity,
)
from oldroyd2d.model import VARIANTS, ModelParams, make_state, stokes_toy_velocity
from oldroyd2d.snapshots import _HEADER, MAGIC, Q_CODES, load_snapshot, save_snapshot

from conftest import assert_packed, nyquist_state, rand_state, rel_err

TAU_ZERO = TauInitialSpec(kind="zero")


def coefficient(f, m1, m2):
    """The coefficient of f at frequency (m1, m2): stored for m2 >= 0, else
    the conjugate of its partner's."""
    n = f.grid.n
    return f.coeffs[m1 % n, m2] if m2 >= 0 else np.conj(f.coeffs[-m1 % n, -m2])


class TestGenerators:
    def test_taylor_green_formula(self, grid32):
        f = taylor_green_vorticity(grid32, amplitude=0.7)
        want = 2 * 0.7 * np.cos(grid32.x) * np.cos(grid32.y)
        assert np.max(np.abs(f.physical - want)) < 1e-13

    def test_same_seed_identical(self, grid32):
        spec = InitialSpec(kind="random_band_limited", seed=9, band_lo=1, band_hi=6)
        tau = TauInitialSpec(kind="random_band_limited", seed=10, band_lo=1, band_hi=6)
        a = make_initial_data(spec, tau, grid32)
        b = make_initial_data(spec, tau, grid32)
        assert np.array_equal(a.omega.coeffs, b.omega.coeffs)
        assert np.array_equal(a.tau.t12.coeffs, b.tau.t12.coeffs)

    def test_seed_required_for_random(self):
        with pytest.raises(ConfigError, match="seed"):
            InitialSpec(kind="random_band_limited")

    def test_random_fields_resolution_independent(self):
        # canonical coefficient order: same function on every grid
        f64 = random_scalar(Grid(64), (1, 10), [123])
        f128 = random_scalar(Grid(128), (1, 10), [123])
        assert abs(f64.l2() - f128.l2()) < 1e-12
        for m1 in range(-10, 11):
            for m2 in range(-10, 11):
                a, b = coefficient(f64, m1, m2), coefficient(f128, m1, m2)
                assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)
        # the padded maxima sample different grids; they agree to quadrature level
        assert abs(besov.linf_norm(f64) - besov.linf_norm(f128)) < 2e-2

    def test_band_exceeding_cutoff_rejected(self, grid16):
        spec = InitialSpec(kind="random_band_limited", seed=1, band_lo=1, band_hi=9)
        with pytest.raises(ConfigError, match="cutoff"):
            make_initial_data(spec, TAU_ZERO, grid16)

    def test_delta_scaling_exact(self, grid32):
        spec = InitialSpec(kind="random_band_limited", seed=11, band_lo=1,
                           band_hi=6, delta=0.037)
        tau = TauInitialSpec(kind="random_band_limited", seed=12, band_lo=1, band_hi=6)
        state = make_initial_data(spec, tau, grid32)
        assert abs(smallness_norm(state) - 0.037) <= 1e-10

    def test_delta_zero_gives_zero_state(self, grid32):
        spec = InitialSpec(kind="taylor_green", amplitude=1.0, delta=0.0)
        state = make_initial_data(spec, TAU_ZERO, grid32)
        assert state.omega.l2() == 0.0
        assert state.tau.l2() == 0.0

    def test_initial_state_band_limited_zero_mean(self, grid32):
        spec = InitialSpec(kind="random_band_limited", seed=13, band_lo=1, band_hi=6)
        tau = TauInitialSpec(kind="random_band_limited", seed=14, band_lo=1, band_hi=6)
        state = make_initial_data(spec, tau, grid32)
        assert abs(state.omega.mean) < 1e-14
        outside = ~grid32.dealias_mask
        assert np.max(np.abs(state.omega.coeffs[outside])) == 0.0


    @pytest.mark.parametrize("spec, tau_spec", [
        (InitialSpec(), TAU_ZERO),
        (InitialSpec(kind="random_band_limited", seed=3, delta=0.1),
         TauInitialSpec(kind="random_band_limited", seed=4)),
        (InitialSpec(delta=0.0), TAU_ZERO),
    ], ids=["taylor_green", "delta", "delta_zero"])
    def test_initial_state_is_packed(self, grid32, spec, tau_spec):
        assert_packed(make_initial_data(spec, tau_spec, grid32))
        state = make_initial_data(spec, tau_spec, grid32, ModelParams(b=0.3))
        assert_packed(state)
        # a Stokes-toy vorticity is diagnosed into the stack's first row
        toy = make_initial_data(spec, tau_spec, grid32, ModelParams(variant="stokes_toy"))
        assert_packed(toy)
        assert np.array_equal(toy.omega.coeffs, (-ops.riesz_r(toy.tau)).coeffs)


class TestSnapshots:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loaded_state_is_packed_with_its_stored_values(self, tmp_path, grid32, variant):
        params = ModelParams(variant=variant)
        seed = rand_state(grid32, 29)
        state = make_state(0.0, seed.omega, seed.tau, params)
        path = tmp_path / "a.bin"
        save_snapshot(state, params, path)
        spec = InitialSpec(kind="from_snapshot", snapshot=str(path))
        for loaded in (load_snapshot(path)[0], make_initial_data(spec, TAU_ZERO, grid32, params)):
            assert_packed(loaded)
            for got, want in zip((loaded.omega, *loaded.tau.components),
                                 (state.omega, *state.tau.components)):
                assert np.array_equal(got.physical, want.physical)

    def test_snapshot_of_another_variant_starts_a_stokes_toy(self, tmp_path, grid32):
        # a full-model snapshot as Stokes-toy initial data: omega = -R(tau)
        state = rand_state(grid32, 28)
        path = tmp_path / "full.bin"
        save_snapshot(state, ModelParams(), path)
        spec = InitialSpec(kind="from_snapshot", snapshot=str(path))
        toy = make_initial_data(spec, TAU_ZERO, grid32, ModelParams(variant="stokes_toy"))
        assert toy.stokes_toy
        assert np.array_equal(toy.omega.coeffs, (-ops.riesz_r(toy.tau)).coeffs)

    def test_round_trip_bit_exact(self, tmp_path, grid32):
        params = ModelParams(nu=0.0, mu=0.5, K=1.1, alpha=-0.3, beta=0.2, b=0.4)
        state = rand_state(grid32, 20)
        path = tmp_path / "a.bin"
        save_snapshot(state, params, path)
        loaded, loaded_params = load_snapshot(path)
        assert loaded.t == state.t
        assert loaded_params == params
        assert np.array_equal(loaded.omega.physical, state.omega.physical)
        for a, b in zip(loaded.tau.components, state.tau.components):
            assert np.array_equal(a.physical, b.physical)
        # a second save reproduces the file byte for byte
        path2 = tmp_path / "b.bin"
        save_snapshot(loaded, loaded_params, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_spectral_cache_rebuilt(self, tmp_path, grid32):
        state = rand_state(grid32, 21)
        path = tmp_path / "a.bin"
        save_snapshot(state, ModelParams(), path)
        loaded, _ = load_snapshot(path)
        assert (loaded.omega - state.omega).l2() <= 1e-13 * state.omega.l2()

    def test_bad_magic(self, tmp_path, grid16):
        path = tmp_path / "bad.bin"
        state = rand_state(grid16, 22, band=(1, 4))
        save_snapshot(state, ModelParams(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="magic"):
            load_snapshot(path)

    def test_truncation(self, tmp_path, grid16):
        path = tmp_path / "short.bin"
        state = rand_state(grid16, 23, band=(1, 4))
        save_snapshot(state, ModelParams(), path)
        path.write_bytes(path.read_bytes()[:-17])
        with pytest.raises(SnapshotError, match="bytes"):
            load_snapshot(path)

    def test_version_mismatch(self, tmp_path, grid16):
        path = tmp_path / "v.bin"
        state = rand_state(grid16, 24, band=(1, 4))
        save_snapshot(state, ModelParams(), path)
        data = bytearray(path.read_bytes())
        data[len(MAGIC)] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(path)

    def test_variant_round_trip(self, tmp_path, grid16):
        state = rand_state(grid16, 25, band=(1, 4))
        for params in (
            ModelParams(variant="q_zero", q_enabled=False),
            ModelParams(variant="full", q_enabled=True),
            ModelParams(variant="full", q_enabled=False),
            ModelParams(variant="stokes_toy", mu=0.0, q_enabled=False),
        ):
            path = tmp_path / f"{params.variant}_{params.q_enabled}.bin"
            save_snapshot(state, params, path)
            _, back = load_snapshot(path)
            assert back.variant == params.variant
            assert back.q_enabled == params.q_enabled

    def test_every_variant_and_q_round_trips(self, tmp_path, grid16):
        # every (variant, q_enabled) pair ModelParams can hold, the Stokes toy
        # with Q on included, loads back as the params it was saved with
        state = rand_state(grid16, 27, band=(1, 4))
        reachable = {}
        for variant in VARIANTS:
            for q_enabled in (True, False):
                params = ModelParams(nu=0.0, mu=0.3, b=0.5, variant=variant,
                                     q_enabled=q_enabled)
                reachable[params.variant, params.q_enabled] = params
        assert set(reachable) == set(Q_CODES.values())
        for (variant, q_enabled), params in reachable.items():
            path = tmp_path / f"{variant}_{q_enabled}.bin"
            save_snapshot(state, params, path)
            assert load_snapshot(path)[1] == params

    def test_stokes_toy_velocity_round_trip(self, tmp_path, grid16):
        # a loaded Stokes-toy state with Nyquist content keeps its stored
        # vorticity and the Stokes velocity of its tau, as the stepper has it
        params = ModelParams(nu=0.05, mu=0.3, alpha=1.0, beta=0.2, variant="stokes_toy")
        state = nyquist_state(grid16, 3, params)
        path = tmp_path / "toy.bin"
        save_snapshot(state, params, path)
        loaded, _ = load_snapshot(path)
        assert np.array_equal(loaded.omega.physical, state.omega.physical)
        for got, want in zip(loaded.u.values, stokes_toy_velocity(loaded.tau).values):
            assert np.array_equal(got, want)
        assert rel_err(loaded.u.u1.physical, state.u.u1.physical) <= 1e-14

    def test_cross_resolution_load_rejected(self, tmp_path, grid32):
        state = rand_state(grid32, 26)
        path = tmp_path / "n32.bin"
        save_snapshot(state, ModelParams(), path)
        spec = InitialSpec(kind="from_snapshot", snapshot=str(path))
        with pytest.raises(ConfigError, match="resolution"):
            make_initial_data(spec, TAU_ZERO, Grid(64))

    def test_from_snapshot_round_trip(self, tmp_path, grid32):
        state = rand_state(grid32, 27)
        path = tmp_path / "s.bin"
        save_snapshot(state, ModelParams(), path)
        spec = InitialSpec(kind="from_snapshot", snapshot=str(path))
        loaded = make_initial_data(spec, TAU_ZERO, grid32)
        assert np.array_equal(loaded.omega.physical, state.omega.physical)


class TestMalformedSnapshots:
    """Outside input the loader must refuse with SnapshotError naming the file."""

    @staticmethod
    def _crafted(tmp_path, name, n=16, poke=None):
        values = np.zeros(4 * n * n)
        if poke is not None:
            values[n * n + 5] = poke  # one tau11 value
        path = tmp_path / name
        path.write_bytes(MAGIC + _HEADER.pack(1, n, 2 * np.pi, 0.0, 0.0, 1.0, 1.0, 1.0,
                                              0.0, 0.0, 1.0)
                         + values.astype("<f8").tobytes())
        return path

    @pytest.mark.parametrize("name, n, poke, match", [
        ("odd_n.bin", 7, None, "even"),
        ("nan.bin", 16, np.nan, "non-finite"),
        ("inf.bin", 16, np.inf, "non-finite"),
    ])
    def test_rejected_with_snapshot_error(self, tmp_path, capsys, name, n, poke, match):
        from oldroyd2d import cli

        path = self._crafted(tmp_path, name, n, poke)
        with pytest.raises(SnapshotError, match=match) as exc:
            load_snapshot(path)
        assert name in str(exc.value)
        assert cli.main(["norms", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: snapshot {path}")

    def test_unknown_q_code_rejected(self, tmp_path):
        path = self._crafted(tmp_path, "q_code_5.bin")
        data = bytearray(path.read_bytes())
        end = len(MAGIC) + _HEADER.size  # q_code is the header's last f64
        data[end - 8:end] = np.array(5.0, "<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="unknown q_code 5.0") as exc:
            load_snapshot(path)
        assert "q_code_5.bin" in str(exc.value)

    def test_crafted_finite_file_loads(self, tmp_path):
        state, params = load_snapshot(self._crafted(tmp_path, "ok.bin"))
        assert state.grid.n == 16 and params.variant == "full"

    def test_nonzero_mean_vorticity_rejected(self, tmp_path, grid16):
        path = tmp_path / "mean.bin"
        save_snapshot(rand_state(grid16, 28, band=(1, 4)), ModelParams(), path)
        data = bytearray(path.read_bytes())
        start = len(MAGIC) + _HEADER.size
        omega = np.frombuffer(bytes(data[start:start + 16 * 16 * 8]), dtype="<f8") + 1.0
        data[start:start + 16 * 16 * 8] = omega.tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="zero mean"):
            load_snapshot(path)


def _loop_random_scalar(grid, band, seed, zero_mean=True):
    """random_scalar as a loop over the modes, one draw of two normals per
    mode in canonical order: the reference for its vectorised draw."""
    lo, hi = band
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for m1 in range(-hi, hi + 1):
        for m2 in range(-hi, hi + 1):
            if not (lo <= max(abs(m1), abs(m2)) <= hi):
                continue
            if not (m1 > 0 or (m1 == 0 and m2 > 0)):
                continue
            a, b = rng.standard_normal(2)
            c = 0.5 * (a + 1j * b)
            coeffs[m1 % grid.n, m2 % grid.n] = c
            coeffs[-m1 % grid.n, -m2 % grid.n] = np.conj(c)
    if not zero_mean:
        coeffs[0, 0] = rng.standard_normal()
    f = ScalarField(grid, coeffs[:, : grid.n // 2 + 1])  # the half spectrum
    norm = f.l2()
    return (1.0 / norm) * f if norm > 0 else f


@pytest.mark.parametrize("n", [8, 32, 128])
def test_random_scalar_matches_the_mode_loop(n):
    grid = Grid(n)
    for band in [(1, n // 3), (0, 2), (2, 2), (1, 1)]:
        for zero_mean in (True, False):
            got = random_scalar(grid, band, [7, n], zero_mean=zero_mean)
            want = _loop_random_scalar(grid, band, [7, n], zero_mean=zero_mean)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()


# Two n = 16 snapshots written at commit ac0047c, before the fields held
# half spectra: stock (a) physics at t = 0.1 (dealiased), and a white-noise
# state with Nyquist content. The format is the same in both layouts.
DATA = Path(__file__).parent / "data"
SNAPSHOTS = ("stock_a_n16.bin", "white_noise_n16.bin")

# `oldroyd2d norms` on stock_a_n16.bin at ac0047c
STOCK_A_NORMS = {
    "u_l2": 0.3642177173039267,
    "tau_l2": 0.7498342787460746,
    "omega_l2": 1.266025655505968,
    "omega_linf": 0.5846727025477418,
    "gamma_linf": 0.6646318840719396,
    "gamma_b0inf1": 0.942261468472403,
    "tau_bepsinf1": 0.5352027294161048,
    "tau_h2": 4.9563333371872815,
    "energy_weighted": 0.34745299559036447,
}


@pytest.mark.parametrize("name", SNAPSHOTS)
def test_stored_snapshot_resaves_byte_for_byte(name, tmp_path):
    state, params = load_snapshot(DATA / name)
    save_snapshot(state, params, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


def test_stored_snapshot_norms(capsys):
    assert cli.main(["norms", str(DATA / "stock_a_n16.bin")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t = 0.1, n = 16, L = 6.28319"
    printed = dict(line.split() for line in lines[1:])
    assert list(printed) == list(STOCK_A_NORMS)
    for name, want in STOCK_A_NORMS.items():
        assert abs(float(printed[name]) - want) <= 1e-13 * want, name


def _grown(make):
    """Bytes that 2 000 warm calls of make leave alive, by tracemalloc."""
    for _ in range(200):
        make()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2000):
            make()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_grid_points_leave_nothing_alive():
    # np.meshgrid left about 50 bytes alive per call under numpy 2.4, for
    # good: 2 000 warm calls of each kept tens of kilobytes
    assert _grown(lambda: (Grid(16).x, Grid(16).y)) < 4096


def test_random_scalar_leaves_nothing_alive():
    # np.meshgrid leaves about 45 bytes alive per call of random_scalar
    # under numpy 2.4 (its broadcast views): 2 000 warm calls kept 90 kB
    grid = Grid(16)
    assert _grown(lambda: random_scalar(grid, (1, 5), [1, 2])) < 4096
