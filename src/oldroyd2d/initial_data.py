"""Deterministic initial-data generators.

Random fields are built by drawing Hermitian coefficient pairs for every
integer mode in the requested band in a canonical order, so the same seed
produces the same *function* at every resolution that can hold the band.
Random fields are normalised to unit L2 norm before the amplitude is
applied.

When a smallness parameter delta is given, the whole state is rescaled so
that ||(u0, tau0)||_{H1} + ||(omega0, tau0)||_{B^0_{inf,1}} = delta (all
terms are 1-homogeneous, so the rescaling is exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import besov
from .errors import ConfigError
from .fields import ScalarField, SymTensorField
from .grid import Grid
from .model import ModelParams, SimState, make_state

OMEGA_KINDS = ("taylor_green", "random_band_limited", "single_mode", "zero", "from_snapshot")
TAU_KINDS = ("zero", "random_band_limited", "single_mode")


@dataclass(frozen=True)
class InitialSpec:
    """Vorticity initial data plus the joint smallness scaling."""

    kind: str = "taylor_green"
    amplitude: float = 1.0
    band_lo: int = 1
    band_hi: int = 8
    seed: int | None = None
    delta: float | None = None
    snapshot: str | None = None

    def __post_init__(self):
        if self.kind not in OMEGA_KINDS:
            raise ConfigError(f"unknown initial kind {self.kind!r}")
        if self.kind == "random_band_limited" and self.seed is None:
            raise ConfigError("random initial data requires a seed")
        if self.kind == "from_snapshot" and not self.snapshot:
            raise ConfigError("kind from_snapshot requires a snapshot path")
        if not (1 <= self.band_lo <= self.band_hi):
            raise ConfigError(
                f"need 1 <= band_lo <= band_hi, got [{self.band_lo}, {self.band_hi}]"
            )


@dataclass(frozen=True)
class TauInitialSpec:
    kind: str = "zero"
    amplitude: float = 1.0
    band_lo: int = 1
    band_hi: int = 8
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in TAU_KINDS:
            raise ConfigError(f"unknown tau initial kind {self.kind!r}")
        if self.kind == "random_band_limited" and self.seed is None:
            raise ConfigError("random tau initial data requires a seed")
        if not (1 <= self.band_lo <= self.band_hi):
            raise ConfigError(
                f"need 1 <= band_lo <= band_hi, got [{self.band_lo}, {self.band_hi}]"
            )


def _check_band(grid: Grid, band_hi: int) -> None:
    if band_hi > grid.dealias_cutoff:
        raise ConfigError(
            f"band_hi={band_hi} exceeds dealias cutoff {grid.dealias_cutoff} at n={grid.n}"
        )


def random_scalar(grid: Grid, band: tuple[int, int], seed, zero_mean: bool = True) -> ScalarField:
    """Unit-L2 random real field supported on band_lo <= max(|m1|,|m2|) <= band_hi."""
    lo, hi = band
    _check_band(grid, hi)
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    # canonical mode order, independent of grid resolution: m1, then m2,
    # from -hi to hi, over one mode (m1 > 0, or m1 = 0 < m2) of each
    # conjugate pair; each mode draws two normals in turn, and the mode or
    # its partner, whichever has m2 >= 0, is stored
    m1, m2 = np.indices((2 * hi + 1, 2 * hi + 1)) - hi
    radius = np.maximum(abs(m1), abs(m2))
    keep = (lo <= radius) & (radius <= hi) & ((m1 > 0) | ((m1 == 0) & (m2 > 0)))
    m1, m2 = m1[keep], m2[keep]
    a, b = rng.standard_normal((m1.size, 2)).T
    c = 0.5 * (a + 1j * b)
    up, down = m2 >= 0, m2 <= 0
    coeffs[m1[up] % grid.n, m2[up]] = c[up]
    coeffs[-m1[down] % grid.n, -m2[down]] = np.conj(c[down])
    if not zero_mean:
        coeffs[0, 0] = rng.standard_normal()
    f = ScalarField(grid, coeffs)
    norm = f.l2()
    if norm > 0:
        f = (1.0 / norm) * f
    return f


def random_state(grid: Grid, band: tuple[int, int], seed,
                 omega_amp: float = 1.0, tau_amp: float = 1.0, t: float = 0.0) -> SimState:
    """Random zero-mean vorticity and random symmetric stress, for ensembles."""
    omega = omega_amp * random_scalar(grid, band, [seed, 0])
    return make_state(t, omega, _random_tensor(grid, band, seed, tau_amp))


def _random_tensor(grid: Grid, band: tuple[int, int], seed, amplitude: float) -> SymTensorField:
    """Symmetric stress whose components are amplitude times the random
    fields of seeds [seed, 1], [seed, 2] and [seed, 3], mean included."""
    return SymTensorField(*(amplitude * random_scalar(grid, band, [seed, i], zero_mean=False)
                            for i in (1, 2, 3)))


def taylor_green_vorticity(grid: Grid, amplitude: float) -> ScalarField:
    """omega = 2 A kappa^2 cos(kappa x) cos(kappa y), kappa = 2 pi / L.

    This is the curl of the cellular flow with stream function
    psi = A cos(kappa x) cos(kappa y).
    """
    kappa = 2.0 * math.pi / grid.length
    vals = 2.0 * amplitude * kappa**2 * np.cos(kappa * grid.x) * np.cos(kappa * grid.y)
    return ScalarField.from_physical(grid, vals)


def single_mode_scalar(grid: Grid, mode: int, amplitude: float) -> ScalarField:
    _check_band(grid, mode)
    kappa = 2.0 * math.pi / grid.length
    return ScalarField.from_physical(grid, amplitude * np.cos(mode * kappa * grid.x))


def smallness_norm(state: SimState) -> float:
    """||(u, tau)||_{H1} + ||(omega, tau)||_{B^0_{inf,1}}."""
    _pad = besov.padded_transform(state.grid)  # held, so that both Besov norms share one buffer
    h1 = math.sqrt(
        besov.sobolev_norm(state.u, 1.0) ** 2 + besov.sobolev_norm(state.tau, 1.0) ** 2
    )
    b0 = besov.besov_norm(state.omega, 0.0) + besov.tensor_besov_norm(state.tau, 0.0)
    return h1 + b0


def make_initial_data(spec: InitialSpec, tau_spec: TauInitialSpec, grid: Grid,
                      params: ModelParams | None = None) -> SimState:
    """Build the initial SimState (band-limited, zero-mean omega, symmetric tau)."""
    if spec.kind == "from_snapshot":
        from .snapshots import load_snapshot

        state, _ = load_snapshot(spec.snapshot)
        if state.grid.n != grid.n:
            raise ConfigError(
                f"snapshot resolution n={state.grid.n} does not match configured n={grid.n}"
            )
        if state.stokes_toy != (params is not None and params.variant == "stokes_toy"):
            new = make_state(state.t, state.omega, state.tau, params)  # a toy's omega made anew
            omega = new.omega.physical if new.stokes_toy else state.values[0]
            state = replace(new, values=np.stack([omega, *state.values[1:]]))
        return state  # a loaded Stokes-toy vorticity kept, with its stored grid values

    if spec.kind == "zero":
        omega = ScalarField.zeros(grid)
    elif spec.kind == "taylor_green":
        omega = taylor_green_vorticity(grid, spec.amplitude)
    elif spec.kind == "single_mode":
        omega = single_mode_scalar(grid, spec.band_lo, spec.amplitude)
    else:  # random_band_limited
        omega = spec.amplitude * random_scalar(
            grid, (spec.band_lo, spec.band_hi), [spec.seed, 0]
        )

    if tau_spec.kind == "zero":
        tau = SymTensorField.zeros(grid)
    elif tau_spec.kind == "single_mode":
        z = ScalarField.zeros(grid)
        tau = SymTensorField(
            z, single_mode_scalar(grid, tau_spec.band_lo, tau_spec.amplitude), z
        )
    else:
        seed = tau_spec.seed if tau_spec.seed is not None else spec.seed
        tau = _random_tensor(grid, (tau_spec.band_lo, tau_spec.band_hi), seed,
                            tau_spec.amplitude)

    y = np.empty((4,) + grid.shape, dtype=np.complex128)  # the dealiased packed stack
    for row, f in zip(y, (omega, *tau.components)):
        np.multiply(f.coeffs, grid.dealias_mask, out=row)
    if spec.delta == 0.0:
        y = np.zeros_like(y)
    elif spec.delta is not None:
        size = smallness_norm(SimState.from_stack(0.0, y, grid, params))
        if size <= 0.0:
            raise ConfigError("cannot rescale a zero state to a positive delta")
        y = (spec.delta / size) * y
    return SimState.from_stack(0.0, y, grid, params)
