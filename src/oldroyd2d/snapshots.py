"""Binary snapshot persistence.

Layout (little-endian): magic "OLDB2D01", u32 version, u32 n, f64 L, f64 t,
seven f64 parameters (nu, mu, K, alpha, beta, b, q_code), then four
row-major f64 physical-space arrays omega, tau11, tau12, tau22 of length
n^2 each. q_code encodes the variant and Q (Q_CODES).

Physical space is stored for portability; the coefficients are rebuilt on
load as the state's stack, and the loaded physical arrays are kept verbatim
(SimState.values) so that save(load(path)) reproduces the file byte for
byte. A file is outside input: a header that Grid or ModelParams rejects,
a non-finite value or a vorticity with nonzero mean raises SnapshotError
naming the file.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import SnapshotError
from .grid import Grid
from .model import ModelParams, SimState

MAGIC = b"OLDB2D01"
VERSION = 1
_HEADER = struct.Struct("<II9d")  # version, n, L, t, nu, mu, K, alpha, beta, b, q_code


# q_code -> (variant, q_enabled), for every pair ModelParams can hold
Q_CODES = {
    0.0: ("q_zero", False),
    1.0: ("full", True),
    2.0: ("stokes_toy", False),
    3.0: ("full", False),
    4.0: ("stokes_toy", True),
}
_CODE_OF = {pair: code for code, pair in Q_CODES.items()}


def save_snapshot(state: SimState, params: ModelParams, path) -> None:
    grid = state.grid
    header = MAGIC + _HEADER.pack(
        VERSION, grid.n, grid.length, state.t,
        params.nu, params.mu, params.K, params.alpha, params.beta, params.b,
        _CODE_OF[params.variant, params.q_enabled],
    )
    arrays = [state.omega.physical] + [c.physical for c in state.tau.components]
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_snapshot(path) -> tuple[SimState, ModelParams]:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + _HEADER.size:
        raise SnapshotError(f"snapshot {path} is truncated")
    if data[: len(MAGIC)] != MAGIC:
        raise SnapshotError(f"bad magic in {path}")
    version, n, *header = _HEADER.unpack_from(data, len(MAGIC))
    length, t, nu, mu, K, alpha, beta, b, q_code = header
    if version != VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    expected = len(MAGIC) + _HEADER.size + 4 * n * n * 8
    if len(data) != expected:
        raise SnapshotError(
            f"snapshot {path} has {len(data)} bytes, expected {expected}"
        )
    arrays = np.frombuffer(data, dtype="<f8", offset=len(MAGIC) + _HEADER.size)
    if not (all(map(math.isfinite, header)) and np.isfinite(arrays).all()):
        raise SnapshotError(f"snapshot {path} holds a non-finite value")
    if q_code not in Q_CODES:
        raise SnapshotError(f"unknown q_code {q_code!r} in {path}")
    variant, q_enabled = Q_CODES[q_code]
    try:  # the grid, the parameters and the state check what the header holds
        grid = Grid(n=n, length=length)
        params = ModelParams(nu=nu, mu=mu, K=K, alpha=alpha, beta=beta, b=b,
                             q_enabled=q_enabled, variant=variant)
        values, y = arrays.reshape(4, n, n), np.empty((4,) + grid.shape, dtype=np.complex128)
        for v, row in zip(values, y):
            np.fft.rfft2(v, norm="forward", out=row)
        state = SimState(t, y, grid, params.variant == "stokes_toy", values)
    except ValueError as exc:  # ConfigError included
        raise SnapshotError(f"snapshot {path}: {exc}") from None
    return state, params
