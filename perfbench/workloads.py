"""The benchmark's workloads: the config each operation runs, made from a seed.

Each workload runs one config in the program's own text format, made by
`Workload.config_text(seed, out_dir)` (a sweep overrides `initial.delta`).
The seed picks the random initial data; sizes, coefficients and step
lengths are fixed, so every seed asks for the same amount of work:

* the two workloads that sit at `dt_max` step by exact binary fractions, so
  the step and record counts do not depend on the data;
* `stepping_full_n256` scales its data so that max|u| at t = 0 is
  `INITIAL_UMAX` on every seed, and ends half a step before the N-th CFL
  step, so CFL keeps choosing the step size and the count stays N. The run
  checks the count on every round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oldroyd2d.besov import decomposition_for
from oldroyd2d.config import parse_config, with_override
from oldroyd2d.initial_data import make_initial_data

INITIAL_UMAX = 1.0
TAU_SHARE = 0.05
SWEEP_DELTAS = (0.02, 0.05, 0.1)


def config_text(sections: dict) -> str:
    """Render {section: {key: value}} in the program's config format."""
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        for key, value in entries.items():
            if isinstance(value, float):
                value = repr(value)
            elif isinstance(value, (tuple, list)):
                value = ",".join(repr(float(v)) for v in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _random_initial(omega_seed: int, tau_seed: int, amplitude: float, band_hi: int,
                    delta: float | None = None, tau_amplitude: float | None = None) -> dict:
    initial = {"kind": "random_band_limited", "amplitude": amplitude,
               "band_lo": 1, "band_hi": band_hi, "seed": omega_seed}
    if delta is not None:
        initial["delta"] = delta
    tau = {"kind": "random_band_limited",
           "amplitude": amplitude if tau_amplitude is None else tau_amplitude,
           "band_lo": 1, "band_hi": band_hi, "seed": tau_seed}
    return {"initial": initial, "initial_tau": tau}


@dataclass(frozen=True)
class Workload:
    """One workload: its grid, how its configs are made, and what to expect.

    An operation is one `runner.run`; a round is one `runner.run` (kind
    "run") or one `runner.sweep` over `SWEEP_DELTAS` (kind "sweep").
    """

    name: str
    kind: str            # "run" or "sweep"
    n: int
    steps: int           # steps per operation
    records: int         # diagnostics records per operation
    snapshots: int       # snapshot files per operation
    setup_batch: int     # set-ups timed together as one set-up sample
    setup_samples: int   # set-up samples taken after each untraced round

    @property
    def ops_per_round(self) -> int:
        return len(SWEEP_DELTAS) if self.kind == "sweep" else 1

    def config_text(self, seed: int, out_dir: str) -> str:
        """The config of the workload's operations, made from the seed."""
        return config_text(_SECTIONS[self.name](self, seed, out_dir))

    def setup(self, text: str) -> list:
        """The set-up a user's run pays before its first step, from a cold start.

        Parses the config, fills the grid and dyadic caches and builds the
        initial data of every operation of the round (with its smallness
        rescale where `delta` is set). Returns the initial states.
        """
        decomposition_for.cache_clear()
        cfg = parse_config(text)
        fill_caches(cfg.grid)
        configs = [cfg]
        if self.kind == "sweep":
            configs = [with_override(cfg, "initial.delta", d) for d in SWEEP_DELTAS]
        return [make_initial_data(c.initial, c.tau_initial, c.grid, c.params)
                for c in configs]


def fill_caches(grid) -> None:
    """Compute the grid's wavevector caches and its dyadic decomposition."""
    for cache in ("ksq", "inv_ksq", "kmag", "deriv_k1", "deriv_k2", "dealias_mask"):
        getattr(grid, cache)
    decomposition_for(grid)


def _stepping_full(w: Workload, seed: int, out_dir: str) -> dict:
    sections = {
        "grid": {"n": w.n},
        "model": {"nu": 0.0, "mu": 1.0, "k": 1.0, "alpha": 1.0, "beta": 0.5,
                  "b": 0.5, "q_enabled": True, "variant": "full"},
        "stepping": {"scheme": "ifrk4", "cfl": 0.05, "dt_min": 1e-8, "dt_max": 1.0,
                     "t_end": 1.0},
        **_random_initial(3001 + 2 * seed, 3002 + 2 * seed, 1.0, 4),
        "output": {"dir": out_dir, "observe_every": 1.0},
    }
    # Scale the data so that max|u| = INITIAL_UMAX at t = 0 (u is linear in
    # the vorticity amplitude), then stop half a step before the N-th step.
    # The stress is kept at TAU_SHARE of that amplitude and the CFL number
    # is small, so the CFL step drifts by about 1% over the run and the
    # step count stays N (checked on seeds 0-39).
    probe = parse_config(config_text(sections))
    state = make_initial_data(probe.initial, probe.tau_initial, probe.grid, probe.params)
    umax = float(np.max(np.hypot(state.u.u1.physical, state.u.u2.physical)))
    amplitude = INITIAL_UMAX / umax
    sections.update(_random_initial(3001 + 2 * seed, 3002 + 2 * seed, amplitude, 4,
                                    tau_amplitude=TAU_SHARE * amplitude))
    dt0 = probe.step.cfl * probe.grid.h / INITIAL_UMAX
    t_end = (w.steps - 0.5) * dt0
    sections["stepping"]["t_end"] = t_end
    sections["output"] = {"dir": out_dir, "observe_every": 10.0 * t_end,
                          "snapshot_times": (t_end,)}
    return sections


def _observing_qzero(w: Workload, seed: int, out_dir: str) -> dict:
    # Stock (a) physics and data make-up; dt = dt_max = 1/64 on every step.
    dt = 1.0 / 64.0
    t_end = w.steps * dt
    return {
        "grid": {"n": w.n},
        "model": {"nu": 0.0, "mu": 1.0, "k": 1.0, "alpha": 1.0, "beta": 0.0,
                  "variant": "q_zero"},
        "stepping": {"scheme": "ifrk4", "cfl": 0.4, "dt_min": 1e-8, "dt_max": dt,
                     "t_end": t_end},
        **_random_initial(1001 + 2 * seed, 1002 + 2 * seed, 1.0, min(8, w.n // 3)),
        "output": {"dir": out_dir, "observe_every": dt,
                   "snapshot_times": tuple(t_end * (i + 1) / w.snapshots
                                           for i in range(w.snapshots))},
    }


def _sweep_decay(w: Workload, seed: int, out_dir: str) -> dict:
    # Stock (b) physics and data make-up, IFRK2 at dt = dt_max = 1/16.
    dt = 1.0 / 16.0
    t_end = w.steps * dt
    return {
        "grid": {"n": w.n},
        "model": {"nu": 0.0, "mu": 2.0, "k": 1.0, "alpha": 1.0, "beta": 0.1,
                  "b": 0.2, "q_enabled": True, "variant": "full"},
        "stepping": {"scheme": "ifrk2", "cfl": 0.4, "dt_min": 1e-8, "dt_max": dt,
                     "t_end": t_end},
        **_random_initial(7 + 2 * seed, 8 + 2 * seed, 1.0, min(6, w.n // 3),
                          delta=SWEEP_DELTAS[0]),
        "output": {"dir": out_dir, "observe_every": t_end / (w.records - 1),
                   "snapshot_times": (t_end,)},
    }


_SECTIONS = {
    "stepping_full_n256": _stepping_full,
    "observing_qzero_n128": _observing_qzero,
    "sweep_decay_n64": _sweep_decay,
}

WORKLOADS = {
    w.name: w for w in (
        Workload("stepping_full_n256", "run", n=256, steps=40, records=2, snapshots=1,
                 setup_batch=8, setup_samples=6),
        Workload("observing_qzero_n128", "run", n=128, steps=8, records=9, snapshots=4,
                 setup_batch=20, setup_samples=2),
        Workload("sweep_decay_n64", "sweep", n=64, steps=80, records=11, snapshots=1,
                 setup_batch=4, setup_samples=2),
    )
}

# Tiny versions of every workload for the self-test: same physics and checks.
TINY = {
    w.name: w for w in (
        Workload("stepping_full_n256", "run", n=32, steps=3, records=2, snapshots=1,
                 setup_batch=1, setup_samples=1),
        Workload("observing_qzero_n128", "run", n=32, steps=4, records=5, snapshots=2,
                 setup_batch=1, setup_samples=1),
        Workload("sweep_decay_n64", "sweep", n=32, steps=80, records=11, snapshots=1,
                 setup_batch=1, setup_samples=1),
    )
}
