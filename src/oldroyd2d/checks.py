"""Invariant battery behind the `check` subcommand.

Each check exercises a discrete identity or a convergence property and
returns a pass/fail result with the measured numbers. The acceptance test
suite calls the same functions at full ensemble sizes; `--quick` shrinks
the ensembles for CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics as diag
from . import operators as ops
from .fields import ScalarField, SymTensorField, VectorField, inner
from .grid import Grid
from .initial_data import random_scalar, random_state
from .model import ModelParams, SimState, commutator_r_advect, make_state, time_derivative
from .stepping import StepConfig, integrate, step

CANCELLATION_TOL = 1e-12
GAMMA_TOL = 1e-10
ENERGY_TOL = 1e-9
CROSS_TERM_TOL = 1e-10
COMMUTATOR_DRIFT = 0.20
SPATIAL_GAIN = 1e3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _ensemble_sizes(quick: bool, full: int) -> int:
    return max(8, full // 10) if quick else full


def check_cancellation(quick: bool = False) -> CheckResult:
    """R(Du) = omega/2 for divergence-free u, per-mode exact."""
    n_samples = _ensemble_sizes(quick, 100)
    grid = Grid(64)
    worst = 0.0
    for seed in range(n_samples):
        omega = random_scalar(grid, (1, 12), [900, seed])
        u = ops.biot_savart(omega)
        r_du = ops.riesz_r(ops.sym_grad(u))
        err = (r_du - 0.5 * omega).l2() / omega.l2()
        worst = max(worst, err)
    return CheckResult(
        "cancellation R(Du) = omega/2",
        worst <= CANCELLATION_TOL,
        f"max relative error {worst:.3e} over {n_samples} fields (tol {CANCELLATION_TOL:.0e})",
    )


def _random_states(n_samples: int, base_seed: int, grid=None):
    grid = grid or Grid(32)
    for seed in range(n_samples):
        yield random_state(grid, (1, 8), [base_seed, seed])


def check_energy_identity(quick: bool = False) -> CheckResult:
    """Semi-discrete weighted energy law, Q off, nu = 0."""
    n_samples = _ensemble_sizes(quick, 100)
    params = ModelParams(nu=0.0, mu=0.7, K=1.3, alpha=0.9, beta=0.4,
                         q_enabled=False, variant="q_zero")
    worst = max(
        diag.energy_identity_residual(diag.Observation(s, params))
        for s in _random_states(n_samples, 901)
    )
    return CheckResult(
        "weighted energy identity",
        worst <= ENERGY_TOL,
        f"max relative residual {worst:.3e} over {n_samples} states (tol {ENERGY_TOL:.0e})",
    )


def check_gamma_residual(quick: bool = False) -> CheckResult:
    """Gamma-equation residual with Q on and off."""
    n_samples = _ensemble_sizes(quick, 100)
    p_off = ModelParams(nu=0.0, mu=0.8, K=1.1, alpha=1.2, beta=0.3,
                        q_enabled=False, variant="q_zero")
    p_on = ModelParams(nu=0.0, mu=0.8, K=1.1, alpha=1.2, beta=0.3,
                       b=0.6, q_enabled=True, variant="full")
    worst = 0.0
    for s in _random_states(n_samples, 902):
        worst = max(worst, diag.gamma_residual(diag.Observation(s, p_off)),
                    diag.gamma_residual(diag.Observation(s, p_on)))
    return CheckResult(
        "Gamma equation residual",
        worst <= GAMMA_TOL,
        f"max relative residual {worst:.3e} over {n_samples} states, Q on/off (tol {GAMMA_TOL:.0e})",
    )


def check_cross_term(quick: bool = False) -> CheckResult:
    """int(div tau . u) + int(Du : tau) = 0 for divergence-free u."""
    n_samples = _ensemble_sizes(quick, 100)
    grid = Grid(32)
    worst = 0.0
    for seed in range(n_samples):
        st = random_state(grid, (1, 8), [903, seed])
        u, tau = st.u, st.tau
        div1 = ops.deriv(tau.t11, 1) + ops.deriv(tau.t12, 2)
        div2 = ops.deriv(tau.t12, 1) + ops.deriv(tau.t22, 2)
        i1 = inner(div1, u.u1) + inner(div2, u.u2)
        i2 = inner(ops.sym_grad(u), tau)
        rel = abs(i1 + i2) / max(abs(i1), abs(i2), 1e-30)
        worst = max(worst, rel)
    return CheckResult(
        "cross-term cancellation",
        worst <= CROSS_TERM_TOL,
        f"max relative sum {worst:.3e} over {n_samples} pairs (tol {CROSS_TERM_TOL:.0e})",
    )


def _commutator_constant(grid: Grid, n_samples: int, eps: float) -> float:
    best = 0.0
    for seed in range(n_samples):
        st = random_state(grid, (1, 10), [904, seed])
        ratio = diag.commutator_ratio(st.u, st.tau, eps)
        if ratio is not None:
            best = max(best, ratio)
    return best


def check_commutator_ensemble(quick: bool = False) -> CheckResult:
    """Empirical commutator-estimate constant, finite and grid-stable."""
    n_samples = _ensemble_sizes(quick, 200)
    eps = 0.5
    c64 = _commutator_constant(Grid(64), n_samples, eps)
    c128 = _commutator_constant(Grid(128), n_samples, eps)
    drift = abs(c128 - c64) / max(c64, 1e-30)

    grid = Grid(64)
    c1 = np.zeros(grid.shape, dtype=np.complex128)
    c2 = c1.copy()
    c1[0, 0], c2[0, 0] = 0.7, -0.4  # spatially constant velocity
    const_u = VectorField(ScalarField(grid, c1), ScalarField(grid, c2))
    tau = random_state(grid, (1, 10), [905, 0]).tau
    trivial_u = commutator_r_advect(const_u, tau).l2()
    ones = ScalarField.from_physical(grid, np.ones((grid.n, grid.n)))
    const_tau = SymTensorField(ones, 0.5 * ones, -0.3 * ones)
    some_u = random_state(grid, (1, 10), [905, 1]).u
    trivial_tau = commutator_r_advect(some_u, const_tau).l2()

    passed = (
        math.isfinite(c64) and math.isfinite(c128)
        and drift <= COMMUTATOR_DRIFT
        and trivial_u <= 1e-12 and trivial_tau <= 1e-12
    )
    return CheckResult(
        "commutator estimate ledger",
        passed,
        f"C(n=64)={c64:.4f}, C(n=128)={c128:.4f}, drift {100*drift:.2f}% "
        f"(tol {100*COMMUTATOR_DRIFT:.0f}%), trivial cases {trivial_u:.1e}/{trivial_tau:.1e} "
        f"over {n_samples} pairs",
    )


def _refinement_params() -> tuple[ModelParams, SimState]:
    params = ModelParams(nu=0.0, mu=0.3, K=1.0, alpha=1.0, beta=0.2,
                         q_enabled=False, variant="q_zero")
    state = random_state(Grid(32), (1, 6), [906, 0], omega_amp=1.0, tau_amp=0.8)
    return params, state


def _fixed_dt_final(state, params, scheme, dt, t_end):
    config = StepConfig(scheme=scheme, cfl=1.0, dt_max=dt, dt_min=dt, t_end=t_end)
    return integrate(state, params, config)


def _state_diff(a, b) -> float:
    d_omega = (a.omega - b.omega).l2()
    d_tau = (a.tau - b.tau).l2()
    scale = max(b.omega.l2(), b.tau.l2(), 1e-30)
    return (d_omega + d_tau) / scale


def temporal_order(scheme: str) -> float:
    """Observed convergence order over a dt-halving sequence vs a dt/8 reference."""
    params, state = _refinement_params()
    t_end = 0.4
    dts = [0.05, 0.025, 0.0125]
    ref = _fixed_dt_final(state, params, scheme, dts[-1] / 8.0, t_end)
    errs = [
        _state_diff(_fixed_dt_final(state, params, scheme, dt, t_end), ref)
        for dt in dts
    ]
    slope, _ = np.polyfit(np.log(dts), np.log(errs), 1)
    return float(slope)


def check_temporal_order(quick: bool = False) -> CheckResult:
    p2 = temporal_order("ifrk2")
    p4 = temporal_order("ifrk4")
    passed = abs(p2 - 2.0) <= 0.3 and abs(p4 - 4.0) <= 0.5
    return CheckResult(
        "temporal convergence order",
        passed,
        f"IFRK2 order {p2:.3f} (want 2 +/- 0.3), IFRK4 order {p4:.3f} (want 4 +/- 0.5)",
    )


def check_stiff_exactness(quick: bool = False) -> CheckResult:
    """Pure diffusion-relaxation advances by the exact exponential factor."""
    grid = Grid(32)
    params = ModelParams(nu=0.0, mu=0.6, K=0.0, alpha=0.0, beta=0.7,
                         q_enabled=False, variant="q_zero")
    tau = random_state(grid, (1, 8), [907, 0]).tau
    state = make_state(0.0, ScalarField.zeros(grid), tau)
    dt = 0.37
    out = step(state, dt, params, StepConfig(scheme="ifrk4", dt_max=dt, t_end=dt))
    decay = np.exp(-(params.beta + params.mu * grid.ksq) * dt)
    worst = max(
        float(np.max(np.abs(got.coeffs - decay * want.coeffs)))
        for got, want in zip(out.tau.components, tau.components)
    )
    scale = max(f.max_abs_coeff() for f in tau.components)
    rel = worst / scale
    return CheckResult(
        "stiff part integrated exactly",
        rel <= 1e-12,
        f"max coefficient error {rel:.3e} relative (tol 1e-12)",
    )


# --- manufactured solution (spatial spectral accuracy) ---

MMS_SHARPNESS = 3.0


def manufactured_fields(grid: Grid) -> tuple[ScalarField, SymTensorField]:
    """Analytic, non-band-limited steady target fields."""
    s = MMS_SHARPNESS
    x, y = grid.x, grid.y
    omega = ScalarField.from_physical(grid, np.exp(s * np.cos(x)) * np.cos(y))
    tau = SymTensorField(
        ScalarField.from_physical(grid, 0.5 * np.exp(s * np.cos(y)) * np.cos(x)),
        ScalarField.from_physical(grid, 0.4 * np.exp(s * np.cos(x)) * np.sin(y)),
        ScalarField.from_physical(grid, -0.3 * np.exp(s * np.cos(y)) * np.sin(x)),
    )
    return omega, tau


def restrict_coeffs(src_grid: Grid, coeffs: np.ndarray, dst_grid: Grid) -> np.ndarray:
    """Keep the modes of a coarser grid from a finer grid's coefficient
    array: its column -n/2 is the conjugate of the finer column +n/2 at
    row -m1."""
    h, rows = dst_grid.n // 2, dst_grid.freq % src_grid.n
    out = coeffs[rows, : h + 1]
    out[:, h] = np.conj(coeffs[-rows % src_grid.n, h])
    return out


MMS_PARAMS = ModelParams(nu=0.01, mu=0.05, K=1.0, alpha=0.7, beta=0.3,
                         b=0.5, q_enabled=True, variant="full")


def manufactured_error(n: int, n_ref: int = 256, t_end: float = 0.2,
                       dt: float = 1e-3) -> float:
    """Relative error after a forced run whose steady state is analytic."""
    ref_grid = Grid(n_ref)
    omega_ref, tau_ref = manufactured_fields(ref_grid)
    ref_state = make_state(0.0, omega_ref, tau_ref)
    d_omega, d_tau = time_derivative(ref_state, MMS_PARAMS)
    f_omega_ref = -1.0 * d_omega
    f_tau_ref = -1.0 * d_tau

    grid = Grid(n)
    restrict = lambda f: ScalarField(grid, restrict_coeffs(ref_grid, f.coeffs, grid))
    forcing = np.stack([ops.dealias(restrict(f)).coeffs
                        for f in (f_omega_ref, *f_tau_ref.components)])
    omega0, tau0 = manufactured_fields(grid)
    target_omega = ops.dealias(omega0)
    target_tau = ops.dealias(tau0)
    state = make_state(0.0, target_omega, target_tau)

    config = StepConfig(scheme="ifrk4", cfl=1.0, dt_max=dt, dt_min=dt, t_end=t_end)
    final = integrate(state, MMS_PARAMS, config, forcing=forcing)
    err = (final.omega - target_omega).l2() + (final.tau - target_tau).l2()
    scale = target_omega.l2() + target_tau.l2()
    return err / scale


def check_spatial_spectral(quick: bool = False) -> CheckResult:
    e32 = manufactured_error(32)
    e64 = manufactured_error(64)
    gain = e32 / max(e64, 1e-16)
    return CheckResult(
        "spectral spatial accuracy",
        gain >= SPATIAL_GAIN,
        f"error n=32: {e32:.3e}, n=64: {e64:.3e}, gain {gain:.1e} (want >= {SPATIAL_GAIN:.0e})",
    )


ALL_CHECKS = [
    check_cancellation,
    check_energy_identity,
    check_gamma_residual,
    check_cross_term,
    check_commutator_ensemble,
    check_temporal_order,
    check_stiff_exactness,
    check_spatial_spectral,
]


def run_all(quick: bool = False) -> list[CheckResult]:
    return [fn(quick) for fn in ALL_CHECKS]
