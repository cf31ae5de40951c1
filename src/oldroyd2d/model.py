"""Oldroyd-type model: parameters, state, the right-hand side in vorticity form
(an explicit tendency plus a stiff symbol diagonal in Fourier), the bilinear
form Q, the transformed variable Gamma and its evolution equation, and the
Stokes toy variant.

The system integrated is

    d/dt omega + u . grad omega = K curl(div tau) + nu Laplace(omega)
    d/dt tau + u . grad tau + beta tau
        = mu Laplace(tau) + alpha Du + Q(grad u, tau)

with u = biot_savart(omega) (or diagnosed from tau in the Stokes toy
variant) and Q(grad u, tau) = Omega tau - tau Omega + b (Du tau + tau Du).

Key discrete identity (exact at the multiplier level): for divergence-free
u, R(Du) = omega / 2, where R = -(-Laplace)^{-1} curl div and
Du = (grad u + grad u^T)/2. Every Gamma-equation coefficient carries the
resulting 1/2: the transport damping rate is lambda = K alpha / (2 mu).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .fields import ScalarField, SymTensorField, VectorField
from .grid import Grid, inverse_rfft2
from . import operators as ops

VARIANTS = ("full", "q_zero", "stokes_toy")


@dataclass(frozen=True)
class ModelParams:
    """Physical coefficients and model variant.

    nu >= 0 velocity viscosity, mu stress diffusivity (> 0 except in the
    Stokes toy), K >= 0 stress coupling, alpha velocity forcing of the
    stress (any sign), beta >= 0 relaxation, b in [-1, 1] slip parameter.
    variant q_zero forces q_enabled off.
    """

    nu: float = 0.0
    mu: float = 1.0
    K: float = 1.0
    alpha: float = 1.0
    beta: float = 0.0
    b: float = 0.0
    q_enabled: bool = True
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.variant == "q_zero" and self.q_enabled:
            object.__setattr__(self, "q_enabled", False)
        if self.variant != "stokes_toy" and not self.mu > 0.0:
            raise ConfigError(f"mu must be > 0 for variant {self.variant}, got {self.mu}")
        if self.mu < 0.0:
            raise ConfigError(f"mu must be >= 0, got {self.mu}")
        if self.nu < 0.0:
            raise ConfigError(f"nu must be >= 0, got {self.nu}")
        if self.beta < 0.0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.K < 0.0:
            raise ConfigError(f"K must be >= 0, got {self.K}")
        if not (-1.0 <= self.b <= 1.0):
            raise ConfigError(f"b must lie in [-1, 1], got {self.b}")

    @property
    def energy_law(self) -> bool:
        """Energy identity and enstrophy ledger hold: Q off, not the Stokes toy."""
        return not self.q_enabled and self.variant != "stokes_toy"

    @property
    def gamma_law(self) -> bool:
        """The Gamma equation holds: nu = 0, not the Stokes toy."""
        return self.nu == 0.0 and self.variant != "stokes_toy"

    @property
    def gamma_damping_rate(self) -> float:
        """lambda = K alpha / (2 mu), the hidden damping rate of Gamma."""
        return self.K * self.alpha / (2.0 * self.mu)


@dataclass(frozen=True)
class SimState:
    """Prognostic pair (omega, tau) at time t as the read-only packed
    (4, n, n//2+1) stack y of (omega, tau11, tau12, tau22), and the grid
    values of y's rows that a loaded snapshot stored (values[i] is the
    `physical` of row i's field). Fields and velocity are made on first use.

    A Stokes-toy state takes its velocity from tau (stokes_toy_velocity):
    Biot-Savart of its vorticity -R(tau) would lose the Nyquist-row term that
    the stepper's velocity keeps."""

    t: float
    y: np.ndarray
    grid: Grid
    stokes_toy: bool = False
    values: np.ndarray | None = None

    def __post_init__(self):
        self.y.setflags(write=False)
        scale = max(float(np.max(np.abs(self.y[0]))), 1.0)
        if abs(self.y[0, 0, 0]) > 1e-12 * scale:
            raise ValueError("vorticity must have zero mean")

    @classmethod
    def from_stack(cls, t: float, y: np.ndarray, grid: Grid,
                   params: ModelParams | None = None) -> "SimState":
        """The state of the stack y under the params; for the Stokes toy, row
        0 is first set to the vorticity of the tau rows (stokes_toy_vorticity)."""
        stokes_toy = params is not None and params.variant == "stokes_toy"
        if stokes_toy:
            stokes_toy_vorticity(grid, y)
        return cls(t=t, y=y, grid=grid, stokes_toy=stokes_toy)

    def _row(self, i: int) -> ScalarField:
        f = ScalarField(self.grid, self.y[i])
        if self.values is not None:  # the stored grid values, as they are
            f.__dict__["physical"] = self.values[i]
        return f

    omega = cached_property(lambda self: self._row(0))
    tau = cached_property(lambda self: SymTensorField(*map(self._row, (1, 2, 3))))

    @cached_property
    def u(self) -> VectorField:
        return stokes_toy_velocity(self.tau) if self.stokes_toy else ops.biot_savart(self.omega)

    @cached_property
    def grad_u(self) -> ops.VelocityGradient:
        return ops.velocity_gradient(self.u)


def make_state(t: float, omega: ScalarField, tau: SymTensorField,
               params: ModelParams | None = None) -> SimState:
    """The state of the fields' arrays, stacked (SimState.from_stack)."""
    y = np.stack([omega.coeffs] + [c.coeffs for c in tau.components])
    return SimState.from_stack(t, y, omega.grid, params)


def unstack(grid: Grid, y: np.ndarray) -> tuple[ScalarField, SymTensorField]:
    """(omega, tau) holding the rows of a packed stack as they are: views of
    y, which is made read-only."""
    y.setflags(write=False)
    return ScalarField(grid, y[0]), SymTensorField(*(ScalarField(grid, c) for c in y[1:]))


def stokes_toy_vorticity(grid: Grid, y: np.ndarray) -> np.ndarray:
    """Row 0 of the packed stack y set to -R(tau rows): the Stokes toy's
    vorticity of its tau, and so its d/dt omega of d/dt tau."""
    r = ops.riesz_r(SymTensorField(*(ScalarField(grid, c) for c in y[1:])))
    return np.negative(r.coeffs, out=y[0])


def linear_symbol(grid: Grid, params: ModelParams, out: np.ndarray | None = None) -> np.ndarray:
    """Stiff part of d/dt of the packed stack, diagonal in Fourier, as its two
    distinct rows (apply_symbol), written to out when given: -nu |k|^2 for
    omega and -(beta + mu |k|^2) for every tau component. The vorticity row
    is 0 for the Stokes toy, whose omega is diagnosed from tau."""
    ksq = grid.ksq
    sym = np.empty((2,) + ksq.shape) if out is None else out
    np.multiply(0.0 if params.variant == "stokes_toy" else -params.nu, ksq, out=sym[0])
    tau = np.multiply(params.mu, ksq, out=sym[1])
    tau += params.beta
    np.negative(tau, out=tau)
    return sym


def apply_symbol(f: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """f * y per mode for two rows f in the layout of linear_symbol (or of
    its integrating factors) and a packed stack y: f[0] times omega, f[1]
    times each tau component. Written to out (which may be y) when given."""
    out = np.empty_like(y) if out is None else out
    np.multiply(f[0], y[0], out=out[0])
    np.multiply(f[1], y[1:], out=out[1:])
    return out


def q_products(g11, g12, g21, g22, t11, t12, t22, b: float, out=None, scratch=None):
    """Physical (q11, q12, q22) of Q(grad u, tau) = Omega tau - tau Omega
    + b (Du tau + tau Du), from the physical values of g_ij = d_i u_j and tau.

    Omega is the skew part of grad u; Omega_12 = omega/2. Written to the
    triple out when given, with three scratch arrays when given; the second
    and third may be g12 and g21 themselves, which are read before they are
    written. Each value is the expression in the comment beside it,
    evaluated in that order.
    """
    q11, q12, q22 = (None,) * 3 if out is None else out
    s1, s2, s3 = (None,) * 3 if scratch is None else scratch
    a = np.subtract(g12, g21, out=s1)
    a *= 0.5                                  # a = 0.5 * (g12 - g21) = omega/2
    if b != 0.0:
        d12 = np.add(g12, g21, out=s3)
        d12 *= 0.5                            # d12 = 0.5 * (g12 + g21)
    q11 = np.multiply(2.0, a, out=q11)
    q11 *= t12                                # q11 = 2.0 * a * t12
    q12 = np.subtract(t22, t11, out=q12)
    q12 *= a                                  # q12 = a * (t22 - t11)
    q22 = np.negative(q11, out=q22)           # q22 = -q11

    if b != 0.0:
        d12t12 = np.multiply(d12, t12, out=s2)
        t = np.multiply(g11, t11, out=a)
        t += d12t12
        t *= b * 2.0
        q11 += t                              # q11 += b * 2.0 * (g11 * t11 + d12t12)
        t = np.add(t11, t22, out=t)
        t *= d12
        g = np.add(g11, g22, out=d12)
        g *= t12
        t += g
        t *= b
        q12 += t                              # q12 += b * (d12 * (t11 + t22) + t12 * (g11 + g22))
        t = np.multiply(g22, t22, out=t)
        t += d12t12
        t *= b * 2.0
        q22 += t                              # q22 += b * 2.0 * (g22 * t22 + d12t12)
    return q11, q12, q22


def q_form(grad_u: ops.VelocityGradient, tau: SymTensorField, b: float) -> SymTensorField:
    """Q(grad u, tau) (q_products), dealiased."""
    g = grad_u.grid
    q = q_products(*(c.physical for c in grad_u.components),
                   *(c.physical for c in tau.components), b)
    return SymTensorField(*(ops.multiply_physical(g, v) for v in q))


def stokes_toy_velocity_modes(factors: ops.Factors, t11: np.ndarray, t12: np.ndarray,
                              t22: np.ndarray, out, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per mode, the Biot-Savart velocity (i k2, -i k1) psi of the vorticity
    -R(tau), psi = -N / |k|^4 (N = ops.r_numerator), in the pair out, with
    t22 - t11 in scratch. The k1 k1 k2 term of -i k1 psi is written with
    |k|^2 - k2^2, so it stays even in k1 on the Nyquist row (Grid)."""
    diff, k1k2 = factors.r
    minus_i_k2, inv4, k1diff, k2rest = factors.stokes_toy
    u1, u2 = out
    d = np.subtract(t22, t11, out=scratch)
    np.multiply(diff, t12, out=u1)
    np.multiply(k1k2, d, out=u2)
    u1 += u2
    np.multiply(minus_i_k2, u1, out=u1)
    u1 *= inv4                   # u1 = -1j k2 (diff t12 + k1 k2 d) inv4
    np.multiply(k1diff, t12, out=u2)
    d *= k2rest
    u2 += d
    np.multiply(1j, u2, out=u2)
    u2 *= inv4                   # u2 = 1j (k1 diff t12 + (|k|^2 - k2^2) k2 d) inv4
    return u1, u2


def stokes_toy_velocity(tau: SymTensorField) -> VectorField:
    """Velocity of the Stokes problem -Laplace(u) + grad p = div(tau)."""
    g = tau.grid
    factors, t = ops.in_band(*tau.components)
    u = np.zeros((2,) + g.shape, dtype=np.complex128)
    stokes_toy_velocity_modes(factors, *t, u[..., :factors.width], np.empty_like(t[0]))
    return VectorField(ScalarField(g, u[0]), ScalarField(g, u[1]))


class Workspace:
    """The buffers of rhs on one grid, reused by every call that is given
    the workspace, and the per-mode factors it applies, made on first use
    at each band.

    A call with it allocates nothing once one has loaded as wide a band
    (load). It copies the columns of its input within the band (Grid.band),
    n//3+1 of n//2+1 for a dealiased stack, to contiguous (n, width) arrays,
    and its per-mode products, inverse column passes (grid.inverse_rfft2)
    and output rows keep that layout: numpy buffers a strided column window
    through fresh arrays in every ufunc call. Its forward column passes
    cover the n//3+1 columns the dealias mask keeps. The column passes write
    `work`, which the row passes read whole: load zeroes its columns past a
    band narrower than the one before, so an earlier wide call leaves
    nothing there.
    """

    def __init__(self, grid: Grid):
        n, shape = grid.n, grid.shape
        self.grid = grid
        self.width = 0                       # columns of work that may be nonzero
        # One allocation per kind of buffer: with one per buffer, an 8-second
        # stepping_full_n256 benchmark run took 208 000 minor page faults
        # instead of 164 000 (BENCH_15.json "earlier_runs").
        self.work, self.rows = np.empty((2,) + shape, dtype=np.complex128)  # rows: forward's
        self.work[...] = 0.0
        # The band layout: y, u_hat, a per-mode product and an output row, as
        # wide as the widest band loaded: n//3+1 columns for dealiased inputs.
        self._band = np.empty((8, 0), dtype=np.complex128)
        self._factors: dict[int, ops.Factors] = {}
        values = np.empty((13, n, n))  # grid values
        self.u, self.q, self.q_inputs = values[:2], values[2:5], values[5:12]
        # Q's inputs are grad u, then tau. Q's scratch is one more array and
        # the inputs g12 and g21 (q_products); once Q is made, the first
        # two inputs hold a row's transport term and ops.transport's scratch.
        # These shared slots and `spare` below are correct only in rhs's
        # call order; a slot of its own for each raised an 8-second
        # stepping_full_n256 run's peak_rss_mb from 87.0 to 89.5 MB
        # (BENCH_15.json "earlier_runs").
        self.q_scratch = (values[12], values[6], values[7])
        self.tendency, self.scratch = values[5], values[6]

    def load(self, y) -> np.ndarray:
        """Take the band of the packed rows y (Grid.band) as the band of the
        calls that follow, and return their columns within it, copied to
        the band layout."""
        n, width = self.grid.n, self.grid.band(*y) + 1
        if width < self.width:
            self.work[:, width:self.width] = 0.0
        self.width = width
        self.factors = self._factors.setdefault(width, ops.Factors(self.grid, width))
        if self._band.shape[1] < n * width:
            self._band = np.empty((8, n * width), dtype=np.complex128)
        band = [a[:n * width].reshape(n, width) for a in self._band]
        self.y, self.u_hat, (self.product, self.row) = band[:4], band[4:6], band[6:]
        # The row pass's buffer, free outside forward, as one more.
        self.spare = self.rows.reshape(-1)[:n * width].reshape(n, width)
        for a, row in zip(self.y, y):
            a[...] = row[:, :width]
        return self.y

    def store(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the band-layout array a to the half spectrum out, zero past
        the band."""
        out[:, :self.width] = a
        out[:, self.width:] = 0.0
        return out

    def inverse(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The grid values of the band-layout array a, in out."""
        return inverse_rfft2(a, self.width, self.work, out)

    def derivative(self, f: np.ndarray, i: int, out: np.ndarray | None) -> np.ndarray:
        """The grid values of the derivative of the band-layout array f
        along axis i (ops.transport), in out, or in the scratch buffer when
        out is None."""
        np.multiply(self.factors.ik[i], f, out=self.product)
        return self.inverse(self.product, self.scratch if out is None else out)

    def grad_u(self, i: int, j: int, out: np.ndarray) -> np.ndarray:
        """The modes of g_ij = d_i u_j in out (band layout), from the
        velocity modes that velocity left in u_hat."""
        return np.multiply(self.factors.ik[i], self.u_hat[j], out=out)

    def velocity(self, stokes_toy: bool) -> tuple[np.ndarray, np.ndarray]:
        """The grid values (u1, u2) of the velocity of the loaded rows: the
        Biot-Savart velocity of the vorticity row or, for the Stokes toy,
        the Stokes velocity of the tau rows. Its modes are left in u_hat."""
        if stokes_toy:
            stokes_toy_velocity_modes(self.factors, *self.y[1:], self.u_hat, self.product)
        else:
            ops.velocity_modes(self.factors, self.y[0], self.u_hat)
        return tuple(map(self.inverse, self.u_hat, self.u))

    def forward(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """rfft2(values, norm="forward") times the dealias mask, in bytes,
        into the band-layout array out: rfft along axis 1, then fft along
        axis 0 of the columns the mask keeps, the two 1-D passes rfft2
        makes; the other columns are 0."""
        keep = self.grid.dealias_cutoff + 1  # the columns the dealias mask keeps
        rows = np.fft.rfft(values, axis=1, norm="forward", out=self.rows)
        out[:, keep:] = 0.0
        np.fft.fft(rows[:, :keep], axis=0, norm="forward", out=out[:, :keep])
        return np.multiply(out, self.factors.mask, out=out)


def rhs(y: np.ndarray, grid: Grid, params: ModelParams,
        forcing: np.ndarray | None = None, out: np.ndarray | None = None,
        work: Workspace | None = None) -> np.ndarray:
    """Explicit tendency of a packed stack (omega, tau11, tau12, tau22), as a
    packed stack, written to out (which must not overlap y) when given.

    This is d/dt of the state without the stiff part linear_symbol * y,
    which the integrating factor carries; time_derivative gives the full
    d/dt. Every quadratic product is dealiased; advection and Q are summed
    in physical space, so each row takes one forward transform. For the
    Stokes toy the vorticity row is 0 and the velocity comes from the tau
    rows. A packed forcing stack is added as it is. Every array transformed
    back is a per-mode multiple of rows of y, so one check of y sets the
    band of every inverse transform (Grid.band). The buffers are those of
    the Workspace work, made here when not given; the output is the same in
    bytes either way.
    """
    work = Workspace(grid) if work is None else work
    out = np.empty_like(y) if out is None else out
    yb = work.load(y)
    row = work.row

    stokes = params.variant == "stokes_toy"
    transport = ops.transport(work.derivative, work.velocity(stokes))
    if stokes:
        out[0] = 0.0
    else:
        work.forward(transport(yb[0], work.tendency), row)
        if params.K != 0.0:  # K curl(div(tau))
            r = ops.r_numerator(work.factors, *yb[1:], work.product, work.spare)
            r *= params.K
            row -= r
        row[0, 0] = 0.0
        work.store(row, out[0])

    if params.q_enabled:
        g_values = [work.inverse(work.grad_u(i, j, work.product), v)
                    for (i, j), v in zip(((0, 0), (0, 1), (1, 0), (1, 1)), work.q_inputs)]
        t_values = [work.inverse(t, v) for t, v in zip(yb[1:], work.q_inputs[4:])]
        q = q_products(*g_values, *t_values, params.b, out=work.q, scratch=work.q_scratch)
    for c, t in enumerate(yb[1:]):
        values = transport(t, work.tendency)
        if params.q_enabled:
            values += q[c]
        work.forward(values, row)
        if params.alpha != 0.0:  # alpha Du: g11, 0.5 * (g12 + g21), g22
            if c == 1:
                du = np.add(work.grad_u(0, 1, work.product), work.grad_u(1, 0, work.spare),
                            out=work.product)
                du *= 0.5
            else:
                du = work.grad_u(c // 2, c // 2, work.product)
            row += np.multiply(params.alpha, du, out=du)
        work.store(row, out[1 + c])

    if forcing is not None:
        out += forcing
    return out


def time_derivative(state: SimState,
                    params: ModelParams) -> tuple[ScalarField, SymTensorField]:
    """d/dt (omega, tau) at the state, from its stack read in place: rhs
    plus the linear_symbol term, the one place where the explicit/stiff
    split is undone. For the Stokes toy, d/dt omega = -R(d/dt tau)."""
    grid, y = state.grid, state.y
    d = rhs(y, grid, params)
    d += apply_symbol(linear_symbol(grid, params), y)
    if params.variant == "stokes_toy":
        stokes_toy_vorticity(grid, d)
    return unstack(grid, d)


def gamma_of(state: SimState, params: ModelParams) -> ScalarField:
    """Gamma = mu * omega - K * R(tau)."""
    return params.mu * state.omega - params.K * ops.riesz_r(state.tau)


def commutator_r_advect(u: VectorField, tau: SymTensorField) -> ScalarField:
    """[R, u.grad] tau = R(u.grad tau) - u.grad(R tau), consistently dealiased."""
    term1 = ops.riesz_r(ops.advect_tensor(u, tau))
    term2 = ops.advect(u, ops.riesz_r(tau))
    return term1 - term2


def gamma_interior(state: SimState, params: ModelParams,
                   commutator: ScalarField | None = None) -> ScalarField:
    """Gamma-equation source terms other than transport and damping."""
    commutator = commutator if commutator is not None else commutator_r_advect(state.u, state.tau)
    interior = (
        params.K * params.beta * ops.riesz_r(state.tau)
        - (params.K * params.alpha / 2.0) * state.omega
        + params.K * commutator
    )
    if params.q_enabled:
        q = q_form(state.grad_u, state.tau, params.b)
        interior = interior - params.K * ops.riesz_r(q)
    return interior

