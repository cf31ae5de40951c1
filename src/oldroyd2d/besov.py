"""Discrete Littlewood-Paley decomposition and norm calculators.

Dyadic blocks use raised-cosine bumps in log2|k| with support
[2^(q-1), 2^(q+1)] (c1 = 1/2, c2 = 2). Block -1 collects |k| < 2 including
the mean mode; the top block q_max closes the partition upward so that the
blocks sum to the identity on every grid mode. q_max is set by the dealiased
corner wavenumber.

L-infinity norms are evaluated after zero-padding the spectrum to twice the
resolution per axis, which reduces the underestimate of maxima falling
between grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fields import ScalarField, SymTensorField, VectorField
from .grid import Grid


def pad_coeffs(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Embed coefficients into a 2n grid (trigonometric interpolation) by
    copying each quadrant into a corner; the Nyquist row and column stay at
    frequency -n/2."""
    h = grid.n // 2
    big = np.zeros((4 * h, 4 * h), dtype=np.complex128)
    big[:h, :h] = coeffs[:h, :h]
    big[:h, -h:] = coeffs[:h, h:]
    big[-h:, :h] = coeffs[h:, :h]
    big[-h:, -h:] = coeffs[h:, h:]
    return big


def refined_physical(f: ScalarField) -> np.ndarray:
    return np.fft.ifft2(pad_coeffs(f.grid, f.coeffs), norm="forward").real


def linf_norm(f: ScalarField) -> float:
    return float(np.max(np.abs(refined_physical(f))))


def lebesgue_norm(f: ScalarField, p) -> float:
    """L^p norm for p in {1, 2, 4, inf}.

    p = 2 is exact via Parseval; p in {1, 4} use grid quadrature; p = inf
    uses the padded maximum.
    """
    if p == 2:
        return f.l2()
    if p == math.inf:
        return linf_norm(f)
    h2 = f.grid.h**2
    if p == 1:
        return float(np.sum(np.abs(f.physical)) * h2)
    if p == 4:
        return float((np.sum(f.physical**4) * h2) ** 0.25)
    raise ValueError(f"unsupported Lebesgue exponent p={p}")


def sobolev_norm(f: ScalarField, s: float) -> float:
    """H^s norm via the multiplier (1 + |k|^(2s))^(1/2); zero mode weight 1."""
    g = f.grid
    w = np.ones_like(g.ksq)
    pos = g.ksq > 0
    w[pos] += g.ksq[pos] ** s
    return g.length * float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def _raised_cosine(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.cos(0.5 * np.pi * s[inside]) ** 2
    return out


@dataclass(frozen=True, eq=False)
class DyadicDecomposition:
    """Precomputed smooth dyadic multipliers for a grid.

    Blocks are indexed q = -1, 0, ..., q_max and form an exact partition of
    unity on every mode.
    """

    grid: Grid
    q_max: int
    multipliers: tuple = field(repr=False)

    q_min = -1

    @classmethod
    def build(cls, grid: Grid) -> "DyadicDecomposition":
        k_corner = (2.0 * math.pi / grid.length) * grid.dealias_cutoff * math.sqrt(2.0)
        q_max = int(math.floor(math.log2(k_corner)))
        kmag = grid.kmag
        log2k = np.full_like(kmag, -math.inf)
        np.log2(kmag, out=log2k, where=kmag > 0)

        grid_corner = float(np.max(kmag))
        q_top_raw = int(math.ceil(math.log2(grid_corner))) + 1
        raw = [_raised_cosine(log2k - q) for q in range(0, q_top_raw + 1)]

        low = 1.0 - sum(raw)
        low[kmag == 0] = 1.0
        blocks = [low]
        blocks.extend(raw[q] for q in range(0, q_max))
        top = np.ones_like(kmag) - sum(blocks)  # closes the partition upward
        blocks.append(top)
        for b in blocks:
            b.setflags(write=False)
        return cls(grid=grid, q_max=q_max, multipliers=tuple(blocks))

    @property
    def qs(self) -> range:
        return range(-1, self.q_max + 1)

    def multiplier(self, q: int) -> np.ndarray:
        if not (-1 <= q <= self.q_max):
            raise ValueError(f"block index q={q} outside [-1, {self.q_max}]")
        return self.multipliers[q + 1]

    def block(self, f: ScalarField, q: int) -> ScalarField:
        return ScalarField(self.grid, self.multiplier(q) * f.coeffs)


@lru_cache(maxsize=16)
def decomposition_for(grid: Grid) -> DyadicDecomposition:
    return DyadicDecomposition.build(grid)


def dyadic_block(f: ScalarField, q: int) -> ScalarField:
    return decomposition_for(f.grid).block(f, q)


def _check_besov_args(s: float, p, r) -> None:
    if p not in (1, 2, math.inf):
        raise ValueError(f"unsupported Besov integrability p={p}")
    if r not in (1, 2, math.inf):
        raise ValueError(f"unsupported Besov summability r={r}")
    if not (-1.0 <= s <= 2.0):
        raise ValueError(f"Besov regularity s={s} outside [-1, 2]")


def _aggregate(terms: list[float], r) -> float:
    if r == 1:
        return float(sum(terms))
    if r == 2:
        return float(math.sqrt(sum(t * t for t in terms)))
    return float(max(terms)) if terms else 0.0


def besov_norm(f: ScalarField, s: float, p, r) -> float:
    """B^s_{p,r} norm: l^r over q of 2^(qs) ||Delta_q f||_{L^p}."""
    _check_besov_args(s, p, r)
    dec = decomposition_for(f.grid)
    terms = [(2.0**(q * s)) * lebesgue_norm(dec.block(f, q), p) for q in dec.qs]
    return _aggregate(terms, r)


# --- vector / tensor aggregates used by diagnostics ---


def tensor_linf(tau: SymTensorField) -> float:
    """Padded max of the pointwise Frobenius magnitude."""
    a = refined_physical(tau.t11)
    b = refined_physical(tau.t12)
    c = refined_physical(tau.t22)
    return float(np.max(np.sqrt(a * a + 2.0 * b * b + c * c)))


def vector_sobolev(v: VectorField, s: float) -> float:
    return math.hypot(sobolev_norm(v.u1, s), sobolev_norm(v.u2, s))


def tensor_sobolev(tau: SymTensorField, s: float) -> float:
    return math.sqrt(
        sobolev_norm(tau.t11, s) ** 2
        + 2.0 * sobolev_norm(tau.t12, s) ** 2
        + sobolev_norm(tau.t22, s) ** 2
    )


def tensor_block(tau: SymTensorField, q: int) -> SymTensorField:
    dec = decomposition_for(tau.grid)
    return tau.map(lambda c: dec.block(c, q))


def tensor_lp(tau: SymTensorField, p) -> float:
    if p == 2:
        return tau.l2()
    if p == math.inf:
        return tensor_linf(tau)
    raise ValueError(f"unsupported tensor Lebesgue exponent p={p}")


def tensor_besov_norm(tau: SymTensorField, s: float, p, r) -> float:
    _check_besov_args(s, p, r)
    if p == 1:
        raise ValueError("tensor Besov norms support p in {2, inf} only")
    dec = decomposition_for(tau.grid)
    terms = [(2.0**(q * s)) * tensor_lp(tensor_block(tau, q), p) for q in dec.qs]
    return _aggregate(terms, r)
