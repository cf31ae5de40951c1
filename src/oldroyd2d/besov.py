"""Discrete Littlewood-Paley decomposition and norm calculators.

Dyadic blocks use raised-cosine bumps in log2|k| with support
[2^(q-1), 2^(q+1)] (c1 = 1/2, c2 = 2). Block -1 collects |k| < 2 including
the mean mode; the top block q_max closes the partition upward so that the
blocks sum to the identity on every grid mode. q_max is set by the dealiased
corner wavenumber.

L-infinity norms are evaluated after zero-padding the spectrum to twice the
resolution per axis, which reduces the underestimate of maxima falling
between grid points; linf_norm is the one place that pads, for every field
kind and every dyadic block (PaddedTransform).

Every norm takes any field kind, with the component weights fields.py
states: the pointwise magnitude is sqrt(sum_c w_c c^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fields import FieldKind, ScalarField, norm
from .grid import Grid, inverse_rfft2


class PaddedTransform:
    """The zero-padded 2n x 2n transform of one grid, through reused buffers.

    Zero-padding a spectrum to 2n points per axis keeps its frequencies
    (the n-point Nyquist row and column at -n/2) and puts zeros around
    them. The real part of that padded spectrum's transform is the transform
    of its Hermitian part (P[k] + conj P[-k]) / 2, which the inverse real
    transform synthesizes from columns 0..n of a (2n, n+1) half spectrum.
    The Hermitian part is formed in the centred (n+1, n+1) array of
    frequencies -n/2..n/2, where -k is the reversed index, so a Nyquist row
    or column that is not conjugate-symmetric splits into halves at -n/2 and
    +n/2.

    Only rows 0..n/2 and 3n/2..2n-1 of columns 0..n/2 of the half buffer
    are written per call. The column pass of grid.inverse_rfft2 runs in
    place on the half buffer and takes only the columns that the centred
    array's extent can reach: a field of band m fills m + 1 columns of n + 1
    (a dyadic block q about 2^(q+1)). It fills the middle rows of those
    columns, which are zeroed again before the call returns, so no second
    (2n, n+1) buffer is kept. Calls must not overlap (the package runs in
    one thread).
    """

    def __init__(self, grid: Grid):
        n = grid.n
        self.n = n
        self.centred = np.zeros((n + 1, n + 1), dtype=np.complex128)
        self.half = np.zeros((2 * n, n + 1), dtype=np.complex128)

    def physical(self, coeffs: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
        """The padded 2n x 2n grid values of scale * coeffs, written to out."""
        n, h = self.n, self.n // 2
        c, b = self.centred, self.half
        s = 0.5 * scale
        np.multiply(coeffs[h:, h:], s, out=c[:h, :h])
        np.multiply(coeffs[h:, :h], s, out=c[:h, h:n])
        np.multiply(coeffs[:h, h:], s, out=c[h:n, :h])
        np.multiply(coeffs[:h, :h], s, out=c[h:n, h:n])
        top, bottom = b[: h + 1, : h + 1], b[3 * h :, : h + 1]  # m1 = 0..n/2, m1 < 0
        np.conjugate(c[h::-1, h::-1], out=top)  # conj P[-k]: reversed rows and columns
        np.conjugate(c[:h:-1, h::-1], out=bottom)
        top += c[h:, h:]
        bottom += c[:h, h:]
        m2 = np.flatnonzero(c.any(axis=0))  # centred columns, frequency m2 - n/2
        width = max(h - m2[0], m2[-1] - h) + 1 if m2.size else 0
        inverse_rfft2(b, width, b, out)
        b[h + 1 : 3 * h, :width] = 0.0
        return out


@lru_cache(maxsize=16)
def padded_transform(grid: Grid) -> PaddedTransform:
    return PaddedTransform(grid)


def linf_norm(f: FieldKind) -> float:
    """Padded max of the pointwise magnitude sqrt(sum_c w_c c^2).

    The squares are taken of coefficients scaled by the power of two that
    brings their largest modulus into [1/2, 1): the scaling is exact, and a
    field near the ends of the float range (a blow-up) neither overflows nor
    underflows when squared. Each component's weighted square is summed in
    place into one buffer per call.
    """
    peak = max(c.max_abs_coeff() for c in f.components)
    exponent = max(math.frexp(peak)[1], -1000)  # 0 for a zero or non-finite peak
    scale = math.ldexp(1.0, -exponent)
    pad = padded_transform(f.grid)
    mag, values = np.empty((2, 2 * f.grid.n, 2 * f.grid.n))
    for i, (c, w) in enumerate(zip(f.components, f.weights)):
        p = pad.physical(c.coeffs, scale, values if i else mag)
        np.multiply(p, p, out=p)
        if w != 1.0:
            p *= w
        if i:
            mag += p
    return float(np.ldexp(math.sqrt(float(np.max(mag))), exponent))


def lebesgue_norm(f: FieldKind, p) -> float:
    """L^p norm for p in {1, 2, 4, inf}; p in {1, 4} for a ScalarField only.

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


def sobolev_norm(f: FieldKind, s: float) -> float:
    """H^s norm via the multiplier (1 + |k|^(2s))^(1/2); zero mode weight 1."""
    g = f.grid
    w = np.ones_like(g.ksq)
    pos = g.ksq > 0
    w[pos] += g.ksq[pos] ** s
    return norm(f, w)


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

    def block(self, f: FieldKind, q: int) -> FieldKind:
        """Delta_q f, the block of every component."""
        m = self.multiplier(q)
        return f.map(lambda c: ScalarField(self.grid, m * c.coeffs))


@lru_cache(maxsize=16)
def decomposition_for(grid: Grid) -> DyadicDecomposition:
    return DyadicDecomposition.build(grid)


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


def _besov(f: FieldKind, s: float, p, r) -> float:
    # Shared by besov_norm and tensor_besov_norm, which perfbench times by
    # name: neither calls the other, so no time is counted twice.
    _check_besov_args(s, p, r)
    dec = decomposition_for(f.grid)
    terms = [(2.0**(q * s)) * lebesgue_norm(dec.block(f, q), p) for q in dec.qs]
    return _aggregate(terms, r)


def besov_norm(f: FieldKind, s: float, p, r) -> float:
    """B^s_{p,r} norm: l^r over q of 2^(qs) ||Delta_q f||_{L^p}; p = 1 for a
    ScalarField only."""
    return _besov(f, s, p, r)


def tensor_besov_norm(tau: FieldKind, s: float, p, r) -> float:
    """besov_norm restricted to p in {2, inf}, the tensor ledger norm."""
    if p == 1:
        raise ValueError("tensor Besov norms support p in {2, inf} only")
    return _besov(tau, s, p, r)
