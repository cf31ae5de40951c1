"""Discrete Littlewood-Paley decomposition and norm calculators.

Dyadic blocks use raised-cosine bumps in log2|k| with support
[2^(q-1), 2^(q+1)] (c1 = 1/2, c2 = 2). Block -1 collects |k| < 2 including
the mean mode; the top block q_max closes the partition upward so that the
blocks sum to the identity on every grid mode. q_max is set by the dealiased
corner wavenumber.

L-infinity norms are evaluated after zero-padding the spectrum to twice the
resolution per axis, which reduces the underestimate of maxima falling
between grid points; _padded_max is the one place that pads, for every
field kind (linf_norm) and every dyadic block (block_linf_norms), each in
the window of the frequencies it may hold (PaddedTransform).

The one Besov norm is B^s_{inf,1}, the space of the paper's estimates.
Every norm but lebesgue_norm takes any field kind, with the component
weights fields.py states: the pointwise magnitude is sqrt(sum_c w_c c^2).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .fields import FieldKind, ScalarField, hermitian_part, norm
from .grid import Grid, inverse_rfft2


def centre(a: np.ndarray, band: int, out: np.ndarray | None = None) -> np.ndarray:
    """The frequencies m1 = -band..band (row m1 + band) and m2 = 0..band
    (column m2) of the coefficient array or per-mode multiplier a, written
    to out (of shape (2 band + 1, band + 1); made when None). The n-point
    array holds the Nyquist row once, at m1 = -n/2; for band = n/2 it is
    written at -n/2 and at +n/2 (field_window splits a field's in halves)."""
    if out is None:
        out = np.empty((2 * band + 1, band + 1), dtype=a.dtype)
    out[band:] = a[: band + 1, : band + 1]
    out[:band] = a[a.shape[0] - band :, : band + 1]
    return out


def field_window(f: FieldKind, band: int) -> np.ndarray:
    """The centred windows (centre) of the components of f, stacked: the
    padded spectra of f in rfft2 layout. For band = n/2 the Nyquist row and
    column are split in halves between -n/2 and +n/2, as zero-padding with
    the Nyquist modes kept at -n/2 does to a real field's spectrum: the row
    is halved at both, and column +n/2 holds half the Hermitian part
    (hermitian_part) of column n/2 at rows -n/2+1..n/2."""
    w = np.empty((len(f.components), 2 * band + 1, band + 1), dtype=np.complex128)
    for c, out in zip(f.components, w):
        centre(c.coeffs, band, out)
        if band == f.grid.n // 2:
            out[[0, -1]] *= 0.5
            out[1:, band] = np.roll(0.5 * hermitian_part(c.coeffs[:, band]), -(band + 1))
            out[0, band] = 0.0
    return w


class PaddedTransform:
    """The zero-padded 2n x 2n transform of one grid, through one reused buffer.

    Zero-padding a spectrum to 2n points per axis keeps its frequencies and
    puts zeros around them. A field whose frequencies lie within |m| <= B
    per axis is given as its padded spectrum's window (field_window), rows
    -B..B and columns 0..B in rfft2 layout, which is copied as it is into
    rows 0..B and 2n-B..2n-1 of columns 0..B of a (2n, n+1) half buffer.
    The column pass of grid.inverse_rfft2 runs in place on those B + 1
    columns, and they are zeroed again before the call returns, so the
    buffer is zero between calls and no second (2n, n+1) buffer is kept.
    Calls must not overlap (the package runs in one thread). The buffer
    lives as long as something holds it (padded_transform).
    """

    def __init__(self, grid: Grid):
        n = grid.n
        self.n = n
        self.half = np.zeros((2 * n, n + 1), dtype=np.complex128)

    def physical(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The padded 2n x 2n grid values of the field whose padded window
        is w, written to out."""
        band, b = w.shape[1] - 1, self.half
        b[: band + 1, : band + 1] = w[band:]
        b[2 * self.n - band :, : band + 1] = w[:band]
        inverse_rfft2(b, band + 1, b, out)
        b[:, : band + 1] = 0.0
        return out


_PADDED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def padded_transform(grid: Grid) -> PaddedTransform:
    """The grid's PaddedTransform, shared by every caller that holds it and
    freed with the last one: a diagnostics.Observation holds it for its
    records, block_linf_norms through its blocks, so no 2n x (n+1) buffer
    outlives them into the steps between records."""
    pad = _PADDED.get(grid)
    if pad is None:
        pad = _PADDED[grid] = PaddedTransform(grid)
    return pad


def _padded_max(w: np.ndarray, weights: tuple, grid: Grid) -> float:
    """Padded max of sqrt(sum_c w_c c^2) for the stacked centred windows w
    of the components, which it scales in place.

    The squares are taken of coefficients scaled by the power of two that
    brings their largest modulus into [1/2, 1): the scaling is exact, and a
    field near the ends of the float range (a blow-up) neither overflows nor
    underflows when squared. Each component's weighted square is summed in
    place into one buffer per call.
    """
    peak = float(np.max(np.abs(w)))
    exponent = max(math.frexp(peak)[1], -1000)  # 0 for a zero or non-finite peak
    w *= math.ldexp(1.0, -exponent)
    pad = padded_transform(grid)
    mag = np.empty((2 * grid.n, 2 * grid.n))
    values = np.empty_like(mag) if len(w) > 1 else None
    for i, (c, wt) in enumerate(zip(w, weights)):
        p = pad.physical(c, values if i else mag)
        np.multiply(p, p, out=p)
        if wt != 1.0:
            p *= wt
        if i:
            mag += p
    return float(np.ldexp(math.sqrt(float(np.max(mag))), exponent))


def field_band(f: FieldKind) -> int:
    """The largest frequency per axis that the coefficients of f may hold
    (Grid.band)."""
    return f.grid.band(*(c.coeffs for c in f.components))


def linf_norm(f: FieldKind) -> float:
    """Padded max of the pointwise magnitude sqrt(sum_c w_c c^2), from the
    window of the field's band (field_band)."""
    return _padded_max(field_window(f, field_band(f)), f.weights, f.grid)


def block_linf_norms(f: FieldKind) -> list[float]:
    """linf_norm of every dyadic block of f, q = -1..q_max.

    Block q holds frequencies |m| <= min(field band, its support), so each
    block is formed, scaled and padded in that window of the field's
    window only; the values are those of linf_norm(dec.block(f, q)).
    """
    dec = decomposition_for(f.grid)
    _pad = padded_transform(f.grid)  # held, so that every block shares one buffer
    band = field_band(f)
    w = field_window(f, band)
    norms = []
    for q in dec.qs:
        mult = dec.window(q, band)
        size = mult.shape[1] - 1
        sub = w[:, band - size : band + size + 1, : size + 1]
        norms.append(_padded_max(mult * sub, f.weights, f.grid))
    return norms


def lebesgue_norm(f: ScalarField, p) -> float:
    """L^p norm of a ScalarField for p in {1, 4}, by grid quadrature."""
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
        low[kmag >= 2.0] = 0.0  # roundoff outside its support
        blocks = [low]
        blocks.extend(raw[q] for q in range(0, q_max))
        top = np.ones_like(kmag) - sum(blocks)  # closes the partition upward
        top[kmag <= 2.0 ** (q_max - 1)] = 0.0
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

    @cached_property
    def supports(self) -> tuple[int, ...]:
        """The largest frequency per axis at which each block is nonzero, so
        that a window of that size drops only exact zeros. Made on first use."""
        m = np.maximum(np.abs(self.grid.m1), np.abs(self.grid.m2))
        return tuple(int(m[b != 0].max(initial=0)) for b in self.multipliers)

    @cached_property
    def windows(self) -> tuple[np.ndarray, ...]:
        """Each block's multiplier in its window for the dealiased band n//3
        (centre), made on first use."""
        cut = self.grid.dealias_cutoff
        out = tuple(centre(b, min(s, cut)) for b, s in zip(self.multipliers, self.supports))
        for w in out:
            w.setflags(write=False)
        return out

    def window(self, q: int, band: int) -> np.ndarray:
        """The centred window (centre) of block q's multiplier on the
        frequencies |m| <= min(band, support of q): the one kept for a
        dealiased field's band n//3, else made on the call."""
        size = min(band, self.supports[q + 1])
        w = self.windows[q + 1]
        if w.shape[1] == size + 1:
            return w
        return centre(self.multiplier(q), size)

    def block(self, f: FieldKind, q: int) -> FieldKind:
        """Delta_q f, the block of every component."""
        m = self.multiplier(q)
        return f.map(lambda c: ScalarField(self.grid, m * c.coeffs))


@lru_cache(maxsize=16)
def decomposition_for(grid: Grid) -> DyadicDecomposition:
    return DyadicDecomposition.build(grid)


def _besov(f: FieldKind, s: float) -> float:
    # Shared by besov_norm and tensor_besov_norm, which perfbench times by
    # name: neither calls the other, so no time is counted twice.
    if not (-1.0 <= s <= 2.0):
        raise ValueError(f"Besov regularity s={s} outside [-1, 2]")
    dec = decomposition_for(f.grid)
    return float(sum([(2.0**(q * s)) * v for q, v in zip(dec.qs, block_linf_norms(f))]))


def besov_norm(f: FieldKind, s: float) -> float:
    """B^s_{inf,1} norm: the sum over q of 2^(qs) ||Delta_q f||_{L^inf}."""
    return _besov(f, s)


def tensor_besov_norm(tau: FieldKind, s: float) -> float:
    """besov_norm of a tensor, the tensor ledger norm."""
    return _besov(tau, s)
