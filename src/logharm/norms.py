"""Hyperbolically weighted sup-norm estimation on the unit disk.

Estimates sup over |z| < 1 of (1 - |z|^2)^p |field(z)| (p = 1 for
pre-Schwarzian and Bloch norms, p = 2 for the Schwarzian norm) by a polar
grid sweep whose radii approach the boundary geometrically, followed by
golden-section refinement around the best sample.  Every reported value is
a certified lower bound of the supremum: it is the weighted magnitude of
the field at the reported argmax, re-evaluated scalar at the end.  No
upper-bound certification is attempted.

`level_walk` is the one grid walker: the norms and the criteria margins
both reduce through it, in (r, theta) order with a strict comparison and a
first-index tie-break, so every witness is deterministic.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import AllSamplesFailed
from .expr import Expr, eval_jet
from .maps import LogHarmonicMap, as_field, pre_schwarzian_field, schwarzian_field

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

# punctured-annulus inner radius used when the map vanishes at the origin
_INNER_RADIUS = 1e-3
_PROBE_RADII = (1e-3, 1e-5, 1e-7)
_DIVERGED_CEIL = 1e9


@dataclass(frozen=True)
class GridSpec:
    """Polar sampling schedule; defaults give just over 1e5 samples."""

    radial_levels: int = 200
    r_max: float = 1 - 1e-6
    angular_count: int = 512
    refine_rounds: int = 3

    def __post_init__(self) -> None:
        if self.radial_levels < 2:
            raise ValueError("radial_levels must be at least 2")
        if not 0 < self.r_max <= 1 - 1e-6:
            raise ValueError("r_max must lie in (0, 1 - 1e-6]")
        if self.angular_count < 8:
            raise ValueError("angular_count must be at least 8")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be nonnegative")


@dataclass(frozen=True)
class NormEstimate:
    """Lower-bound sup-norm certificate with its witnessing point."""

    value: float
    argmax: complex
    grid: GridSpec
    diverged: bool = False
    samples: int = 0
    failed_samples: int = 0
    flagged: bool = False
    refine_values: tuple[float, ...] = dc_field(default_factory=tuple)


def _radii(inner: float, r_max: float, n: int) -> np.ndarray:
    # 1 - r_k shrinks geometrically from 1 - inner down to 1 - r_max
    ratio = ((1.0 - r_max) / (1.0 - inner)) ** (1.0 / (n - 1))
    k = np.arange(n, dtype=float)
    return 1.0 - (1.0 - inner) * ratio**k


def _weighted_scalar(field, p: int, r: float, theta: float):
    z = complex(r * np.exp(1j * theta))
    v = field(np.array([z], dtype=complex))[0]
    mag = abs(v)
    if not math.isfinite(mag):
        return z, -math.inf
    return z, float((1.0 - r * r) ** p * mag)


def _golden_max(fn, a: float, b: float, iters: int = 32):
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = fn(c)
    yd = fn(d)
    best = (c, yc) if yc >= yd else (d, yd)
    for _ in range(iters):
        if yc >= yd:
            b, d, yd = d, c, yc
            c = a + _INVPHI2 * (b - a)
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INVPHI * (b - a)
            yd = fn(d)
        for x, y in ((c, yc), (d, yd)):
            if y > best[1]:
                best = (x, y)
    return best


class Walk(NamedTuple):
    """Best sample of a `level_walk` and the grid it was taken on."""

    value: float
    point: complex
    level: int
    theta: float
    radii: np.ndarray
    samples: int
    failed: int


def level_walk(level_fn, grid: GridSpec, inner: float = 0.0) -> Walk:
    """Max of a real-valued per-level function over the polar grid.

    ``level_fn(r, zs)`` gets one radial level r and its points
    zs = r exp(i theta) and returns one real value per point; non-finite
    values are skipped and counted as failed samples.  Levels run in order
    of increasing r, and the reduction uses a strict comparison with the
    first index winning ties, so the witness is deterministic.
    """
    radii = _radii(inner, grid.r_max, grid.radial_levels)
    thetas = np.arange(grid.angular_count) * (2.0 * math.pi / grid.angular_count)
    ring = np.exp(1j * thetas)
    best = (-math.inf, 0j, 0, 0.0)
    total = failed = 0
    for i, r in enumerate(radii):
        r = float(r)
        zs = r * (ring[:1] if r == 0.0 else ring)  # the origin is a single sample
        vals = np.asarray(level_fn(r, zs), dtype=float)
        ok = np.isfinite(vals)
        total += vals.size
        failed += int(vals.size - np.count_nonzero(ok))
        if not ok.any():
            continue
        j = int(np.argmax(np.where(ok, vals, -math.inf)))
        if vals[j] > best[0]:
            best = (float(vals[j]), complex(zs[j]), i, float(thetas[j]))
    if failed == total:
        raise AllSamplesFailed("every grid sample failed to evaluate")
    return Walk(*best, radii, total, failed)


def _sweep(field, weight_power: int, grid: GridSpec, inner: float) -> NormEstimate:
    walk = level_walk(
        lambda r, zs: np.abs(field(zs)) * ((1.0 - r * r) ** weight_power), grid, inner
    )
    radii, best_level, best_val, th_best = walk.radii, walk.level, walk.value, walk.theta
    r_best = float(radii[best_level])
    refine_trace = [best_val]

    for _ in range(grid.refine_rounds):
        lo = float(radii[best_level - 1]) if best_level > 0 else inner
        hi = (
            float(radii[best_level + 1])
            if best_level + 1 < len(radii)
            else grid.r_max
        )
        r_new, v_r = _golden_max(
            lambda r: _weighted_scalar(field, weight_power, r, th_best)[1], lo, hi
        )
        if v_r > best_val:
            best_val, r_best = v_r, r_new
            while best_level + 1 < len(radii) and radii[best_level + 1] < r_best:
                best_level += 1
            while best_level > 0 and radii[best_level] > r_best:
                best_level -= 1

        dtheta = 2.0 * math.pi / grid.angular_count
        th_new, v_t = _golden_max(
            lambda t: _weighted_scalar(field, weight_power, r_best, t)[1],
            th_best - dtheta,
            th_best + dtheta,
        )
        if v_t > best_val:
            best_val, th_best = v_t, th_new
        refine_trace.append(best_val)

    argmax, value = _weighted_scalar(field, weight_power, r_best, th_best)
    if value < best_val:  # scalar re-eval is the certificate; keep the max seen
        value = best_val
    return NormEstimate(
        value=value,
        argmax=argmax,
        grid=grid,
        samples=walk.samples,
        failed_samples=walk.failed,
        flagged=walk.failed > 0.01 * walk.samples,
        refine_values=tuple(refine_trace),
    )


def weighted_sup(field, weight_power: int, grid: GridSpec | None = None) -> NormEstimate:
    """Sup of (1 - |z|^2)^weight_power |field(z)| over the sampling grid.

    `field` must accept a complex ndarray and return one, with NaN marking
    samples that failed to evaluate.  Failed samples are skipped and
    counted; `flagged` is set when more than 1% fail.
    """
    if weight_power not in (1, 2):
        raise ValueError("weight_power must be 1 or 2")
    return _sweep(field, weight_power, grid or GridSpec(), inner=0.0)


def _origin_diverges(field) -> bool:
    angles = np.array([0.37, 1.91, 3.55, 5.19])
    maxima = []
    for r in _PROBE_RADII:
        vals = np.abs(field(r * np.exp(1j * angles)))
        vals = vals[np.isfinite(vals)]
        maxima.append(float(np.max(vals)) if vals.size else math.inf)
    p3, p5, p7 = maxima
    if not math.isfinite(p7) or p7 > _DIVERGED_CEIL:
        return True
    return p7 > 1e4 and p7 > 30.0 * p5 and p5 > 30.0 * p3


def _map_norm(field, weight_power: int, f: LogHarmonicMap, grid: GridSpec) -> NormEstimate:
    if f.m == 0:
        return _sweep(field, weight_power, grid, inner=0.0)
    # the origin factor generically makes the norm infinite: probe first,
    # then report the sup over the punctured annulus [1e-3, r_max]
    diverged = _origin_diverges(field)
    est = _sweep(field, weight_power, grid, inner=_INNER_RADIUS)
    if diverged:
        est = dataclasses.replace(est, diverged=True)
    return est


def pre_schwarzian_norm(f: LogHarmonicMap, grid: GridSpec | None = None) -> NormEstimate:
    return _map_norm(pre_schwarzian_field(f), 1, f, grid or GridSpec())


def schwarzian_norm(f: LogHarmonicMap, grid: GridSpec | None = None) -> NormEstimate:
    return _map_norm(schwarzian_field(f), 2, f, grid or GridSpec())


def logderiv_field(e: Expr):
    """Vectorized z -> e'(z)/e(z), NaN where not evaluable."""

    def formula(z):
        j = eval_jet(e, z, order=1)
        return j.d1 / j.d0

    return as_field(formula)


def bloch_norm_log(g: Expr, grid: GridSpec | None = None) -> NormEstimate:
    """Bloch seminorm of log g: sup (1 - |z|^2) |g'(z)/g(z)|."""
    return _sweep(logderiv_field(g), 1, grid or GridSpec(), inner=0.0)


@dataclass(frozen=True)
class RadialProfile:
    """Weighted field magnitudes along the positive real axis."""

    rows: tuple[tuple[float, float], ...]
    monotone_tail: bool
    boundary_estimate: float | None


def radial_profile(
    field, weight_power: int, samples: int, r_max: float = 1 - 1e-6
) -> RadialProfile:
    """Table of (r, (1 - r^2)^p |field(r)|) for uniform r in [0, r_max].

    When the tail of the table is non-decreasing, the supremum is being
    approached at the boundary and a linear extrapolation to r = 1 is
    reported as `boundary_estimate`.  Raises `AllSamplesFailed` when no
    sample is finite.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    rs = np.linspace(0.0, r_max, samples)
    with np.errstate(all="ignore"):
        vals = np.abs(field(rs.astype(complex)))
        weighted = (1.0 - rs * rs) ** weight_power * vals
    rows = [
        (float(r), float(w))
        for r, w in zip(rs, weighted)
        if math.isfinite(w)
    ]
    if not rows:
        raise AllSamplesFailed("every profile sample failed to evaluate")
    tail = rows[-max(8, len(rows) // 8):]
    monotone = len(tail) >= 2 and all(
        b[1] >= a[1] - 1e-12 for a, b in zip(tail, tail[1:])
    )
    estimate = None
    if monotone:
        (r0, w0), (r1, w1) = tail[-2], tail[-1]
        slope = (w1 - w0) / (r1 - r0) if r1 > r0 else 0.0
        estimate = w1 + slope * (1.0 - r1)
    return RadialProfile(
        rows=tuple(rows), monotone_tail=monotone, boundary_estimate=estimate
    )
