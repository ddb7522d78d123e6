"""Hyperbolically weighted sup-norm estimation on the unit disk.

Estimates sup over |z| < 1 of (1 - |z|^2)^p |field(z)| (p = 1 for
pre-Schwarzian and Bloch norms, p = 2 for the Schwarzian norm) by a polar
grid sweep whose radii approach the boundary geometrically, followed by
a patch search around the best sample.  Every reported value is a
certified lower bound of the supremum: it is the weighted magnitude of the
field at the reported argmax, the exact sample or patch point that gave the
best value, re-evaluated at that one point at the end.
No upper-bound certification is attempted.

`level_walk` is the one grid walker: the norms and the criteria margins
both reduce through it, in (r, theta) order with a strict comparison and a
first-index tie-break, so every witness is deterministic.  It calls each
field once per block of consecutive levels, and on the origin sample on
its own.  A ring of even size n is mirrored, ring[n - j] = conj(ring[j]),
with its upper half exp(i theta_j) as computed, so a lower-half sample is
r conj(ring[n - j]).  The walk holds each block of such a ring together
with its upper half, columns 0..n/2 (`expr.shared_jets`): a field whose
data have real coefficients evaluates only that half and fills the rest
by conjugation (`maps.as_field`), and any other field evaluates the whole
block.  A block holds 8 levels of a 512-ring, so its half is about
`_BLOCK_POINTS` points, 8 x 257.

Norms that share a grid read one walk (`weighted_sups`): every field is
still called on every block, but the fields share the jets of h, g and any
other expression they evaluate on that block (`expr.shared_jets`), so each
estimate is bit for bit the one it has alone.  A map whose norms diverge
walks its punctured annulus separately from the norms of the same map that
start at the origin.

Each field is then refined on its own by a patch search in (u, theta),
u = -log(1 - r), in which the levels are evenly spaced.  A patch is 9 x 9
offsets, so it samples its own centre lines, with u clipped to the swept
band, and each call evaluates it at three nested scales of its
half-widths, 1, 1/6 and 1/36: 243 points.  The patch starts at the walk's
best sample, one level step and one angular step wide on each side.  A
point that beats the best value so far recentres it, and each axis then
takes the half-width of the scale that point came from, divided by 3
where the point is inside the patch, or doubled, up to 8 grid steps, where
it is on the edge: so the patch can follow a ridge that runs diagonally
across the grid cells.  A call that finds no better point shrinks both
axes by 6^3, past its smallest scale.  A refine round makes at most
`_PATCH_CALLS` calls, and the refine stops once both half-widths are
`_PATCH_TOL` of their grid steps.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import AllSamplesFailed
from .expr import Expr, eval_jet, real_coefficients, shared_jets
from .maps import (
    LogHarmonicMap, as_field, origin_exponent, pre_schwarzian_field, schwarzian_field
)

# points per block of the sweep, counted on a ring's mirrored half, the
# fastest measured on the default grid: a block of the 512-ring holds 8
# levels, of which a real-coefficient field evaluates the half, 8 x 257
# points, and any other field all 8 x 512 (`maps.as_field`); a block of an
# odd ring holds 2048 points
_BLOCK_POINTS = 2048
# a patch's offsets from its centre along each axis, in half-widths: an
# odd count puts the centre lines, where a sup on the walk's theta or at the
# clipped u lies, in every patch.  One call samples the patch at three
# nested scales of its half-widths, 243 points; such a call costs at most
# about twice a 1-point call, so the refine's cost is mostly its call
# count, at most _PATCH_CALLS a round (30 at the default 3).  A call that
# finds no better point shrinks the half-widths by _MISS, past its
# smallest scale
_PATCH = np.linspace(-1.0, 1.0, 9)
_SCALES = (1.0, 1.0 / 6.0, 1.0 / 36.0)
_OFFSETS = np.multiply.outer(_SCALES, _PATCH)
_MISS = 1.0 / 216.0
_PATCH_CALLS = 10
_PATCH_TOL = 1e-6

# inner radius of the punctured annulus swept when the origin is singular,
# and by the checks that never sample the origin itself
_INNER_RADIUS = 1e-3


def _check_r_max(r_max: float) -> None:
    if not 0 < r_max <= 1 - 1e-6:
        raise ValueError("r_max must lie in (0, 1 - 1e-6]")


@dataclass(frozen=True)
class GridSpec:
    """Polar sampling schedule; defaults give just over 1e5 samples.  The
    sweep's best sample is then refined for ``refine_rounds`` rounds, each
    of up to 10 field calls on a 9 x 9 patch at three nested scales (see the
    module docstring)."""

    radial_levels: int = 200
    r_max: float = 1 - 1e-6
    angular_count: int = 512
    refine_rounds: int = 3

    def __post_init__(self) -> None:
        for name in ("radial_levels", "angular_count", "refine_rounds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.radial_levels < 2:
            raise ValueError("radial_levels must be at least 2")
        _check_r_max(self.r_max)
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


def _weighted(field, p: int, r, z):
    """(1 - r^2)^p |field(z)| at the points z of modulus r, r broadcasting
    against z: the one value that the walk, the patch and the certificate
    read.  It is NaN where the field fails."""
    return (1.0 - r * r) ** p * np.abs(field(z))


def _ring(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n angles theta_j = 2 pi j / n and the ring exp(i theta_j) of the
    grid, for the walk and the render's mesh (`render.mesh_points`) alike.
    An even ring is mirrored: its upper half, columns 0..n/2, is
    exp(i theta_j) bit for bit, and ring[n - j] = conj(ring[j])."""
    thetas = np.arange(n) * (2.0 * math.pi / n)
    ring = np.exp(1j * thetas)
    if n % 2 == 0:
        np.conjugate(ring[n // 2 - 1 : 0 : -1], out=ring[n // 2 + 1 :])
    return thetas, ring


class Walk(NamedTuple):
    """Best sample of a `level_walk` and the grid it was taken on."""

    value: float
    point: complex
    level: int
    theta: float
    radii: np.ndarray
    samples: int
    failed: int


def level_walk(level_fns, grid: GridSpec, inner: float = 0.0):
    """Max of each of several real-valued per-level functions over the polar
    grid: one `Walk` per function, from one walk.

    ``level_fn(r, zs)`` gets a column of consecutive radii r, shape (L, 1),
    and their points zs = r exp(i theta), shape (L, n), and returns one real
    value per point; non-finite values are skipped and counted as failed
    samples.  Levels run in order of increasing r, and the reduction uses a
    strict comparison with the first index in (r, theta) order winning
    ties, so the witness is deterministic and does not depend on the block
    size.  The origin level is a single sample, evaluated on its own.  A
    ring of even size is mirrored, its upper half exp(i theta) bit for bit,
    and each block of it is held with the points of that half, about
    `_BLOCK_POINTS` of them (see the module docstring).  Every function is called on each block in list
    order, and the functions share the block's jets (`expr.shared_jets`),
    so each returns the same bits as when walked alone.  `AllSamplesFailed`
    is raised when every sample of any one function failed.
    """
    radii = _radii(inner, grid.r_max, grid.radial_levels)
    n = grid.angular_count
    thetas, ring = _ring(n)
    # a block of an even ring is held with its columns 0..n/2, from which a
    # real-coefficient field mirrors the rest (`maps.as_field`)
    upper = ring[: n // 2 + 1] if n % 2 == 0 else None
    step = max(1, _BLOCK_POINTS // (n // 2 if n % 2 == 0 else n))
    first = 1 if radii[0] == 0.0 else 0
    blocks = [(0, 1, ring[:1], None)] if first else []
    blocks += [(i, i + step, ring, upper) for i in range(first, len(radii), step)]
    best = [(-math.inf, 0j, 0, 0.0)] * len(level_fns)
    total, failed = [0] * len(level_fns), [0] * len(level_fns)
    with shared_jets() as hold:
        for lo, hi, angles, half in blocks:
            r = radii[lo:hi, None]
            zs = r * angles
            hold(zs, None if half is None else r * half)
            for w, level_fn in enumerate(level_fns):
                vals = np.asarray(level_fn(r, zs), dtype=float)
                ok = np.isfinite(vals)
                total[w] += vals.size
                failed[w] += int(vals.size - np.count_nonzero(ok))
                if not ok.any():
                    continue
                k = int(np.argmax(np.where(ok, vals, -math.inf)))
                i, j = divmod(k, zs.shape[1])
                if vals.flat[k] > best[w][0]:
                    best[w] = (float(vals.flat[k]), complex(zs[i, j]), lo + i, float(thetas[j]))
    if any(bad == all_ for bad, all_ in zip(failed, total)):
        raise AllSamplesFailed("every grid sample failed to evaluate")
    return [Walk(*b, radii, all_, bad) for b, all_, bad in zip(best, total, failed)]


def _refine(weighted, walk: Walk, grid: GridSpec, inner: float, diverged: bool) -> NormEstimate:
    # in u = -log(1 - r) the levels are one step du apart
    u_lo, u_hi = -math.log1p(-inner), -math.log1p(-grid.r_max)
    du, dtheta = (u_hi - u_lo) / (grid.radial_levels - 1), 2.0 * math.pi / grid.angular_count
    best_val, point, r_best = walk.value, walk.point, float(walk.radii[walk.level])
    u, theta, hu, ht = -math.log1p(-r_best), walk.theta, du, dtheta
    edge = (0, _PATCH.size - 1)
    refine_trace = [best_val]

    for _ in range(grid.refine_rounds):
        for _ in range(_PATCH_CALLS):
            if hu <= _PATCH_TOL * du and ht <= _PATCH_TOL * dtheta:
                break
            us = np.minimum(np.maximum(u + hu * _OFFSETS, u_lo), u_hi)
            ts = theta + ht * _OFFSETS
            rs = -np.expm1(-us)[:, :, None]
            zs = rs * np.exp(1j * ts)[:, None, :]
            ys = weighted(rs, zs)
            ys = np.where(np.isfinite(ys), ys, -math.inf)
            k = int(np.argmax(ys))
            if ys.flat[k] <= best_val:
                hu, ht = hu * _MISS, ht * _MISS
                continue
            s, i, j = np.unravel_index(k, zs.shape)
            best_val, point, r_best = float(ys.flat[k]), complex(zs[s, i, j]), float(rs[s, i, 0])
            u, theta = float(us[s, i]), float(ts[s, j])
            hu, ht = hu * _SCALES[s], ht * _SCALES[s]
            hu = min(2.0 * hu, 8.0 * du) if i in edge else hu / 3.0
            ht = min(2.0 * ht, 8.0 * dtheta) if j in edge else ht / 3.0
        refine_trace.append(best_val)

    # the one-point re-evaluation of the best sample seen is the
    # certificate; keep the max seen
    z = np.atleast_1d(point)
    w = float(weighted(r_best, z)[0])
    return NormEstimate(
        value=w if math.isfinite(w) and w > best_val else best_val,
        argmax=complex(z[0]),
        grid=grid,
        diverged=diverged,
        samples=walk.samples,
        failed_samples=walk.failed,
        flagged=walk.failed > 0.01 * walk.samples,
        refine_values=tuple(refine_trace),
    )


@dataclass(frozen=True)
class Sup:
    """One sup to estimate: of (1 - |z|^2)^weight_power |field(z)| over the
    disk, or, when ``singular``, over the punctured annulus, marked diverged.
    A map whose P_f = c/z + O(1) has c != 0 has both norms singular."""

    field: Callable
    weight_power: int
    singular: bool = False

    def __post_init__(self) -> None:
        if self.weight_power not in (1, 2):
            raise ValueError("weight_power must be 1 or 2")


def weighted_sups(sups: Sequence[Sup], grid: GridSpec | None = None) -> list[NormEstimate]:
    """The estimate of each sup, bit for bit the one it has alone, from one
    grid walk per inner radius: every field is still called on every block,
    but the fields of one walk share the jets of h, g and any other
    expression they evaluate there.  Walks run in order of their first sup;
    each field is refined on its own.  A singular walk covers the punctured
    annulus |z| >= _INNER_RADIUS and marks its estimates diverged."""
    grid = grid or GridSpec()
    out: list = [None] * len(sups)
    for singular in dict.fromkeys(s.singular for s in sups):
        picked = [i for i, s in enumerate(sups) if s.singular == singular]
        inner = _INNER_RADIUS if singular else 0.0
        weighted = [partial(_weighted, sups[i].field, sups[i].weight_power) for i in picked]
        for i, wt, walk in zip(picked, weighted, level_walk(weighted, grid, inner)):
            out[i] = _refine(wt, walk, grid, inner, singular)
    return out


def weighted_sup(field, weight_power: int, grid: GridSpec | None = None) -> NormEstimate:
    """Sup of (1 - |z|^2)^weight_power |field(z)| over the sampling grid.

    `field` must accept a complex ndarray and return one, with NaN marking
    samples that failed to evaluate.  Failed samples are skipped and
    counted; `flagged` is set when more than 1% fail.
    """
    return weighted_sups([Sup(field, weight_power)], grid)[0]


# P_f = c/z + O(1): for c != 0 both norms of f are infinite, and each
# estimate is the sup over the punctured annulus [_INNER_RADIUS, r_max]


def pre_schwarzian_sup(f: LogHarmonicMap) -> Sup:
    return Sup(pre_schwarzian_field(f), 1, singular=origin_exponent(f) != 0)


def schwarzian_sup(f: LogHarmonicMap) -> Sup:
    return Sup(schwarzian_field(f), 2, singular=origin_exponent(f) != 0)


def pre_schwarzian_norm(f: LogHarmonicMap, grid: GridSpec | None = None) -> NormEstimate:
    return weighted_sups([pre_schwarzian_sup(f)], grid)[0]


def schwarzian_norm(f: LogHarmonicMap, grid: GridSpec | None = None) -> NormEstimate:
    return weighted_sups([schwarzian_sup(f)], grid)[0]


def logderiv_field(e: Expr):
    """Vectorized z -> e'(z)/e(z), NaN where not evaluable."""

    def formula(z):
        j = eval_jet(e, z, order=1)
        return j.d1 / j.d0

    return as_field(formula, conjugate=real_coefficients(e))


def bloch_log_sup(g: Expr) -> Sup:
    return Sup(logderiv_field(g), 1)


def bloch_norm_log(g: Expr, grid: GridSpec | None = None) -> NormEstimate:
    """Bloch seminorm of log g: sup (1 - |z|^2) |g'(z)/g(z)|."""
    return weighted_sups([bloch_log_sup(g)], grid)[0]


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
    sample is finite, and ValueError for an r_max outside (0, 1 - 1e-6].
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    _check_r_max(r_max)
    rs = np.linspace(0.0, r_max, samples)
    with np.errstate(all="ignore"):
        weighted = _weighted(field, weight_power, rs, rs.astype(complex))
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
