"""Images of the unit disk as point clouds (CSV) or rasters (PPM).

The mesh is polar with uniform angles and radii accumulating
geometrically at the boundary, the same ladder the norm sweeps walk, so
a colored render doubles as a picture of a weighted derivative field.
Rows are emitted in (r, theta) order and every written w re-evaluates
bit-identically through the vectorized path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AllSamplesFailed, IoFailure
from .expr import Expr, eval_value
from .maps import (
    LogHarmonicMap,
    analytic_pre_schwarzian_field,
    as_field,
    map_value,
    pre_schwarzian_field,
)
from .norms import _radii

_FORMATS = ("csv", "ppm")

# color ramp endpoints for the weighted-field mode, low to high
_RAMP_LO = (40, 40, 160)
_RAMP_HI = (255, 230, 40)
_RAMP_BAD = (90, 90, 90)


@dataclass(frozen=True)
class RenderJob:
    """What to draw, where, and how finely."""

    target: Expr | LogHarmonicMap
    path: str | Path
    resolution: tuple[int, int] = (64, 128)
    fmt: str = "csv"
    r_max: float = 1 - 1e-3
    color_by_weighted_field: bool = False

    def __post_init__(self):
        radial, angular = self.resolution
        if radial < 32 or angular < 64:
            raise ValueError("resolution must be at least (32, 64)")
        if self.fmt not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")
        if not 0 < self.r_max < 1:
            raise ValueError("r_max must lie in (0, 1)")


@dataclass(frozen=True)
class RenderSummary:
    path: Path
    fmt: str
    rows: int
    skipped: int
    bounds: tuple[float, float, float, float]
    max_abs: float


def mesh_points(resolution: tuple[int, int], r_max: float) -> np.ndarray:
    """Origin plus (radial - 1) rings of `angular` points, sorted by (r, theta)."""
    radial, angular = resolution
    radii = _radii(0.0, r_max, radial)
    thetas = np.arange(angular) * (2 * math.pi / angular)
    rings = [np.array([0j])]
    for r in radii[1:]:
        rings.append(r * np.exp(1j * thetas))
    return np.concatenate(rings)


def eval_target(target: Expr | LogHarmonicMap, z: np.ndarray) -> np.ndarray:
    """Vectorized image points; non-evaluable mesh points come back NaN."""
    image = map_value if isinstance(target, LogHarmonicMap) else eval_value
    return as_field(lambda z: image(target, z))(z)


def _weighted_field(target: Expr | LogHarmonicMap):
    if isinstance(target, LogHarmonicMap):
        return pre_schwarzian_field(target)
    return analytic_pre_schwarzian_field(target)


def _write_csv(path: Path, z: np.ndarray, w: np.ndarray, ok: np.ndarray) -> None:
    lines = ["z_re,z_im,w_re,w_im"]
    for zi, wi, good in zip(z, w, ok):
        if not good:
            continue
        lines.append(
            f"{float(zi.real)!r},{float(zi.imag)!r},{float(wi.real)!r},{float(wi.imag)!r}"
        )
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from None


def _colors(job: RenderJob, z: np.ndarray, ok: np.ndarray) -> np.ndarray:
    n = len(z)
    out = np.full((n, 3), 255, dtype=np.uint8)
    if not job.color_by_weighted_field:
        return out
    field = _weighted_field(job.target)
    with np.errstate(all="ignore"):
        vals = np.abs(field(z)) * (1 - np.abs(z) ** 2)
    good = ok & np.isfinite(vals)
    top = float(vals[good].max()) if good.any() else 0.0
    for i in range(n):
        if not good[i]:
            out[i] = _RAMP_BAD
            continue
        t = vals[i] / top if top > 0 else 0.0
        out[i] = [round(lo + t * (hi - lo)) for lo, hi in zip(_RAMP_LO, _RAMP_HI)]
    return out


def _write_ppm(job: RenderJob, path: Path, z: np.ndarray, w: np.ndarray, ok: np.ndarray) -> None:
    side = job.resolution[1]
    half = float(np.max(np.abs(np.concatenate([w[ok].real, w[ok].imag]))))
    if half <= 0:
        half = 1.0
    scale = (side - 1) / (2 * half)
    canvas = np.zeros((side, side, 3), dtype=np.uint8)
    colors = _colors(job, z, ok)
    for i in np.flatnonzero(ok):
        px = int(round((w[i].real + half) * scale))
        py = side - 1 - int(round((w[i].imag + half) * scale))
        canvas[py, px] = colors[i]
    try:
        with open(path, "wb") as fh:
            fh.write(f"P6 {side} {side} 255\n".encode("ascii"))
            fh.write(canvas.tobytes())
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from None


def render_image(job: RenderJob) -> RenderSummary:
    """Evaluate the target on the mesh and write the chosen format.

    Pole rows are skipped and counted; the summary's bounds and max
    modulus are taken over the surviving image points.
    """
    z = mesh_points(job.resolution, job.r_max)
    w = eval_target(job.target, z)
    ok = np.isfinite(w)
    if not ok.any():
        raise AllSamplesFailed("no mesh point evaluated")
    path = Path(job.path)
    if job.fmt == "csv":
        _write_csv(path, z, w, ok)
    else:
        _write_ppm(job, path, z, w, ok)
    ws = w[ok]
    return RenderSummary(
        path=path,
        fmt=job.fmt,
        rows=int(ok.sum()),
        skipped=int((~ok).sum()),
        bounds=(
            float(ws.real.min()),
            float(ws.real.max()),
            float(ws.imag.min()),
            float(ws.imag.max()),
        ),
        max_abs=float(np.abs(ws).max()),
    )
