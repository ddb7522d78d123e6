"""Images of the unit disk as point clouds (CSV) or rasters (PPM).

The mesh is polar with uniform angles and radii accumulating
geometrically at the boundary, the same ladder the norm sweeps walk, so
a colored render doubles as a picture of a weighted derivative field.
Rows are emitted in (r, theta) order, and every written w re-evaluates
bit-identically through `eval_target`, on the whole mesh or on any subset
of its points: fields evaluate in chunks too small for numpy to elide a
temporary (`maps.as_field`), so a value's bits do not depend on the call.
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

# CSV rows formatted per write; bounds the bytes and fallback strings alive at once
_CSV_BLOCK_ROWS = 1 << 14


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
    ring = np.exp(1j * (np.arange(angular) * (2 * math.pi / angular)))
    return np.concatenate([[0j], (radii[1:, None] * ring).ravel()])


def eval_target(target: Expr | LogHarmonicMap, z: np.ndarray) -> np.ndarray:
    """Vectorized image points; non-evaluable mesh points come back NaN."""
    image = map_value if isinstance(target, LogHarmonicMap) else eval_value
    return as_field(lambda z: image(target, z))(z)


def _weighted_field(target: Expr | LogHarmonicMap):
    if isinstance(target, LogHarmonicMap):
        return pre_schwarzian_field(target)
    return analytic_pre_schwarzian_field(target)


def _csv_block(rows: np.ndarray) -> bytes:
    """The CSV lines of finite float64 `rows`, each value in the digits of
    its Python `repr`: the shortest string that round-trips."""
    # orjson writes ryu's shortest digits, which repr also picks; the two
    # differ only in the notation of values repr writes in scientific form
    mag = np.abs(rows)
    scientific = (((mag < 1e-4) & (mag != 0)) | (mag >= 1e16)).any(axis=1)
    parts = []
    start = 0
    for i in np.flatnonzero(scientific).tolist() + [len(rows)]:
        if i > start:
            parts.append(_orjson_lines(rows[start:i]))
        if i < len(rows):
            parts.append((",".join(map(repr, rows[i].tolist())) + "\n").encode("ascii"))
        start = i + 1
    return b"".join(parts)


def _orjson_lines(rows: np.ndarray) -> bytes:
    """The CSV lines of `rows` from one orjson dump of their values as one
    flat list.  A row ends at every n-th comma of the list, for n columns,
    and at its closing bracket: those bytes become newlines in place, and
    the opening bracket is dropped."""
    import orjson  # only the CSV writer pays its import

    body = orjson.dumps(rows.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
    text = np.frombuffer(body, dtype=np.uint8)[1:].copy()
    n = rows.shape[1]
    text[np.flatnonzero(text == ord(","))[n - 1 :: n]] = ord("\n")
    text[-1] = ord("\n")
    return text.tobytes()


def _write_csv(path: Path, z: np.ndarray, w: np.ndarray, ok: np.ndarray) -> None:
    cols = np.stack([z.real, z.imag, w.real, w.imag])[:, ok]
    try:
        with path.open("wb") as fh:
            fh.write(b"z_re,z_im,w_re,w_im\n")
            for first in range(0, cols.shape[1], _CSV_BLOCK_ROWS):
                fh.write(_csv_block(cols[:, first : first + _CSV_BLOCK_ROWS].T))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from None


def _colors(job: RenderJob, z: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """One RGB row per mesh point: white, or the ramp over (1-|z|^2)|P_f|
    scaled by its max, gray where that field is not finite."""
    if not job.color_by_weighted_field:
        return np.full((len(z), 3), 255, dtype=np.uint8)
    vals = np.abs(_weighted_field(job.target)(z)) * (1 - np.abs(z) ** 2)
    good = ok & np.isfinite(vals)
    top = float(vals[good].max()) if good.any() else 0.0
    t = np.where(good, vals / top, 0.0) if top > 0 else np.zeros(len(z))
    lo, hi = np.array(_RAMP_LO), np.array(_RAMP_HI)
    out = np.rint(lo + t[:, None] * (hi - lo)).astype(np.uint8)
    out[~good] = _RAMP_BAD
    return out


def _write_ppm(job: RenderJob, path: Path, z: np.ndarray, w: np.ndarray, ok: np.ndarray) -> None:
    side = job.resolution[1]
    # the color field is the render's memory peak: evaluate it before the pixel arrays
    colors = _colors(job, z, ok)[ok]
    ws = w[ok]
    half = float(np.max(np.abs(np.concatenate([ws.real, ws.imag]))))
    if half <= 0:
        half = 1.0
    scale = (side - 1) / (2 * half)
    # np.rint rounds half to even, as round() does
    px = np.rint((ws.real + half) * scale).astype(np.intp)
    py = side - 1 - np.rint((ws.imag + half) * scale).astype(np.intp)
    # a pixel hit more than once takes the last point in (r, theta) order
    flat = py * side + px
    _, first_from_end = np.unique(flat[::-1], return_index=True)
    last = len(flat) - 1 - first_from_end
    canvas = np.zeros((side * side, 3), dtype=np.uint8)
    canvas[flat[last]] = colors[last]
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
