"""Images of the unit disk as point clouds (CSV) or rasters (PPM).

The mesh is polar with uniform angles and radii accumulating
geometrically at the boundary, the same ladder the norm sweeps walk, so
a colored render doubles as a picture of a weighted derivative field.
Rows are emitted in (r, theta) order, and every written w re-evaluates
bit-identically through `eval_target`, on the whole mesh or on any subset
of its points: fields evaluate in chunks too small for numpy to elide a
temporary (`maps.as_field`), so a value's bits do not depend on the call.

A render keeps four arrays as long as the mesh: the mesh z, its image w,
the finite mask of w and, when colored, the weighted field.  Everything
else runs over blocks of `_BLOCK_ROWS` consecutive mesh points: the
summary, the CSV rows, the color ramp and the pixel scatter.  A colored
render evaluates the field and then the image on each of `as_field`'s
chunks under one `expr.shared_jets` hold, so the image reads a prefix of
the jets the field computed: the same bits, because jet arithmetic is
triangular.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AllSamplesFailed, IoFailure
from .expr import Expr, eval_value, shared_jets
from .maps import (
    _CHUNK_POINTS,
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

# mesh points per step of the summary and the writers; bounds the rows, bytes
# and pixel indices alive at once
_BLOCK_ROWS = 1 << 13


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
        if self.color_by_weighted_field and self.fmt == "csv":
            raise ValueError("a CSV holds points, not colors: color_by_weighted_field needs ppm")


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
    z = np.empty(1 + (radial - 1) * angular, dtype=complex)
    z[0] = 0j
    np.multiply(radii[1:, None], ring, out=z[1:].reshape(radial - 1, angular))
    return z


def eval_target(target: Expr | LogHarmonicMap, z: np.ndarray) -> np.ndarray:
    """Vectorized image points; non-evaluable mesh points come back NaN."""
    image = map_value if isinstance(target, LogHarmonicMap) else eval_value
    return as_field(lambda z: image(target, z))(z)


def _weighted_field(target: Expr | LogHarmonicMap):
    if isinstance(target, LogHarmonicMap):
        return pre_schwarzian_field(target)
    return analytic_pre_schwarzian_field(target)


def _colored_image(target: Expr | LogHarmonicMap, z: np.ndarray):
    """(w, (1-|z|^2)|P_f|) on the mesh, both on each of as_field's chunks
    under one jet hold, the field first: it reads h and g to order 2, and
    the image reads their order-0 prefix."""
    field = _weighted_field(target)
    w = np.empty_like(z)
    vals = np.empty(len(z))
    with shared_jets() as hold:
        for i in range(0, len(z), _CHUNK_POINTS):
            part = slice(i, i + _CHUNK_POINTS)
            zc = z[part]
            hold(zc)
            vals[part] = np.abs(field(zc)) * (1 - np.abs(zc) ** 2)
            w[part] = eval_target(target, zc)
    return w, vals


def _blocks(n: int):
    return (slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS))


def _extent(w: np.ndarray, ok: np.ndarray):
    """((min re, max re, min im, max im), max |w|) over the finite w."""
    lo_re = lo_im = math.inf
    hi_re = hi_im = max_abs = -math.inf
    for part in _blocks(len(w)):
        ws = w[part][ok[part]]
        if ws.size:
            re, im = ws.real, ws.imag
            lo_re, hi_re = min(lo_re, float(re.min())), max(hi_re, float(re.max()))
            lo_im, hi_im = min(lo_im, float(im.min())), max(hi_im, float(im.max()))
            max_abs = max(max_abs, float(np.abs(ws).max()))
    return (lo_re, hi_re, lo_im, hi_im), max_abs


def _csv_block(rows: np.ndarray) -> bytearray:
    """The CSV lines of finite float64 `rows`, each value in the digits of
    its Python `repr`: the shortest string that round-trips.

    The block is one orjson dump of its values as one flat list.  A row
    ends at every n-th comma of the list, for n columns, and at its closing
    bracket: those bytes become newlines in place, and the opening bracket
    is dropped.  orjson writes ryu's shortest digits, which repr also
    picks; the two differ only in the notation of values repr writes in
    scientific form, and only those values are re-written, with repr.
    """
    import orjson  # only the CSV writer pays its import

    if not len(rows):
        return bytearray()
    values = rows.ravel()
    text = bytearray(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY))
    del text[0]
    chars = np.frombuffer(text, dtype=np.uint8)
    # value k ends at the k-th comma, the last one at the closing bracket
    ends = np.flatnonzero(chars == ord(","))
    n = rows.shape[1]
    chars[ends[n - 1 :: n]] = ord("\n")
    chars[-1] = ord("\n")
    mag = np.abs(values)
    redo = np.flatnonzero(((mag < 1e-4) & (mag != 0)) | (mag >= 1e16))
    if not redo.size:
        return text
    ends = np.append(ends, len(chars) - 1)
    starts = np.where(redo > 0, ends[redo - 1] + 1, 0).tolist()
    reprs = ",".join(map(repr, values[redo].tolist())).encode("ascii").split(b",")
    view = memoryview(text)
    pieces = [None] * (2 * len(reprs) + 1)
    pieces[::2] = [view[a:b] for a, b in zip([0] + ends[redo].tolist(), starts + [len(view)])]
    pieces[1::2] = reprs
    return bytearray().join(pieces)


def _write_csv(path: Path, z: np.ndarray, w: np.ndarray, ok: np.ndarray) -> None:
    # (re, im) pairs as two float columns, without a copy
    zs, ws = z.view(float).reshape(-1, 2), w.view(float).reshape(-1, 2)
    try:
        with path.open("wb") as fh:
            fh.write(b"z_re,z_im,w_re,w_im\n")
            for part in _blocks(len(z)):
                keep = ok[part]
                fh.write(_csv_block(np.concatenate([zs[part][keep], ws[part][keep]], axis=1)))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from None


def _ramp_top(vals: np.ndarray, ok: np.ndarray) -> float:
    """The max of the finite vals at the ok points, or 0 if there is none."""
    top = 0.0
    for part in _blocks(len(vals)):
        v = vals[part][ok[part]]
        v = v[np.isfinite(v)]
        if v.size:
            top = max(top, float(v.max()))
    return top


def _colors(vals: np.ndarray | None, ok: np.ndarray, top: float) -> np.ndarray:
    """One RGB row per point of a block: white without vals, else the ramp
    over vals / top, gray where vals is not finite or the point not ok."""
    if vals is None:
        return np.full((len(ok), 3), 255, dtype=np.uint8)
    good = ok & np.isfinite(vals)
    t = np.where(good, vals / top, 0.0) if top > 0 else np.zeros(len(vals))
    lo, hi = np.array(_RAMP_LO), np.array(_RAMP_HI)
    out = np.rint(lo + t[:, None] * (hi - lo)).astype(np.uint8)
    out[~good] = _RAMP_BAD
    return out


def _write_ppm(
    path: Path, side: int, w: np.ndarray, ok: np.ndarray, vals: np.ndarray | None, bounds
) -> None:
    half = max(abs(b) for b in bounds)
    if half <= 0:
        half = 1.0
    scale = (side - 1) / (2 * half)
    top = _ramp_top(vals, ok) if vals is not None else 0.0
    canvas = np.zeros((side * side, 3), dtype=np.uint8)
    for part in _blocks(len(w)):
        keep = ok[part]
        ws = w[part][keep]
        # np.rint rounds half to even, as round() does
        px = np.rint((ws.real + half) * scale).astype(np.intp)
        py = side - 1 - np.rint((ws.imag + half) * scale).astype(np.intp)
        # a pixel hit more than once takes the last point in (r, theta)
        # order: the last one within the block, and blocks paint in order
        flat = py * side + px
        _, first_from_end = np.unique(flat[::-1], return_index=True)
        last = len(flat) - 1 - first_from_end
        colors = _colors(None if vals is None else vals[part], keep, top)[keep]
        canvas[flat[last]] = colors[last]
    try:
        with open(path, "wb") as fh:
            fh.write(f"P6 {side} {side} 255\n".encode("ascii"))
            fh.write(canvas)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from None


def render_image(job: RenderJob) -> RenderSummary:
    """Evaluate the target on the mesh and write the chosen format.

    Pole rows are skipped and counted; the summary's bounds and max
    modulus are taken over the surviving image points.
    """
    z = mesh_points(job.resolution, job.r_max)
    if job.color_by_weighted_field and job.fmt == "ppm":
        w, vals = _colored_image(job.target, z)
    else:
        w, vals = eval_target(job.target, z), None
    ok = np.isfinite(w)
    rows = int(np.count_nonzero(ok))
    if not rows:
        raise AllSamplesFailed("no mesh point evaluated")
    bounds, max_abs = _extent(w, ok)
    path = Path(job.path)
    if job.fmt == "csv":
        _write_csv(path, z, w, ok)
    else:
        _write_ppm(path, job.resolution[1], w, ok, vals, bounds)
    return RenderSummary(
        path=path,
        fmt=job.fmt,
        rows=rows,
        skipped=len(z) - rows,
        bounds=bounds,
        max_abs=max_abs,
    )
