"""Images of the unit disk as point clouds (CSV) or rasters (PPM).

The mesh is the norm sweeps' polar grid, bit for bit: the origin, then
rings of uniform angles at radii accumulating geometrically at the
boundary (`norms.level_walk`).  So a colored render doubles as a picture
of a weighted derivative field, on the very points a sweep samples.
Rows are emitted in (r, theta) order, and every written w re-evaluates
bit-identically through `eval_target`, on the whole mesh or on any subset
of its points: fields evaluate in chunks too small for numpy to elide a
temporary (`maps.as_field`), so a value's bits do not depend on the call.

The render evaluates the mesh in blocks of whole rings, as many as fit in
`maps._CHUNK_POINTS` points (one, if a ring is larger), under one
`expr.shared_jets` hold, as the sweep walks it: the origin alone, then
each block held with the upper half of its rings, columns 0..n/2, when
the ring size n is even.  A target whose data have real coefficients
then evaluates its image, and its color field, on that half only and
fills the lower half by conjugation (`maps.as_field`); any other target,
and every odd ring, is evaluated whole.  A colored render evaluates the
field and then the image on each block, so the image reads a prefix of
the jets the field computed: the same bits, because jet arithmetic is
triangular.

A render keeps four arrays as long as the mesh: the mesh z, its image w,
the finite mask of w and, when colored, the weighted field.  Everything
else runs over blocks of `_BLOCK_ROWS` consecutive mesh points: the
summary, the CSV rows, the color ramp and the pixel scatter, which
colors only the points that end up owning a pixel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AllSamplesFailed, IoFailure
from .expr import Expr, eval_value, real_coefficients, shared_jets
from .maps import (
    _CHUNK_POINTS,
    LogHarmonicMap,
    _real_data,
    analytic_pre_schwarzian_field,
    as_field,
    map_value,
    pre_schwarzian_field,
)
from .norms import _radii, _ring

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
        try:
            radial, angular = self.resolution
        except (TypeError, ValueError):
            radial = angular = None
        for value in (radial, angular):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"resolution must be two integers, got {self.resolution!r}")
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
    """The origin, then (radial - 1) rings of `angular` points, in (r, theta)
    order: bit for bit the points `norms.level_walk` samples on the grid of
    `radial` levels, `angular` angles and this r_max.  An even ring's lower
    half is the conjugate of its upper half (`norms._ring`)."""
    radial, angular = resolution
    radii = _radii(0.0, r_max, radial)
    _, ring = _ring(angular)
    z = np.empty(1 + (radial - 1) * angular, dtype=complex)
    z[0] = 0j
    np.multiply(radii[1:, None], ring, out=z[1:].reshape(radial - 1, angular))
    return z


def eval_target(target: Expr | LogHarmonicMap, z: np.ndarray) -> np.ndarray:
    """Vectorized image points; non-evaluable mesh points come back NaN.

    On a block of mesh rings that `_evaluate` holds with its upper half, a
    target whose data have real coefficients (`maps._real_data`,
    ``expr.real_coefficients``) is evaluated on that half, and its lower
    half is the conjugate (`maps.as_field`): the same bits as evaluating
    the block whole."""
    if isinstance(target, LogHarmonicMap):
        image, real = map_value, _real_data(target)
    else:
        image, real = eval_value, real_coefficients(target)
    return as_field(lambda z: image(target, z), conjugate=real)(z)


def _weighted_field(target: Expr | LogHarmonicMap):
    if isinstance(target, LogHarmonicMap):
        return pre_schwarzian_field(target)
    return analytic_pre_schwarzian_field(target)


def _evaluate(target: Expr | LogHarmonicMap, z: np.ndarray, angular: int, colored: bool):
    """(w, vals) on the mesh z of rings of `angular` points: the image w and,
    when colored, the weighted field (1-|z|^2)|P_f|, else None.

    The origin is one block, then each block is as many whole rings as fit
    in `_CHUNK_POINTS` points, at least one, held under one jet hold with the
    upper half of its rings when `angular` is even, as `norms.level_walk`
    holds its blocks.
    A colored block evaluates the field first: it reads h and g to order 2,
    and the image reads their order-0 prefix."""
    field = _weighted_field(target) if colored else None
    w = np.empty_like(z)
    vals = np.empty(len(z)) if colored else None
    step = max(1, _CHUNK_POINTS // angular) * angular
    parts = [slice(0, 1)] + [slice(i, i + step) for i in range(1, len(z), step)]
    with shared_jets() as hold:
        for part in parts:
            zs = z[part] if part.start == 0 else z[part].reshape(-1, angular)
            mirrored = zs.ndim == 2 and angular % 2 == 0
            hold(zs, zs[:, : angular // 2 + 1].copy() if mirrored else None)
            if colored:
                vals[part] = (np.abs(field(zs)) * (1 - np.abs(zs) ** 2)).ravel()
            w[part] = eval_target(target, zs).ravel()
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
        kept = np.flatnonzero(ok[part])
        ws = w[part][kept]
        # np.rint rounds half to even, as round() does
        px = np.rint((ws.real + half) * scale).astype(np.intp)
        py = side - 1 - np.rint((ws.imag + half) * scale).astype(np.intp)
        # a pixel hit more than once takes the last point in (r, theta)
        # order: the last one within the block, and blocks paint in order
        flat = py * side + px
        _, first_from_end = np.unique(flat[::-1], return_index=True)
        last = len(flat) - 1 - first_from_end
        # only the points that own a pixel are colored: far fewer than the
        # block's where many points share a pixel
        own = kept[last]
        canvas[flat[last]] = _colors(None if vals is None else vals[part][own], ok[part][own], top)
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
    w, vals = _evaluate(job.target, z, job.resolution[1], job.color_by_weighted_field)
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
