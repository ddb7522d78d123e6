import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_MAP_NAMES, build
from logharm import render
from logharm.errors import IoFailure
from logharm.expr import parse
from logharm.maps import map_value
from logharm.render import RenderJob, eval_target, mesh_points, render_image

RES = (32, 64)


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "z_re,z_im,w_re,w_im"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    z = np.array([complex(a, b) for a, b, _, _ in rows])
    w = np.array([complex(c, d) for _, _, c, d in rows])
    return z, w


def test_job_validation(tmp_path):
    with pytest.raises(ValueError):
        RenderJob(parse("z"), tmp_path / "x.csv", resolution=(16, 64))
    with pytest.raises(ValueError):
        RenderJob(parse("z"), tmp_path / "x.csv", resolution=(32, 32))
    with pytest.raises(ValueError):
        RenderJob(parse("z"), tmp_path / "x.csv", fmt="png")
    with pytest.raises(ValueError):
        RenderJob(parse("z"), tmp_path / "x.csv", r_max=1.5)


def test_color_field_needs_a_ppm(tmp_path):
    # a CSV row holds z and f(z); there is no pixel to color
    with pytest.raises(ValueError, match="ppm"):
        RenderJob(parse("z"), tmp_path / "x.csv", fmt="csv", color_by_weighted_field=True)


def test_mesh_shape_and_order():
    z = mesh_points(RES, 0.9)
    assert len(z) == 1 + (RES[0] - 1) * RES[1]
    assert z[0] == 0
    # rings are sorted outward and angles ascend within each ring
    r = np.abs(z)
    rings = r[1:].reshape(RES[0] - 1, RES[1])
    assert (np.diff(rings[:, 0]) > 0).all()
    angles = np.angle(z[1 : 1 + RES[1]] / r[1])
    assert angles[0] == 0


def test_disk_automorphism_stays_inside(tmp_path):
    # (2-3z)/(3-2z) maps the disk into itself
    job = RenderJob(parse("(2-3*z)/(3-2*z)"), tmp_path / "m.csv", resolution=RES)
    summary = render_image(job)
    assert summary.skipped == 0
    assert summary.rows == 1 + (RES[0] - 1) * RES[1]
    assert summary.max_abs < 1

    _, w = _read_csv(tmp_path / "m.csv")
    assert np.abs(w).max() < 1


def test_mobius_strict_margin(tmp_path):
    r_max = 0.99
    job = RenderJob(parse("(0.4-z)/(1-0.4*z)"), tmp_path / "a.csv", resolution=RES, r_max=r_max)
    summary = render_image(job)
    bound = (r_max + 0.4) / (1 + 0.4 * r_max)
    assert summary.max_abs <= bound + 1e-12
    assert summary.max_abs < 1


def test_identity_bounding_box(tmp_path):
    r_max = 0.97
    job = RenderJob(parse("z"), tmp_path / "id.csv", resolution=RES, r_max=r_max)
    summary = render_image(job)
    assert summary.bounds == pytest.approx((-r_max, r_max, -r_max, r_max), abs=1e-12)
    assert summary.max_abs == pytest.approx(r_max, abs=1e-15)


def test_pole_rows_skipped_and_counted(tmp_path):
    job = RenderJob(parse("1/z"), tmp_path / "p.csv", resolution=RES)
    summary = render_image(job)
    assert summary.skipped == 1  # only the origin fails
    assert summary.rows == (RES[0] - 1) * RES[1]
    z, _ = _read_csv(tmp_path / "p.csv")
    assert (z != 0).all()


def test_emitted_rows_reproduce_on_reevaluation(tmp_path):
    f = build("logharmonic-koebe")
    job = RenderJob(f, tmp_path / "k.csv", resolution=RES, r_max=0.9)
    summary = render_image(job)
    z, w = _read_csv(tmp_path / "k.csv")
    assert len(z) == summary.rows
    again = eval_target(f, z)
    assert (again == w).all()


def test_every_written_row_of_a_large_render_reevaluates_bit_identically(tmp_path):
    # 31,745 mesh points: the whole-mesh evaluation spans several of as_field's
    # chunks and is past the size at which numpy elides temporaries
    f = build("gap-one-sharp")
    path = tmp_path / "g.csv"
    summary = render_image(RenderJob(f, path, resolution=(32, 1024)))
    z, w = _read_csv(path)
    assert len(z) == summary.rows == 31745 - summary.skipped
    picks = np.random.default_rng(13).choice(len(z), 256, replace=False)
    assert eval_target(f, z[picks]).tobytes() == w[picks].tobytes()


@pytest.mark.parametrize("name", ALL_MAP_NAMES)
def test_values_are_the_same_bits_on_one_call_and_on_slices(name):
    f = build(name)
    z = mesh_points((40, 1024), 1 - 1e-3)
    for image in (map_value, eval_target):
        sliced = np.concatenate([image(f, z[i : i + 2048]) for i in range(0, len(z), 2048)])
        assert image(f, z).tobytes() == sliced.tobytes(), image.__name__


def test_logharmonic_koebe_spot_value():
    f = build("logharmonic-koebe")
    w = eval_target(f, np.array([0.5 + 0j]))[0]
    assert w == pytest.approx(27.299075016572118, rel=1e-12)


def test_ppm_header_and_size(tmp_path):
    path = tmp_path / "disk.ppm"
    job = RenderJob(parse("z"), path, resolution=RES, fmt="ppm")
    summary = render_image(job)
    data = path.read_bytes()
    side = RES[1]
    header = f"P6 {side} {side} 255\n".encode("ascii")
    assert data.startswith(header)
    assert len(data) == len(header) + side * side * 3
    assert summary.fmt == "ppm"
    # at least one lit pixel per emitted ring point (overlaps allowed)
    assert sum(data[len(header):]) > 0


def test_field_colored_render(tmp_path):
    path = tmp_path / "field.ppm"
    job = RenderJob(
        build("gap-one-sharp"),
        path,
        resolution=RES,
        fmt="ppm",
        r_max=0.99,
        color_by_weighted_field=True,
    )
    summary = render_image(job)
    assert summary.skipped == 0
    body = path.read_bytes()[len(f"P6 {RES[1]} {RES[1]} 255\n") :]
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
    lit = pixels[pixels.any(axis=1)]
    assert len(lit) > 0
    assert len(np.unique(lit, axis=0)) > 1  # ramp produced more than one color


def test_unwritable_path_raises(tmp_path):
    job = RenderJob(parse("z"), tmp_path / "missing" / "out.csv", resolution=RES)
    with pytest.raises(IoFailure):
        render_image(job)


# blake2b (16-byte) digests of the files the per-point writers wrote at RES
# with the default r_max; the vectorized writers must reproduce them
GOLDEN = {
    ("gap-one-sharp", "ppm"): "2b8e9aa6ba4055a1015a505c15ba1bbb",
    ("gap-one-sharp", "color"): "75530119d68808aec4fd983090b73827",
    ("gap-one-sharp", "csv"): "aa8cb2b4634f3fa0df7a81f45b7e08e9",
    ("(2-3*z)/(3-2*z)", "ppm"): "de398554fcd84694b516cfbc61780b43",
    ("(2-3*z)/(3-2*z)", "color"): "4c6b4fece8a78752f9ef60328c3f94c4",
    ("(2-3*z)/(3-2*z)", "csv"): "40357bd941f3430594290762297b27f3",
}


@pytest.mark.parametrize("name, mode", sorted(GOLDEN))
def test_output_is_byte_identical_to_golden(name, mode, tmp_path, monkeypatch):
    # blocks of 100 and of 8193 mesh points, neither of which divides the
    # mesh's 1985: the block size must not show in the bytes
    target = parse(name) if name.startswith("(") else build(name)
    fmt = "csv" if mode == "csv" else "ppm"
    path = tmp_path / f"out.{fmt}"
    job = RenderJob(target, path, resolution=RES, fmt=fmt, color_by_weighted_field=mode == "color")
    for rows in (100, 8193):
        monkeypatch.setattr(render, "_BLOCK_ROWS", rows)
        render_image(job)
        digest = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
        assert digest == GOLDEN[name, mode], rows


def _index_rgb(i):
    return np.stack([i % 256, i // 256, np.full_like(i, 7)], axis=1).astype(np.uint8)


def test_repeated_pixel_takes_last_point(tmp_path, monkeypatch):
    # give every mesh point its own color, then replay the writer point by point
    seen = [0]

    def index_colors(vals, ok, top):
        # called once per block, in mesh order
        i = np.arange(seen[0], seen[0] + len(ok))
        seen[0] += len(ok)
        return _index_rgb(i)

    monkeypatch.setattr(render, "_colors", index_colors)
    path = tmp_path / "id.ppm"
    job = RenderJob(parse("z"), path, resolution=RES, fmt="ppm")
    z = mesh_points(RES, job.r_max)
    side = RES[1]
    half = float(np.abs(np.concatenate([z.real, z.imag])).max())
    scale = (side - 1) / (2 * half)
    colors = _index_rgb(np.arange(len(z)))
    want = np.zeros((side, side, 3), dtype=np.uint8)
    owner = {}
    for i, w in enumerate(z):
        pixel = (side - 1 - round((w.imag + half) * scale), round((w.real + half) * scale))
        owner.setdefault(pixel, []).append(i)
        want[pixel] = colors[i]
    assert any(len(points) > 1 for points in owner.values())
    # with blocks of 100 points, some pixel is hit from two blocks: the later block wins
    assert any(len({i // 100 for i in points}) > 1 for points in owner.values())
    for rows in (render._BLOCK_ROWS, 100):
        monkeypatch.setattr(render, "_BLOCK_ROWS", rows)
        seen[0] = 0
        render_image(job)
        assert seen[0] == len(z)
        body = path.read_bytes()[len(f"P6 {side} {side} 255\n") :]
        assert body == want.tobytes(), rows


def test_ramp_top_and_bad_points():
    # 1/z has a pole at the origin, so its weighted field is NaN there
    target = parse("1/z")
    z = mesh_points(RES, 1 - 1e-3)
    ok = np.ones(len(z), dtype=bool)
    ok[-1] = False
    vals = np.abs(render._weighted_field(target)(z)) * (1 - np.abs(z) ** 2)
    # the render's color values are these, computed chunk by chunk with the image
    assert np.array_equal(render._colored_image(target, z)[1], vals, equal_nan=True)
    bad = ~np.isfinite(vals) | ~ok
    assert bad[0] and bad.sum() == 2
    top = render._ramp_top(vals, ok)
    assert top == vals[~bad].max()
    colors = render._colors(vals, ok, top)
    assert tuple(colors[np.nanargmax(np.where(ok, vals, np.nan))]) == render._RAMP_HI
    # point by point, the ramp the colors must equal
    for i in range(len(z)):
        want = render._RAMP_BAD if bad[i] else [
            round(lo + vals[i] / top * (hi - lo))
            for lo, hi in zip(render._RAMP_LO, render._RAMP_HI)
        ]
        assert list(colors[i]) == list(want), i


@pytest.mark.parametrize("fmt, colored", [("ppm", False), ("ppm", True), ("csv", False)])
def test_render_memory_is_bounded(fmt, colored, tmp_path):
    # besides the mesh, its image, their finite mask, the color values and
    # the canvas, a render holds only blocks of a fixed size
    resolution = (300, 1024)
    points = 1 + (resolution[0] - 1) * resolution[1]
    target = build("gap-one-sharp") if fmt == "ppm" else parse("(2-3*z)/(3-2*z)")
    job = RenderJob(target, tmp_path / f"m.{fmt}", resolution=resolution, fmt=fmt,
                    color_by_weighted_field=colored)
    render_image(job)  # the imports and one-time set-up are not the render's
    tracemalloc.start()
    try:
        render_image(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    canvas = 3 * resolution[1] ** 2 if fmt == "ppm" else 0
    assert peak <= 48 * points + canvas + 8 * 2**20, peak / points


def _repr_csv(rows):
    """The CSV lines of `rows` in Python float repr, one row per line."""
    return "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()).encode("ascii")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_FINITE, _FINITE, _FINITE, _FINITE), min_size=1, max_size=30))
def test_csv_block_matches_repr(rows):
    rows = np.array(rows, dtype=np.float64)
    assert render._csv_block(rows) == _repr_csv(rows)


# where repr switches to and from scientific notation, and the extremes
_NOTATION_EDGES = [
    y
    for x in (1e-4, 1e-5, 1e-10, 1e16)
    for y in (np.nextafter(x, 0), x, np.nextafter(x, np.inf))
] + [9.999999999999998e15, 5e-324, np.finfo(np.float64).max, 0.0, -0.0]


def test_csv_block_matches_repr_at_notation_edges():
    edges = np.array(_NOTATION_EDGES, dtype=np.float64)
    ordinary = np.full_like(edges, 0.3)
    rows = np.concatenate([
        np.stack([edges, ordinary, -edges, ordinary], axis=1),
        np.stack([ordinary, -edges, ordinary, edges], axis=1),
        [[0.5, -0.25, 1.0, 2.0]],
    ])
    assert render._csv_block(rows) == _repr_csv(rows)


@pytest.mark.parametrize("name", ["gap-one-sharp", "mobius-gap-a99"])
def test_csv_file_matches_repr_oracle(name, tmp_path):
    # near the boundary these maps have image coordinates repr writes in
    # scientific notation, so many rows take the fallback
    resolution, r_max = (64, 256), 1 - 1e-3
    target = build(name)
    path = tmp_path / "out.csv"
    render_image(RenderJob(target, path, resolution=resolution, r_max=r_max))
    z = mesh_points(resolution, r_max)
    w = eval_target(target, z)
    ok = np.isfinite(w)
    rows = np.stack([z.real, z.imag, w.real, w.imag], axis=1)[ok]
    want = _repr_csv(rows)
    assert sum(b"e" in line for line in want.split(b"\n")) > 100
    assert path.read_bytes() == b"z_re,z_im,w_re,w_im\n" + want
