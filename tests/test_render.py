import numpy as np
import pytest

from conftest import build
from logharm.errors import IoFailure
from logharm.expr import parse
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
