"""The operations each workload times, and how each result is verified.

Targets and tolerances come from the package's ``fixtures.json``.  The seed
picks the order of operations in each pass, the points of the scalar
operators and the CSV rows that are re-evaluated; it never changes a
target.  Every package function is looked up on its module at call time,
so a `spans.Tracer` sees the call.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from logharm import cli, expr, fixtures, maps, norms, render

NAMES = ("sharp-norms", "catalog-checks", "render-disk")

# span layers whose figures a workload's own passes produce; the others
# come from a traced probe (see `probe_ops`)
LAYERS = {
    "sharp-norms": frozenset({"maps", "norms"}),
    "catalog-checks": frozenset({"maps", "norms", "criteria", "fixtures", "cli"}),
    "render-disk": frozenset({"maps", "render"}),
}

# catalog metric -> user-level call; the two weighted_sup forms are how
# the package itself computes those catalog values
NORM_CALLS = {
    "pre_schwarzian_norm": lambda fx, grid: norms.pre_schwarzian_norm(fx.map, grid),
    "schwarzian_norm": lambda fx, grid: norms.schwarzian_norm(fx.map, grid),
    "bloch_log_g": lambda fx, grid: norms.bloch_norm_log(fx.map.g, grid),
    "product_pre_schwarzian_norm": lambda fx, grid: norms.weighted_sup(
        maps.analytic_pre_schwarzian_field(expr.Mul(fx.map.h, fx.map.g)), 1, grid
    ),
    "member_pre_schwarzian_norm": lambda fx, grid: norms.weighted_sup(
        maps.hg_epsilon_field(fx.map, fx.eps), 1, grid
    ),
}

# `logharm check` inputs with the verdict their closed forms force
CHECKS = (
    ("becker", ["--expr", "z/(1-z)^2"], "fail",
     "Koebe: (1-r^2) r |k''/k'| tends to 6 as r -> 1"),
    ("nehari", ["--expr", "exp(z)"], "pass",
     "S = -1/2, so the weighted sup is 1/2, at the origin"),
    ("schwarz-pick", ["--omega", "(0.6-z)/(1-0.6*z)"], "pass",
     "a disk automorphism: equality at every point"),
    ("eps-univalence", ["--h", "z/(1-z)", "--g", "1/(1-z)", "--eps", "-1"], "fail",
     "margin 0.75 * 16/3 - 1 = 3 at z = 1/2"),
    ("norm-gap", ["--h", "exp(z/(1-z))", "--g", "exp(-z/(1-z))/(1-z)"], "pass",
     "gap 5 - 4 = 1 meets the sharp bound 1"),
    ("eps-norm-gap", ["--h", "z/(1-z)", "--g", "1/(1-z)", "--eps", "-1"], "pass",
     "gap 5 - 0 equals the bound 1 + 2 * 2"),
    ("norm-bound", ["--h", "exp(z)", "--g", "1"], "pass",
     "P_f = 1 and the hypothesis sup (1-r^2) r = 2/(3 sqrt 3) < 1"),
    ("starlike", ["--m", "1", "--beta", "2", "--h", "1/(1-z)", "--g", "1-z"], "pass",
     "functional 1 + 2 Re(z/(1-z)) > 0"),
    ("associated-starlike", ["--m", "1", "--h", "1/(1-z)", "--g", "1/(1-z)"], "pass",
     "the companion z h/g is z"),
)

RENDER_EXPR = "(2-3*z)/(3-2*z)"
RENDER_MAP = "gap-one-sharp"
SCALAR_OPS = ("pre_schwarzian", "schwarzian", "map_value", "dilatation")
# scalar operators are compared with the array path to 1e-12 relative, times
# the condition number 1/(1 - |omega|^2) of the omega term of P_f and S_f
SCALAR_RTOL = 1e-12
CSV_SAMPLE_ROWS = 256


@dataclass(frozen=True)
class Config:
    render_resolution: tuple[int, int] = (200, 1024)
    probe_render_resolution: tuple[int, int] = (64, 256)
    setup_launches: int = 7
    micro_reps: int = 7


TINY = Config(
    render_resolution=(32, 64),
    probe_render_resolution=(32, 64),
    setup_launches=1,
    micro_reps=2,
)


@dataclass
class Verdict:
    ok: bool
    fingerprint: str  # repr of everything that must repeat bit for bit
    err: float | None = None  # |computed - expected| / tol, where a target exists
    detail: str = ""
    attrs: dict = field(default_factory=dict)  # copied onto the op's span


@dataclass
class Op:
    kind: str  # norm | fixture | check | scalar | render
    key: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    fixture_names: tuple[str, ...]  # maps built at set-up
    exprs: tuple[str, ...]  # extra expressions parsed at set-up
    layers: frozenset


def catalog() -> list[dict]:
    """The raw entries of the package's fixtures.json."""
    text = resources.files("logharm").joinpath("fixtures.json").read_text("utf-8")
    return json.loads(text)["fixtures"]


def catalog_targets() -> dict:
    """(fixture, metric) -> (expected, tol, relative) for numeric targets."""
    out = {}
    for item in catalog():
        for c in item["checks"]:
            if "tol" in c and "arg" not in c:
                out[(item["name"], c["metric"])] = (c["expect"], c["tol"], bool(c.get("rel")))
    return out


def err_ratio(computed, expected, tol: float, relative: bool) -> float:
    if isinstance(expected, list):
        expected = complex(*expected)
    diff = abs(complex(computed) - complex(expected))
    scale = tol * abs(complex(expected)) if relative else tol
    if scale == 0:
        return 0.0 if diff == 0 else math.inf
    return diff / scale


def seeded_point(rng: np.random.Generator) -> complex:
    r = rng.uniform(0.05, 0.95)
    return complex(r * np.exp(1j * rng.uniform(0.0, 2 * math.pi)))


# -- sharp-norms ---------------------------------------------------------


def _norm_op(fx, metric: str, target, grid) -> Op:
    def check(est) -> Verdict:
        fp = repr((est.value, est.argmax, est.samples, est.failed_samples,
                   est.refine_values, est.diverged))
        finite = math.isfinite(est.value) and math.isfinite(abs(est.argmax))
        err = err_ratio(est.value, *target) if finite else math.inf
        return Verdict(finite and err <= 1, fp, err,
                       f"{metric} of {fx.name} = {est.value!r}, expected {target[0]}")

    return Op("norm", f"{metric}:{fx.name}", lambda: NORM_CALLS[metric](fx, grid), check)


def sharp_norm_ops(targets: dict) -> list[Op]:
    grid = norms.GridSpec()
    ops = []
    for name in fixtures.fixture_names():
        fx = fixtures.load_fixture(name)
        for c in fx.checks:
            if c["metric"] in NORM_CALLS:
                ops.append(_norm_op(fx, c["metric"], targets[(name, c["metric"])], grid))
    return ops


# -- catalog-checks ------------------------------------------------------


def _fixture_op(name: str) -> Op:
    def check(res) -> Verdict:
        errs = [
            err_ratio(r.computed, r.expected, r.tol, r.relative)
            for r in res.rows
            if r.tol is not None and not isinstance(r.expected, str)
        ]
        failed = [r.metric for r in res.rows if not r.ok]
        fp = repr([(r.metric, r.arg, r.computed, r.ok) for r in res.rows])
        return Verdict(not failed, fp, max(errs, default=None),
                       f"fixture {name}: rows not ok {failed}",
                       {"rows": len(res.rows), "rows_failed": len(failed)})

    return Op("fixture", name, lambda: fixtures.run_fixture(name), check)


def _check_op(name: str, flags: list[str], expected: str, out: Path) -> Op:
    path = out / f"check-{name}.json"
    argv = ["check", "--name", name, *flags, "--output", str(path)]

    def check(code) -> Verdict:
        report = json.loads(path.read_text("utf-8"))
        want_code = 0 if expected == "pass" else 1
        ok = report["verdict"] == expected and code == want_code
        fp = repr((code, report["verdict"], report["worst_margin"],
                   report["worst_point"], report["samples"], report["extras"]))
        return Verdict(ok, fp, None,
                       f"check {name}: verdict {report['verdict']} exit {code}, "
                       f"expected {expected}",
                       {"report_bytes": path.stat().st_size})

    return Op("check", name, lambda: cli.main(argv), check)


def _scalar_op(fx, op: str, z: complex) -> Op:
    f = fx.map
    omega_tol = next(
        (c["tol"] for c in fx.checks if c["metric"] == "omega_matches_closed_form"), None
    )

    def check(value) -> Verdict:
        value = complex(value)
        if op == "dilatation":
            # no array path exists for omega; compare with the closed form
            ref = complex(expr.eval_value(fx.omega, z))
            tol = omega_tol
        else:
            arr = np.array([z])
            ref = complex({
                "pre_schwarzian": lambda: maps.pre_schwarzian_field(f)(arr)[0],
                "schwarzian": lambda: maps.schwarzian_field(f)(arr)[0],
                "map_value": lambda: maps.map_value(f, arr)[0],
            }[op]())
            cond = 1.0
            if op != "map_value":
                cond = 1.0 / (1.0 - abs(maps.dilatation(f, z)) ** 2)
            tol = SCALAR_RTOL * cond * max(abs(value), abs(ref))
        ok = math.isfinite(abs(value)) and abs(value - ref) <= tol
        return Verdict(ok, repr(value), None,
                       f"{op} of {fx.name} at {z!r}: {value!r} vs {ref!r}")

    return Op("scalar", f"{op}:{fx.name}", lambda: getattr(maps, op)(f, z), check)


def check_ops(out: Path) -> list[Op]:
    return [_check_op(name, flags, want, out) for name, flags, want, _ in CHECKS]


def catalog_ops(rng: np.random.Generator, out: Path) -> list[Op]:
    names = fixtures.fixture_names()
    ops = [_fixture_op(n) for n in names] + check_ops(out)
    for name in names:
        fx = fixtures.load_fixture(name)
        for op in SCALAR_OPS:
            if op == "dilatation" and fx.omega is None:
                continue
            ops.append(_scalar_op(fx, op, seeded_point(rng)))
    return ops


# -- render-disk ---------------------------------------------------------


def _digest(path: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _check_ppm(path: Path, side: int, summary, colored: bool) -> bool:
    data = path.read_bytes()
    header = f"P6 {side} {side} 255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + side * side * 3:
        return False
    px = np.frombuffer(data, np.uint8, offset=len(header)).reshape(-1, 3)
    lit = px.any(axis=1)
    if not 0 < int(lit.sum()) <= summary.rows:
        return False
    ramp = lit & ~(px == 255).all(axis=1)
    return bool(ramp.any()) if colored else not ramp.any()


def _check_csv(path: Path, target, summary, picks: np.ndarray) -> bool:
    """Row count, and the written w of the picked rows re-evaluates bit for bit.

    `picks` holds fractions in [0, 1) that select rows by position.
    """
    want = {int(u * summary.rows) for u in picks}
    zs, ws = [], []
    with open(path, encoding="utf-8") as fh:
        if fh.readline() != "z_re,z_im,w_re,w_im\n":
            return False
        n = 0
        for line in fh:
            if n in want:
                zr, zi, wr, wi = map(float, line.split(","))
                zs.append(complex(zr, zi))
                ws.append(complex(wr, wi))
            n += 1
    if n != summary.rows or len(zs) != len(want):
        return False
    again = render.eval_target(target, np.array(zs))
    return all(a == b for a, b in zip(again, ws))


def _render_op(key: str, target, fmt: str, colored: bool, resolution, out: Path,
               picks: np.ndarray, top_target) -> Op:
    path = out / f"render-{key}.{fmt}"
    job = render.RenderJob(target=target, path=path, resolution=resolution, fmt=fmt,
                           color_by_weighted_field=colored)

    def check(summary) -> Verdict:
        if fmt == "csv":
            ok = _check_csv(path, target, summary, picks)
        else:
            ok = _check_ppm(path, resolution[1], summary, colored)
        err = None
        if colored:
            # the colour scale's top: max of (1-|z|^2)|P_f| over the mesh,
            # against the map's P_f norm target
            z = render.mesh_points(resolution, job.r_max)
            with np.errstate(all="ignore"):
                w = np.abs(maps.pre_schwarzian_field(target)(z)) * (1 - np.abs(z) ** 2)
            err = err_ratio(float(np.nanmax(w)), *top_target)
            ok = ok and err <= 1
        fp = repr((summary.fmt, summary.rows, summary.skipped, summary.bounds,
                   summary.max_abs, _digest(path)))
        return Verdict(ok, fp, err, f"render {key}: output check failed",
                       {"bytes": path.stat().st_size,
                        "mesh_points": summary.rows + summary.skipped})

    return Op("render", key, lambda: render.render_image(job), check)


def render_ops(resolution, rng: np.random.Generator, out: Path, targets: dict) -> list[Op]:
    gap_one = fixtures.load_fixture(RENDER_MAP).map
    picks = rng.random(CSV_SAMPLE_ROWS)
    top = targets[(RENDER_MAP, "pre_schwarzian_norm")]
    return [
        _render_op("ppm", gap_one, "ppm", False, resolution, out, picks, top),
        _render_op("ppm-color", gap_one, "ppm", True, resolution, out, picks, top),
        _render_op("csv", expr.parse(RENDER_EXPR), "csv", False, resolution, out,
                   picks, top),
    ]


# -- assembly ------------------------------------------------------------


def build(name: str, cfg: Config, rng: np.random.Generator, out: Path,
          targets: dict) -> Workload:
    if name == "sharp-norms":
        ops = sharp_norm_ops(targets)
        names = tuple(sorted({op.key.split(":")[1] for op in ops}))
        return Workload(name, ops, names, (), LAYERS[name])
    if name == "catalog-checks":
        return Workload(name, catalog_ops(rng, out), fixtures.fixture_names(), (),
                        LAYERS[name])
    if name == "render-disk":
        ops = render_ops(cfg.render_resolution, rng, out, targets)
        return Workload(name, ops, (RENDER_MAP,), (RENDER_EXPR,), LAYERS[name])
    raise ValueError(f"unknown workload {name!r}")


def probe_ops(missing: frozenset, cfg: Config, rng: np.random.Generator, out: Path,
              targets: dict) -> list[Op]:
    """Operations that give figures for the layers a workload does not use:
    the fixture runs and checks of catalog-checks, and the three renders of
    render-disk at a small resolution."""
    ops = []
    if missing & {"norms", "criteria", "fixtures", "cli"}:
        ops += [_fixture_op(n) for n in fixtures.fixture_names()] + check_ops(out)
    if "render" in missing:
        ops += render_ops(cfg.probe_render_resolution, rng, out, targets)
    return ops
