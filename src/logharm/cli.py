"""Command line front end.

Exit codes: 0 for success or a passing verdict, 1 for a failing or
inconclusive verdict, 2 for usage and evaluation errors.  Reports are
JSON by default; complex numbers appear as [re, im] pairs, an infinite
number is emitted as the string "diverged" and a NaN, which marks a
value that could not be evaluated, as null.  Errors are written to
stderr as a structured JSON object.
"""
from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .criteria import (
    associated_starlike,
    becker_check,
    epsilon_norm_gap_check,
    hg_epsilon_univalence_check,
    nehari_check,
    norm_gap_check,
    pre_schwarzian_bound_check,
    schwarz_pick_check,
    starlike_check,
)
from .errors import EvaluationError, IoFailure
from .expr import ExprSyntaxError, parse
from .fixtures import fixture_descriptions, fixture_names, run_fixture
from .maps import (
    LogHarmonicMap,
    analytic_pre_schwarzian,
    analytic_pre_schwarzian_field,
    analytic_schwarzian,
    analytic_schwarzian_field,
    compose_with_analytic,
    dbar_pre_schwarzian,
    dbar_schwarzian,
    dilatation,
    hg_epsilon_field,
    hg_epsilon_pre_schwarzian,
    jacobian,
    map_value,
    phi_family,
    pre_schwarzian,
    pre_schwarzian_field,
    schwarzian,
    schwarzian_field,
    wirtinger,
)
from .norms import (
    GridSpec,
    bloch_norm_log,
    pre_schwarzian_norm,
    radial_profile,
    schwarzian_norm,
    weighted_sup,
)
from .render import RenderJob, render_image


class UsageError(Exception):
    """Bad flag combination or missing input; maps to exit code 2."""


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        value = complex(*map(float, parts)) if len(parts) in (1, 2) else None
    except ValueError:
        value = None
    if value is None:
        raise UsageError(f"expected a complex number as 're,im' or a bare real, got {text!r}")
    if not cmath.isfinite(value):
        raise UsageError(f"expected finite real and imaginary parts, got {text!r}")
    return value


def _jsonable(v):
    """The JSON form of a report value: complex numbers become [re, im]
    pairs, infinite numbers the string "diverged" and NaN None."""
    if isinstance(v, np.generic):
        v = v.item()
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        if math.isfinite(v):
            return v
        return "diverged" if math.isinf(v) else None
    if isinstance(v, complex):
        if cmath.isfinite(v):
            return [v.real, v.imag]
        return "diverged" if cmath.isinf(v) else None
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


# ---------------------------------------------------------------------------
# argument plumbing


def _add_map_flags(p: argparse.ArgumentParser) -> None:
    # --m and --beta default to "not given", so that --expr can refuse them
    p.add_argument("--m", type=int, default=None, help="vanishing order at the origin (default 0)")
    p.add_argument("--beta", default=None, help="exponent parameter, 're,im' (default 0)")
    p.add_argument("--h", default=None, help="analytic factor h(z)")
    p.add_argument("--g", default=None, help="analytic factor g(z)")
    p.add_argument("--expr", default=None, help="bare analytic target")


def _add_grid_flags(p: argparse.ArgumentParser, refine: bool = True) -> None:
    """The grid's flags; ``refine=False`` for a subcommand that draws the
    mesh and has no refine."""
    p.add_argument(
        "--radial-levels", type=int, default=40, dest="radial_levels",
        help="radial grid levels (default 40; the library's GridSpec defaults to 200)",
    )
    p.add_argument("--angular", type=int, default=512)
    p.add_argument("--r-max", type=float, default=1 - 1e-6, dest="r_max")
    if refine:
        p.add_argument(
            "--refine", type=int, default=3,
            help="refine rounds after the sweep, each of up to 10 calls on a 9 x 9 patch "
            "around the best point, sampled at three nested scales (default 3)",
        )


def _add_output_flags(p: argparse.ArgumentParser, default_format: str = "json") -> None:
    p.add_argument("--format", choices=("json", "csv", "text"), default=default_format)
    p.add_argument("--output", default=None, help="write the report here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logharm",
        description="evaluate, norm-estimate, and check log-harmonic mappings of the disk",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", help="evaluate one operator at one point")
    p.add_argument("--op", choices=_MAP_OPS, required=True)
    p.add_argument("--z", default="0", help="evaluation point, 're,im'")
    p.add_argument("--eps", default=None, help="family exponent, 're,im'")
    p.add_argument("--psi", default=None, help="analytic disk self-map to precompose")
    _add_map_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("norm", help="hyperbolically weighted sup-norm estimate")
    p.add_argument("--kind", choices=_NORMS, required=True)
    p.add_argument("--eps", default=None)
    _add_map_flags(p)
    _add_grid_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("check", help="run a univalence or geometry criterion")
    p.add_argument("--name", choices=_CHECKS, required=True)
    p.add_argument("--eps", default=None)
    p.add_argument("--omega", default=None, help="dilatation expression for schwarz-pick")
    _add_map_flags(p)
    _add_grid_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("fixtures", help="list or rerun the shipped regression catalog")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("name", nargs="?")
    _add_grid_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("render", help="image of the disk as CSV points or a PPM raster")
    p.add_argument("--image-format", choices=("csv", "ppm"), default=None, dest="image_format")
    p.add_argument("--color-field", action="store_true", dest="color_field")
    _add_map_flags(p)
    _add_grid_flags(p, refine=False)
    _add_output_flags(p)

    p = sub.add_parser("profile", help="weighted field magnitude along the radius")
    p.add_argument("--op", choices=("preschwarzian", "schwarzian"), default="preschwarzian")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--r-max", type=float, default=1 - 1e-6, dest="r_max")
    _add_map_flags(p)
    _add_output_flags(p, default_format="csv")

    return parser


def _grid(args) -> GridSpec:
    return GridSpec(
        radial_levels=args.radial_levels,
        r_max=args.r_max,
        angular_count=args.angular,
        refine_rounds=args.refine,
    )


def _grid_meta(grid: GridSpec) -> dict:
    return {
        "radial_levels": grid.radial_levels,
        "angular_count": grid.angular_count,
        "r_max": grid.r_max,
        "refine_rounds": grid.refine_rounds,
    }


def _has_map_flags(args) -> bool:
    return any(v is not None for v in (args.h, args.g, args.m, args.beta))


def _m_beta(args) -> tuple[int, complex]:
    """--m and --beta, each 0 where not given."""
    return 0 if args.m is None else args.m, parse_complex(args.beta or "0")


def _needed(value, message: str):
    if value is None:
        raise UsageError(message)
    return value


def _parse(text: str, what: str = "expression"):
    try:
        return parse(text)
    except ExprSyntaxError as exc:
        raise UsageError(f"bad {what}: {exc}") from None


def _target_map(args) -> LogHarmonicMap:
    if args.expr is not None and _has_map_flags(args):
        raise UsageError("give either --expr or --h/--g/--m/--beta, not both")
    if args.h is None or args.g is None:
        raise UsageError("this operation needs a full mapping: --h and --g (plus --m/--beta)")
    m, beta = _m_beta(args)
    h, g = _parse(args.h, "factor expression"), _parse(args.g, "factor expression")
    try:
        return LogHarmonicMap(m, beta, h, g)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _target_expr(args):
    if args.expr is None:
        raise UsageError("this operation needs --expr")
    if _has_map_flags(args):
        raise UsageError("give either --expr or --h/--g/--m/--beta, not both")
    return _parse(args.expr)


def _bloch_log_g(args):
    """The parsed --g, the one input of --kind bloch-log, which refuses the
    --h, --expr, --m and --beta it would otherwise ignore."""
    if any(v is not None for v in (args.h, args.expr, args.m, args.beta)):
        raise UsageError("--kind bloch-log reads only --g; drop --h, --expr, --m and --beta")
    return _parse(_needed(args.g, "--kind bloch-log needs --g"))


def _require_eps(args) -> complex:
    return parse_complex(_needed(args.eps, "this operation needs --eps"))


# the eval ops, norm kinds and check names that read --eps; only check
# --name schwarz-pick reads --omega
_READS_EPS = frozenset({"hg-eps-preschwarzian", "hg-eps", "eps-univalence", "eps-norm-gap"})


def _refuse_unread(args, command: str) -> None:
    """Refuse the --eps and --omega that ``command``, an eval op, a norm
    kind or a check name, would ignore."""
    unread = []
    if args.eps is not None and command not in _READS_EPS:
        unread.append("--eps")
    if getattr(args, "omega", None) is not None and command != "schwarz-pick":
        unread.append("--omega")
    if unread:
        raise UsageError(f"{command} does not read {' or '.join(unread)}; drop it")


def _map_inputs(args, eps: bool = False) -> dict:
    m, beta = _m_beta(args)
    inputs = {"m": m, "beta": beta, "h": args.h, "g": args.g}
    if eps:
        inputs["eps"] = parse_complex(args.eps)
    return inputs


def _on_target(args, on_expr, on_map):
    """on_expr of the --expr target or on_map of the --h/--g map, with the
    inputs the report echoes."""
    if args.expr is not None:
        return on_expr(_target_expr(args)), {"expr": args.expr}
    return on_map(_target_map(args)), _map_inputs(args)


# ---------------------------------------------------------------------------
# report emission


def _cell(v) -> str:
    """One report value as text: strings as they are, None as nothing and
    everything else as JSON, so every cell parses back."""
    if v is None:
        return ""
    return v if isinstance(v, str) else json.dumps(v)


def _csv_cell(v) -> str:
    """A quoted CSV field, with inner quotes doubled."""
    return '"' + _cell(v).replace('"', '""') + '"'


def _to_csv(report: dict) -> str:
    rows = report.get("rows")
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        cols = list(rows[0])
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(_csv_cell(row[c]) for c in cols))
        return "\n".join(lines) + "\n"
    if isinstance(rows, list):
        lines = ["r,weighted_value"]
        lines += [f"{r!r},{v!r}" for r, v in rows]
        return "\n".join(lines) + "\n"
    lines = ["key,value"]
    for k, v in report.items():
        lines.append(f"{_csv_cell(k)},{_csv_cell(v)}")
    return "\n".join(lines) + "\n"


def _to_text(report: dict, indent: str = "") -> str:
    lines = []
    for k, v in report.items():
        if isinstance(v, dict):
            lines.append(f"{indent}{k}:")
            lines.append(_to_text(v, indent + "  ").rstrip("\n"))
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            lines.append(f"{indent}{k}:")
            for item in v:
                parts = ", ".join(f"{kk}={_cell(vv)}" for kk, vv in item.items())
                lines.append(f"{indent}  - {parts}")
        else:
            lines.append(f"{indent}{k}: {_cell(v)}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    report = _jsonable(report)
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif args.format == "csv":
        text = _to_csv(report)
    else:
        text = _to_text(report)
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise IoFailure(f"cannot write {args.output}: {exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


# Each table maps an argparse choice to its library call; the keys are the
# choices.  The lambdas name the library functions rather than hold them, so
# each call looks the name up in this module and a wrapper put there at run
# time (a tracer's span recorder, a test's stub) sees the call.

_EXPR_OPS = {
    "preschwarzian": lambda e, z: analytic_pre_schwarzian(e, z),
    "schwarzian": lambda e, z: analytic_schwarzian(e, z),
}

_MAP_OPS = {
    "preschwarzian": lambda f, z, args: pre_schwarzian(f, z),
    "schwarzian": lambda f, z, args: schwarzian(f, z),
    "dilatation": lambda f, z, args: dilatation(f, z),
    "jacobian": lambda f, z, args: jacobian(f, z),
    "map-value": lambda f, z, args: map_value(f, z),
    "wirtinger": lambda f, z, args: dict(zip(("f_z", "f_zbar", "f"), wirtinger(f, z))),
    "phi": lambda f, z, args: dict(zip(("pre_schwarzian", "schwarzian"), phi_family(f, z))),
    "dbar-preschwarzian": lambda f, z, args: dbar_pre_schwarzian(f, z),
    "dbar-schwarzian": lambda f, z, args: dbar_schwarzian(f, z),
    "hg-eps-preschwarzian": lambda f, z, args: hg_epsilon_pre_schwarzian(
        f, _require_eps(args), z
    ),
    "compose": lambda f, z, args: compose_with_analytic(
        f, parse(_needed(args.psi, "--op compose needs --psi")), z
    ),
}

_NORMS = {
    "pre": lambda args, grid: _on_target(
        args,
        lambda e: weighted_sup(analytic_pre_schwarzian_field(e), 1, grid),
        lambda f: pre_schwarzian_norm(f, grid),
    ),
    "schwarzian": lambda args, grid: _on_target(
        args,
        lambda e: weighted_sup(analytic_schwarzian_field(e), 2, grid),
        lambda f: schwarzian_norm(f, grid),
    ),
    "bloch-log": lambda args, grid: (
        bloch_norm_log(_bloch_log_g(args), grid),
        {"g": args.g},
    ),
    "hg-eps": lambda args, grid: (
        weighted_sup(hg_epsilon_field(_target_map(args), _require_eps(args)), 1, grid),
        _map_inputs(args, eps=True),
    ),
}


_CHECKS = {
    "becker": lambda args, grid: (becker_check(_target_expr(args), grid), {"expr": args.expr}),
    "nehari": lambda args, grid: (nehari_check(_target_expr(args), grid), {"expr": args.expr}),
    "schwarz-pick": lambda args, grid: (
        schwarz_pick_check(_parse(_needed(args.omega, "--name schwarz-pick needs --omega")), grid),
        {"omega": args.omega},
    ),
    "eps-univalence": lambda args, grid: (
        hg_epsilon_univalence_check(_target_map(args), _require_eps(args), grid),
        _map_inputs(args, eps=True),
    ),
    "norm-gap": lambda args, grid: (norm_gap_check(_target_map(args), grid), _map_inputs(args)),
    "eps-norm-gap": lambda args, grid: (
        epsilon_norm_gap_check(_target_map(args), _require_eps(args), grid),
        _map_inputs(args, eps=True),
    ),
    "norm-bound": lambda args, grid: (
        pre_schwarzian_bound_check(_target_map(args), grid),
        _map_inputs(args),
    ),
    "starlike": lambda args, grid: (starlike_check(_target_map(args), grid), _map_inputs(args)),
    "associated-starlike": lambda args, grid: (
        associated_starlike(_target_map(args), grid)[1],
        _map_inputs(args),
    ),
}


def _cmd_eval(args) -> int:
    _refuse_unread(args, args.op)
    z = parse_complex(args.z)
    if args.expr is not None:
        e = _target_expr(args)
        if args.op not in _EXPR_OPS:
            raise UsageError(
                f"--expr targets support preschwarzian and schwarzian, not {args.op}"
            )
        value, inputs = _EXPR_OPS[args.op](e, z), {"expr": args.expr, "z": z}
    else:
        f = _target_map(args)
        value, inputs = _MAP_OPS[args.op](f, z, args), {**_map_inputs(args), "z": z}
        if args.op == "compose":
            inputs["psi"] = args.psi
        if args.eps is not None:
            inputs["eps"] = parse_complex(args.eps)
    _emit({"subcommand": "eval", "op": args.op, "inputs": inputs, "value": value}, args)
    return 0


def _cmd_norm(args) -> int:
    _refuse_unread(args, args.kind)
    grid = _grid(args)
    est, inputs = _NORMS[args.kind](args, grid)
    report = {
        "subcommand": "norm",
        "kind": args.kind,
        "inputs": inputs,
        "value": est.value,
        "argmax": est.argmax,
        "diverged": est.diverged,
        "samples": est.samples,
        "failed_samples": est.failed_samples,
        "flagged": est.flagged,
        "grid": _grid_meta(grid),
    }
    _emit(report, args)
    return 0


def _cmd_check(args) -> int:
    _refuse_unread(args, args.name)
    grid = _grid(args)
    report, inputs = _CHECKS[args.name](args, grid)
    payload = {
        "subcommand": "check",
        "name": args.name,
        "inputs": inputs,
        "verdict": report.verdict,
        "worst_margin": report.worst_margin,
        "worst_point": report.worst_point,
        "samples": report.samples,
        "detail": report.detail,
        "extras": report.extras,
        "grid": _grid_meta(grid),
    }
    _emit(payload, args)
    return 0 if report.verdict == "pass" else 1


def _cmd_fixtures(args) -> int:
    if args.action == "list":
        rows = [{"name": name, "description": text} for name, text in fixture_descriptions()]
        _emit({"subcommand": "fixtures", "action": "list", "rows": rows}, args)
        return 0
    if not args.name:
        raise UsageError("fixtures run needs a fixture name")
    grid = _grid(args)
    try:
        result = run_fixture(args.name, grid)
    except KeyError:
        raise UsageError(
            f"unknown fixture {args.name!r}; valid names: {', '.join(fixture_names())}"
        ) from None
    payload = {
        "subcommand": "fixtures",
        "action": "run",
        "fixture": result.name,
        "passed": result.passed,
        "rows": [dataclasses.asdict(r) for r in result.rows],
        "grid": _grid_meta(grid),
    }
    _emit(payload, args)
    return 0 if result.passed else 1


def _cmd_render(args) -> int:
    if not args.output:
        raise UsageError("render needs --output for the image file")
    fmt = args.image_format
    if fmt is None:
        suffix = Path(args.output).suffix.lower()
        if suffix in (".ppm", ".csv"):
            fmt = suffix[1:]
        else:
            raise UsageError("cannot infer image format; pass --image-format csv|ppm")
    target = _target_expr(args) if args.expr is not None else _target_map(args)
    job = RenderJob(
        target=target,
        path=args.output,
        resolution=(args.radial_levels, args.angular),
        fmt=fmt,
        r_max=args.r_max,
        color_by_weighted_field=args.color_field,
    )
    summary = render_image(job)
    payload = {
        "subcommand": "render",
        "path": str(summary.path),
        "image_format": summary.fmt,
        "rows": summary.rows,
        "skipped": summary.skipped,
        "bounds": summary.bounds,
        "max_abs": summary.max_abs,
    }
    # the image went to --output; the summary always goes to stdout
    out = argparse.Namespace(format=args.format, output=None)
    _emit(payload, out)
    return 0


def _cmd_profile(args) -> int:
    pre = args.op == "preschwarzian"
    field, inputs = _on_target(
        args,
        lambda e: analytic_pre_schwarzian_field(e) if pre else analytic_schwarzian_field(e),
        lambda f: pre_schwarzian_field(f) if pre else schwarzian_field(f),
    )
    prof = radial_profile(field, 1 if pre else 2, args.samples, args.r_max)
    payload = {
        "subcommand": "profile",
        "op": args.op,
        "inputs": inputs,
        "rows": prof.rows,
        "monotone_tail": prof.monotone_tail,
        "boundary_estimate": prof.boundary_estimate,
    }
    _emit(payload, args)
    return 0


_DISPATCH = {
    "eval": _cmd_eval,
    "norm": _cmd_norm,
    "check": _cmd_check,
    "fixtures": _cmd_fixtures,
    "render": _cmd_render,
    "profile": _cmd_profile,
}


def _emit_error(kind: str, exc: Exception) -> None:
    err: dict = {"type": kind, "message": str(exc)}
    point = getattr(exc, "point", None)
    if point is not None:
        err["point"] = _jsonable(complex(point))
    sys.stderr.write(json.dumps({"error": err}) + "\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parse_args leaves it unchanged."""
    return _build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; normalize the code
        return int(exc.code) if exc.code else 0
    try:
        return _DISPATCH[args.subcommand](args)
    except UsageError as exc:
        _emit_error("usage", exc)
        return 2
    except (
        IoFailure, EvaluationError, ExprSyntaxError, ValueError, KeyError, OverflowError
    ) as exc:
        _emit_error(type(exc).__name__, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
