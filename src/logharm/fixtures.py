"""Shipped regression catalog: maps with closed-form expected values.

Each catalog entry records a mapping, the metrics that pin it down, the
expected numbers with tolerances, and a one-line derivation note per
value.  `run_fixture` recomputes everything and reports expected vs
computed row by row.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .criteria import (
    associated_starlike,
    schwarz_pick_check,
    starlike_check,
)
from .expr import Expr, Mul, eval_value, parse
from .maps import (
    LogHarmonicMap,
    analytic_pre_schwarzian_field,
    dbar_pre_schwarzian,
    dbar_schwarzian,
    dilatation,
    hg_epsilon_field,
    jacobian,
    map_value,
    pre_schwarzian,
    schwarzian,
)
from .norms import GridSpec, bloch_norm_log, pre_schwarzian_norm, schwarzian_norm, weighted_sup

# deterministic interior sample set for "max over samples" metrics
_SAMPLE_RADII = (0.15, 0.35, 0.55, 0.75)
_SAMPLE_ANGLES = 24


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    map: LogHarmonicMap
    eps: complex | None
    omega: Expr | None
    checks: tuple[dict, ...]


@dataclass(frozen=True)
class CheckRow:
    metric: str
    arg: complex | None
    expected: object
    computed: object
    tol: float | None
    relative: bool
    ok: bool
    source: str


@dataclass(frozen=True)
class FixtureResult:
    name: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def _catalog() -> list[dict]:
    raw = resources.files("logharm").joinpath("fixtures.json").read_text("utf-8")
    return json.loads(raw)["fixtures"]


def fixture_names() -> tuple[str, ...]:
    return tuple(item["name"] for item in _catalog())


def load_fixture(name: str) -> Fixture:
    for item in _catalog():
        if item["name"] == name:
            beta = complex(*item["beta"])
            eps = complex(*item["eps"]) if "eps" in item else None
            omega = parse(item["omega"]) if "omega" in item else None
            return Fixture(
                name=name,
                description=item["description"],
                map=LogHarmonicMap.from_strings(item["m"], beta, item["h"], item["g"]),
                eps=eps,
                omega=omega,
                checks=tuple(item["checks"]),
            )
    raise KeyError(f"unknown fixture {name!r}")


def _samples() -> np.ndarray:
    angles = np.arange(_SAMPLE_ANGLES) * (2 * math.pi / _SAMPLE_ANGLES)
    return np.concatenate([r * np.exp(1j * angles) for r in _SAMPLE_RADII])


def _max_abs(fn, fx: Fixture) -> float:
    return max(abs(fn(fx.map, complex(z))) for z in _samples())


def _omega_deviation(fx: Fixture) -> float:
    if fx.omega is None:
        raise ValueError(f"fixture {fx.name} declares no dilatation expression")
    return max(
        abs(dilatation(fx.map, complex(z)) - eval_value(fx.omega, complex(z)))
        for z in _samples()
    )


def _member_norm(fx: Fixture, grid: GridSpec) -> float:
    if fx.eps is None:
        raise ValueError(f"fixture {fx.name} declares no eps")
    return weighted_sup(hg_epsilon_field(fx.map, fx.eps), 1, grid).value


_NORMS = {
    "pre_schwarzian_norm": lambda fx, grid: pre_schwarzian_norm(fx.map, grid).value,
    "product_pre_schwarzian_norm": lambda fx, grid: weighted_sup(
        analytic_pre_schwarzian_field(Mul(fx.map.h, fx.map.g)), 1, grid
    ).value,
    "member_pre_schwarzian_norm": _member_norm,
    "bloch_log_g": lambda fx, grid: bloch_norm_log(fx.map.g, grid).value,
    "schwarzian_norm": lambda fx, grid: schwarzian_norm(fx.map, grid).value,
}
# each gap is the difference of two catalog norms
_GAPS = {
    "norm_gap": ("pre_schwarzian_norm", "product_pre_schwarzian_norm"),
    "eps_norm_gap": ("pre_schwarzian_norm", "member_pre_schwarzian_norm"),
}


def _evaluate_metric(fx: Fixture, metric: str, arg: complex | None, grid: GridSpec, norms: dict):
    """Value of one catalog metric; `norms` memoizes the norms of this run."""
    f = fx.map
    if metric in _NORMS:
        if metric not in norms:
            norms[metric] = _NORMS[metric](fx, grid)
        return norms[metric]
    if metric in _GAPS:
        a, b = (_evaluate_metric(fx, m, arg, grid, norms) for m in _GAPS[metric])
        return abs(a - b)
    if metric == "pre_schwarzian_at":
        return pre_schwarzian(f, arg)
    if metric == "schwarzian_at":
        return schwarzian(f, arg)
    if metric == "dilatation_at":
        return dilatation(f, arg)
    if metric == "map_value_at":
        return map_value(f, arg)
    if metric == "jacobian_at":
        return jacobian(f, arg)
    if metric == "dbar_pre_schwarzian_at":
        return dbar_pre_schwarzian(f, arg)
    if metric == "dbar_pre_schwarzian_max":
        return _max_abs(dbar_pre_schwarzian, fx)
    if metric == "dbar_schwarzian_max":
        return _max_abs(dbar_schwarzian, fx)
    if metric == "starlike_verdict":
        return starlike_check(f, grid).verdict
    if metric == "associated_starlike_verdict":
        return associated_starlike(f, grid)[1].verdict
    if metric == "schwarz_pick_verdict":
        if fx.omega is None:
            raise ValueError(f"fixture {fx.name} declares no dilatation expression")
        return schwarz_pick_check(fx.omega, grid).verdict
    if metric == "omega_matches_closed_form":
        return _omega_deviation(fx)
    raise ValueError(f"unknown metric {metric!r}")


def _compare(expected, computed, tol, relative: bool) -> bool:
    if isinstance(expected, str):
        return computed == expected
    if isinstance(expected, list):
        expected = complex(*expected)
    diff = abs(complex(computed) - complex(expected))
    if relative:
        return diff <= tol * abs(complex(expected))
    return diff <= tol


def run_fixture(name: str, grid: GridSpec | None = None) -> FixtureResult:
    fx = load_fixture(name)
    grid = grid or GridSpec(radial_levels=40, angular_count=512, refine_rounds=3)
    rows = []
    norms: dict[str, float] = {}
    for check in fx.checks:
        arg = complex(*check["arg"]) if "arg" in check else None
        computed = _evaluate_metric(fx, check["metric"], arg, grid, norms)
        expected = check["expect"]
        tol = check.get("tol")
        relative = bool(check.get("rel", False))
        rows.append(
            CheckRow(
                metric=check["metric"],
                arg=arg,
                expected=expected,
                computed=computed,
                tol=tol,
                relative=relative,
                ok=_compare(expected, computed, tol, relative),
                source=check.get("source", ""),
            )
        )
    return FixtureResult(name=name, rows=tuple(rows))
