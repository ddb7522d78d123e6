"""Shipped regression catalog: maps with closed-form expected values.

Each catalog entry records a mapping, the metrics that pin it down, the
expected numbers with tolerances, and a one-line derivation note per
value.  `run_fixture` recomputes everything and reports expected vs
computed row by row.  Before its first row it reads every norm the checks
name from one sweep (`norms.weighted_sups`) and each gap from its two
norms; every other metric is computed at its row.
"""
from __future__ import annotations

import functools
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
    dbar_pre_schwarzian_field,
    dbar_schwarzian_field,
    dilatation,
    dilatation_field,
    hg_epsilon_field,
    jacobian,
    map_value,
    pre_schwarzian,
    schwarzian,
)
from .norms import (
    GridSpec, Sup, bloch_log_sup, pre_schwarzian_sup, schwarzian_sup, weighted_sups
)

# deterministic interior sample set for "max over samples" metrics
_SAMPLES = np.concatenate(
    [r * np.exp(1j * np.arange(24) * (2 * math.pi / 24)) for r in (0.15, 0.35, 0.55, 0.75)]
)


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


@functools.cache
def _catalog() -> list[dict]:
    """The catalog entries, parsed once per process; `load_fixture` copies
    what it hands out, so they stay as the file reads."""
    raw = resources.files("logharm").joinpath("fixtures.json").read_text("utf-8")
    return json.loads(raw)["fixtures"]


def fixture_names() -> tuple[str, ...]:
    return tuple(item["name"] for item in _catalog())


def fixture_descriptions() -> tuple[tuple[str, str], ...]:
    """(name, description) of each entry, read without building its map."""
    return tuple((item["name"], item["description"]) for item in _catalog())


def _copy_check(check: dict) -> dict:
    # a check's values are text, numbers, booleans and lists of numbers
    return {k: list(v) if isinstance(v, list) else v for k, v in check.items()}


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
                checks=tuple(map(_copy_check, item["checks"])),
            )
    raise KeyError(f"unknown fixture {name!r}")


def _omega(fx: Fixture) -> Expr:
    if fx.omega is None:
        raise ValueError(f"fixture {fx.name} declares no dilatation expression")
    return fx.omega


def _eps(fx: Fixture) -> complex:
    if fx.eps is None:
        raise ValueError(f"fixture {fx.name} declares no eps")
    return fx.eps


# the catalog norms: metric -> the sup it estimates on a fixture
_SUPS = {
    "pre_schwarzian_norm": lambda fx: pre_schwarzian_sup(fx.map),
    "product_pre_schwarzian_norm": lambda fx: Sup(
        analytic_pre_schwarzian_field(Mul(fx.map.h, fx.map.g)), 1
    ),
    "member_pre_schwarzian_norm": lambda fx: Sup(hg_epsilon_field(fx.map, _eps(fx)), 1),
    "bloch_log_g": lambda fx: bloch_log_sup(fx.map.g),
    "schwarzian_norm": lambda fx: schwarzian_sup(fx.map),
}
# each gap is the distance from the pre-Schwarzian norm to this other norm
_GAPS = {"norm_gap": "product_pre_schwarzian_norm", "eps_norm_gap": "member_pre_schwarzian_norm"}


def _norms_read(metric: str) -> tuple[str, ...]:
    if metric in _GAPS:
        return ("pre_schwarzian_norm", _GAPS[metric])
    return (metric,) if metric in _SUPS else ()


def _at(op):
    return lambda fx, arg, *_: op(fx.map, arg)


def _max_over_samples(make_field):
    """max |field| over the samples; NaN when a sample is not evaluable."""
    return lambda fx, *_: float(np.max(np.abs(make_field(fx.map)(_SAMPLES))))


def _omega_deviation(fx: Fixture, *_) -> float:
    with np.errstate(all="ignore"):
        want = eval_value(_omega(fx), _SAMPLES)
    return float(np.max(np.abs(dilatation_field(fx.map)(_SAMPLES) - want)))


# every other catalog metric, keyed by its name in fixtures.json; an entry
# takes (fixture, the check's arg, grid)
_METRICS = {
    "pre_schwarzian_at": _at(pre_schwarzian),
    "schwarzian_at": _at(schwarzian),
    "dilatation_at": _at(dilatation),
    "map_value_at": _at(map_value),
    "jacobian_at": _at(jacobian),
    "dbar_pre_schwarzian_at": _at(dbar_pre_schwarzian),
    "dbar_pre_schwarzian_max": _max_over_samples(dbar_pre_schwarzian_field),
    "dbar_schwarzian_max": _max_over_samples(dbar_schwarzian_field),
    "starlike_verdict": lambda fx, arg, grid: starlike_check(fx.map, grid).verdict,
    "associated_starlike_verdict": lambda fx, arg, grid: associated_starlike(
        fx.map, grid
    )[1].verdict,
    "schwarz_pick_verdict": lambda fx, arg, grid: schwarz_pick_check(
        _omega(fx), grid
    ).verdict,
    "omega_matches_closed_form": _omega_deviation,
}


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
    # every norm the checks read comes from one sweep, in the order they need
    # them, and every gap from its two norms, before the first row
    names = list(dict.fromkeys(n for c in fx.checks for n in _norms_read(c["metric"])))
    ests = weighted_sups([_SUPS[n](fx) for n in names], grid)
    values = {n: est.value for n, est in zip(names, ests)}
    for gap in {c["metric"] for c in fx.checks} & _GAPS.keys():
        values[gap] = abs(values["pre_schwarzian_norm"] - values[_GAPS[gap]])
    rows = []
    for check in fx.checks:
        metric = check["metric"]
        arg = complex(*check["arg"]) if "arg" in check else None
        if metric in values:
            computed = values[metric]
        elif metric in _METRICS:
            computed = _METRICS[metric](fx, arg, grid)
        else:
            raise ValueError(f"unknown metric {metric!r}")
        expected = check["expect"]
        tol = check.get("tol")
        relative = bool(check.get("rel", False))
        rows.append(
            CheckRow(
                metric=metric,
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
