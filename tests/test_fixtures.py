import math

import pytest

from logharm import fixtures, norms
from logharm.fixtures import (
    CheckRow,
    fixture_names,
    load_fixture,
    run_fixture,
)
from logharm.norms import GridSpec

# enough resolution for the 0.01-level norm tolerances in the catalog
RUN_GRID = GridSpec(radial_levels=60, angular_count=64, refine_rounds=2)


def test_catalog_lists_known_names():
    names = fixture_names()
    assert len(names) == len(set(names))
    for expected in ("gap-one-sharp", "gap-five-sharp", "koebe", "constant-dilatation"):
        assert expected in names


def test_every_catalog_metric_is_a_key_of_the_metric_table():
    used = {check["metric"] for name in fixture_names() for check in load_fixture(name).checks}
    assert used <= set(fixtures._METRICS)


def test_unknown_metric_raises():
    fx = load_fixture("koebe")
    with pytest.raises(ValueError, match="unknown metric"):
        fixtures._evaluate_metric(fx, "no_such_metric", None, RUN_GRID, {})


def test_load_unknown_name_raises():
    with pytest.raises(KeyError):
        load_fixture("no-such-fixture")


def test_loaded_fixture_carries_map_and_checks():
    fx = load_fixture("gap-five-sharp")
    assert fx.map.m == 0
    assert fx.eps == -1
    assert fx.checks
    assert fx.description


def test_every_fixture_loads_and_builds():
    for name in fixture_names():
        fx = load_fixture(name)
        assert fx.map is not None
        assert all("metric" in c and "expect" in c for c in fx.checks)


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_passes_at_catalog_tolerances(name):
    result = run_fixture(name, grid=RUN_GRID)
    bad = [r for r in result.rows if not r.ok]
    assert result.passed, f"{name}: {bad}"


def test_result_rows_expose_expected_and_computed():
    result = run_fixture("koebe", grid=RUN_GRID)
    assert all(isinstance(r, CheckRow) for r in result.rows)
    by_metric = {r.metric: r for r in result.rows}
    norm_row = by_metric["pre_schwarzian_norm"]
    assert norm_row.expected == 6.0
    assert math.isclose(norm_row.computed, 6.0, abs_tol=norm_row.tol)
    assert norm_row.source


def test_relative_tolerance_checks_use_relative_error():
    result = run_fixture("mobius-gap-a60", grid=RUN_GRID)
    row = next(r for r in result.rows if r.metric == "pre_schwarzian_norm")
    assert row.relative
    rel_err = abs(row.computed - row.expected) / abs(row.expected)
    assert rel_err <= row.tol


@pytest.mark.parametrize(
    "name, gap, a, b",
    [
        ("gap-one-sharp", "norm_gap", "pre_schwarzian_norm", "product_pre_schwarzian_norm"),
        ("gap-five-sharp", "eps_norm_gap", "pre_schwarzian_norm", "member_pre_schwarzian_norm"),
    ],
)
def test_gap_row_is_difference_of_sibling_rows(name, gap, a, b, monkeypatch):
    # P_f is swept where every sweep happens, in norms._sweep; tag its field
    # to count the sweeps that read it
    p_fields, calls = [], []
    made, counted = norms.pre_schwarzian_field, norms._sweep

    def tagged(f):
        p_fields.append(made(f))
        return p_fields[-1]

    def counting(fields, *args, **kwargs):
        if any(fld is p for fld, _ in fields for p in p_fields):
            calls.append(fields)
        return counted(fields, *args, **kwargs)

    monkeypatch.setattr(norms, "pre_schwarzian_field", tagged)
    monkeypatch.setattr(norms, "_sweep", counting)
    computed = {r.metric: r.computed for r in run_fixture(name, grid=RUN_GRID).rows}
    assert computed[gap] == abs(computed[a] - computed[b])
    assert len(calls) == 1  # the gap reuses the norm row instead of recomputing it


def test_a_sample_outside_the_sense_preserving_disk_gives_a_nan_row(monkeypatch):
    # omega = g' h / (h' g) = 2z reaches |omega| = 1.1 on the sample ring r = 0.55
    entry = {
        "name": "omega-2z",
        "description": "h = exp(z), g = exp(z^2)",
        "m": 0,
        "beta": [0, 0],
        "h": "exp(z)",
        "g": "exp(z^2)",
        "checks": [{"metric": "dbar_pre_schwarzian_max", "expect": 0.0, "tol": 1e-10}],
    }
    monkeypatch.setattr(fixtures, "_catalog", lambda: [entry])
    (row,) = run_fixture("omega-2z", grid=RUN_GRID).rows
    assert math.isnan(row.computed)
    assert not row.ok
