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
# enough to run every metric, not to meet its tolerance
TINY_GRID = GridSpec(radial_levels=8, angular_count=8, refine_rounds=1)


def test_catalog_lists_known_names():
    names = fixture_names()
    assert len(names) == len(set(names))
    for expected in ("gap-one-sharp", "gap-five-sharp", "koebe", "constant-dilatation"):
        assert expected in names


def _only(monkeypatch, entry: dict) -> None:
    """Make ``entry`` the whole catalog."""
    monkeypatch.setattr(fixtures, "_catalog", lambda: [entry])


def test_every_catalog_metric_is_a_key_of_the_metric_table(monkeypatch):
    # every check of the catalog, run alone, names a metric run_fixture knows
    for entry in fixtures._catalog():
        for check in entry["checks"]:
            _only(monkeypatch, {**entry, "checks": [check]})
            (row,) = run_fixture(entry["name"], grid=TINY_GRID).rows
            assert (row.metric, row.expected) == (check["metric"], check["expect"])


def test_unknown_metric_raises(monkeypatch):
    (koebe,) = [e for e in fixtures._catalog() if e["name"] == "koebe"]
    unknown = {"metric": "no_such_metric", "expect": 0.0, "tol": 1.0}
    for checks in ([unknown], [*koebe["checks"], unknown], [unknown, *koebe["checks"]]):
        _only(monkeypatch, {**koebe, "checks": checks})
        with pytest.raises(ValueError, match="unknown metric 'no_such_metric'"):
            run_fixture("koebe", grid=TINY_GRID)


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


# the catalog's norm and gap rows, and the fixtures that have any
NORM_METRICS = frozenset({
    "pre_schwarzian_norm", "product_pre_schwarzian_norm", "member_pre_schwarzian_norm",
    "bloch_log_g", "schwarzian_norm", "norm_gap", "eps_norm_gap",
})
WITH_NORMS = frozenset(
    {"gap-one-sharp", "gap-five-sharp", "mobius-gap-a60", "mobius-gap-a90", "mobius-gap-a99",
     "koebe"}
)
GAP_ROWS = {
    "gap-one-sharp": ("norm_gap", "pre_schwarzian_norm", "product_pre_schwarzian_norm"),
    "gap-five-sharp": ("eps_norm_gap", "pre_schwarzian_norm", "member_pre_schwarzian_norm"),
}


@pytest.mark.parametrize(
    "name, gap, a, b",
    [
        pytest.param(n, *GAP_ROWS[n], id="-".join((n, *GAP_ROWS[n])))
        if n in GAP_ROWS else pytest.param(n, None, None, None, id=n)
        for n in fixture_names()
    ],
)
def test_gap_row_is_difference_of_sibling_rows(name, gap, a, b, monkeypatch):
    # every norm sweep walks the grid in norms.level_walk; count those walks,
    # and tag P_f's field to see that the one walk reads it
    p_fields, walks = [], []
    made, walk = norms.pre_schwarzian_field, norms.level_walk

    def tagged(f):
        p_fields.append(made(f))
        return p_fields[-1]

    def counting(level_fns, *args, **kwargs):
        walks.append([fn.args[0] for fn in level_fns])
        return walk(level_fns, *args, **kwargs)

    monkeypatch.setattr(norms, "pre_schwarzian_field", tagged)
    monkeypatch.setattr(norms, "level_walk", counting)
    rows = run_fixture(name, grid=RUN_GRID).rows
    computed = {r.metric: r.computed for r in rows}
    norm_rows = {r.metric for r in rows} & NORM_METRICS
    assert bool(norm_rows) == (name in WITH_NORMS)
    if not norm_rows:
        assert walks == []  # a fixture without norm or gap rows sweeps no norm
        return
    (fields,) = walks  # one sweep reads every norm, and each gap reuses its norms
    norms_read = (norm_rows - {"norm_gap", "eps_norm_gap"}) | ({a, b} - {None})
    assert len(fields) == len(norms_read)
    assert any(fld is p for fld in fields for p in p_fields)
    if gap is not None:
        assert computed[gap] == abs(computed[a] - computed[b])


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
