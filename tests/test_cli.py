import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logharm.cli import UsageError, _build_parser, _jsonable, main, parse_complex
from logharm.criteria import (
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
from logharm.expr import parse, unparse
from logharm.maps import (
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
    schwarzian,
    wirtinger,
)
from logharm.norms import (
    GridSpec,
    bloch_norm_log,
    pre_schwarzian_norm,
    schwarzian_norm,
    weighted_sup,
)

# small but sufficient grid for the 0.01-level norm assertions below
GRID = ("--radial-levels", "60", "--angular", "64", "--refine", "2")

GAP_ONE = ("--m", "0", "--h", "exp(z/(1-z))", "--g", "exp(-z/(1-z))/(1-z)")
GAP_FIVE = ("--m", "0", "--h", "z/(1-z)", "--g", "1/(1-z)")
STARLIKE = ("--m", "1", "--beta", "2", "--h", "1/(1-z)", "--g", "1-z")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


def test_parse_complex_forms():
    assert parse_complex("0") == 0
    assert parse_complex("1.5,-2") == complex(1.5, -2)
    assert parse_complex("-3") == -3
    for bad in ("abc", "1,2,3", "", "1;2"):
        with pytest.raises(UsageError):
            parse_complex(bad)


def test_eval_preschwarzian_at_origin(capsys):
    code, report, _ = run_json(
        capsys, "eval", *GAP_ONE, "--op", "preschwarzian", "--z", "0"
    )
    assert code == 0
    assert report["value"] == pytest.approx([3.0, 0.0], abs=1e-12)
    assert report["inputs"]["h"] == "exp(z/(1-z))"
    assert report["inputs"]["z"] == [0.0, 0.0]


def test_eval_dilatation_echoes_map(capsys):
    code, report, _ = run_json(capsys, "eval", *STARLIKE, "--op", "dilatation", "--z", "0")
    assert code == 0
    assert report["value"] == pytest.approx([2 / 3, 0.0], abs=1e-12)
    assert report["inputs"]["m"] == 1
    assert report["inputs"]["beta"] == [2.0, 0.0]


def test_eval_jacobian_is_real(capsys):
    code, report, _ = run_json(
        capsys, "eval", "--m", "1", "--h", "1/(1-z)", "--g", "1/(1-z)",
        "--op", "jacobian", "--z", "0.5",
    )
    assert code == 0
    assert report["value"] == pytest.approx(48.0, rel=1e-12)


def test_eval_wirtinger_reports_three_values(capsys):
    code, report, _ = run_json(capsys, "eval", *GAP_ONE, "--op", "wirtinger", "--z", "0.3")
    assert code == 0
    for key in ("f_z", "f_zbar", "f"):
        assert len(report["value"][key]) == 2


def test_eval_expr_target(capsys):
    code, report, _ = run_json(
        capsys, "eval", "--expr", "z/(1-z)^2", "--op", "preschwarzian", "--z", "0"
    )
    assert code == 0
    assert report["value"] == pytest.approx([4.0, 0.0], abs=1e-12)


def test_eval_expr_rejects_map_only_ops(capsys):
    code, _, err = run(capsys, "eval", "--expr", "z", "--op", "jacobian")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_eval_compose_needs_psi(capsys):
    code, _, err = run(capsys, "eval", *GAP_ONE, "--op", "compose", "--z", "0.2")
    assert code == 2
    assert "psi" in json.loads(err)["error"]["message"]


def test_eval_compose_runs(capsys):
    code, report, _ = run_json(
        capsys, "eval", *GAP_ONE, "--op", "compose", "--psi", "0.5*z", "--z", "0.4"
    )
    assert code == 0
    assert all(isinstance(v, float) for v in report["value"])


def test_eval_pole_is_structured_error(capsys):
    code, _, err = run(capsys, "eval", *STARLIKE, "--op", "preschwarzian", "--z", "0")
    assert code == 2
    payload = json.loads(err)["error"]
    assert payload["type"] == "PoleEncountered"
    assert payload["point"] == [0.0, 0.0]
    # a constant target fails at every sample at once; it must not raise
    for argv in (
        ("check", "--name", "becker", "--expr", "1"),
        ("check", "--name", "nehari", "--expr", "1"),
        ("norm", "--kind", "pre", "--expr", "1"),
        ("norm", "--kind", "bloch-log", "--g", "0"),
        ("profile", "--expr", "1"),
        ("norm", "--kind", "pre", "--h", "1", "--g", "1"),
        ("norm", "--kind", "schwarzian", "--h", "1", "--g", "1"),
        ("norm", "--kind", "hg-eps", "--h", "1", "--g", "1", "--eps", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"]["type"] == "AllSamplesFailed", argv


@pytest.mark.parametrize("op", ["dilatation", "preschwarzian", "schwarzian", "phi"])
def test_eval_vanishing_factor_error_carries_the_point(capsys, op):
    code, out, err = run(
        capsys, "eval", "--op", op, "--m", "1", "--h", "1-2*z", "--g", "1", "--z", "0.5"
    )
    assert (code, out) == (2, "")
    payload = json.loads(err)["error"]
    assert payload["type"] == "PoleEncountered"
    assert payload["point"] == [0.5, 0.0]


def test_eval_overflow_near_boundary_is_one_json_error(capsys):
    # exp(z/(1-z)) overflows at 0.999; stderr carries the typed error only
    for op in ("preschwarzian", "hg-eps-preschwarzian", "dilatation", "jacobian", "wirtinger"):
        code, out, err = run(
            capsys, "eval", *GAP_ONE, "--op", op, "--eps", "0.5,0.5", "--z", "0.999"
        )
        assert (code, out) == (2, ""), op
        assert err.endswith("\n") and err.count("\n") == 1, (op, err)
        assert json.loads(err)["error"]["type"] == "PoleEncountered", op


def test_norm_bloch_log_example(capsys):
    code, report, _ = run_json(
        capsys, "norm", "--kind", "bloch-log", "--g", "1/(1-z)", *GRID
    )
    assert code == 0
    assert report["value"] == pytest.approx(2.0, abs=0.01)
    assert report["diverged"] is False
    assert report["samples"] > 0
    assert report["grid"]["radial_levels"] == 60


def test_norm_pre_full_map(capsys):
    code, report, _ = run_json(capsys, "norm", "--kind", "pre", *GAP_FIVE, *GRID)
    assert code == 0
    assert report["value"] == pytest.approx(5.0, abs=0.01)
    assert len(report["argmax"]) == 2


def test_norm_member_eps_minus_one_vanishes(capsys):
    code, report, _ = run_json(
        capsys, "norm", "--kind", "hg-eps", *GAP_FIVE, "--eps", "-1", *GRID
    )
    assert code == 0
    assert report["value"] <= 1e-8


def test_norm_expr_product(capsys):
    # h*g of the gap-one pair collapses to 1/(1-z), whose weighted norm is 4
    code, report, _ = run_json(
        capsys, "norm", "--kind", "pre",
        "--expr", "(exp(z/(1-z)))*(exp(-z/(1-z))/(1-z))", *GRID,
    )
    assert code == 0
    assert report["value"] == pytest.approx(4.0, abs=0.01)


def test_norm_divergence_is_flagged_not_fatal(capsys):
    code, report, _ = run_json(capsys, "norm", "--kind", "pre", *STARLIKE, *GRID)
    assert code == 0
    assert report["diverged"] is True
    assert isinstance(report["value"], float)


def test_unevaluable_margin_is_null_not_diverged(capsys):
    # the eps = 1 hypothesis fails, so the bound check has no margin: NaN
    code, report, _ = run_json(
        capsys, "check", "--name", "norm-bound",
        "--h", "exp(z/(1-z))", "--g", "exp(-z/(1-z))/(1-z)", *GRID,
    )
    assert code == 1
    assert report["verdict"] == "inconclusive"
    assert report["worst_margin"] is None


def test_infinite_value_is_diverged(capsys):
    # exp(exp(90)) overflows
    code, report, _ = run_json(
        capsys, "eval", "--op", "map-value", "--h", "exp(exp(100*z))", "--g", "1", "--z", "0.9"
    )
    assert code == 0
    assert report["value"] == "diverged"


def test_jsonable_non_finite_forms():
    nan, inf = float("nan"), float("inf")
    assert _jsonable([nan, inf, -inf, complex(nan, 0), complex(inf, nan), complex(0, -inf)]) == [
        None, "diverged", "diverged", None, "diverged", "diverged"
    ]


def test_check_schwarz_pick_passes(capsys):
    code, report, _ = run_json(capsys, "check", "--name", "schwarz-pick", "--omega", "z", *GRID)
    assert code == 0
    assert report["verdict"] == "pass"


def test_check_schwarz_pick_fails_non_self_map(capsys):
    code, report, _ = run_json(
        capsys, "check", "--name", "schwarz-pick", "--omega", "1.2*z", *GRID
    )
    assert code == 1
    assert report["verdict"] == "fail"


def test_check_norm_gap_reports_extras(capsys):
    code, report, _ = run_json(capsys, "check", "--name", "norm-gap", *GAP_ONE, *GRID)
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["extras"]["gap"] == pytest.approx(1.0, abs=0.02)


def test_check_starlike_and_companion(capsys):
    code, report, _ = run_json(capsys, "check", "--name", "starlike", *STARLIKE, *GRID)
    assert code == 0
    assert report["verdict"] == "pass"

    code, report, _ = run_json(
        capsys, "check", "--name", "associated-starlike", *STARLIKE, *GRID
    )
    assert code == 0
    assert "z" in report["extras"]["companion"]


def test_check_eps_univalence_needs_eps(capsys):
    code, _, err = run(capsys, "check", "--name", "eps-univalence", *GAP_FIVE, *GRID)
    assert code == 2
    assert "eps" in json.loads(err)["error"]["message"]


def test_fixtures_list(capsys):
    code, report, _ = run_json(capsys, "fixtures", "list")
    assert code == 0
    names = [row["name"] for row in report["rows"]]
    assert "gap-one-sharp" in names
    assert len(names) == len(set(names)) >= 11


def test_fixtures_run_small_fixture(capsys):
    code, report, _ = run_json(capsys, "fixtures", "run", "vanishing-simple", *GRID)
    assert code == 0
    assert report["passed"] is True
    assert all(row["ok"] for row in report["rows"])
    assert all("source" in row for row in report["rows"])


def test_fixtures_run_unknown_name(capsys):
    code, _, err = run(capsys, "fixtures", "run", "nope")
    assert code == 2
    assert "valid names" in json.loads(err)["error"]["message"]


def test_render_csv_roundtrip(capsys, tmp_path):
    out = tmp_path / "disk.csv"
    code, report, _ = run_json(
        capsys, "render", "--expr", "z", "--output", str(out),
        "--radial-levels", "32", "--angular", "64", "--r-max", "0.9",
    )
    assert code == 0
    assert out.exists()
    assert report["rows"] == 1 + 31 * 64
    assert report["max_abs"] == pytest.approx(0.9, abs=1e-12)


def test_render_ppm_by_suffix(capsys, tmp_path):
    out = tmp_path / "disk.ppm"
    code, report, _ = run_json(
        capsys, "render", "--expr", "(2-3*z)/(3-2*z)", "--output", str(out),
        "--radial-levels", "32", "--angular", "64",
    )
    assert code == 0
    assert report["image_format"] == "ppm"
    assert out.read_bytes().startswith(b"P6 64 64 255\n")
    assert report["max_abs"] < 1


def test_render_constant_color_field(capsys, tmp_path):
    # the weighted field of a constant is NaN everywhere: every point is drawn gray
    out = tmp_path / "one.ppm"
    code, report, _ = run_json(
        capsys, "render", "--expr", "1", "--color-field", "--output", str(out),
        "--radial-levels", "32", "--angular", "64",
    )
    assert code == 0
    assert report["skipped"] == 0
    assert report["max_abs"] == 1.0
    assert bytes([90, 90, 90]) in out.read_bytes()


def test_render_requires_output(capsys):
    code, _, err = run(capsys, "render", "--expr", "z")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_profile_defaults_to_csv(capsys):
    code, out, _ = run(capsys, "profile", *GAP_ONE, "--samples", "50", "--r-max", "0.9")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,weighted_value"
    first = [float(v) for v in lines[1].split(",")]
    assert first == pytest.approx([0.0, 3.0], abs=1e-12)


def test_profile_rejects_r_max_outside_the_disk(capsys):
    code, out, err = run(capsys, "profile", "--expr", "z", "--r-max", "1.5")
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and "r_max" in error["message"]


def test_eval_map_value_at_origin_with_negative_re_b(capsys):
    code, report, _ = run_json(
        capsys, "eval", "--op", "map-value", "--m", "3", "--beta=-0.3333333333333333",
        "--h", "1/(1-z)", "--g", "1-z", "--z", "0",
    )
    assert code == 0
    assert report["value"] == [0.0, 0.0]


def test_profile_json_boundary_estimate(capsys):
    code, report, _ = run_json(
        capsys, "profile", *GAP_ONE, "--samples", "200", "--format", "json"
    )
    assert code == 0
    assert report["monotone_tail"] is True
    assert report["boundary_estimate"] == pytest.approx(5.0, abs=1e-6)


def test_report_written_to_output_path(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "eval", *GAP_ONE, "--op", "preschwarzian", "--z", "0",
        "--output", str(out),
    )
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["value"] == pytest.approx([3.0, 0.0], abs=1e-12)


def test_text_format(capsys):
    code, out, _ = run(
        capsys, "check", "--name", "schwarz-pick", "--omega", "z", *GRID,
        "--format", "text",
    )
    assert code == 0
    assert "verdict: pass" in out


def test_csv_format_for_fixture_rows(capsys):
    code, out, _ = run(capsys, "fixtures", "run", "vanishing-simple", *GRID, "--format", "csv")
    assert code == 0
    assert out.startswith("metric,")


def test_csv_format_of_a_flat_report_parses_cell_by_cell(capsys):
    code, out, _ = run(capsys, "norm", "--kind", "pre", *GAP_FIVE, *GRID, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    cells = dict(rows[1:])
    assert cells["subcommand"] == "norm"
    assert json.loads(cells["inputs"]) == {
        "m": 0, "beta": [0.0, 0.0], "h": "z/(1-z)", "g": "1/(1-z)"
    }
    assert json.loads(cells["diverged"]) is False
    assert json.loads(cells["grid"])["angular_count"] == 64
    assert json.loads(cells["value"]) == pytest.approx(5.0, abs=0.01)


def test_text_format_of_fixture_rows(capsys):
    code, out, _ = run(capsys, "fixtures", "run", "vanishing-simple", *GRID, "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert "passed: true" in lines
    rows = [line for line in lines if line.startswith("  - metric=")]
    assert len(rows) == 5
    assert rows[0].startswith("  - metric=jacobian_at, arg=[0.5, 0.0], expected=48.0, ")
    assert all(", relative=false, ok=true, source=" in line for line in rows)


def test_usage_errors_exit_two(capsys):
    cases = [
        [],
        ["frobnicate"],
        ["eval"],
        ["eval", "--op", "nope", "--expr", "z"],
        ["eval", "--op", "preschwarzian"],
        ["eval", "--op", "preschwarzian", "--expr", "z", "--z", "xx"],
        ["norm", "--kind", "pre"],
        ["norm", "--kind", "bloch-log"],
        ["check", "--name", "becker"],
        ["check", "--name", "schwarz-pick"],
        ["fixtures", "run"],
        ["norm", "--kind", "pre", "--expr", "z", "--radial-levels", "1"],
        ["eval", "--op", "preschwarzian", "--expr", "z", "--h", "z", "--g", "z"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# -- every CLI choice against its library call ----------------------------

TINY = ("--radial-levels", "20", "--angular", "32", "--refine", "1")
TINY_GRID = GridSpec(radial_levels=20, angular_count=32, refine_rounds=1)
NEAR_ID = ("--m", "0", "--h", "z+0.05*z^2", "--g", "1+0.05*z")


def _map(flags) -> LogHarmonicMap:
    opts = dict(zip(flags[::2], flags[1::2]))
    return LogHarmonicMap.from_strings(
        int(opts["--m"]), parse_complex(opts.get("--beta", "0")), opts["--h"], opts["--g"]
    )


def _choices(subcommand: str, dest: str) -> set:
    sub = next(a for a in _build_parser()._actions if a.dest == "subcommand")
    return set(next(a.choices for a in sub.choices[subcommand]._actions if a.dest == dest))


Z = 0.3 + 0.2j
EVAL_MAP = {
    "preschwarzian": ((), lambda f: pre_schwarzian(f, Z)),
    "schwarzian": ((), lambda f: schwarzian(f, Z)),
    "dilatation": ((), lambda f: dilatation(f, Z)),
    "jacobian": ((), lambda f: jacobian(f, Z)),
    "map-value": ((), lambda f: map_value(f, Z)),
    "wirtinger": ((), lambda f: dict(zip(("f_z", "f_zbar", "f"), wirtinger(f, Z)))),
    "phi": ((), lambda f: dict(zip(("pre_schwarzian", "schwarzian"), phi_family(f, Z)))),
    "dbar-preschwarzian": ((), lambda f: dbar_pre_schwarzian(f, Z)),
    "dbar-schwarzian": ((), lambda f: dbar_schwarzian(f, Z)),
    "hg-eps-preschwarzian": (
        ("--eps", "0.5,-0.25"), lambda f: hg_epsilon_pre_schwarzian(f, 0.5 - 0.25j, Z)
    ),
    "compose": (("--psi", "0.5*z"), lambda f: compose_with_analytic(f, parse("0.5*z"), Z)),
}
EVAL_EXPR = {
    "preschwarzian": lambda e: analytic_pre_schwarzian(e, Z),
    "schwarzian": lambda e: analytic_schwarzian(e, Z),
}
NORMS = {
    ("pre", "map"): (GAP_FIVE, lambda: pre_schwarzian_norm(_map(GAP_FIVE), TINY_GRID)),
    ("pre", "expr"): (("--expr", "z/(1-z)^2"), lambda: weighted_sup(
        analytic_pre_schwarzian_field(parse("z/(1-z)^2")), 1, TINY_GRID)),
    ("schwarzian", "map"): (GAP_FIVE, lambda: schwarzian_norm(_map(GAP_FIVE), TINY_GRID)),
    ("schwarzian", "expr"): (("--expr", "z/(1-z)^2"), lambda: weighted_sup(
        analytic_schwarzian_field(parse("z/(1-z)^2")), 2, TINY_GRID)),
    ("bloch-log", "g"): (("--g", "1/(1-z)"), lambda: bloch_norm_log(parse("1/(1-z)"), TINY_GRID)),
    ("hg-eps", "map"): ((*GAP_FIVE, "--eps", "0.5"), lambda: weighted_sup(
        hg_epsilon_field(_map(GAP_FIVE), 0.5), 1, TINY_GRID)),
}


def _companion_report(f, grid):
    phi, report = associated_starlike(f, grid)
    report.extras["companion"] = unparse(phi)
    return report


CHECKS = {
    "becker": (("--expr", "z/(1-z)^2"), lambda: becker_check(parse("z/(1-z)^2"), TINY_GRID)),
    "nehari": (("--expr", "z+0.1*z^2"), lambda: nehari_check(parse("z+0.1*z^2"), TINY_GRID)),
    "schwarz-pick": (
        ("--omega", "(z+0.5)/(1+0.5*z)"),
        lambda: schwarz_pick_check(parse("(z+0.5)/(1+0.5*z)"), TINY_GRID),
    ),
    "eps-univalence": (
        (*NEAR_ID, "--eps", "1"),
        lambda: hg_epsilon_univalence_check(_map(NEAR_ID), 1, TINY_GRID),
    ),
    "norm-gap": (GAP_ONE, lambda: norm_gap_check(_map(GAP_ONE), TINY_GRID)),
    "eps-norm-gap": (
        (*GAP_FIVE, "--eps", "-1"),
        lambda: epsilon_norm_gap_check(_map(GAP_FIVE), -1, TINY_GRID),
    ),
    "norm-bound": (NEAR_ID, lambda: pre_schwarzian_bound_check(_map(NEAR_ID), TINY_GRID)),
    "starlike": (STARLIKE, lambda: starlike_check(_map(STARLIKE), TINY_GRID)),
    "associated-starlike": (STARLIKE, lambda: _companion_report(_map(STARLIKE), TINY_GRID)),
}


def test_every_choice_is_run_below():
    assert _choices("eval", "op") == set(EVAL_MAP) >= set(EVAL_EXPR)
    assert _choices("norm", "kind") == {kind for kind, _ in NORMS}
    assert _choices("check", "name") == set(CHECKS)


@pytest.mark.parametrize("op", sorted(EVAL_MAP))
def test_eval_op_reports_library_value(capsys, op):
    flags, call = EVAL_MAP[op]
    code, report, _ = run_json(capsys, "eval", *GAP_ONE, "--op", op, "--z", "0.3,0.2", *flags)
    assert code == 0
    assert report["value"] == _jsonable(call(_map(GAP_ONE)))


@pytest.mark.parametrize("op", sorted(EVAL_EXPR))
def test_eval_expr_op_reports_library_value(capsys, op):
    code, report, _ = run_json(
        capsys, "eval", "--expr", "z/(1-z)^2", "--op", op, "--z", "0.3,0.2"
    )
    assert code == 0
    assert report["value"] == _jsonable(EVAL_EXPR[op](parse("z/(1-z)^2")))


@pytest.mark.parametrize("kind, target", sorted(NORMS))
def test_norm_kind_reports_library_estimate(capsys, kind, target):
    flags, call = NORMS[kind, target]
    code, report, _ = run_json(capsys, "norm", "--kind", kind, *flags, *TINY)
    assert code == 0
    est = call()
    keys = ("value", "argmax", "diverged", "samples", "failed_samples", "flagged")
    assert {k: report[k] for k in keys} == _jsonable({k: getattr(est, k) for k in keys})


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_name_reports_library_verdict(capsys, name):
    flags, call = CHECKS[name]
    code, report, _ = run_json(capsys, "check", "--name", name, *flags, *TINY)
    want = call()
    assert code == (0 if want.verdict == "pass" else 1)
    keys = ("verdict", "worst_margin", "worst_point", "samples", "detail", "extras")
    assert {k: report[k] for k in keys} == _jsonable({k: getattr(want, k) for k in keys})


_JUNK = st.sampled_from(
    [
        "eval", "norm", "check", "fixtures", "render", "profile",
        "--op", "--kind", "--name", "--z", "--h", "--g", "--expr", "--beta",
        "z", "1,2", "xyz", "(", "-1", "run", "list", "--angular", "0",
    ]
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_JUNK, max_size=6))
def test_exit_codes_bounded_over_malformed_input(argv):
    buf_out, buf_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
        code = main(argv)
    assert code in (0, 1, 2)
