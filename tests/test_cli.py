import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logharm.cli import UsageError, main, parse_complex

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
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"]["type"] == "AllSamplesFailed", argv


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
