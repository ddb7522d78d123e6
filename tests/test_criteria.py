"""Univalence/starlikeness checks against known pass and fail cases."""
from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

from logharm import criteria, norms
from logharm.errors import ZeroEncountered
from logharm.criteria import (
    CheckReport,
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
from logharm.expr import eval_value, parse
from logharm.maps import LogHarmonicMap, pre_schwarzian, wirtinger
from logharm.fixtures import fixture_names
from logharm.norms import _INNER_RADIUS, GridSpec, _radii, pre_schwarzian_norm

from conftest import build

COARSE = GridSpec(radial_levels=30, angular_count=64, refine_rounds=1)
MEDIUM = GridSpec(radial_levels=40, angular_count=64, refine_rounds=2)


def test_becker_identity_and_small_exp():
    rep = becker_check(parse("z"), COARSE)
    assert rep.verdict == "pass"
    assert rep.extras["sup"] == 0.0
    assert becker_check(parse("exp(0.4*z)"), COARSE).verdict == "pass"


def test_becker_koebe_fails_with_real_axis_witness():
    rep = becker_check(parse("z/(1-z)^2"), COARSE)
    assert rep.verdict == "fail"
    assert rep.extras["sup"] == pytest.approx(6.0, abs=0.01)
    assert rep.worst_point.real > 0.9 and abs(rep.worst_point.imag) < 0.05
    assert "univalence" in rep.detail  # explicit sufficiency-only wording


def test_nehari_examples():
    assert nehari_check(parse("z"), COARSE).verdict == "pass"
    rep = nehari_check(parse("z/(1-z)^2"), COARSE)
    assert rep.verdict == "fail"
    assert rep.extras["sup"] == pytest.approx(6.0, abs=0.01)


def test_schwarz_pick_examples():
    rep = schwarz_pick_check(parse("z"), COARSE)
    assert rep.verdict == "pass"
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)  # equality case

    rep = schwarz_pick_check(parse("(2-3*z)/(3-2*z)"), COARSE)
    assert rep.verdict == "pass"
    assert rep.extras["max_modulus"] < 1.0

    rep = schwarz_pick_check(parse("1.2*z"), COARSE)
    assert rep.verdict == "fail"
    assert rep.extras["max_modulus"] > 1.0
    w = rep.worst_point
    margin = 1.2 * (1 - abs(w) ** 2) - (1 - abs(1.2 * w) ** 2)
    assert margin == pytest.approx(rep.worst_margin, abs=1e-12)


def test_hg_epsilon_univalence_small_map():
    f = LogHarmonicMap.from_strings(0, 0, "exp(0.1*z)", "exp(0.05*z)")
    rep = hg_epsilon_univalence_check(f, 1, COARSE)
    assert rep.verdict == "pass"
    assert rep.extras["becker_verdict"] == "pass"


def test_hg_epsilon_univalence_fails_on_large_map(gap_one):
    rep = hg_epsilon_univalence_check(gap_one, 1, COARSE)
    assert rep.verdict == "fail"
    w = rep.worst_point
    assert w.real > 0.9 and abs(w.imag) < 0.05
    # rerunning reproduces the witness and margin exactly
    rep2 = hg_epsilon_univalence_check(gap_one, 1, COARSE)
    assert rep2.worst_margin == rep.worst_margin and rep2.worst_point == w
    # independent scalar recomputation agrees up to roundoff of the huge
    # exp intermediates near the boundary
    p = pre_schwarzian(gap_one, w)
    lhs = abs(w * p) + abs(w) / (1 - abs(w) ** 2)
    assert (1 - abs(w) ** 2) * lhs - 1 == pytest.approx(rep.worst_margin, rel=1e-8)


def test_hg_epsilon_univalence_requires_m0(starlike_vanishing):
    with pytest.raises(ValueError):
        hg_epsilon_univalence_check(starlike_vanishing, 1, COARSE)


def test_norm_gap_sharp_fixture(gap_one):
    rep = norm_gap_check(gap_one, MEDIUM)
    assert rep.verdict == "pass"
    assert rep.extras["gap"] == pytest.approx(1.0, abs=0.02)
    assert rep.extras["norm_f"] == pytest.approx(5.0, abs=0.01)
    assert rep.extras["norm_product"] == pytest.approx(4.0, abs=0.01)


def test_norm_gap_trivial_when_g_constant():
    f = LogHarmonicMap.from_strings(0, 0, "z/(1-z)^2", "1")
    rep = norm_gap_check(f, COARSE)
    assert rep.verdict == "pass"
    assert rep.extras["gap"] == pytest.approx(0.0, abs=1e-9)


def test_norm_gap_inconclusive_on_divergence(starlike_vanishing):
    rep = norm_gap_check(starlike_vanishing, COARSE)
    assert rep.verdict == "inconclusive"
    assert math.isnan(rep.worst_margin)


def test_norm_gap_property_random_fixtures():
    # small-coefficient exponentials keep |omega| = |q'/p'| < 1 on the disk
    rng = random.Random(101)
    grid = GridSpec(radial_levels=24, angular_count=32, refine_rounds=1)
    for _ in range(50):
        a1 = complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
        a2 = complex(rng.uniform(-0.07, 0.07), rng.uniform(-0.07, 0.07))
        t = rng.uniform(0.1, 0.6)
        c1 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        h = f"exp(z + ({a1.real}+{a1.imag}*i)*z^2/2 + ({a2.real}+{a2.imag}*i)*z^3/3)"
        g = f"exp({t}*(z + ({c1.real}+{c1.imag}*i)*z^2/2))"
        f = LogHarmonicMap.from_strings(0, 0, h, g)
        rep = norm_gap_check(f, grid)
        assert rep.verdict == "pass", (h, g, rep.extras)
        assert rep.extras["gap"] <= 1.0 + 0.02


def test_epsilon_norm_gap_chain(gap_five):
    beta_expected = 2.0
    for eps, expected_gap in ((-1, 5.0), (1, 1.0), (1j, None), (0.5 - 0.5j, None)):
        rep = epsilon_norm_gap_check(gap_five, eps, MEDIUM)
        assert rep.verdict == "pass", (eps, rep.extras)
        bound = rep.extras["bound"]
        weak = rep.extras["weak_bound"]
        assert bound == pytest.approx(1 + abs(1 - eps) * beta_expected, abs=0.05)
        assert weak == pytest.approx(1 + 2 * beta_expected, abs=0.05)
        assert bound <= weak + 1e-12
        assert rep.extras["gap"] <= bound + 0.02
        if expected_gap is not None:
            assert rep.extras["gap"] == pytest.approx(expected_gap, abs=0.02)
    assert epsilon_norm_gap_check(gap_five, -1, MEDIUM).extras[
        "norm_member"
    ] == pytest.approx(0.0, abs=1e-8)


def test_epsilon_norm_gap_rejects_m_ge_1_before_sweeping(monkeypatch):
    calls = []
    monkeypatch.setattr(criteria, "weighted_sups", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="m = 0"):
        epsilon_norm_gap_check(build("starlike-vanishing"), 0.5, COARSE)
    assert calls == []


def test_pre_schwarzian_bound_check_passes_small():
    f = LogHarmonicMap.from_strings(0, 0, "exp(0.1*z)", "exp(0.05*z)")
    rep = pre_schwarzian_bound_check(f, COARSE)
    assert rep.verdict == "pass"
    assert rep.extras["norm_f"] < 1.0

    analytic = LogHarmonicMap.from_strings(0, 0, "exp(0.4*z)", "1")
    rep = pre_schwarzian_bound_check(analytic, COARSE)
    assert rep.verdict == "pass"
    assert rep.extras["norm_f"] == pytest.approx(0.4, abs=1e-6)


def test_pre_schwarzian_bound_check_inconclusive(gap_one):
    rep = pre_schwarzian_bound_check(gap_one, COARSE)
    assert rep.verdict == "inconclusive"
    assert "not claimed" in rep.detail


def _counted_walks(monkeypatch) -> list:
    """Record every grid walk, wherever criteria and norms look it up."""
    walks, walk = [], norms.level_walk

    def counted(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(criteria, "level_walk", counted)
    monkeypatch.setattr(norms, "level_walk", counted)
    return walks


def test_norm_bound_walks_only_for_what_it_reports(monkeypatch, gap_one):
    # one walk of the eps = 1 margin, then one of P_f only when it holds
    walks = _counted_walks(monkeypatch)
    rep = pre_schwarzian_bound_check(LogHarmonicMap.from_strings(0, 0, "exp(z)", "1"), COARSE)
    assert (rep.verdict, len(walks)) == ("pass", 2)
    walks.clear()
    rep = pre_schwarzian_bound_check(gap_one, COARSE)
    assert (rep.verdict, len(walks)) == ("inconclusive", 1)
    walks.clear()
    with pytest.raises(ValueError, match="m = 0"):
        pre_schwarzian_bound_check(build("starlike-vanishing"), COARSE)
    assert walks == []


def _composed_bound_report(f, grid):
    """norm-bound composed of the whole eps = 1 check and the norm of P_f."""
    hypothesis = hg_epsilon_univalence_check(f, 1, grid)
    if hypothesis.verdict != "pass":
        return CheckReport(
            "inconclusive", hypothesis.worst_point, math.nan, hypothesis.samples,
            "hypothesis fails at witness; the bound is not claimed",
            {"hypothesis_margin": hypothesis.worst_margin},
        )
    est = pre_schwarzian_norm(f, grid)
    detail = f"norm estimate {est.value:.6f} vs bound 7"
    return CheckReport(
        "pass" if est.value - 7.0 <= 2 * criteria.NORM_TOL else "fail", est.argmax,
        est.value - 7.0, hypothesis.samples + est.samples, detail,
        {"norm_f": est.value, "hypothesis_margin": hypothesis.worst_margin},
    )


@pytest.mark.parametrize(
    "name", [n for n in fixture_names() if build(n).m == 0] + ["exp(z), 1"]
)
def test_norm_bound_report_matches_its_composition(name):
    f = LogHarmonicMap.from_strings(0, 0, "exp(z)", "1") if name == "exp(z), 1" else build(name)
    assert repr(pre_schwarzian_bound_check(f, MEDIUM)) == repr(_composed_bound_report(f, MEDIUM))


def test_starlike_vanishing_fixture(starlike_vanishing):
    rep = starlike_check(starlike_vanishing, COARSE)
    assert rep.verdict == "pass"
    # closed form against the direct Wirtinger quotient
    for z in (0.3 + 0.2j, -0.5 + 0.1j, 0.6j):
        fz, fzb, val = wirtinger(starlike_vanishing, z)
        direct = (z * fz - z.conjugate() * fzb) / val
        want = 1 + 2 * (z / (1 - z)).real
        assert direct.real == pytest.approx(want, rel=1e-9)


def test_starlike_analytic_koebe():
    f = LogHarmonicMap.from_strings(0, 0, "z/(1-z)^2", "1")
    assert starlike_check(f, COARSE).verdict == "pass"


def test_starlike_fails_for_pure_exp():
    f = LogHarmonicMap.from_strings(0, 0, "exp(z)", "1")
    rep = starlike_check(f, COARSE)
    assert rep.verdict == "fail"
    assert rep.worst_point.real < 0  # functional is Re(z)
    assert rep.worst_margin == pytest.approx(-rep.worst_point.real, abs=1e-12)


def test_starlike_zero_off_origin_raises():
    f = LogHarmonicMap.from_strings(0, 0, "1-1000*z", "1")
    with pytest.raises(ZeroEncountered):
        starlike_check(f, COARSE)


def test_starlike_zero_witness_is_on_the_first_level_with_a_zero():
    # h is 1e-13 * (1 - r10/r11) at z = r10 and exactly 0 at z = r11: both
    # below the zero threshold, on two levels of one block.  The witness is
    # the first of them, as a walk over single levels finds it.
    radii = _radii(_INNER_RADIUS, COARSE.r_max, COARSE.radial_levels)
    r10, r11 = float(radii[10]), float(radii[11])
    f = LogHarmonicMap.from_strings(0, 0, f"(1-z/{r10!r}+1e-13)*(1-z/{r11!r})", "1")
    with pytest.raises(ZeroEncountered) as err:
        starlike_check(f, COARSE)
    assert err.value.point == r10


def test_associated_starlike_examples(starlike_vanishing):
    phi, rep = associated_starlike(starlike_vanishing, COARSE)
    assert rep.verdict == "pass"
    koebe = parse("z/(1-z)^2")
    for z in (0.3, -0.2 + 0.4j):
        assert eval_value(phi, complex(z)) == pytest.approx(
            eval_value(koebe, complex(z)), rel=1e-12
        )

    trivial = build("vanishing-simple")  # h = g, companion is z
    phi, rep = associated_starlike(trivial, COARSE)
    assert rep.verdict == "pass"
    assert list(rep.extras) == ["failed_samples", "companion"]
    assert rep.extras["companion"] == "z*(1/(1-z))/(1/(1-z))"
    assert eval_value(phi, 0.37 + 0.1j) == pytest.approx(0.37 + 0.1j, rel=1e-12)

    f = LogHarmonicMap.from_strings(1, 0, "1", "1+0.9*z")
    _, rep = associated_starlike(f, COARSE)
    assert rep.verdict == "pass"


def test_associated_starlike_requires_vanishing(gap_one):
    with pytest.raises(ValueError):
        associated_starlike(gap_one, COARSE)


def test_becker_pass_corroborated_by_injectivity():
    from scipy.spatial import cKDTree

    member = parse("exp(0.15*z)")
    assert becker_check(member, COARSE).verdict == "pass"
    rng = np.random.default_rng(2024)
    r = np.sqrt(rng.uniform(0, 1, 10_000)) * 0.999
    t = rng.uniform(0, 2 * np.pi, 10_000)
    zs = r * np.exp(1j * t)
    vals = np.exp(0.15 * zs)
    pts = np.column_stack([vals.real, vals.imag])
    dist, idx = cKDTree(pts).query(pts, k=2)
    assert float(dist[:, 1].min()) > 1e-9
