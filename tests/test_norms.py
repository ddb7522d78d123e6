"""Sup-norm estimator against closed-form suprema and soundness invariants."""
from __future__ import annotations

import math

import numpy as np
import pytest

from logharm.errors import AllSamplesFailed
from logharm.expr import Mul, parse
from logharm.maps import analytic_pre_schwarzian_field, pre_schwarzian_field, schwarzian_field
from logharm.norms import (
    GridSpec,
    bloch_norm_log,
    level_walk,
    pre_schwarzian_norm,
    radial_profile,
    schwarzian_norm,
    weighted_sup,
)

from conftest import build, one_call_reference

SMALL = GridSpec(radial_levels=60, angular_count=64, refine_rounds=2)


def constant_one(z):
    return np.ones_like(np.asarray(z, dtype=complex))


def test_gridspec_defaults_and_validation():
    g = GridSpec()
    # r = 0 collapses to a single sample, the rest are full circles
    assert 1 + (g.radial_levels - 1) * g.angular_count >= 100_000
    with pytest.raises(ValueError):
        GridSpec(r_max=1 - 1e-7)
    with pytest.raises(ValueError):
        GridSpec(angular_count=4)
    with pytest.raises(ValueError):
        GridSpec(radial_levels=1)
    with pytest.raises(ValueError):
        GridSpec(refine_rounds=-1)


def test_constant_field_sup_is_one_at_origin():
    est = weighted_sup(constant_one, 1, SMALL)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.argmax == 0
    assert est.failed_samples == 0 and not est.flagged


def test_weight_power_validated():
    with pytest.raises(ValueError):
        weighted_sup(constant_one, 3, SMALL)


def test_pre_schwarzian_norm_gap_one(gap_one):
    est = pre_schwarzian_norm(gap_one, SMALL)
    assert est.value == pytest.approx(5.0, abs=0.01)
    assert est.value <= 5.0 + 1e-9
    hg = Mul(gap_one.h, gap_one.g)
    prod = weighted_sup(analytic_pre_schwarzian_field(hg), 1, SMALL)
    assert prod.value == pytest.approx(4.0, abs=0.01)
    assert prod.value <= 4.0 + 1e-9


def test_pre_schwarzian_norm_gap_five(gap_five):
    est = pre_schwarzian_norm(gap_five, SMALL)
    assert est.value == pytest.approx(5.0, abs=0.01)
    assert est.value <= 5.0 + 1e-9


def test_mobius_interior_maximum():
    est = pre_schwarzian_norm(build("mobius-gap-a60"), SMALL)
    assert est.value == pytest.approx(31 / 9, abs=0.01)
    assert est.value <= 31 / 9 + 1e-9
    # the maximum sits inside the disk on the positive real axis
    assert abs(est.argmax - 1 / 3) < 0.01


def test_koebe_norms():
    f = build("koebe")
    assert pre_schwarzian_norm(f, SMALL).value == pytest.approx(6.0, abs=0.01)
    assert schwarzian_norm(f, SMALL).value == pytest.approx(6.0, abs=0.01)


def test_exponential_norm_is_one():
    from logharm.maps import LogHarmonicMap

    f = LogHarmonicMap.from_strings(0, 0, "exp(z)", "1")
    est = pre_schwarzian_norm(f, SMALL)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.argmax == 0


def test_bloch_norm_examples():
    assert bloch_norm_log(parse("1/(1-z)"), SMALL).value == pytest.approx(2.0, abs=0.01)
    assert bloch_norm_log(parse("1"), SMALL).value == 0.0
    g90 = build("mobius-gap-a90").g
    assert bloch_norm_log(g90, SMALL).value == pytest.approx(2.0, abs=0.02)


def test_argmax_reproduces_value(gap_one):
    est = pre_schwarzian_norm(gap_one, SMALL)
    field = pre_schwarzian_field(gap_one)
    w = (1 - abs(est.argmax) ** 2) * abs(field(np.array([est.argmax]))[0])
    assert abs(w - est.value) < 1e-12


def test_refinement_monotone(gap_one):
    grid = GridSpec(radial_levels=40, angular_count=64, refine_rounds=4)
    est = pre_schwarzian_norm(gap_one, grid)
    assert len(est.refine_values) == 5
    assert all(b >= a for a, b in zip(est.refine_values, est.refine_values[1:]))
    assert est.value >= est.refine_values[0]


@pytest.mark.parametrize(
    "name, make_field, p",
    [("gap-five-sharp", pre_schwarzian_field, 1), ("koebe", schwarzian_field, 2)],
)
def test_sweep_matches_one_call_reference(name, make_field, p):
    grid = GridSpec(radial_levels=40, angular_count=64, refine_rounds=1)
    f = build(name)
    field = make_field(f)
    ref_value, ref_point = one_call_reference(field, p, grid)
    walk = level_walk(lambda r, zs: np.abs(field(zs)) * ((1.0 - r * r) ** p), grid)
    assert (walk.value, walk.point) == (ref_value, ref_point)
    norm = pre_schwarzian_norm if p == 1 else schwarzian_norm
    runs = []
    for _ in range(2):
        est = norm(f, grid)
        runs.append((est.value, est.argmax, est.samples, est.refine_values))
    assert runs[0][3][0] == ref_value
    assert runs[0] == runs[1]


def test_resolution_doubling_stability(gap_five):
    a = pre_schwarzian_norm(gap_five, GridSpec(100, 1 - 1e-6, 256, 2))
    b = pre_schwarzian_norm(gap_five, GridSpec(200, 1 - 1e-6, 512, 2))
    assert abs(a.value - b.value) < 1e-3


def test_diverged_flag_for_vanishing_maps():
    est = pre_schwarzian_norm(build("starlike-vanishing"), SMALL)
    assert est.diverged
    assert math.isfinite(est.value)
    s_est = schwarzian_norm(build("starlike-vanishing"), SMALL)
    assert s_est.diverged
    # m = 1 with beta = 0 has no origin factor blowup in P
    assert not pre_schwarzian_norm(build("vanishing-simple"), SMALL).diverged
    assert not pre_schwarzian_norm(build("logharmonic-koebe"), SMALL).diverged


def test_all_samples_failed():
    def bad(z):
        z = np.asarray(z, dtype=complex)
        return np.full_like(z, np.nan + 1j * np.nan)

    with pytest.raises(AllSamplesFailed):
        weighted_sup(bad, 1, SMALL)
    with pytest.raises(AllSamplesFailed):
        radial_profile(bad, 1, 50)


def test_partial_failure_flagged():
    def patchy(z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        return np.where(z.real > 0.5, np.nan + 1j * np.nan, out)

    est = weighted_sup(patchy, 1, SMALL)
    assert est.flagged
    assert 0 < est.failed_samples < est.samples
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_radial_profile_linear_families(gap_one):
    prof = radial_profile(pre_schwarzian_field(gap_one), 1, 200)
    for r, w in prof.rows[::25]:
        assert w == pytest.approx(3 + 2 * r, abs=1e-9)
    assert prof.monotone_tail
    assert prof.boundary_estimate == pytest.approx(5.0, abs=1e-9)

    koebe = radial_profile(analytic_pre_schwarzian_field(parse("z/(1-z)^2")), 1, 200)
    for r, w in koebe.rows[::25]:
        assert w == pytest.approx(4 + 2 * r, abs=1e-9)
    assert koebe.boundary_estimate == pytest.approx(6.0, abs=1e-9)


def test_radial_profile_constant_field():
    prof = radial_profile(constant_one, 1, 100)
    assert prof.rows[0] == (0.0, 1.0)
    assert not prof.monotone_tail
    assert prof.boundary_estimate is None
    assert max(w for _, w in prof.rows) == 1.0
