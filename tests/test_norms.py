"""Sup-norm estimator against closed-form suprema and soundness invariants."""
from __future__ import annotations

import cmath
import dataclasses
import math
from functools import partial

import mpmath
import numpy as np
import pytest

from logharm import expr, fixtures, norms
from logharm.criteria import NORM_TOL
from logharm.errors import AllSamplesFailed
from logharm.expr import Mul, parse
from logharm.fixtures import fixture_names, load_fixture
from logharm.maps import (
    LogHarmonicMap,
    _phi_logderiv,
    _raw_local,
    analytic_pre_schwarzian_field,
    as_field,
    origin_exponent,
    pre_schwarzian,
    pre_schwarzian_field,
    schwarzian_field,
)
from logharm.norms import (
    _INNER_RADIUS,
    _PATCH_CALLS,
    GridSpec,
    Sup,
    _radii,
    bloch_log_sup,
    bloch_norm_log,
    level_walk,
    logderiv_field,
    pre_schwarzian_norm,
    pre_schwarzian_sup,
    radial_profile,
    schwarzian_norm,
    schwarzian_sup,
    weighted_sup,
    weighted_sups,
)

from conftest import build, one_call_reference, walk_ring

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
    # counts must be integers: a float, a bool, a string or None is refused
    for bad in (
        {"radial_levels": 2.5}, {"angular_count": 8.5}, {"refine_rounds": 1.5},
        {"radial_levels": 40.0}, {"angular_count": "512"}, {"refine_rounds": True},
        {"radial_levels": True}, {"angular_count": False}, {"refine_rounds": None},
        {"radial_levels": 2.5, "angular_count": 8.5, "refine_rounds": 1.5},
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            GridSpec(**bad)
    assert GridSpec(np.int64(3), angular_count=np.int32(8), refine_rounds=np.int64(0))


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


def test_refine_stops_after_a_round_that_moves_nothing():
    # the sup of a constant field is its origin sample, so no patch point
    # beats it: each call shrinks both half-widths by 6^3 = 216, and the
    # third brings them under 1e-6 of a grid step (216^2 < 1e6 < 216^3), in
    # round 1
    shapes = []

    def counted(z):
        shapes.append(np.shape(z))
        return constant_one(z)

    grid = GridSpec(radial_levels=20, angular_count=32, refine_rounds=3)
    est = weighted_sup(counted, 1, grid)
    # the origin, the other 19 levels in one block, three patches of three
    # nested 9 x 9 scales and the re-evaluation; rounds 2 and 3 make no call
    assert shapes == [(1, 1), (19, 32)] + [(3, 9, 9)] * 3 + [(1,)]
    assert est.refine_values == (1.0,) * (grid.refine_rounds + 1)
    assert (est.value, est.argmax) == (1.0, 0j)


@pytest.mark.parametrize("name", ["mobius-gap-a60", "mobius-gap-a90", "mobius-gap-a99"])
def test_refine_reaches_interior_closed_forms(name):
    # the sup is inside the disk, so the refine, not the grid, sets the digits
    expect = next(
        c["expect"] for c in load_fixture(name).checks if c["metric"] == "pre_schwarzian_norm"
    )
    est = pre_schwarzian_norm(build(name), GridSpec())
    assert est.value == pytest.approx(expect, rel=1e-13)
    assert all(b >= a for a, b in zip(est.refine_values, est.refine_values[1:]))
    assert est.value >= est.refine_values[-1]


def _per_level_walk(level_fn, grid, inner):
    """The walk one level per call: (value, point, level, theta, samples, failed)."""
    radii = _radii(inner, grid.r_max, grid.radial_levels)
    thetas = np.arange(grid.angular_count) * (2.0 * math.pi / grid.angular_count)
    ring = walk_ring(grid.angular_count)
    best = (-math.inf, 0j, 0, 0.0)
    total = failed = 0
    for i, r in enumerate(radii):
        r = float(r)
        ts = thetas[:1] if r == 0.0 else thetas
        zs = r * ring[: len(ts)]
        vals = np.asarray(level_fn(r, zs), dtype=float)
        ok = np.isfinite(vals)
        total += vals.size
        failed += int(vals.size - np.count_nonzero(ok))
        if ok.any():
            j = int(np.argmax(np.where(ok, vals, -math.inf)))
            if vals[j] > best[0]:
                best = (float(vals[j]), complex(zs[j]), i, float(ts[j]))
    return best + (total, failed)


# the mirrored 64- and 96-rings walk blocks of 64 and 42 levels, the odd
# 95-ring blocks of 21; none divides the levels after the origin
BLOCK_GRIDS = (
    GridSpec(radial_levels=100, angular_count=64),
    GridSpec(radial_levels=90, angular_count=96),
    GridSpec(radial_levels=37, angular_count=95),
)


@pytest.mark.parametrize(
    "name, make_field, p",
    [(n, pre_schwarzian_field, 1) for n in fixture_names()] + [("koebe", schwarzian_field, 2)],
)
def test_level_blocks_keep_every_witness(name, make_field, p):
    # c == 0 maps (m = 1 for vanishing-simple) start at r = 0, c != 0 maps
    # (starlike-vanishing) at the inner radius
    f = build(name)
    field = make_field(f)
    inner = _INNER_RADIUS if origin_exponent(f) != 0 else 0.0
    level_fn = lambda r, zs: np.abs(field(zs)) * ((1.0 - r * r) ** p)
    for grid in BLOCK_GRIDS:
        (walk,) = level_walk([level_fn], grid, inner)
        got = (walk.value, walk.point, walk.level, walk.theta, walk.samples, walk.failed)
        assert got == _per_level_walk(level_fn, grid, inner)


def test_level_blocks_keep_a_lower_half_witness():
    # g'/g = c/(1 - c z) with complex c peaks at the angle -arg(c), where the
    # walk samples r conj(ring[n - j])
    field = logderiv_field(parse("1/(1-(0.78983+0.43148*i)*z)"))
    level_fn = lambda r, zs: np.abs(field(zs)) * (1.0 - r * r)
    for grid in BLOCK_GRIDS:
        (walk,) = level_walk([level_fn], grid)
        assert walk.theta > math.pi
        got = (walk.value, walk.point, walk.level, walk.theta, walk.samples, walk.failed)
        assert got == _per_level_walk(level_fn, grid, 0.0)


@pytest.mark.parametrize(
    "name, make_field, p",
    [("gap-five-sharp", pre_schwarzian_field, 1), ("koebe", schwarzian_field, 2)],
)
def test_sweep_matches_one_call_reference(name, make_field, p):
    grid = GridSpec(radial_levels=40, angular_count=64, refine_rounds=1)
    f = build(name)
    field = make_field(f)
    ref_value, ref_point = one_call_reference(field, p, grid)
    (walk,) = level_walk([lambda r, zs: np.abs(field(zs)) * ((1.0 - r * r) ** p)], grid)
    assert (walk.value, walk.point) == (ref_value, ref_point)
    norm = pre_schwarzian_norm if p == 1 else schwarzian_norm
    runs = []
    for _ in range(2):
        est = norm(f, grid)
        runs.append((est.value, est.argmax, est.samples, est.refine_values))
    assert runs[0][3][0] == ref_value
    assert runs[0] == runs[1]


def test_level_blocks_break_ties_in_r_theta_order():
    # floor(2 Im z) = 1 on every sample with Im z >= 1/2, across levels,
    # angles and blocks; the first of them in (r, theta) order is the witness
    level_fn = lambda r, zs: np.floor(2.0 * zs.imag) + 0.0 * r
    for grid in BLOCK_GRIDS:
        (walk,) = level_walk([level_fn], grid)
        got = (walk.value, walk.point, walk.level, walk.theta, walk.samples, walk.failed)
        assert got == _per_level_walk(level_fn, grid, 0.0)
        assert walk.value == 1.0


def test_resolution_doubling_stability(gap_five):
    a = pre_schwarzian_norm(gap_five, GridSpec(100, 1 - 1e-6, 256, 2))
    b = pre_schwarzian_norm(gap_five, GridSpec(200, 1 - 1e-6, 512, 2))
    assert abs(a.value - b.value) < 1e-3


def test_diverged_flag_for_vanishing_maps():
    f = build("starlike-vanishing")
    c = origin_exponent(f)
    assert c == 4
    est = pre_schwarzian_norm(f, SMALL)
    assert est.diverged
    assert math.isfinite(est.value)
    assert schwarzian_norm(f, SMALL).diverged
    # P_f = c/z + O(1): the rule that marks the norm diverged matches the field
    z = 1e-7 * cmath.exp(0.4j)
    assert abs(z * pre_schwarzian_field(f)(np.array([z]))[0] - c) < 1e-6
    assert abs(z * pre_schwarzian(f, z) - c) < 1e-6
    # m = 1 with beta = 0 has c = 0: regular at the origin, swept from r = 0
    simple = build("vanishing-simple")
    assert pre_schwarzian(simple, 0) == 3
    for name in ("vanishing-simple", "logharmonic-koebe"):
        for norm in (pre_schwarzian_norm, schwarzian_norm):
            est = norm(build(name), SMALL)
            assert not est.diverged
            assert est.samples == 1 + (SMALL.radial_levels - 1) * SMALL.angular_count


@pytest.mark.parametrize(
    "m, beta, diverged",
    [
        (1, 1e-4, True),
        (2, -0.2499, True),
        (3, -1 / 3 + 1e-9, True),
        (1, 0.0, False),
        (2, -0.25, False),
        (3, -1 / 3, False),  # the float c is exactly 0.0
    ],
)
def test_norms_diverge_iff_origin_exponent_nonzero(m, beta, diverged):
    # c = (2 beta + 1) m - 1, however close to 0, decides both norms
    f = LogHarmonicMap.from_strings(m, beta, "1/(1-z)", "1-z")
    assert (origin_exponent(f) != 0) is diverged
    for norm in (pre_schwarzian_norm, schwarzian_norm):
        est = norm(f, SMALL)
        assert est.diverged is diverged
        assert math.isfinite(est.value)


@pytest.mark.parametrize("name", [n for n in fixture_names() if build(n).m == 0])
def test_m0_norm_is_the_bloch_norm_of_log_hg_within_one(name):
    # for m = 0, P_f = (log h'g)' - conj(omega) omega' / (1 - |omega|^2), and
    # Schwarz-Pick bounds the weighted last term by 1, so ||P_f|| is finite
    # iff log(h'g) is Bloch, and the two sups differ by at most 1
    f = build(name)
    phi = as_field(lambda z: _phi_logderiv(*_raw_local(f, z)[1:]))
    gap = pre_schwarzian_norm(f, SMALL).value - weighted_sup(phi, 1, SMALL).value
    assert abs(gap) <= 1 + 2 * NORM_TOL


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


@pytest.mark.parametrize("r_max", [1.5, 1.0, 0.0, -0.5])
def test_radial_profile_rejects_r_max_outside_the_disk(r_max):
    # the same rule as GridSpec: 0 < r_max <= 1 - 1e-6
    with pytest.raises(ValueError, match="r_max"):
        radial_profile(constant_one, 1, 10, r_max)
    with pytest.raises(ValueError, match="r_max"):
        GridSpec(r_max=r_max)


def test_radial_profile_constant_field():
    prof = radial_profile(constant_one, 1, 100)
    assert prof.rows[0] == (0.0, 1.0)
    assert not prof.monotone_tail
    assert prof.boundary_estimate is None
    assert max(w for _, w in prof.rows) == 1.0


# -- several norms from one sweep ---------------------------------------


def _est_key(est):
    return (est.value, est.argmax, est.samples, est.failed_samples, est.flagged,
            est.refine_values, est.diverged)


def _shared_matches_separate(sups, grid):
    shared = weighted_sups(sups, grid)
    assert [_est_key(e) for e in shared] == [
        _est_key(weighted_sups([s], grid)[0]) for s in sups
    ]


@pytest.mark.parametrize("name", fixture_names())
def test_a_fixtures_norms_from_one_sweep_are_its_separate_norms(name):
    # the norms run_fixture reads together, in its order; a fixture without
    # catalog norms gets P_f, S_f, the Bloch norm and the product's norm
    fx = load_fixture(name)
    names = list(dict.fromkeys(n for c in fx.checks for n in fixtures._norms_read(c["metric"])))
    f = fx.map
    product = Sup(analytic_pre_schwarzian_field(Mul(f.h, f.g)), 1)
    sups = [fixtures._SUPS[n](fx) for n in names] or [
        pre_schwarzian_sup(f), schwarzian_sup(f), bloch_log_sup(f.g), product
    ]
    _shared_matches_separate(sups, GridSpec(radial_levels=30, angular_count=64, refine_rounds=2))


@pytest.mark.parametrize("name", ["koebe", "gap-one-sharp", "vanishing-simple", "starlike-vanishing"])
def test_norms_of_mixed_orders_from_one_sweep_are_the_separate_norms(name):
    # S_f reads h and g at order 3 and the others at order 2 or 1, listed
    # before and after them.  vanishing-simple is m = 1, beta = 0, so c = 0;
    # starlike-vanishing has c = 4, so its P_f and S_f walk the punctured
    # annulus on a masked copy of each block and share no jet with the
    # Bloch and product norms, which walk the whole disk
    f = build(name)
    pre, schw = pre_schwarzian_sup(f), schwarzian_sup(f)
    bloch = bloch_log_sup(f.g)
    product = Sup(analytic_pre_schwarzian_field(Mul(f.h, f.g)), 1)
    grid = GridSpec(radial_levels=30, angular_count=64, refine_rounds=2)
    for sups in ([schw, pre, bloch], [pre, bloch, schw], [product, schw, pre, product]):
        _shared_matches_separate(sups, grid)


def test_each_block_evaluates_h_once_at_the_highest_order_read(monkeypatch):
    f = build("koebe")
    grid = GridSpec(radial_levels=30, angular_count=512, refine_rounds=0)
    # the origin, then 8 levels each: koebe's fields evaluate the mirrored
    # half of the 512-ring, 8 x 257 points, and h is evaluated on that half
    blocks = 1 + math.ceil((grid.radial_levels - 1) / 8)
    orders = []
    evaluate = expr._eval

    def counting(e, zjet, share=True):
        if e is f.h and not share:  # h evaluated for the held block
            orders.append(zjet.order)
        return evaluate(e, zjet, share)

    monkeypatch.setattr(expr, "_eval", counting)
    sups = [schwarzian_sup(f), pre_schwarzian_sup(f), bloch_log_sup(f.g)]
    weighted_sups(sups, grid)
    assert orders == [3] * blocks
    orders.clear()
    # read at order 2 first, h is evaluated again on the first block only
    weighted_sups(sups[1:] + sups[:1], grid)
    assert orders == [2] + [3] * blocks


def test_a_field_that_fails_everywhere_fails_the_shared_sweep():
    def bad(z):
        return np.full(np.shape(z), np.nan + 1j * np.nan)

    f = build("gap-five-sharp")
    grid = GridSpec(radial_levels=20, angular_count=32, refine_rounds=1)
    sups = [pre_schwarzian_sup(f), Sup(bad, 1), bloch_log_sup(f.g)]
    errors = []
    for s in sups:
        try:
            weighted_sups([s], grid)
        except AllSamplesFailed as exc:
            errors.append(exc)
    (separate,) = errors
    with pytest.raises(AllSamplesFailed) as shared:
        weighted_sups(sups, grid)
    assert str(shared.value) == str(separate)


# -- the refine: one recentring patch search at three nested scales -----


def _shapes_of_calls(field, shapes):
    def recorded(z):
        shapes.append(np.shape(z))
        return field(z)

    return recorded


def test_every_refine_keeps_its_call_budget_and_repeats():
    grid = dataclasses.replace(SMALL, refine_rounds=4)
    for name in fixture_names():
        f = build(name)
        for sup in (pre_schwarzian_sup(f), schwarzian_sup(f)):
            runs = []
            for _ in range(2):
                walked, shapes = [], []
                inner = _INNER_RADIUS if sup.singular else 0.0
                weighted = partial(norms._weighted, _shapes_of_calls(sup.field, walked),
                                   sup.weight_power)
                level_walk([weighted], grid, inner)
                counted = Sup(_shapes_of_calls(sup.field, shapes), sup.weight_power,
                              sup.singular)
                (est,) = weighted_sups([counted], grid)
                # the walk's calls, then the patches, each 9 x 9 offsets at
                # three nested scales, then the certificate
                patches = shapes[len(walked):-1]
                assert shapes[: len(walked)] == walked and shapes[-1] == (1,), name
                assert set(patches) <= {(3, 9, 9)}, name
                assert len(patches) <= _PATCH_CALLS * grid.refine_rounds, name
                trace = est.refine_values
                assert len(trace) == grid.refine_rounds + 1, name
                assert all(b >= a for a, b in zip(trace, trace[1:])), name
                assert est.value >= trace[-1], name
                runs.append(repr((est.value, est.argmax, trace, est.samples, shapes)))
            assert runs[0] == runs[1], name


def _patch_calls(monkeypatch, sup, grid):
    """The estimate of ``sup`` and the field calls its refine made before the
    certificate."""
    calls = []
    refine = norms._refine

    def counted(weighted, *args):
        def call(r, z):
            calls.append(np.shape(z))
            return weighted(r, z)

        return refine(call, *args)

    with monkeypatch.context() as m:
        m.setattr(norms, "_refine", counted)
        est = weighted_sups([sup], grid)[0]
    return est, len(calls) - 1


def test_gap_one_refines_end_by_the_tolerance(gap_one, monkeypatch):
    # gap-one's sups sit at the edge of its overflow band, where roundoff
    # keeps offering a slightly better point; each refine still ends by the
    # 1e-6-grid-step rule, not the call budget: more rounds add no call
    grid = GridSpec()
    for sup in (pre_schwarzian_sup(gap_one),
                Sup(analytic_pre_schwarzian_field(Mul(gap_one.h, gap_one.g)), 1)):
        est, calls = _patch_calls(monkeypatch, sup, grid)
        assert calls <= 10
        longer, more = _patch_calls(monkeypatch, sup, dataclasses.replace(grid, refine_rounds=6))
        assert more == calls
        assert (longer.value, longer.argmax) == (est.value, est.argmax)


def test_a_sup_on_the_real_axis_keeps_a_real_witness():
    # koebe's P_f peaks on the positive real axis: the patch's centre line
    # theta = 0 samples it, so no point off the axis is kept
    est = pre_schwarzian_norm(build("koebe"), GridSpec())
    assert est.argmax.imag == 0.0 and est.argmax.real > 0
    assert est.value == pytest.approx(6.0, rel=1e-6)


def test_the_patch_skips_values_that_are_not_finite():
    # (1 - |z|^2)|field| reads 1 + Re z, which grows toward the cut
    # Re z = 0.5, beyond which the field fails: the patches that cross the
    # cut read non-finite values, and the refine still climbs to the cut
    grid = GridSpec(radial_levels=20, angular_count=32, refine_rounds=3)
    for bad in (np.nan, np.inf):

        def field(z, bad=bad):
            z = np.asarray(z, dtype=complex)
            value = (1.0 + z.real) / (1.0 - np.abs(z) ** 2) + 0j
            return np.where(z.real > 0.5, bad, value)

        (walk,) = level_walk([partial(norms._weighted, field, 1)], grid)
        assert walk.value < 1.5 - 1e-3
        est = weighted_sup(field, 1, grid)
        assert math.isfinite(est.value) and est.value == est.refine_values[-1]
        assert 1.5 - 1e-6 < est.value <= 1.5 + 1e-12


@pytest.mark.parametrize("bad", [np.nan + 0j, np.inf + 0j])
def test_a_failed_certificate_keeps_the_best_value_seen(bad):
    # the field fails on every one-point call, the origin sample and the
    # final re-evaluation among them; that value is never reported
    def field(z):
        z = np.asarray(z)
        return np.full(z.shape, bad) if z.size == 1 else np.ones(z.shape, complex)

    est = weighted_sup(field, 1, SMALL)
    assert est.failed_samples == 1
    assert math.isfinite(est.value) and est.value == est.refine_values[-1]


# -- a ridge that runs diagonally across the grid cells -----------------

# Bloch norm of log g, g = 1/(1-0.9 z) (1 - c z)^(-1.05): the peak near
# 1/c is narrower in angle than the angular step, so the ridge that leads
# to it crosses the grid cells diagonally.  Each sup was polished at 40
# digits from a 400 x 4096 grid's argmax (see _polished_sup)
RIDGE_SUPS = {
    ("0.99999", "1.0001"): "2.0876914491183435591",
    ("0.99999", "2.7183"): "2.0870860044998218068",
    ("0.999", "1.0001"): "1.9830824903167654034",
}


def _polished_sup(modulus: str, angle: str, start: complex):
    """sup (1 - |z|^2)|g'/g| at 40 digits: findroot on the gradient of
    (1 - |z|^2)^2 |g'/g|^2 from ``start``, with g'/g = 0.9/(1 - 0.9 z) +
    1.05 c/(1 - c z) written out here, not read from the package."""
    with mpmath.workdps(40):
        c = mpmath.mpf(modulus) * mpmath.expjpi(mpmath.mpf(angle) / mpmath.pi)
        a = mpmath.mpf("0.9")

        def logderiv(z):
            return a / (1 - a * z) + mpmath.mpf("1.05") * c / (1 - c * z)

        def gradient(x, y):
            z = mpmath.mpc(x, y)
            w = logderiv(z)
            dw = a**2 / (1 - a * z) ** 2 + mpmath.mpf("1.05") * c**2 / (1 - c * z) ** 2
            t, ww = 1 - x * x - y * y, abs(w) ** 2
            cross = mpmath.conj(w) * dw
            return [-4 * x * t * ww + 2 * t * t * cross.real,
                    -4 * y * t * ww - 2 * t * t * cross.imag]

        x, y = mpmath.findroot(gradient, (mpmath.mpf(start.real), mpmath.mpf(start.imag)))
        z = mpmath.mpc(x, y)
        return (1 - abs(z) ** 2) * abs(logderiv(z))


@pytest.mark.parametrize("modulus,angle", list(RIDGE_SUPS))
@pytest.mark.parametrize("levels,angles", [(200, 512), (60, 128), (40, 512)])
def test_the_refine_climbs_a_diagonal_ridge(modulus, angle, levels, angles):
    g = parse(f"1/(1-0.9*z)*(1-{modulus}*exp({angle}*i)*z)^(-1.05)")
    est = bloch_norm_log(g, GridSpec(radial_levels=levels, angular_count=angles))
    true_sup = _polished_sup(modulus, angle, est.argmax)
    with mpmath.workdps(40):
        assert mpmath.almosteq(true_sup, mpmath.mpf(RIDGE_SUPS[modulus, angle]), rel_eps=1e-18)
    assert not est.flagged
    assert abs(est.value - float(true_sup)) <= 1e-9 * float(true_sup)
