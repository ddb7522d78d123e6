"""Derivative operators of log-harmonic maps against closed forms and FD oracles."""
from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

from logharm.errors import (
    CriticalPoint,
    DegenerateDenominator,
    NotSensePreserving,
    PoleEncountered,
)
from logharm.expr import Div, Lit, Mul, Sub, Var, eval_jet, parse
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
    pre_schwarzian_field,
    schwarzian,
    schwarzian_field,
    wirtinger,
)

from conftest import IDENTITY_SUITE, build

FD = 1e-5


def _points(rng: random.Random, n: int, rmin=0.08, rmax=0.72, right_half=False):
    out = []
    while len(out) < n:
        r = rng.uniform(rmin, rmax)
        t = rng.uniform(-1.2, 1.2) if right_half else rng.uniform(0, 2 * math.pi)
        out.append(r * cmath.exp(1j * t))
    return out


def _suite_points(name: str, rng: random.Random, n: int):
    return _points(rng, n, right_half=(name == "complex-beta"))


def _wirt_dz(fn, z, h=FD):
    return ((fn(z + h) - fn(z - h)) - 1j * (fn(z + 1j * h) - fn(z - 1j * h))) / (4 * h)


def _wirt_dzbar(fn, z, h=FD):
    return ((fn(z + h) - fn(z - h)) + 1j * (fn(z + 1j * h) - fn(z - 1j * h))) / (4 * h)


# -- construction ---------------------------------------------------------


def test_constructor_rejects_bad_beta():
    with pytest.raises(ValueError):
        LogHarmonicMap.from_strings(1, -0.5, "1/(1-z)", "1")
    with pytest.raises(ValueError):
        LogHarmonicMap.from_strings(1, complex(-0.6, 2), "1/(1-z)", "1")
    LogHarmonicMap.from_strings(1, -0.49, "1/(1-z)", "1")


def test_constructor_normalization_when_vanishing():
    with pytest.raises(ValueError):
        LogHarmonicMap.from_strings(1, 0, "1/(1-z)", "2-z")  # g(0) != 1
    with pytest.raises(ValueError):
        LogHarmonicMap.from_strings(1, 0, "z", "1")  # h(0) = 0
    LogHarmonicMap.from_strings(2, 0.25, "1/(1-z)", "1+z")  # normalized, fine


def test_constructor_nonvanishing_case():
    # h may vanish simply at 0 (locally univalent h), g never
    LogHarmonicMap.from_strings(0, 0, "z/(1-z)", "1/(1-z)")
    with pytest.raises(ValueError):
        LogHarmonicMap.from_strings(0, 0, "z^2", "1")
    with pytest.raises(ValueError):
        LogHarmonicMap.from_strings(0, 0, "1/(1-z)", "z")  # g(0) = 0
    with pytest.raises(ValueError):
        LogHarmonicMap(0.5, 0, parse("1"), parse("1"))  # type: ignore[arg-type]


# -- dilatation -----------------------------------------------------------


def test_dilatation_simple_vanishing():
    f = build("vanishing-simple")
    assert dilatation(f, 0.3) == pytest.approx(0.3)
    assert dilatation(f, 0.2 - 0.4j) == pytest.approx(0.2 - 0.4j)


def test_dilatation_gap_one_is_minus_z(gap_one):
    for z in (0.5, -0.3 + 0.2j, 0.1 + 0.6j):
        assert dilatation(gap_one, z) == pytest.approx(-z, abs=1e-12)


def test_dilatation_starlike_fixture(starlike_vanishing):
    assert dilatation(starlike_vanishing, 0) == pytest.approx(2 / 3)
    for z in (0.4, -0.2 + 0.3j):
        want = (2 - 3 * z) / (3 - 2 * z)
        assert dilatation(starlike_vanishing, z) == pytest.approx(want, abs=1e-12)


def test_dilatation_at_origin_limit():
    f = build("complex-beta")
    b = f.beta
    assert dilatation(f, 0) == pytest.approx(b / (b + 1))


def test_dilatation_mobius_family_closed_form():
    f = build("mobius-gap-a60")
    a = 0.6
    for z in (0.2, 0.5j, -0.3 + 0.1j, 0.45 - 0.35j):
        want = (a - z) / (1 - a * z)
        assert dilatation(f, z) == pytest.approx(want, abs=1e-10)


def test_dilatation_degenerate_denominator():
    f = LogHarmonicMap.from_strings(1, 0, "exp(-2*z)", "1")
    with pytest.raises(DegenerateDenominator):
        dilatation(f, 0.5)


# -- jacobian and wirtinger ----------------------------------------------


def test_jacobian_frozen_values():
    f = build("vanishing-simple")
    assert jacobian(f, 0) == pytest.approx(1.0)
    assert jacobian(f, 0.5) == pytest.approx(48.0)
    g = LogHarmonicMap.from_strings(0, 0, "exp(z)", "1")
    assert jacobian(g, 0) == pytest.approx(1.0)


def test_jacobian_positive_on_suite():
    rng = random.Random(7)
    for name in IDENTITY_SUITE:
        f = build(name)
        for z in _suite_points(name, rng, 10):
            assert jacobian(f, z) > 0, (name, z)


def test_wirtinger_matches_jacobian_identity():
    rng = random.Random(11)
    for name in IDENTITY_SUITE:
        f = build(name)
        for z in _suite_points(name, rng, 20):
            fz, fzb, _ = wirtinger(f, z)
            lhs = abs(fz) ** 2 - abs(fzb) ** 2
            rhs = jacobian(f, z)
            assert lhs == pytest.approx(rhs, rel=1e-9), (name, z)


def test_wirtinger_fd_oracle():
    # each Wirtinger derivative against finite differences of the value map
    rng = random.Random(13)
    for name in ("gap-one-sharp", "vanishing-simple", "starlike-vanishing"):
        f = build(name)
        for z in _suite_points(name, rng, 8):
            fz, fzb, val = wirtinger(f, z)
            assert val == pytest.approx(map_value(f, z), rel=1e-12)
            fn = lambda w: map_value(f, w)
            assert _wirt_dz(fn, z) == pytest.approx(fz, rel=2e-5, abs=1e-7)
            assert _wirt_dzbar(fn, z) == pytest.approx(fzb, rel=2e-5, abs=1e-7)


def test_starlike_functional_from_wirtinger(starlike_vanishing):
    # z f_z/f - zbar f_zbar/f has real part 1 + 2 Re(z/(1-z)) for this map
    for z in (0.4, 0.3 + 0.2j, -0.5 + 0.1j):
        z = complex(z)
        fz, fzb, val = wirtinger(starlike_vanishing, z)
        got = z * fz / val - z.conjugate() * fzb / val
        want = 1 + 2 * (z / (1 - z)).real
        assert got.real == pytest.approx(want, rel=1e-9)


def test_map_value_spot_checks():
    f = build("logharmonic-koebe")
    assert map_value(f, 0.5) == pytest.approx(0.5 * math.exp(4))
    assert map_value(f, 0) == 0
    hp = build("logharmonic-halfplane")
    assert map_value(hp, 0.5) == pytest.approx(math.exp(2))
    vs = build("vanishing-simple")
    assert map_value(vs, 0.5) == pytest.approx(2.0)  # z / |1-z|^2


# -- pre-Schwarzian -------------------------------------------------------


def test_pre_schwarzian_frozen_values(gap_one, gap_five, starlike_vanishing):
    assert pre_schwarzian(gap_one, 0) == pytest.approx(3.0)
    assert pre_schwarzian(gap_five, 0.5) == pytest.approx(16 / 3)
    assert pre_schwarzian(starlike_vanishing, 0.5) == pytest.approx(28 / 3)


def test_pre_schwarzian_gap_one_closed_form(gap_one):
    for z in (0.3, 0.2 + 0.4j, -0.5 - 0.1j):
        z = complex(z)
        want = 3 / (1 - z) - z.conjugate() / (1 - abs(z) ** 2)
        assert pre_schwarzian(gap_one, z) == pytest.approx(want, rel=1e-11)


def test_pre_schwarzian_is_dz_of_log_jacobian():
    rng = random.Random(17)
    for name in IDENTITY_SUITE:
        f = build(name)
        for z in _suite_points(name, rng, 10):
            got = pre_schwarzian(f, z)
            approx = _wirt_dz(lambda w: math.log(jacobian(f, w)), z)
            assert abs(approx - got) <= 1e-5 * (1 + abs(got)), (name, z)


def test_pre_schwarzian_m0_reduction(gap_one):
    # the m = 0 closed form h''/h' + g'/g - conj(w)w'/(1-|w|^2), same code path
    for z in (0.25, -0.3 + 0.44j):
        z = complex(z)
        hj = eval_jet(gap_one.h, z)
        gj = eval_jet(gap_one.g, z)
        hp = hj.derivative()
        om = (gj.derivative() * hj) / (hp * gj)
        w0, w1 = complex(om.d0), complex(om.d1)
        explicit = (
            complex(gj.d1) / complex(gj.d0)
            + complex(hp.d1) / complex(hp.d0)
            - w0.conjugate() * w1 / (1 - abs(w0) ** 2)
        )
        assert pre_schwarzian(gap_one, z) == explicit


def test_phi_family_frozen(gap_five, starlike_vanishing):
    p, _ = phi_family(gap_five, 0)
    assert p == pytest.approx(3.0)
    p, _ = phi_family(starlike_vanishing, 0.5)
    assert p == pytest.approx(9.0)


def test_pre_schwarzian_origin_policy(starlike_vanishing):
    with pytest.raises(PoleEncountered):
        pre_schwarzian(starlike_vanishing, 0)
    with pytest.raises(PoleEncountered):
        pre_schwarzian(starlike_vanishing, 1e-9)
    pre_schwarzian(starlike_vanishing, 1e-7)  # fine outside the floor


def test_not_sense_preserving_raises():
    f = LogHarmonicMap.from_strings(0, 0, "exp(z)", "exp(z^2)")  # omega = 2z
    assert dilatation(f, 0.3) == pytest.approx(0.6)
    with pytest.raises(NotSensePreserving) as exc:
        pre_schwarzian(f, 0.6)
    assert exc.value.modulus == pytest.approx(1.2)
    pre_schwarzian(f, 0.45)


# -- Schwarzian -----------------------------------------------------------


def test_schwarzian_koebe_values():
    k = parse("z/(1-z)^2")
    assert analytic_schwarzian(k, 0) == pytest.approx(-6.0)
    for z in (0.3, -0.2 + 0.1j):
        want = -6 / (1 - z * z) ** 2
        assert analytic_schwarzian(k, z) == pytest.approx(want, rel=1e-10)
    # the degenerate map path agrees with the analytic path
    f = build("koebe")
    for z in (0.3, -0.2 + 0.1j):
        assert schwarzian(f, z) == pytest.approx(analytic_schwarzian(k, z), rel=1e-10)


def test_schwarzian_is_dP_minus_half_P_squared():
    rng = random.Random(19)
    for name in IDENTITY_SUITE:
        f = build(name)
        for z in _suite_points(name, rng, 8):
            s = schwarzian(f, z)
            p = pre_schwarzian(f, z)
            dp = _wirt_dz(lambda w: pre_schwarzian(f, w), z)
            want = dp - 0.5 * p * p
            assert abs(s - want) <= 1e-5 * (1 + abs(s)), (name, z)


def test_constant_dilatation_kills_weight_term():
    # omega' == 0, so the pre-Schwarzian is plain h''/h' + g'/g
    f = build("constant-dilatation")
    for z in (0.3, -0.4 + 0.2j):
        hj = eval_jet(f.h, complex(z))
        gj = eval_jet(f.g, complex(z))
        explicit = complex(hj.derivative().d1) / complex(hj.derivative().d0) + complex(
            gj.d1
        ) / complex(gj.d0)
        assert pre_schwarzian(f, z) == pytest.approx(explicit, abs=1e-10)


def test_analytic_pre_schwarzian_examples():
    assert analytic_pre_schwarzian(parse("z/(1-z)^2"), 0) == pytest.approx(4.0)
    assert analytic_pre_schwarzian(parse("exp(z)"), 0.37 + 0.2j) == pytest.approx(1.0)
    assert analytic_schwarzian(parse("exp(z)"), 0.1j) == pytest.approx(-0.5)
    with pytest.raises(CriticalPoint):
        analytic_pre_schwarzian(parse("z^2"), 0)


# -- the h g^eps family ---------------------------------------------------


def test_hg_epsilon_collapse_to_zero(gap_five):
    # h/g = z, whose pre-Schwarzian vanishes identically
    for z in (0.2, 0.5, -0.6 + 0.2j, 0.7j):
        assert abs(hg_epsilon_pre_schwarzian(gap_five, -1, z)) < 1e-9


def test_hg_epsilon_matches_product_rule(gap_one, gap_five):
    for f in (gap_one, gap_five):
        hg = Mul(f.h, f.g)
        for z in (0.3, -0.25 + 0.3j):
            want = analytic_pre_schwarzian(hg, complex(z))
            got = hg_epsilon_pre_schwarzian(f, 1, z)
            assert got == pytest.approx(want, rel=1e-10)
    assert hg_epsilon_pre_schwarzian(gap_one, 1, 0) == pytest.approx(2.0)


def test_hg_epsilon_fractional_matches_direct_expression(gap_five):
    # h g^eps built literally as an expression, eps = 0.5 - 0.25i
    eps = 0.5 - 0.25j
    member = Mul(gap_five.h, parse(f"(1/(1-z))^({eps.real}-{abs(eps.imag)}*i)"))
    for z in (0.2, 0.3 + 0.3j):
        want = analytic_pre_schwarzian(member, complex(z))
        got = hg_epsilon_pre_schwarzian(gap_five, eps, z)
        assert got == pytest.approx(want, rel=1e-9)


def test_hg_epsilon_degenerate_denominator(gap_five):
    # omega = z, so eps = -1/omega degenerates at z = 0.5 with eps = -2
    with pytest.raises(DegenerateDenominator):
        hg_epsilon_pre_schwarzian(gap_five, -2, 0.5)


def test_hg_epsilon_rejects_vanishing_order(starlike_vanishing):
    with pytest.raises(ValueError):
        hg_epsilon_pre_schwarzian(starlike_vanishing, 1, 0.3)


# -- dzbar identities -----------------------------------------------------


def test_dbar_pre_schwarzian_frozen(gap_five):
    assert dbar_pre_schwarzian(gap_five, 0) == pytest.approx(-1.0)
    vs = build("vanishing-simple")
    assert dbar_pre_schwarzian(vs, 0.5) == pytest.approx(-16 / 9)


def test_dbar_pre_schwarzian_origin_vanishing_maps():
    # evaluable at 0 for every m: it needs only the dilatation jet
    for name in ("logharmonic-koebe", "logharmonic-halfplane", "vanishing-simple"):
        assert dbar_pre_schwarzian(build(name), 0) == pytest.approx(-1.0, abs=1e-12)
    assert abs(dbar_pre_schwarzian(build("starlike-vanishing"), 0)) == pytest.approx(
        1.0, abs=1e-9
    )


def test_dbar_pre_schwarzian_fd():
    rng = random.Random(23)
    for name in IDENTITY_SUITE:
        f = build(name)
        for z in _suite_points(name, rng, 6):
            got = dbar_pre_schwarzian(f, z)
            approx = _wirt_dzbar(lambda w: pre_schwarzian(f, w), z)
            assert abs(approx - got) <= 1e-5 * (1 + abs(got)), (name, z)
            assert got.real <= 0 and abs(got.imag) < 1e-12


def test_dbar_schwarzian_fd():
    rng = random.Random(29)
    for name in IDENTITY_SUITE:
        f = build(name)
        for z in _suite_points(name, rng, 6):
            got = dbar_schwarzian(f, z)
            approx = _wirt_dzbar(lambda w: schwarzian(f, w), z)
            assert abs(approx - got) <= 1e-4 * (1 + abs(got)), (name, z)


def test_dbar_vanishes_for_constant_dilatation():
    f = build("constant-dilatation")
    for z in (0.3, -0.4 + 0.4j, 0.6j):
        assert abs(dbar_pre_schwarzian(f, z)) < 1e-10
        assert abs(dbar_schwarzian(f, z)) < 1e-10


# -- composition ----------------------------------------------------------


def _mobius(a: complex):
    return Div(Sub(Lit(a), Var()), Sub(Lit(1 + 0j), Mul(Lit(a.conjugate()), Var())))


def test_compose_chain_rule_fd(gap_one):
    rng = random.Random(31)
    psis = [
        Mul(Lit(cmath.exp(0.7j)), Var()),
        Mul(Lit(0.5 + 0j), Var()),
        _mobius(0.3 + 0.2j),
        _mobius(-0.4 + 0.1j),
    ]
    for psi in psis:
        for z in _points(rng, 25, rmax=0.6):
            got = compose_with_analytic(gap_one, psi, z)

            def log_jac(w):
                pj = eval_jet(psi, w, order=1)
                return math.log(jacobian(gap_one, complex(pj.d0))) + 2 * math.log(
                    abs(complex(pj.d1))
                )

            approx = _wirt_dz(log_jac, z)
            assert abs(approx - got) <= 1e-6 * (1 + abs(got)), (z,)


def test_compose_rotation_closed_form():
    f = LogHarmonicMap.from_strings(0, 0, "exp(z)", "1")  # P_f == 1
    rot = Mul(Lit(cmath.exp(1.1j)), Var())
    got = compose_with_analytic(f, rot, 0.2 + 0.1j)
    assert got == pytest.approx(cmath.exp(1.1j), rel=1e-12)


def test_compose_critical_point(gap_one):
    with pytest.raises(CriticalPoint):
        compose_with_analytic(gap_one, parse("z^2"), 0)
    with pytest.raises(ValueError):
        compose_with_analytic(gap_one, parse("2*z"), 0.7)  # leaves the disk


# -- scalar operators against their field closures -----------------------

_EVAL_ERRORS = (PoleEncountered, NotSensePreserving, DegenerateDenominator, CriticalPoint)


def _operator_pairs(f):
    """(label, scalar z -> value, field) for every operator with a field form."""
    pairs = [
        ("pre_schwarzian", lambda z: pre_schwarzian(f, z), pre_schwarzian_field(f)),
        ("schwarzian", lambda z: schwarzian(f, z), schwarzian_field(f)),
        ("analytic_pre_schwarzian", lambda z: analytic_pre_schwarzian(f.h, z),
         analytic_pre_schwarzian_field(f.h)),
        ("analytic_schwarzian", lambda z: analytic_schwarzian(f.h, z),
         analytic_schwarzian_field(f.h)),
    ]
    if f.m == 0:
        for eps in (1, -1, 0.5 - 0.25j):
            pairs.append((
                f"hg_epsilon_pre_schwarzian[{eps}]",
                lambda z, eps=eps: hg_epsilon_pre_schwarzian(f, eps, z),
                hg_epsilon_field(f, eps),
            ))
    return pairs


def _field_at(field, z):
    return complex(field(np.array([z], dtype=complex))[0])


# the points and test ids keep the short names these maps had before the
# suite took them from the catalog, so the drawn points stay the same
_PARITY_NAMES = {
    "gap-one-sharp": "gap-one",
    "gap-five-sharp": "gap-five",
    "mobius-gap-a60": "mobius-a60",
    "mobius-gap-a90": "mobius-a90",
}


def _parity_name(name: str) -> str:
    return _PARITY_NAMES.get(name, name)


@pytest.mark.parametrize("name", IDENTITY_SUITE, ids=_parity_name)
def test_scalar_operators_match_fields(name):
    # the benchmark's rule: 1e-12 relative, times the condition number
    # 1/(1 - |omega|^2) of the omega terms.  Values that vanish by
    # cancellation (the Schwarzian of a Moebius h, the h/g member of
    # gap-five) carry no relative accuracy, so below modulus 1 the bound is
    # absolute.
    f = build(name)
    rng = random.Random(f"parity:{_parity_name(name)}")
    pairs = _operator_pairs(f)
    for z in _suite_points(name, rng, 20):
        cond = 1.0 / (1.0 - abs(dilatation(f, z)) ** 2)
        for label, scalar, field in pairs:
            want = scalar(z)
            got = _field_at(field, z)
            scale = max(abs(want), abs(got), 1.0)
            assert abs(want - got) <= 1e-12 * cond * scale, (label, z, want, got)


def _raises(fn, z) -> bool:
    try:
        fn(z)
    except _EVAL_ERRORS:
        return True
    return False


def test_fields_are_nan_exactly_where_scalars_raise():
    # maps with a point where P_f and S_f cannot be evaluated
    bad_points = [(build(n), 0j) for n in IDENTITY_SUITE if build(n).m >= 1]  # origin, m >= 1
    omega_2z = LogHarmonicMap.from_strings(0, 0, "exp(z)", "exp(z^2)")
    bad_points.append((omega_2z, 0.6 + 0j))  # |omega| = 1.2
    for f, bad in bad_points:
        assert _raises(lambda z: pre_schwarzian(f, z), bad)
        assert _raises(lambda z: schwarzian(f, z), bad)
        for label, scalar, field in _operator_pairs(f):
            for z in (bad, 0.3 + 0.1j):
                assert _raises(scalar, z) == cmath.isnan(_field_at(field, z)), (label, z)
    # omega = z on gap-five, so 1 + eps*omega vanishes at z = 1/2 for eps = -2
    gap_five = build("gap-five-sharp")
    assert _raises(lambda z: hg_epsilon_pre_schwarzian(gap_five, -2, z), 0.5)
    assert cmath.isnan(_field_at(hg_epsilon_field(gap_five, -2), 0.5))
    # z^2 has a critical point at the origin; a constant is critical everywhere
    for crit, z in ((parse("z^2"), 0j), (parse("1"), 0.3 + 0.1j)):
        for scalar, make_field in (
            (analytic_pre_schwarzian, analytic_pre_schwarzian_field),
            (analytic_schwarzian, analytic_schwarzian_field),
        ):
            assert _raises(lambda z: scalar(crit, z), z)
            assert cmath.isnan(_field_at(make_field(crit), z))
