"""Derivative operators of log-harmonic maps against closed forms and FD oracles."""
from __future__ import annotations

import cmath
import math
import random
import re
import warnings

import numpy as np
import pytest

from logharm import maps as maps_module
from logharm.errors import (
    CriticalPoint,
    DegenerateDenominator,
    NotSensePreserving,
    PoleEncountered,
)
from logharm.expr import Div, Lit, Mul, Sub, Var, eval_jet, parse
from logharm.jets import Jet
from logharm.maps import (
    LogHarmonicMap,
    analytic_pre_schwarzian,
    analytic_pre_schwarzian_field,
    analytic_schwarzian,
    analytic_schwarzian_field,
    compose_with_analytic,
    dbar_pre_schwarzian,
    dbar_pre_schwarzian_field,
    dbar_schwarzian,
    dbar_schwarzian_field,
    dilatation,
    dilatation_field,
    hg_epsilon_field,
    hg_epsilon_pre_schwarzian,
    jacobian,
    map_value,
    origin_exponent,
    phi_family,
    pre_schwarzian,
    pre_schwarzian_field,
    schwarzian,
    schwarzian_field,
    wirtinger,
)
from logharm.norms import logderiv_field
from logharm.render import mesh_points

from conftest import ALL_MAP_NAMES, IDENTITY_SUITE, build

FD = 1e-5


def _points(rng: random.Random, n: int, rmin=0.08, rmax=0.72):
    out = []
    while len(out) < n:
        r = rng.uniform(rmin, rmax)
        out.append(r * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
    return out


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


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize(
    "beta", [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(1, math.inf)]
)
def test_constructor_rejects_non_finite_beta(m, beta):
    # Re(nan) <= -1/2 is False, so only a finiteness test refuses these
    with pytest.raises(ValueError, match="finite"):
        LogHarmonicMap.from_strings(m, beta, "z/(1-z)" if m == 0 else "1/(1-z)", "1")


# inf - inf: NaN at every z, the origin included
NAN_EVERYWHERE = "exp(1000)-exp(1000)+1"


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("which", ["h", "g"])
def test_constructor_rejects_a_nan_at_the_origin(m, which):
    # NaN fails every normalization comparison, so only a NaN test refuses it
    parts = {"h": "1/(1-z)", "g": "1", which: NAN_EVERYWHERE}
    with pytest.raises(ValueError, match="NaN"):
        LogHarmonicMap.from_strings(m, 0, parts["h"], parts["g"])


def test_constructor_keeps_an_infinite_value_at_the_origin():
    # an overflow reads inf, inf + nan j included, and map_value reports it
    for m, h in ((1, "exp(1000)+z"), (0, "exp(1000)*(1+z)"), (0, "exp(1000)")):
        LogHarmonicMap.from_strings(m, 0, h, "1")


@pytest.mark.parametrize("d1", [complex(math.nan), complex(0, math.nan)])
def test_constructor_rejects_a_vanishing_h_with_a_nan_derivative(monkeypatch, d1):
    # for m = 0 and h(0) = 0 the constructor reads h'(0); no expression
    # reaches h(0) = 0 with a NaN h'(0), so h's jet at 0 is stubbed
    h = parse("z")
    real_eval = maps_module.eval_jet

    def stub(e, z, order=3):
        return Jet((0j, d1)) if e is h else real_eval(e, z, order)

    monkeypatch.setattr(maps_module, "eval_jet", stub)
    with pytest.raises(ValueError, match="h'\\(0\\) != 0"):
        LogHarmonicMap(0, 0, h, parse("1"))
    monkeypatch.setattr(maps_module, "eval_jet", real_eval)
    LogHarmonicMap(0, 0, h, parse("1"))  # the real h'(0) = 1


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
    assert dilatation(f, 0) == pytest.approx(b.conjugate() / (b + 1))


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


@pytest.mark.parametrize("op", [dilatation, jacobian, dbar_pre_schwarzian, pre_schwarzian,
                                schwarzian, dbar_schwarzian, phi_family])
def test_every_scalar_operator_reports_a_vanishing_dilatation_denominator(op):
    # a + z h'/h = 1 - 2z vanishes at 1/2; h' g vanishes everywhere for h = g = 1
    for f, z, message in (
        (LogHarmonicMap.from_strings(1, 0, "exp(-2*z)", "1"), 0.5, "(beta+1)m + z h'/h"),
        (LogHarmonicMap.from_strings(0, 0, "1", "1"), 0.3 + 0.1j, "h' g vanished"),
    ):
        with pytest.raises(DegenerateDenominator, match=re.escape(message)) as err:
            op(f, z)
        assert err.value.point == z


@pytest.mark.parametrize("op", [dilatation, pre_schwarzian, schwarzian, phi_family,
                                dbar_pre_schwarzian, dbar_schwarzian, jacobian])
def test_a_vanishing_factor_is_a_pole_at_the_point(op):
    # m >= 1 divides by h and g inside the dilatation; each vanishes at 1/2
    for h, g in (("1-2*z", "1"), ("1", "1-2*z")):
        f = LogHarmonicMap.from_strings(1, 0, h, g)
        with pytest.raises(PoleEncountered) as err:
            op(f, 0.5)
        assert err.value.point == 0.5


@pytest.mark.parametrize("name", ["starlike-vanishing", "complex-beta", "vanishing-simple"])
def test_exponents_give_the_origin_limits(name):
    f = build(name)
    a, b = f.exponents
    assert (a, b) == ((f.beta + 1) * f.m, f.beta.conjugate() * f.m)
    assert origin_exponent(f) == a + b - 1
    # numpy's complex division can differ from Python's in the last bit
    assert dilatation(f, 0) == pytest.approx(b / a, rel=1e-15)


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
        for z in _points(rng, 10):
            assert jacobian(f, z) > 0, (name, z)


def test_wirtinger_matches_jacobian_identity():
    rng = random.Random(11)
    for name in IDENTITY_SUITE:
        f = build(name)
        for z in _points(rng, 20):
            fz, fzb, _ = wirtinger(f, z)
            lhs = abs(fz) ** 2 - abs(fzb) ** 2
            rhs = jacobian(f, z)
            assert lhs == pytest.approx(rhs, rel=1e-9), (name, z)


def test_wirtinger_fd_oracle():
    # each Wirtinger derivative against finite differences of the value map
    rng = random.Random(13)
    for name in ("gap-one-sharp", "vanishing-simple", "starlike-vanishing"):
        f = build(name)
        for z in _points(rng, 8):
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


@pytest.mark.parametrize("name", ["vanishing-simple", "logharmonic-koebe", "logharmonic-halfplane"])
def test_wirtinger_at_the_origin_of_b_zero_maps(name):
    # f = z h conj(g): f_z(0) = h(0) and f_zbar(0) = 0, though z^(b-1) has a pole
    f = build(name)
    assert f.exponents[1] == 0
    fz, fzb, val = wirtinger(f, 0)
    assert (fz, fzb, val) == (complex(eval_jet(f.h, 0j, order=0).d0), 0, 0)
    assert abs(fz) ** 2 - abs(fzb) ** 2 == jacobian(f, 0)


def test_wirtinger_at_the_origin_still_raises_for_a_direction_dependent_limit():
    f = LogHarmonicMap.from_strings(2, -1 / 4, "1/(1-z)", "1-z")
    with pytest.raises(PoleEncountered):
        wirtinger(f, 0)


_D4 = (np.array([-2, -1, 1, 2]), np.array([1, -8, 8, -1]) / 12)


def _wirtinger_fd4(fn, z, h):
    """(d/dz, d/dzbar) of an array function at the points z, fourth-order central differences."""
    offs, wts = _D4
    z = np.asarray(z)[..., None]
    dx = (fn(z + h * offs) @ wts) / h
    dy = (fn(z + 1j * h * offs) @ wts) / h
    return (dx - 1j * dy) / 2, (dx + 1j * dy) / 2


_COMPLEX_BETA_MAPS = {
    "complex-beta": lambda: build("complex-beta"),
    "m2": lambda: LogHarmonicMap.from_strings(2, complex(-0.2, 0.7), "1/(1-z)", "1+0.2*z"),
}


@pytest.mark.parametrize("name", list(_COMPLEX_BETA_MAPS))
def test_complex_beta_operators_are_derivatives_of_map_value(name):
    # J_f, P_f = d log J_f / dz and S_f = dP_f/dz - P_f^2/2, each by nested
    # differences of map_value alone; the stencils of the first six points
    # cross the negative real axis.  Observed errors: J 4e-9, P 2e-7, S 2e-5.
    f = _COMPLEX_BETA_MAPS[name]()

    def jac(p):
        fz, fzb = _wirtinger_fd4(lambda q: map_value(f, q), p, 1e-3)
        return np.abs(fz) ** 2 - np.abs(fzb) ** 2

    def pre(p):
        return _wirtinger_fd4(lambda q: np.log(jac(q)), p, 5e-3)[0]

    points = [-0.45 + 0j, -0.45 + 0.01j, -0.45 - 0.01j, -0.3 + 1e-9j, -0.3 - 1e-9j, -0.6 + 0.05j]
    points += [0.5 * cmath.exp(1j * t) for t in np.linspace(0, 6, 7)]
    for z in points:
        j, p, s = jacobian(f, z), pre_schwarzian(f, z), schwarzian(f, z)
        za = np.array(z)
        p_fd = pre(za)
        s_fd = _wirtinger_fd4(pre, za, 1e-2)[0] - 0.5 * p_fd ** 2
        assert abs(jac(za) - j) <= 1e-7 * j, (z, j)
        assert abs(p_fd - p) <= 1e-5 * (1 + abs(p)), (z, p)
        assert abs(s_fd - s) <= 1e-3 * (1 + abs(s)), (z, s)


def test_complex_beta_dilatation_has_conj_beta_in_the_numerator():
    # omega = (conj(beta) m + z g'/g) / ((beta+1) m + z h'/h)
    f = build("complex-beta")
    assert f.beta == 0.5 + 0.25j
    assert dilatation(f, 0.3 + 0.2j) == pytest.approx(0.3397 - 0.1911j, abs=1e-4)


def test_real_beta_is_bit_identical_to_b_equal_beta_m(monkeypatch):
    maps_ = [build(name) for name in
             ("vanishing-simple", "starlike-vanishing", "logharmonic-koebe", "logharmonic-halfplane")]
    maps_ += [LogHarmonicMap.from_strings(m, beta, "1/(1-z)", "1-z")
              for m, beta in ((2, -1 / 4), (3, -1 / 3), (1, 0.7))]
    points = [0.3 + 0.1j, -0.5 + 0.2j, -0.4 - 1e-9j, 0.05j]
    zs = np.array(points + [0j, -0.7 + 0j])
    ops = (dilatation, jacobian, map_value, wirtinger, pre_schwarzian, schwarzian,
           dbar_pre_schwarzian, dbar_schwarzian)

    def dump():
        out = []
        for f in maps_:
            out += [repr(op(f, z)) for op in ops for z in points]
            out += [pre_schwarzian_field(f)(zs).tobytes(), schwarzian_field(f)(zs).tobytes(),
                    map_value(f, zs).tobytes()]
        return out

    now = dump()
    monkeypatch.setattr(
        LogHarmonicMap, "exponents",
        property(lambda self: ((self.beta + 1) * self.m, self.beta * self.m)),
    )
    assert dump() == now


@pytest.mark.parametrize("m, beta", [(3, -1 / 3), (2, -1 / 4)])
def test_map_value_is_zero_at_the_origin_when_re_b_is_negative(m, beta):
    # b = beta m = -1, -1/2 has Re(b) <= 0, but |f| = |z|^Re(a+b) |h g| -> 0
    f = LogHarmonicMap.from_strings(m, beta, "1/(1-z)", "1-z")
    assert map_value(f, 0) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = map_value(f, np.array([0j, 0.5]))
    assert values[0] == 0
    assert values[1] == pytest.approx(map_value(f, 0.5), rel=1e-14)


def test_value_operators_overflow_without_numpy_warnings(gap_one):
    # exp(z/(1-z)) overflows at 0.999; filterwarnings = error turns a warning into a failure
    assert not cmath.isfinite(map_value(gap_one, 0.999))
    with pytest.raises(PoleEncountered, match="non-finite value"):
        wirtinger(gap_one, 0.999)


@pytest.mark.parametrize("name", ["logharmonic-koebe", "vanishing-simple"])
def test_array_map_value_takes_z_to_the_first_power_exactly(name):
    # a = 1, b = 0: f = z h conj(g), with no exp(log z) rounding in z^1
    f = build(name)
    assert f.exponents == (1, 0)
    zs = (np.array([[0.3], [0.9], [0.999]]) * np.exp(2j * np.pi * np.arange(64) / 64)).ravel()
    with np.errstate(all="ignore"):  # exp(2z/(1-z)) overflows at 0.999
        want = zs * eval_jet(f.h, zs, 0).d0 * np.conj(eval_jet(f.g, zs, 0).d0)
    got = map_value(f, zs)
    ok = np.isfinite(want)
    assert got[ok].tobytes() == want[ok].tobytes()
    assert np.isinf(got[~ok]).all()  # an overflow reads inf, not NaN


def test_map_value_of_an_overflow_is_infinite():
    # z^1 (inf+0j) is inf+nanj, and its product with conj(g) NaN in both parts
    for m, h in ((1, "exp(1000)+z"), (0, "exp(1000)*(1+z)")):
        f = LogHarmonicMap.from_strings(m, 0, h, "1")
        assert cmath.isinf(map_value(f, 0.3))
        assert np.isinf(map_value(f, np.array([0.3, -0.5j]))).all()


def test_map_value_of_constant_factors_is_an_array_shaped_like_z():
    f = LogHarmonicMap.from_strings(0, 0, "2", "1")
    zs = np.array([[0.1, 0.2j, -0.3]])
    values = map_value(f, zs)
    assert values.shape == zs.shape and values.dtype == complex
    assert (values == 2).all()
    values[0, 0] = 0  # writable, not a broadcast view


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
        for z in _points(rng, 10):
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
    for op in (pre_schwarzian, schwarzian, dbar_schwarzian):
        with pytest.raises(NotSensePreserving) as exc:
            op(f, 0.6)
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
        for z in _points(rng, 8):
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
        for z in _points(rng, 6):
            got = dbar_pre_schwarzian(f, z)
            approx = _wirt_dzbar(lambda w: pre_schwarzian(f, w), z)
            assert abs(approx - got) <= 1e-5 * (1 + abs(got)), (name, z)
            assert got.real <= 0 and abs(got.imag) < 1e-12


def test_dbar_schwarzian_fd():
    rng = random.Random(29)
    for name in IDENTITY_SUITE:
        f = build(name)
        for z in _points(rng, 6):
            got = dbar_schwarzian(f, z)
            approx = _wirt_dzbar(lambda w: schwarzian(f, w), z)
            assert abs(approx - got) <= 1e-4 * (1 + abs(got)), (name, z)


def test_dbar_pre_schwarzian_needs_sense_preserving():
    f = LogHarmonicMap.from_strings(0, 0, "exp(z)", "exp(z^2)")  # omega = 2z
    with pytest.raises(NotSensePreserving) as err:
        dbar_pre_schwarzian(f, 0.6)
    assert err.value.modulus == pytest.approx(1.2)


def test_jacobian_at_a_singular_origin(starlike_vanishing):
    # c = 4: G = z^4 g vanishes at the origin, and so does J_f
    assert origin_exponent(starlike_vanishing) == 4
    assert jacobian(starlike_vanishing, 0) == 0.0


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


def test_compose_rejects_vanishing_order(starlike_vanishing):
    with pytest.raises(ValueError, match="m = 0"):
        compose_with_analytic(starlike_vanishing, parse("0.5*z"), 0.3)


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
        ("dilatation", lambda z: dilatation(f, z), dilatation_field(f)),
        ("dbar_pre_schwarzian", lambda z: dbar_pre_schwarzian(f, z),
         dbar_pre_schwarzian_field(f)),
        ("dbar_schwarzian", lambda z: dbar_schwarzian(f, z), dbar_schwarzian_field(f)),
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


def _assert_parity(f, label, z, want, got):
    # the benchmark's rule: 1e-12 relative, times the condition number
    # 1/(1 - |omega|^2) of the omega terms.  Values that vanish by
    # cancellation (the Schwarzian of a Moebius h, the h/g member of
    # gap-five) carry no relative accuracy, so below modulus 1 the bound is
    # absolute.  A NaN on either side fails it.
    cond = 1.0 / (1.0 - abs(dilatation(f, z)) ** 2)
    scale = max(abs(want), abs(got), 1.0)
    assert abs(want - got) <= 1e-12 * cond * scale, (label, z, want, got)


@pytest.mark.parametrize("name", IDENTITY_SUITE, ids=_parity_name)
def test_scalar_operators_match_fields(name):
    f = build(name)
    rng = random.Random(f"parity:{_parity_name(name)}")
    pairs = _operator_pairs(f)
    for z in _points(rng, 20):
        for label, scalar, field in pairs:
            _assert_parity(f, label, z, scalar(z), _field_at(field, z))


def _raises(fn, z) -> bool:
    try:
        fn(z)
    except _EVAL_ERRORS:
        return True
    return False


def test_fields_are_nan_exactly_where_scalars_raise():
    # P_f = c/z + O(1) at the origin, so the origin is a bad point exactly
    # when the origin exponent c is nonzero
    vanishing = {n: build(n) for n in IDENTITY_SUITE if build(n).m >= 1}
    singular = sorted(n for n, f in vanishing.items() if origin_exponent(f) != 0)
    assert singular == ["complex-beta", "starlike-vanishing"]
    bad_points = [(vanishing[n], 0j) for n in singular]
    omega_2z = LogHarmonicMap.from_strings(0, 0, "exp(z)", "exp(z^2)")
    bad_points.append((omega_2z, 0.6 + 0j))  # |omega| = 1.2
    # h' = 0 does not depend on z: the jets divide by a scalar zero
    bad_points.append((LogHarmonicMap.from_strings(0, 0, "1", "1"), 0.3 + 0.1j))
    bad_points.append((build("gap-one-sharp"), 0.999 + 0j))  # exp(z/(1-z)) overflows
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
    # z^2 has a critical point at the origin; a constant is critical
    # everywhere; 1/0 is a pole that does not depend on z
    for crit, z in ((parse("z^2"), 0j), (parse("1"), 0.3 + 0.1j), (parse("1/0"), 0.3 + 0.1j)):
        for scalar, make_field in (
            (analytic_pre_schwarzian, analytic_pre_schwarzian_field),
            (analytic_schwarzian, analytic_schwarzian_field),
        ):
            assert _raises(lambda z: scalar(crit, z), z)
            assert cmath.isnan(_field_at(make_field(crit), z))
    # where c == 0 the origin is regular: both paths give the same finite limit
    for name, f in vanishing.items():
        if name not in singular:
            for label, scalar, field in _operator_pairs(f):
                _assert_parity(f, label, 0j, scalar(0j), _field_at(field, 0j))


# -- a field's bits do not depend on how many points it is called on -----


def _sweep_fields(f):
    """Every field a norm or check sweeps, by label."""
    fields = {
        "pre_schwarzian": pre_schwarzian_field(f),
        "schwarzian": schwarzian_field(f),
        "dilatation": dilatation_field(f),
        "dbar_pre_schwarzian": dbar_pre_schwarzian_field(f),
        "dbar_schwarzian": dbar_schwarzian_field(f),
        "logderiv_g": logderiv_field(f.g),
        "product": analytic_pre_schwarzian_field(Mul(f.h, f.g)),
    }
    if f.m == 0:
        fields["hg_epsilon"] = hg_epsilon_field(f, 0.5 - 0.25j)
    return fields


@pytest.mark.parametrize("name", ALL_MAP_NAMES)
def test_fields_are_the_same_bits_on_one_call_and_on_slices(name):
    # 39,937 points: several of as_field's chunks, and past the 16,384
    # complex points at which numpy elides temporaries into in-place operations
    z = mesh_points((40, 1024), 1 - 1e-3)
    assert len(z) == 39937
    for label, field in _sweep_fields(build(name)).items():
        sliced = np.concatenate([field(z[i : i + 2048]) for i in range(0, len(z), 2048)])
        assert field(z).tobytes() == sliced.tobytes(), label
