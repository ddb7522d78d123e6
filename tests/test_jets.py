"""Jet arithmetic against finite differences and known Taylor expansions."""
from __future__ import annotations

import cmath

import numpy as np
import pytest

from logharm import jets, maps, norms
from logharm.errors import PoleEncountered
from logharm.expr import eval_jet
from logharm.fixtures import fixture_names, load_fixture
from logharm.jets import Jet, zpow_jet
from logharm.maps import LogHarmonicMap, origin_exponent

FD_STEP = 1e-5
FD_RTOL = 1e-6


def fd_check(make_jet, p: complex):
    """Each d_k must match a central difference of d_{k-1} across p."""
    at = lambda q: make_jet(q)
    center = at(p)
    for k in range(1, center.order + 1):
        lo = at(p - FD_STEP)
        hi = at(p + FD_STEP)
        approx = (getattr(hi, f"d{k-1}") - getattr(lo, f"d{k-1}")) / (2 * FD_STEP)
        exact = getattr(center, f"d{k}")
        assert abs(approx - exact) <= FD_RTOL * (1 + abs(exact)), (k, p)


def test_variable_jet_shape():
    j = Jet.variable(0.3 + 0.1j)
    assert j.d0 == 0.3 + 0.1j
    assert j.d1 == 1
    assert j.d2 == 0
    assert j.d3 == 0


def test_geometric_series_jet():
    # 1/(1-z) at 0.5: derivatives k!/(1-z)^(k+1)
    one = Jet.constant(1 + 0j)
    j = one / (one - Jet.variable(0.5 + 0j))
    assert j.d0 == pytest.approx(2)
    assert j.d1 == pytest.approx(4)
    assert j.d2 == pytest.approx(16)
    assert j.d3 == pytest.approx(96)


def test_exp_log_known_series():
    e = Jet.variable(0j).exp()
    assert [e.d0, e.d1, e.d2, e.d3] == pytest.approx([1, 1, 1, 1])
    l = (1 + Jet.variable(0j)).log()
    # log(1+z): derivatives 0, 1, -1, 2
    assert [l.d0, l.d1, l.d2, l.d3] == pytest.approx([0, 1, -1, 2])


def test_principal_branch():
    j = Jet.constant(complex(-1, 0)).log()
    assert j.d0 == pytest.approx(1j * cmath.pi)
    # conjugate point on the other side of the cut
    j2 = Jet.constant(complex(-1, -0.0)).log()
    assert j2.d0 == pytest.approx(-1j * cmath.pi)


@pytest.mark.parametrize(
    "p",
    [0.2 + 0j, -0.3 + 0.4j, 0.1 - 0.55j, 0.6 + 0.1j],
)
def test_fd_chain_rational(p):
    fd_check(lambda q: 1 / (1 - Jet.variable(q)), p)
    fd_check(lambda q: (2 - 3 * Jet.variable(q)) / (3 - 2 * Jet.variable(q)), p)
    fd_check(lambda q: Jet.variable(q) * Jet.variable(q) - Jet.variable(q) + 2j, p)


@pytest.mark.parametrize("p", [0.2 + 0j, -0.3 + 0.4j, 0.1 - 0.55j])
def test_fd_chain_transcendental(p):
    fd_check(lambda q: (Jet.variable(q) / (1 - Jet.variable(q))).exp(), p)
    fd_check(lambda q: (1 - Jet.variable(q)).log(), p)
    fd_check(lambda q: (1 - Jet.variable(q)) ** (-8 / 3), p)
    fd_check(lambda q: (1 + Jet.variable(q)) ** 0.5, p)
    fd_check(lambda q: (1 + Jet.variable(q)) ** (0.3 + 0.2j), p)


def test_integer_power_is_repeated_multiplication():
    z = Jet.variable(-0.5 + 0j)
    sq = z ** 2
    assert sq.coeffs == (z * z).coeffs
    assert (z ** 1) is z
    cube = z ** -3
    direct = 1 / (z * z * z)
    for a, b in zip(cube.coeffs, direct.coeffs):
        assert a == pytest.approx(b, rel=1e-14)


def test_division_pole_raises():
    with pytest.raises(PoleEncountered):
        Jet.constant(1 + 0j) / Jet.constant(0j)
    with pytest.raises(PoleEncountered):
        Jet.constant(0j).log()


def test_array_coefficients_broadcast():
    zs = np.array([0.1 + 0.2j, -0.4 + 0j, 0.3 - 0.3j])
    j = 1 / (1 - Jet.variable(zs))
    scalar = [1 / (1 - Jet.variable(complex(z))) for z in zs]
    for k in range(4):
        got = j.coeffs[k]
        want = np.array([s.coeffs[k] for s in scalar])
        assert np.allclose(got, want, rtol=1e-14)


def test_array_division_by_zero_masks_not_raises():
    zs = np.array([1.0 + 0j, 0.5 + 0j])
    with np.errstate(all="ignore"):
        j = 1 / (1 - Jet.variable(zs))
    assert not np.isfinite(j.coeffs[0][0])
    assert np.isfinite(j.coeffs[0][1])


def test_derivative_drops_order():
    j = (Jet.variable(0.3 + 0j) / (1 - Jet.variable(0.3 + 0j))).derivative()
    assert j.order == 2
    # derivative of z/(1-z) is 1/(1-z)^2
    assert j.d0 == pytest.approx(1 / 0.7 ** 2)
    assert j.d1 == pytest.approx(2 / 0.7 ** 3)
    assert j.d2 == pytest.approx(6 / 0.7 ** 4)


def test_zpow_jet_matches_expr_power():
    for w in (3, -1, 2.5, -8 / 3, 1.5 + 0.5j):
        for z in (0.4 + 0.3j, -0.2 + 0.5j, 0.7 + 0j):
            j = zpow_jet(z, w, order=2)
            ref = Jet.variable(z, 2) ** w
            for a, b in zip(j.coeffs, ref.coeffs):
                assert abs(a - b) <= 1e-12 * (1 + abs(b))


def test_zpow_jet_zero_exponent_is_one_at_origin():
    # z^0 = 1 everywhere; exp(0 * log 0) would be NaN at z = 0
    for z in (0j, np.array([0j, 0.5 - 0.2j])):
        j = zpow_jet(z, 0, order=3)
        assert j.order == 3
        for k, c in enumerate(j.coeffs):
            assert np.all(c == (1 if k == 0 else 0))


def test_zpow_jet_takes_integer_powers_by_multiplication():
    # c = 4 on starlike-vanishing; its scalar/field parity is checked in test_maps
    zs = np.array([0.4 + 0.3j, -0.2 + 0.5j, 0.7 + 0j, -0.9 - 0.1j])
    for n in (4, 4.0, 4 + 0j):
        assert zpow_jet(zs, n, order=2).coeffs[0].tobytes() == (zs ** 4).tobytes()
        for z in zs:
            assert zpow_jet(complex(z), n, order=2).coeffs[0] == complex(z) ** 4


def test_zpow_jet_keeps_exp_log_for_a_non_integer_exponent():
    # c of (m, beta) = (3, -1/3 + 1e-9) is 6e-9, not an integer
    c = origin_exponent(LogHarmonicMap.from_strings(3, -1 / 3 + 1e-9, "1", "1"))
    with np.errstate(all="ignore"):
        got = zpow_jet(_BLOCK, c, order=2).coeffs
        v = np.exp(c * jets._log(_BLOCK))
        want = [v, c * (v / _BLOCK), (c * (c - 1) / 2) * (v / _BLOCK / _BLOCK)]
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_zpow_jet_origin_rules():
    # at z = 0 coefficient k is C(w, k) when w == k, 0 when Re(w - k) > 0
    assert zpow_jet(0j, 2, order=1).coeffs == (0, 0)
    assert zpow_jet(0j, 0.5 + 1j, order=0).coeffs == (0,)
    assert zpow_jet(0j, 1, order=2).coeffs == (0, 1, 0)  # C(1, 2) = 0
    assert zpow_jet(0j, 1.5, order=1).coeffs == (0, 0)
    assert zpow_jet(0j, 0, order=1).coeffs == (1, 0)
    for w, order in ((-1, 0), (-0.5 + 2j, 0), (0.5, 1), (0.5 + 1j, 1)):
        with pytest.raises(PoleEncountered):
            zpow_jet(0j, w, order=order)
    assert zpow_jet(0.5 + 0j, 2, order=1).coeffs == pytest.approx((0.25, 1.0))


# -- array-path economy ---------------------------------------------------

_BLOCK = (np.array([[0.3], [0.9], [0.999], [1 - 1e-6]])
          * np.exp(2j * np.pi * np.arange(512) / 512)).ravel()


def _catalog_factors():
    for name in fixture_names():
        f = load_fixture(name).map
        yield f"{name}:h", f.h
        yield f"{name}:g", f.g


_FACTORS = dict(_catalog_factors())


@pytest.mark.parametrize("label", list(_FACTORS))
def test_lower_order_jets_are_prefixes_of_order_three(label):
    # triangular arithmetic: evaluating at the order a kernel reads changes no bit
    e = _FACTORS[label]
    with np.errstate(all="ignore"):
        full = eval_jet(e, _BLOCK, 3).coeffs
        for order in (0, 1, 2):
            low = eval_jet(e, _BLOCK, order).coeffs
            assert len(low) == order + 1
            for k, (a, b) in enumerate(zip(low, full)):
                assert type(a) is type(b), (label, order, k)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (label, order, k)


def _catalog_fields():
    for name in fixture_names():
        fx = load_fixture(name)
        f = fx.map
        yield f"P:{name}", maps.pre_schwarzian_field(f)
        yield f"S:{name}", maps.schwarzian_field(f)
        yield f"logderiv-g:{name}", norms.logderiv_field(f.g)
        if f.m == 0:
            eps = fx.eps if fx.eps is not None else 0.5 + 0.25j
            yield f"hg:{name}", maps.hg_epsilon_field(f, eps)


def test_skipping_structural_zeros_keeps_every_field(monkeypatch):
    # the reference computes every product term, zero tails included
    skipped = {label: field(_BLOCK) for label, field in _catalog_fields()}
    monkeypatch.setattr(jets, "_skips", lambda x, y: False)
    for label, field in _catalog_fields():
        want, got = field(_BLOCK), skipped[label]
        assert np.array_equal(np.isnan(got), np.isnan(want)), label
        ok = ~np.isnan(want)
        assert np.array_equal(np.abs(got[ok]), np.abs(want[ok])), label


def _same_bits_or_both_nan(got, want):
    # a - b and a + (-b) may give NaNs of opposite sign; every other value
    # is the same, signed zeros included
    g, w = np.asarray(got).view(np.float64), np.asarray(want).view(np.float64)
    nan = np.isnan(w)
    return np.array_equal(np.isnan(g), nan) and g[~nan].tobytes() == w[~nan].tobytes()


def test_subtraction_is_adding_the_negation():
    special = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0)
    vals = np.array([complex(x, y) for x in special for y in special])
    a, b = np.repeat(vals, vals.size), np.tile(vals, vals.size)
    ja, jb = Jet((a, b[::-1], a[::-1], b)), Jet((b, a, b[::-1], a[::-1]))
    with np.errstate(all="ignore"):
        pairs = [
            (ja - jb, ja + (-jb)),
            (ja - 2.5j, ja + (-Jet.constant(2.5j))),
            (-0.0j - ja, Jet.constant(-0.0j) + (-ja)),
            (ja - Jet.variable(-0.0j, 2), ja + (-Jet.variable(-0.0j, 2))),
        ]
    for diff, neg_sum in pairs:
        assert diff.order == neg_sum.order
        for got, want in zip(diff.coeffs, neg_sum.coeffs):
            assert _same_bits_or_both_nan(got, want)


# 97 levels clustered at the boundary, as the norms sweep them, out to
# r = 1 - 1e-6, where exp(z/(1-z)) on gap-one overflows
_GRID = (norms._radii(0.0, 1 - 1e-6, 97)[:, None]
         * np.exp(2j * np.pi * np.arange(256) / 256)).ravel()


def test_skipping_unit_factors_and_negations_keeps_every_field(monkeypatch):
    # the reference multiplies by every k, 1 included, and subtracts by
    # adding the negation
    new = {label: field(_GRID) for label, field in _catalog_fields()}
    monkeypatch.setattr(jets, "_scaled", lambda k, x: k * x)
    monkeypatch.setattr(Jet, "__sub__", lambda self, other: self + (-self._coerce(other)))
    for label, field in _catalog_fields():
        want, got = field(_GRID), new[label]
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), label
        assert got[~nan].tobytes() == want[~nan].tobytes(), label


def test_scalar_products_keep_their_zero_tails():
    # on the scalar path inf times a zero tail is still NaN
    j = Jet.constant(complex(np.inf, 0)) * Jet.variable(0.5 + 0j)
    assert np.isnan(j.coeffs[2])
    assert jets._skips(np.zeros(2, complex), 0j) and not jets._skips(0j, 0j)


def _ulps_from_numpy(a):
    with np.errstate(all="ignore"):
        want = np.log(a)
    got = jets._log(a)
    assert got.dtype == want.dtype and got.shape == want.shape
    finite = np.isfinite(want)
    np.testing.assert_array_equal(got[~finite], want[~finite])
    np.testing.assert_array_equal(np.signbit(got.imag), np.signbit(want.imag))
    return np.abs(got[finite] - want[finite]) / np.spacing(np.abs(want[finite]))


def test_array_log_agrees_with_numpy_within_four_ulp():
    t = np.linspace(0, 2 * np.pi, 4001)
    neg = -np.geomspace(1e-300, 1e300, 601)
    cases = {
        "1 + 1e-8 e^it": 1 + 1e-8 * np.exp(1j * t),
        "unit circle": np.exp(1j * t),
        "negative axis, +0.0": neg + 0.0j,
        "negative axis, -0.0": np.array([complex(x, -0.0) for x in neg]),
    }
    for label, a in cases.items():
        assert _ulps_from_numpy(a).max() <= 4, label
    special = np.array([0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(np.inf, 0),
                        complex(-np.inf, 0), complex(np.inf, np.inf), complex(np.nan, 0),
                        complex(0, np.nan), complex(np.inf, np.nan)])
    assert _ulps_from_numpy(special).size == 0
    # scalars keep np.log
    assert jets._log(-1 - 0j) == np.log(-1 - 0j)
