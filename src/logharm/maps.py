"""Log-harmonic mappings and their Schwarzian-type derivatives.

A mapping here is f(z) = z^((b+1)m) h(z) conj(z^(b m) g(z)) on the unit
disk, with integer vanishing order m >= 0, exponent parameter b with
Re(b) > -1/2, and analytic factors h, g given as expression trees.  For
real b this is the familiar z^m |z|^(2 b m) h(z) conj(g(z)); the powered
form is used throughout because every closed formula below (dilatation,
Jacobian, pre-Schwarzian, Schwarzian) is then an exact identity for
complex b as well, principal branches understood.

For m = 0 the mapping degenerates to h * conj(g) and all b-terms drop
out.  The vanishing-order case m >= 1 concentrates its derivative
singularities at the origin, so derivative-level operators require
|z| >= 1e-8 there; value-level operators take the z -> 0 limit instead.

The second (analytic) dilatation is

    omega = (z g'/g + b m) / ((b+1) m + z h'/h),

reducing to g' h / (h' g) when m = 0.  Writing H = z h' + (b+1) m h and
G = z^((2b+1)m - 1) g (just G = g, H = h' when m = 0), the locally
univalent factorization gives

    J_f   = |H G|^2 (1 - |omega|^2),
    P_f   = G'/G + H'/H - conj(omega) omega' / (1 - |omega|^2),
    S_f   = S + (analytic-correction terms in omega),

where S is the Schwarzian of the analytic function with derivative H*G.
Composition with an analytic disk automorphism-like psi uses the chain
rule P_(f o psi) = (P_f o psi) psi' + psi''/psi' (the psi' factor is
forced by J_(f o psi) = (J_f o psi) |psi'|^2; see the finite-difference
tests).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CriticalPoint,
    DegenerateDenominator,
    NotSensePreserving,
    PoleEncountered,
)
from .expr import Expr, eval_jet, parse
from .jets import Jet, zpow_jet, zpow_value

ORIGIN_RADIUS = 1e-8  # derivative ops for m >= 1 stay outside this disk


@dataclass(frozen=True)
class LogHarmonicMap:
    """Representation data (m, b, h, g) of a log-harmonic mapping."""

    m: int
    beta: complex
    h: Expr
    g: Expr

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 0:
            raise ValueError("vanishing order m must be a non-negative integer")
        beta = complex(self.beta)
        object.__setattr__(self, "beta", beta)
        if beta.real <= -0.5:
            raise ValueError(f"Re(beta) must exceed -1/2, got {beta}")
        h0 = complex(eval_jet(self.h, 0j, order=1).d0)
        g0 = complex(eval_jet(self.g, 0j, order=1).d0)
        if self.m >= 1:
            if abs(g0 - 1) > 1e-9:
                raise ValueError(f"g(0) must be 1 for m >= 1, got {g0}")
            if abs(h0) <= 1e-9:
                raise ValueError("h(0) must be nonzero for m >= 1")
        else:
            if abs(g0) <= 1e-12:
                raise ValueError("g(0) must be nonzero for m = 0")
            h1 = complex(eval_jet(self.h, 0j, order=1).d1)
            if abs(h0) <= 1e-12 and abs(h1) <= 1e-12:
                # h may vanish at 0 only simply (local univalence of h)
                raise ValueError("h must have h(0) != 0 or h'(0) != 0 for m = 0")

    @classmethod
    def from_strings(cls, m: int, beta, h: str, g: str) -> "LogHarmonicMap":
        return cls(m, complex(beta), parse(h), parse(g))


@dataclass(frozen=True)
class LocalData:
    """Everything the derivative formulas need at one point.

    ``G_jet``/``H_jet`` hold value, first, and second derivative of the
    factorization factors (order-2 jets; a third derivative would need
    h'''').  ``phi_logderiv`` is G'/G + H'/H, the pre-Schwarzian of the
    analytic function whose derivative is H*G.
    """

    z: complex
    omega: complex
    omega_d1: complex
    omega_d2: complex
    G_jet: Jet
    H_jet: Jet
    phi_logderiv: complex


def _omega_jet(f: LogHarmonicMap, z, hj: Jet, gj: Jet, hp: Jet) -> Jet:
    """Order-2 dilatation jet from the order-3 jets of h and g and the jet hp of h'.

    Unlike the full local bundle it is regular at the origin even when the
    map vanishes there.
    """
    gp = gj.derivative()
    if f.m == 0:
        return (gp * hj) / (hp * gj)
    zj = Jet.variable(z, 2)
    den = (f.beta + 1) * f.m + zj * (hp / hj)
    return (zj * (gp / gj) + f.beta * f.m) / den


def _raw_local(f: LogHarmonicMap, z):
    """(omega_jet, G_jet, H_jet) at z; works on scalars and arrays alike."""
    hj = eval_jet(f.h, z)
    gj = eval_jet(f.g, z)
    hp = hj.derivative()
    omega = _omega_jet(f, z, hj, gj, hp)
    if f.m == 0:
        return omega, gj.truncate(2), hp
    H = Jet.variable(z, 2) * hp + (f.beta + 1) * f.m * hj
    G = zpow_jet(z, (2 * f.beta + 1) * f.m - 1, order=2) * gj
    return omega, G, H


def _checked_denominator(f: LogHarmonicMap, z: complex, hj: Jet) -> complex:
    den = (f.beta + 1) * f.m + z * complex(hj.d1) / complex(hj.d0)
    if abs(den) < 1e-14:
        raise DegenerateDenominator("(beta+1)m + z h'/h vanished", point=z)
    return den


# -- closed forms ----------------------------------------------------------
# Each formula is written once.  The scalar operators call it on Python
# complex values, so they keep their exact arithmetic and typed raises; the
# *_field closures call it on whole arrays.


def _phi_logderiv(G: Jet, H: Jet):
    """G'/G + H'/H, the pre-Schwarzian of the analytic function with derivative H*G."""
    return G.d1 / G.d0 + H.d1 / H.d0


def _phi_schwarzian(G: Jet, H: Jet):
    """The Schwarzian of the analytic function with derivative H*G."""
    G0, G1, G2 = G.d0, G.d1, G.d2
    H0, H1, H2 = H.d0, H.d1, H.d2
    return (
        G2 / G0
        - 1.5 * (G1 / G0) ** 2
        + H2 / H0
        - 1.5 * (H1 / H0) ** 2
        - (G1 * H1) / (G0 * H0)
    )


def _sigma(w0, w1):
    return w0.conjugate() * w1 / (1 - abs(w0) ** 2)


def _pre_kernel(w0, w1, p_phi):
    """P_f = G'/G + H'/H - conj(w) w' / (1 - |w|^2)."""
    return p_phi - _sigma(w0, w1)


def _schwarzian_kernel(w0, w1, w2, p_phi, s_phi):
    """S_f = S_phi - (3/2) sigma^2 + conj(w) (w' P_phi - w'') / (1 - |w|^2)."""
    denom = 1 - abs(w0) ** 2
    return s_phi - 1.5 * _sigma(w0, w1) ** 2 + (w0.conjugate() / denom) * (w1 * p_phi - w2)


def _hg_kernel(eps, w0, w1, g0, g1, hp0, hp1):
    """h''/h' + g'/g + (eps-1) g'/g + eps w' / (1 + eps w), for m = 0."""
    logg = g1 / g0
    return hp1 / hp0 + logg + (eps - 1) * logg + eps * w1 / (1 + eps * w0)


def _analytic_pre_kernel(d1, d2):
    return d2 / d1


def _analytic_schwarzian_kernel(d1, d2, d3):
    return d3 / d1 - 1.5 * _analytic_pre_kernel(d1, d2) ** 2


def local_data(f: LogHarmonicMap, z: complex) -> LocalData:
    """Validated scalar bundle; raises on poles and degenerate denominators."""
    z = complex(z)
    if f.m >= 1 and abs(z) < ORIGIN_RADIUS:
        raise PoleEncountered("derivative data needs |z| >= 1e-8 for m >= 1", point=z)
    if f.m >= 1:
        _checked_denominator(f, z, eval_jet(f.h, z, order=1))
    omega, G, H = _raw_local(f, z)
    data = LocalData(
        z=z,
        omega=complex(omega.d0),
        omega_d1=complex(omega.d1),
        omega_d2=complex(omega.d2),
        G_jet=G,
        H_jet=H,
        phi_logderiv=complex(_phi_logderiv(G, H)),
    )
    for v in (data.omega, data.omega_d1, data.omega_d2, data.phi_logderiv):
        if not np.isfinite(v):
            raise PoleEncountered("non-finite local data", point=z)
    return data


def _sense_preserving_data(f: LogHarmonicMap, z: complex) -> LocalData:
    data = local_data(f, z)
    mod = abs(data.omega)
    if mod >= 1:
        raise NotSensePreserving(point=data.z, modulus=mod)
    return data


# -- pointwise operators --------------------------------------------------


def dilatation(f: LogHarmonicMap, z: complex) -> complex:
    z = complex(z)
    if f.m >= 1 and z == 0:
        return f.beta / (f.beta + 1)
    hj = eval_jet(f.h, z, order=1)
    gj = eval_jet(f.g, z, order=1)
    if f.m == 0:
        den = complex(hj.d1) * complex(gj.d0)
        if den == 0:
            raise DegenerateDenominator("h' g vanished", point=z)
        return complex(gj.d1) * complex(hj.d0) / den
    num = z * complex(gj.d1) / complex(gj.d0) + f.beta * f.m
    return num / _checked_denominator(f, z, hj)


def jacobian(f: LogHarmonicMap, z: complex) -> float:
    """|f_z|^2 - |f_zbar|^2 in closed form; positive iff sense-preserving
    and locally univalent at z."""
    z = complex(z)
    if f.m >= 1 and z == 0:
        w = (2 * f.beta + 1) * f.m - 1
        G0 = zpow_value(0j, w) * complex(eval_jet(f.g, 0j, order=0).d0)
        H0 = (f.beta + 1) * f.m * complex(eval_jet(f.h, 0j, order=0).d0)
        om = dilatation(f, 0j)
        return float(abs(H0 * G0) ** 2 * (1 - abs(om) ** 2))
    omega, G, H = _raw_local(f, z)
    w0 = complex(omega.d0)
    return float(abs(complex(H.d0) * complex(G.d0)) ** 2 * (1 - abs(w0) ** 2))


def map_value(f: LogHarmonicMap, z):
    """f(z) itself.  Accepts arrays; the origin maps to 0 whenever m >= 1."""
    if isinstance(z, np.ndarray):
        hv = eval_jet(f.h, z, order=0).d0
        gv = eval_jet(f.g, z, order=0).d0
        if f.m == 0:
            return hv * np.conj(gv)
        a = (f.beta + 1) * f.m
        b = f.beta * f.m
        logz = np.log(z)
        val = np.exp(a * logz) * hv * np.conj(np.exp(b * logz) * gv)
        return np.where(z == 0, 0j, val)  # Re((b+1)m) > m/2 > 0 forces the limit 0
    z = complex(z)
    hv = complex(eval_jet(f.h, z, order=0).d0)
    gv = complex(eval_jet(f.g, z, order=0).d0)
    if f.m == 0:
        return hv * gv.conjugate()
    zp = zpow_value(z, (f.beta + 1) * f.m)
    zq = zpow_value(z, f.beta * f.m)
    return zp * hv * (zq * gv).conjugate()


def wirtinger(f: LogHarmonicMap, z: complex) -> tuple[complex, complex, complex]:
    """(f_z, f_zbar, f(z)).  Satisfies |f_z|^2 - |f_zbar|^2 = jacobian(f, z)."""
    z = complex(z)
    hj = eval_jet(f.h, z, order=1)
    gj = eval_jet(f.g, z, order=1)
    h0, h1 = complex(hj.d0), complex(hj.d1)
    g0, g1 = complex(gj.d0), complex(gj.d1)
    if f.m == 0:
        return h1 * g0.conjugate(), h0 * g1.conjugate(), h0 * g0.conjugate()
    beta, m = f.beta, f.m
    zp_a = zpow_value(z, (beta + 1) * m)        # z^((b+1)m)
    zq_b = zpow_value(z, beta * m)              # z^(b m)
    f_val = zp_a * h0 * (zq_b * g0).conjugate()
    zp_a1 = zpow_value(z, (beta + 1) * m - 1)
    zq_b1 = zpow_value(z, beta * m - 1)
    H0 = z * h1 + (beta + 1) * m * h0
    f_z = zp_a1 * H0 * (zq_b * g0).conjugate()
    f_zbar = zp_a * h0 * (zq_b1 * (z * g1 + beta * m * g0)).conjugate()
    return f_z, f_zbar, f_val


def pre_schwarzian(f: LogHarmonicMap, z: complex) -> complex:
    """P_f = d/dz log J_f, via the closed form G'/G + H'/H - conj(w)w'/(1-|w|^2)."""
    data = _sense_preserving_data(f, z)
    return _pre_kernel(data.omega, data.omega_d1, data.phi_logderiv)


def phi_family(f: LogHarmonicMap, z: complex) -> tuple[complex, complex]:
    """(P, S) of the analytic function with derivative H*G (never integrated)."""
    data = local_data(f, z)
    return data.phi_logderiv, complex(_phi_schwarzian(data.G_jet, data.H_jet))


def schwarzian(f: LogHarmonicMap, z: complex) -> complex:
    """S_f = dP_f/dz - P_f^2 / 2, in closed form."""
    data = _sense_preserving_data(f, z)
    s_phi = complex(_phi_schwarzian(data.G_jet, data.H_jet))
    return _schwarzian_kernel(data.omega, data.omega_d1, data.omega_d2, data.phi_logderiv, s_phi)


def dbar_pre_schwarzian(f: LogHarmonicMap, z: complex) -> complex:
    """d/dzbar of P_f: always -|omega'|^2 / (1-|omega|^2)^2, real and <= 0.

    Needs only the dilatation jet, so it is evaluable at the origin for
    every m (the other derivative operators are not).
    """
    z = complex(z)
    try:
        hj = eval_jet(f.h, z)
        om = _omega_jet(f, z, hj, eval_jet(f.g, z), hj.derivative())
    except ZeroDivisionError as exc:
        raise PoleEncountered(str(exc), point=z) from None
    w0, w1 = complex(om.d0), complex(om.d1)
    if not (np.isfinite(w0) and np.isfinite(w1)):
        raise PoleEncountered("non-finite dilatation jet", point=z)
    mod = abs(w0)
    if mod >= 1:
        raise NotSensePreserving(point=z, modulus=mod)
    denom = 1 - mod ** 2
    return complex(-abs(w1) ** 2 / denom ** 2)


def dbar_schwarzian(f: LogHarmonicMap, z: complex) -> complex:
    """d/dzbar of S_f in closed form (vanishes iff omega is constant)."""
    data = _sense_preserving_data(f, z)
    denom = 1 - abs(data.omega) ** 2
    w1 = data.omega_d1
    return w1.conjugate() * (
        (w1 * data.phi_logderiv - data.omega_d2) / denom ** 2
        - 3 * w1 ** 2 * data.omega.conjugate() / denom ** 3
    )


# -- analytic specializations --------------------------------------------


def _analytic_jet(e: Expr, z: complex, order: int) -> tuple[complex, Jet]:
    """(e'(z), jet of e at z); raises where e' vanishes."""
    j = eval_jet(e, complex(z), order=order)
    d1 = complex(j.d1)
    if d1 == 0:
        raise CriticalPoint("derivative vanishes", point=complex(z))
    return d1, j


def analytic_pre_schwarzian(e: Expr, z: complex) -> complex:
    """e''/e' for an analytic expression."""
    d1, j = _analytic_jet(e, z, 2)
    return _analytic_pre_kernel(d1, complex(j.d2))


def analytic_schwarzian(e: Expr, z: complex) -> complex:
    """e'''/e' - (3/2)(e''/e')^2 for an analytic expression."""
    d1, j = _analytic_jet(e, z, 3)
    return _analytic_schwarzian_kernel(d1, complex(j.d2), complex(j.d3))


def hg_epsilon_pre_schwarzian(f: LogHarmonicMap, eps: complex, z: complex) -> complex:
    """Pre-Schwarzian of the analytic family member h * g^eps (m = 0 only).

    Closed form h''/h' + g'/g + (eps-1) g'/g + eps omega'/(1 + eps omega);
    for eps = 1 this is the pre-Schwarzian of h*g, for eps = -1 of h/g.
    """
    if f.m != 0:
        raise ValueError("the h g^eps family is defined for m = 0 mappings")
    z = complex(z)
    eps = complex(eps)
    omega, G, H = _raw_local(f, z)
    w0, w1 = complex(omega.d0), complex(omega.d1)
    if abs(1 + eps * w0) < 1e-14:
        raise DegenerateDenominator("1 + eps*omega vanished", point=z)
    g0, g1, hp0, hp1 = (complex(c) for c in (G.d0, G.d1, H.d0, H.d1))
    return _hg_kernel(eps, w0, w1, g0, g1, hp0, hp1)


def compose_with_analytic(f: LogHarmonicMap, psi: Expr, z: complex) -> complex:
    """P of f o psi at z (m = 0), by the chain rule (P_f o psi) psi' + psi''/psi'."""
    if f.m != 0:
        raise ValueError("composition is supported for m = 0 mappings")
    z = complex(z)
    pj = eval_jet(psi, z, order=2)
    p1 = complex(pj.d1)
    if p1 == 0:
        raise CriticalPoint("psi' vanishes", point=z)
    w = complex(pj.d0)
    if abs(w) >= 1:
        raise ValueError(f"psi(z) = {w} leaves the unit disk")
    return pre_schwarzian(f, w) * p1 + _analytic_pre_kernel(p1, complex(pj.d2))


# -- array-path field evaluators (grid sweeps) ---------------------------


def as_field(formula, real: bool = False):
    """Lift an array formula to a field: the one place that decides shape,
    warnings and NaN.

    The field takes any complex array z and returns formula(z) with the shape
    of z, without numpy warnings, and NaN wherever a value is not finite:
    nan+nanj for complex fields, nan for real margins (``real=True``).  Jet
    coefficients that do not depend on z stay scalars inside the formula and
    are broadcast here.  A ZeroDivisionError can only come from such a scalar
    divisor, so it makes the whole field NaN.
    """
    dtype, nan = (float, np.nan) if real else (complex, np.nan + 1j * np.nan)

    def field(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            try:
                v = np.asarray(formula(z), dtype=dtype)
            except ZeroDivisionError:
                v = np.asarray(nan)
            if v.shape != z.shape:
                v = np.broadcast_to(v, z.shape)
            return np.where(np.isfinite(v), v, nan)

    return field


def _array_local(f: LogHarmonicMap, z: np.ndarray):
    """`_raw_local` on an array, with the origin masked out when m >= 1."""
    if f.m >= 1:
        z = np.where(np.abs(z) < ORIGIN_RADIUS, np.nan + 1j * np.nan, z)
    return _raw_local(f, z)


def pre_schwarzian_field(f: LogHarmonicMap):
    """Vectorized z -> P_f(z); non-evaluable points come back NaN."""

    def formula(z):
        omega, G, H = _array_local(f, z)
        p = _pre_kernel(omega.d0, omega.d1, _phi_logderiv(G, H))
        return np.where(np.abs(omega.d0) < 1, p, np.nan)

    return as_field(formula)


def schwarzian_field(f: LogHarmonicMap):
    """Vectorized z -> S_f(z); non-evaluable points come back NaN."""

    def formula(z):
        omega, G, H = _array_local(f, z)
        s = _schwarzian_kernel(
            omega.d0, omega.d1, omega.d2, _phi_logderiv(G, H), _phi_schwarzian(G, H)
        )
        return np.where(np.abs(omega.d0) < 1, s, np.nan)

    return as_field(formula)


def analytic_pre_schwarzian_field(e: Expr):
    def formula(z):
        j = eval_jet(e, z, order=2)
        return _analytic_pre_kernel(j.d1, j.d2)

    return as_field(formula)


def analytic_schwarzian_field(e: Expr):
    def formula(z):
        j = eval_jet(e, z, order=3)
        return _analytic_schwarzian_kernel(j.d1, j.d2, j.d3)

    return as_field(formula)


def hg_epsilon_field(f: LogHarmonicMap, eps: complex):
    """Vectorized pre-Schwarzian of h * g^eps (m = 0)."""
    if f.m != 0:
        raise ValueError("the h g^eps family is defined for m = 0 mappings")
    eps = complex(eps)

    def formula(z):
        omega, G, H = _raw_local(f, z)
        return _hg_kernel(eps, omega.d0, omega.d1, G.d0, G.d1, H.d0, H.d1)

    return as_field(formula)
