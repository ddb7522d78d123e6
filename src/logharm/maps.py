"""Log-harmonic mappings and their Schwarzian-type derivatives.

A mapping here is f(z) = z^a h(z) conj(z^b g(z)) on the unit disk, with
(a, b) = `f.exponents` = ((beta+1) m, conj(beta) m), integer vanishing
order m >= 0, exponent parameter beta with Re(beta) > -1/2, and analytic
factors h, g given as expression trees.  With principal branches,
z^a conj(z^b) = z^m exp(2 beta m log|z|), so this is the paper's
z^m |z|^(2 beta m) h(z) conj(g(z)) for complex beta as well, continuous
across the negative real axis.  The powered form is used throughout
because every closed formula below (dilatation, Jacobian, pre-Schwarzian,
Schwarzian) is an exact identity in it.  `exponents` is the only place
beta and m enter a formula.

For m = 0 the mapping degenerates to h * conj(g) and a = b = 0.  At the
origin P_f = c/z + O(1) and S_f = -c(1 + c/2)/z^2 + ..., with
c = `origin_exponent(f)` = a + b - 1 = (2 Re(beta) + 1) m - 1 the power in
G = z^c g below (0 when m = 0), so both weighted norms are infinite iff
c != 0 (c > -1 excludes c = -2).  Only then do derivative-level operators
require |z| >= 1e-8; otherwise, and for value-level operators always, the
origin gives the z -> 0 limit.

The second (analytic) dilatation is

    omega = (b + z g'/g) / (a + z h'/h),

so omega(0) = b/a, reducing to g' h / (h' g) when m = 0.  Writing
H = z h' + a h and G = z^c g (just G = g, H = h' when m = 0), the locally
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

ORIGIN_RADIUS = 1e-8  # derivative ops stay outside this disk when c != 0


@dataclass(frozen=True)
class LogHarmonicMap:
    """Representation data (m, beta, h, g) of a log-harmonic mapping."""

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

    @property
    def exponents(self) -> tuple[complex, complex]:
        """(a, b) with f = z^a h conj(z^b g): a = (beta+1) m, b = conj(beta) m."""
        return (self.beta + 1) * self.m, self.beta.conjugate() * self.m


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


def origin_exponent(f: LogHarmonicMap) -> complex:
    """c in G = z^c g: P_f = c/z + O(1), so f has finite norms iff c == 0."""
    a, b = f.exponents
    return a + b - 1 if f.m else 0j


def _omega_jet(f: LogHarmonicMap, z, hj: Jet, gj: Jet) -> Jet:
    """The dilatation (b + z g'/g) / (a + z h'/h), or g' h / (h' g) for m = 0,
    as a jet one order below those of h and g.

    It is regular at the origin even when c != 0.  On a scalar z it raises
    DegenerateDenominator where the denominator vanishes, and PoleEncountered
    at z where h or g does; on an array the division leaves NaN there.
    """
    gp, hp = gj.derivative(), hj.derivative()
    if f.m == 0:
        num, den = gp * hj, hp * gj
    else:
        a, b = f.exponents
        zj = Jet.variable(z, hp.order)
        try:
            den = a + zj * (hp / hj)
            num = zj * (gp / gj) + b
        except PoleEncountered as exc:
            if exc.point is None and not isinstance(z, np.ndarray):
                exc.point = z
            raise
    if not isinstance(z, np.ndarray):
        d0 = complex(den.d0)
        if f.m == 0 and d0 == 0:
            raise DegenerateDenominator("h' g vanished", point=z)
        if f.m >= 1 and abs(d0) < 1e-14:
            raise DegenerateDenominator("(beta+1)m + z h'/h vanished", point=z)
    return num / den


def _omega_from_factors(f: LogHarmonicMap, z, order: int) -> Jet:
    """The dilatation jet, of order ``order - 1``, from h and g of order ``order``."""
    return _omega_jet(f, z, eval_jet(f.h, z, order), eval_jet(f.g, z, order))


def _raw_local(f: LogHarmonicMap, z, c: complex, order: int = 3):
    """(omega_jet, G_jet, H_jet) at z, with c = origin_exponent(f), as jets
    of order ``order - 1`` from h and g of order ``order``; works on scalars
    and arrays alike.  Order 2 is all P_f reads, order 3 adds S_f's second
    derivatives."""
    hj = eval_jet(f.h, z, order)
    gj = eval_jet(f.g, z, order)
    omega = _omega_jet(f, z, hj, gj)
    if f.m == 0:
        return omega, gj.truncate(order - 1), hj.derivative()
    a, _ = f.exponents
    H = Jet.variable(z, order - 1) * hj.derivative() + a * hj
    G = zpow_jet(z, c, order=order - 1) * gj
    return omega, G, H


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


def _dbar_pre_kernel(w0, w1):
    """d/dzbar P_f = -|w'|^2 / (1 - |w|^2)^2."""
    return -abs(w1) ** 2 / (1 - abs(w0) ** 2) ** 2


def _dbar_schwarzian_kernel(w0, w1, w2, p_phi):
    """d/dzbar S_f = conj(w') ((w' P_phi - w'') / (1 - |w|^2)^2
    - 3 w'^2 conj(w) / (1 - |w|^2)^3)."""
    denom = 1 - abs(w0) ** 2
    return w1.conjugate() * (
        (w1 * p_phi - w2) / denom ** 2 - 3 * w1 ** 2 * w0.conjugate() / denom ** 3
    )


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
    c = origin_exponent(f)
    if c != 0 and abs(z) < ORIGIN_RADIUS:
        raise PoleEncountered("derivative data needs |z| >= 1e-8 when c != 0", point=z)
    omega, G, H = _raw_local(f, z, c)
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


def _sense_preserving(z: complex, w0: complex) -> float:
    """1 - |w0|^2; raises NotSensePreserving when |w0| >= 1."""
    mod = abs(w0)
    if mod >= 1:
        raise NotSensePreserving(point=z, modulus=mod)
    return 1 - mod ** 2


def _sense_preserving_data(f: LogHarmonicMap, z: complex) -> LocalData:
    data = local_data(f, z)
    _sense_preserving(data.z, data.omega)
    return data


# -- pointwise operators --------------------------------------------------


def dilatation(f: LogHarmonicMap, z: complex) -> complex:
    """omega(z); b/a at the origin when m >= 1."""
    return complex(_omega_from_factors(f, complex(z), 1).d0)


def jacobian(f: LogHarmonicMap, z: complex) -> float:
    """|f_z|^2 - |f_zbar|^2 in closed form; positive iff sense-preserving
    and locally univalent at z."""
    z = complex(z)
    c = origin_exponent(f)
    if c != 0 and z == 0:
        G0 = zpow_value(0j, c) * complex(eval_jet(f.g, 0j, order=0).d0)
        H0 = f.exponents[0] * complex(eval_jet(f.h, 0j, order=0).d0)
        om = dilatation(f, 0j)
        return float(abs(H0 * G0) ** 2 * (1 - abs(om) ** 2))
    omega, G, H = _raw_local(f, z, c)
    w0 = complex(omega.d0)
    return float(abs(complex(H.d0) * complex(G.d0)) ** 2 * (1 - abs(w0) ** 2))


def map_value(f: LogHarmonicMap, z):
    """f(z) itself.  Accepts arrays.  The origin maps to 0 whenever m >= 1:
    |f| = |z|^Re(a+b) |h g| and Re(a + b) = (2 Re beta + 1) m > 0."""
    a, b = f.exponents
    if isinstance(z, np.ndarray):
        with np.errstate(all="ignore"):
            hv = eval_jet(f.h, z, order=0).d0
            gv = eval_jet(f.g, z, order=0).d0
            if f.m == 0:
                return hv * np.conj(gv)
            logz = np.log(z)
            val = np.exp(a * logz) * hv * np.conj(np.exp(b * logz) * gv)
        return np.where(z == 0, 0j, val)
    z = complex(z)
    if f.m >= 1 and z == 0:
        return 0j
    hv = complex(eval_jet(f.h, z, order=0).d0)
    gv = complex(eval_jet(f.g, z, order=0).d0)
    if f.m == 0:
        return hv * gv.conjugate()
    return zpow_value(z, a) * hv * (zpow_value(z, b) * gv).conjugate()


def wirtinger(f: LogHarmonicMap, z: complex) -> tuple[complex, complex, complex]:
    """(f_z, f_zbar, f(z)).  Satisfies |f_z|^2 - |f_zbar|^2 = jacobian(f, z)."""
    z = complex(z)
    hj = eval_jet(f.h, z, order=1)
    gj = eval_jet(f.g, z, order=1)
    h0, h1 = complex(hj.d0), complex(hj.d1)
    g0, g1 = complex(gj.d0), complex(gj.d1)
    if f.m == 0:
        return h1 * g0.conjugate(), h0 * g1.conjugate(), h0 * g0.conjugate()
    a, b = f.exponents
    zp_a = zpow_value(z, a)
    zq_b = zpow_value(z, b)
    f_val = zp_a * h0 * (zq_b * g0).conjugate()
    f_z = zpow_value(z, a - 1) * (z * h1 + a * h0) * (zq_b * g0).conjugate()
    # conj of (z^b g)' = z^b g' + b z^(b-1) g; the second term is absent when
    # b == 0, which keeps the origin evaluable there
    dg = zq_b * g1 if b == 0 else zq_b * g1 + b * zpow_value(z, b - 1) * g0
    f_zbar = zp_a * h0 * dg.conjugate()
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
    every m (the other derivative operators only when c == 0).
    """
    z = complex(z)
    om = _omega_from_factors(f, z, 2)
    w0, w1 = complex(om.d0), complex(om.d1)
    if not (np.isfinite(w0) and np.isfinite(w1)):
        raise PoleEncountered("non-finite dilatation jet", point=z)
    _sense_preserving(z, w0)
    return complex(_dbar_pre_kernel(w0, w1))


def dbar_schwarzian(f: LogHarmonicMap, z: complex) -> complex:
    """d/dzbar of S_f in closed form (vanishes iff omega is constant)."""
    data = _sense_preserving_data(f, z)
    return _dbar_schwarzian_kernel(
        data.omega, data.omega_d1, data.omega_d2, data.phi_logderiv
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
    eps = complex(eps)
    data = local_data(f, z)
    w0, w1 = data.omega, data.omega_d1
    if abs(1 + eps * w0) < 1e-14:
        raise DegenerateDenominator("1 + eps*omega vanished", point=data.z)
    G, H = data.G_jet, data.H_jet
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
    are broadcast here.  A ZeroDivisionError, or a PoleEncountered from a jet
    dividing by or taking the log of a zero, can only come from such a scalar
    coefficient, so it makes the whole field NaN.
    """
    dtype, nan = (float, np.nan) if real else (complex, np.nan + 1j * np.nan)

    def field(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            try:
                v = np.asarray(formula(z), dtype=dtype)
            except (ZeroDivisionError, PoleEncountered):
                v = np.asarray(nan)
            if v.shape != z.shape:
                v = np.broadcast_to(v, z.shape)
            return np.where(np.isfinite(v), v, nan)

    return field


def _array_local(f: LogHarmonicMap, z: np.ndarray, c: complex, order: int):
    """`_raw_local` on an array, with the origin masked out when c != 0."""
    if c != 0:
        z = np.where(np.abs(z) < ORIGIN_RADIUS, np.nan + 1j * np.nan, z)
    return _raw_local(f, z, c, order)


def pre_schwarzian_field(f: LogHarmonicMap):
    """Vectorized z -> P_f(z); non-evaluable points come back NaN."""
    c = origin_exponent(f)

    def formula(z):
        omega, G, H = _array_local(f, z, c, 2)
        p = _pre_kernel(omega.d0, omega.d1, _phi_logderiv(G, H))
        return np.where(np.abs(omega.d0) < 1, p, np.nan)

    return as_field(formula)


def schwarzian_field(f: LogHarmonicMap):
    """Vectorized z -> S_f(z); non-evaluable points come back NaN."""
    c = origin_exponent(f)

    def formula(z):
        omega, G, H = _array_local(f, z, c, 3)
        s = _schwarzian_kernel(
            omega.d0, omega.d1, omega.d2, _phi_logderiv(G, H), _phi_schwarzian(G, H)
        )
        return np.where(np.abs(omega.d0) < 1, s, np.nan)

    return as_field(formula)


def dilatation_field(f: LogHarmonicMap):
    """Vectorized z -> omega(z), b/a at the origin; NaN only where the
    dilatation itself is not finite."""

    def formula(z):
        return _omega_from_factors(f, z, 1).d0

    return as_field(formula)


def dbar_pre_schwarzian_field(f: LogHarmonicMap):
    """Vectorized z -> d/dzbar P_f(z): regular at the origin for every m,
    NaN where |omega| >= 1."""

    def formula(z):
        om = _omega_from_factors(f, z, 2)
        return np.where(np.abs(om.d0) < 1, _dbar_pre_kernel(om.d0, om.d1), np.nan)

    return as_field(formula)


def dbar_schwarzian_field(f: LogHarmonicMap):
    """Vectorized z -> d/dzbar S_f(z); non-evaluable points come back NaN."""
    c = origin_exponent(f)

    def formula(z):
        omega, G, H = _array_local(f, z, c, 3)
        v = _dbar_schwarzian_kernel(omega.d0, omega.d1, omega.d2, _phi_logderiv(G, H))
        return np.where(np.abs(omega.d0) < 1, v, np.nan)

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
        omega, G, H = _raw_local(f, z, 0j, 2)  # m = 0, so c = 0
        return _hg_kernel(eps, omega.d0, omega.d1, G.d0, G.d1, H.d0, H.d1)

    return as_field(formula)
