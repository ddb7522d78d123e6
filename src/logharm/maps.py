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

Each operator is one formula of z, evaluated two ways.  Its field
(`pre_schwarzian_field`, ...) lifts the formula to whole arrays and
leaves NaN where a value is not finite; its scalar operator
(`pre_schwarzian`, ...) runs the same formula on one Python complex and
raises exactly there, with a typed error (PoleEncountered,
DegenerateDenominator, NotSensePreserving, CriticalPoint) that one cause
table picks, in a fixed order, only after the value has failed.  The map
itself is f = A conj(B) with A = z^a h and B = z^b g (`_value`):
`map_value` is A conj(B) for scalars and arrays alike, inf where h or g
overflows, and `wirtinger` is the scalar operator of
(A' conj(B), A conj(B'), A conj(B)).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    CriticalPoint,
    DegenerateDenominator,
    EvaluationError,
    NotSensePreserving,
    PoleEncountered,
)
from .expr import Expr, eval_jet, held_half, parse, real_coefficients
from .jets import Jet, zpow_jet

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
        if not cmath.isfinite(beta):
            raise ValueError(f"beta must be finite, got {beta}")
        if beta.real <= -0.5:
            raise ValueError(f"Re(beta) must exceed -1/2, got {beta}")
        with np.errstate(all="ignore"):  # an overflow reads inf, not a warning
            hj = eval_jet(self.h, 0j, order=1)
            g0 = complex(eval_jet(self.g, 0j, order=0).d0)
        h0 = complex(hj.d0)
        # abs() is NaN only for a NaN value: an overflow, inf + nan j among
        # them, has abs() inf and stays accepted
        if cmath.isnan(abs(h0)) or cmath.isnan(abs(g0)):
            raise ValueError(f"h(0) and g(0) must not be NaN, got {h0} and {g0}")
        if self.m >= 1:
            if abs(g0 - 1) > 1e-9:
                raise ValueError(f"g(0) must be 1 for m >= 1, got {g0}")
            if abs(h0) <= 1e-9:
                raise ValueError("h(0) must be nonzero for m >= 1")
        else:
            if abs(g0) <= 1e-12:
                raise ValueError("g(0) must be nonzero for m = 0")
            if abs(h0) <= 1e-12 and not abs(complex(hj.d1)) > 1e-12:
                # h may vanish at 0 only simply (local univalence of h), so
                # h'(0) must then be a nonzero number, not NaN
                raise ValueError("h must have h(0) != 0 or h'(0) != 0 for m = 0")

    @classmethod
    def from_strings(cls, m: int, beta, h: str, g: str) -> "LogHarmonicMap":
        return cls(m, complex(beta), parse(h), parse(g))

    @property
    def exponents(self) -> tuple[complex, complex]:
        """(a, b) with f = z^a h conj(z^b g): a = (beta+1) m, b = conj(beta) m."""
        return (self.beta + 1) * self.m, self.beta.conjugate() * self.m


def origin_exponent(f: LogHarmonicMap) -> complex:
    """c in G = z^c g: P_f = c/z + O(1), so f has finite norms iff c == 0."""
    a, b = f.exponents
    return a + b - 1 if f.m else 0j


def _omega_parts(f: LogHarmonicMap, z, hj: Jet, gj: Jet) -> tuple[Jet, Jet]:
    """Numerator and denominator of the dilatation: (b + z g'/g, a + z h'/h),
    or (g' h, h' g) for m = 0, as jets one order below those of h and g."""
    gp, hp = gj.derivative(), hj.derivative()
    if f.m == 0:
        return gp * hj, hp * gj
    a, b = f.exponents
    zj = type(hp).variable(z, hp.order)
    return zj * (gp / gj) + b, a + zj * (hp / hj)


def _omega_jet(f: LogHarmonicMap, z, hj: Jet, gj: Jet) -> Jet:
    """The dilatation; it is regular at the origin even when c != 0.  At one
    point its coefficients are Python complex, because numpy's complex
    division rounds differently and the kernels divide by omega terms."""
    num, den = _omega_parts(f, z, hj, gj)
    om = num / den
    if not isinstance(z, np.ndarray):
        om = type(om)(map(complex, om.coeffs))
    return om


def _omega_from_factors(f: LogHarmonicMap, z, order: int) -> Jet:
    """The dilatation jet, of order ``order - 1``, from h and g of order ``order``."""
    return _omega_jet(f, z, eval_jet(f.h, z, order), eval_jet(f.g, z, order))


def _off_origin(z):
    """z with the disk |z| < ORIGIN_RADIUS replaced by NaN; an array with no
    point there is z itself, so that its jets stay shared (`expr.shared_jets`)."""
    if isinstance(z, np.ndarray):
        near = np.abs(z) < ORIGIN_RADIUS
        return np.where(near, np.nan + 1j * np.nan, z) if near.any() else z
    return complex(np.nan, np.nan) if abs(z) < ORIGIN_RADIUS else z


def _raw_local(f: LogHarmonicMap, z, order: int = 3):
    """(omega_jet, G_jet, H_jet) at z, with c = origin_exponent(f), as jets
    of order ``order - 1`` from h and g of order ``order``.  Order 1 is all
    J_f reads, order 2 all P_f reads, order 3 adds S_f's second derivatives.
    Above order 1 they are derivative data, NaN near the origin when c != 0."""
    c = origin_exponent(f)
    if c != 0 and order > 1:
        z = _off_origin(z)
    hj = eval_jet(f.h, z, order)
    gj = eval_jet(f.g, z, order)
    omega = _omega_jet(f, z, hj, gj)
    if f.m == 0:
        return omega, gj.truncate(order - 1), hj.derivative()
    a, _ = f.exponents
    H = type(hj).variable(z, order - 1) * hj.derivative() + a * hj
    G = type(gj)(zpow_jet(z, c, order - 1).coeffs) * gj
    return omega, G, H


# -- closed forms ----------------------------------------------------------
# The terms below are shared by several operators.  Each operator's formula
# `_<operator>(f, z)` is written once, further down, with its closed form in
# its docstring: its field is `as_field(partial(formula, f), ...)` and its scalar
# operator `_at(formula, f, z)`.


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
    """conj(w) w' / (1 - |w|^2), the dilatation's term of P_f."""
    return w0.conjugate() * w1 / (1 - abs(w0) ** 2)


# -- one point and whole arrays -------------------------------------------

# a formula fails by raising one of these: a division by a scalar zero, an
# overflow in Python complex or float arithmetic (abs, **), or a jet's pole
_FAILURES = (ZeroDivisionError, OverflowError, PoleEncountered)


# points per formula call in a field: a complex array of 8192 points is
# 128 KiB, below numpy's 256 KiB threshold for eliding a temporary into an
# in-place operation that rounds differently, and small enough to stay in cache
_CHUNK_POINTS = 8192


def _unfold(v, n: int, real: bool):
    """The values on n columns from those v on columns 0..n/2 of a mirrored
    block: column n - j is the conjugate of column j, or its copy for a real
    field."""
    h = n // 2
    out = np.empty((v.shape[0], n), v.dtype)
    out[:, : h + 1] = v
    if real:
        out[:, h + 1 :] = v[:, h - 1 : 0 : -1]
    else:
        np.conjugate(v[:, h - 1 : 0 : -1], out=out[:, h + 1 :])
    return out


def _real_data(f: LogHarmonicMap, eps: complex = 0j) -> bool:
    """True when f's exponents (so beta, unless m = 0), eps and h and g have
    real coefficients (``expr.real_coefficients``), so that each field F of
    f, or of its h g^eps member, has F(conj z) = conj F(z)."""
    a, b = f.exponents
    return a.imag == b.imag == complex(eps).imag == 0 and real_coefficients(f.h, f.g)


def as_field(formula, real: bool = False, conjugate: bool = False):
    """Lift an array formula to a field: the one place that decides shape,
    warnings, NaN and the working set.

    The field takes any complex array z and returns formula(z) with the shape
    of z, without numpy warnings, and NaN wherever a value is not finite:
    nan+nanj for complex fields, nan for real margins (``real=True``).  Jet
    coefficients that do not depend on z stay scalars inside the formula and
    are broadcast here.  A raise from ``_FAILURES`` can only come from such a
    scalar coefficient, so it makes the whole field NaN.

    ``conjugate`` declares that formula(conj z) = conj formula(z), for a
    field whose data have real coefficients (`_real_data`,
    ``expr.real_coefficients``); the field constructor decides it from its
    inputs.  Such a field, given the block that `expr.shared_jets` holds
    with its mirrored half (``expr.held_half``, as `norms.level_walk` holds
    the blocks of its rings of even size), runs the formula only on that
    half, columns 0..n/2, and fills the other columns by conjugation, or by
    copying for a real margin.  Every other field, and every other z, is
    evaluated whole.  The fields of a sweep read the same half object, so
    they still share its jets.

    On both paths a zero part is written as +0 before the NaN mask, so a
    point's bits do not depend on whether it was computed or mirrored:
    conjugation flips the sign of a zero imaginary part, and the formula's
    own zeros may carry either sign.

    More than ``_CHUNK_POINTS`` points are evaluated in consecutive chunks of
    that many points of the flattened z.  No temporary inside a formula is
    then large enough for numpy to elide, so every point's value is the same
    bits however many points the field is called on, and a formula's
    temporaries stay in cache.
    """
    dtype, nan = (float, np.nan) if real else (complex, np.nan + 1j * np.nan)

    def raw(z):
        try:
            v = np.asarray(formula(z), dtype=dtype)
        except _FAILURES:
            v = np.asarray(nan)
        return v if v.shape == z.shape else np.broadcast_to(v, z.shape)

    def finish(v):
        v = v + 0.0  # -0 parts become +0
        return np.where(np.isfinite(v), v, nan)

    def chunked(z, done):
        if z.size <= _CHUNK_POINTS:
            return done(raw(z))
        flat = z.ravel()
        out = np.empty(flat.shape, dtype)
        for i in range(0, flat.size, _CHUNK_POINTS):
            out[i : i + _CHUNK_POINTS] = done(raw(flat[i : i + _CHUNK_POINTS]))
        return out.reshape(z.shape)

    def field(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            half = held_half(z) if conjugate else None
            if half is None:
                return chunked(z, finish)
            return finish(_unfold(chunked(half, np.asarray), z.shape[1], real))

    return field


def _cause(
    f: LogHarmonicMap, z: complex, origin: bool = False, sense: bool = False, eps=None
) -> EvaluationError:
    """Why an operator of f failed at z: the first of these that holds.

    - ``origin`` (derivative operators): |z| < ORIGIN_RADIUS while c != 0;
    - a pole of h or g at z, or a zero of either when m >= 1;
    - a vanishing dilatation denominator;
    - ``sense``: |omega| >= 1;
    - ``eps`` (the h g^eps member): 1 + eps*omega = 0;
    - otherwise a pole at z, such as an overflow.
    """
    if origin and origin_exponent(f) != 0 and abs(z) < ORIGIN_RADIUS:
        return PoleEncountered("derivative data needs |z| >= 1e-8 when c != 0", point=z)
    try:
        num, den = _omega_parts(f, z, eval_jet(f.h, z, 1), eval_jet(f.g, z, 1))
    except PoleEncountered as exc:
        return exc if exc.point is not None else PoleEncountered(str(exc), point=z)
    if den.d0 == 0:
        what = "h' g" if f.m == 0 else "(beta+1)m + z h'/h"
        return DegenerateDenominator(f"{what} vanished", point=z)
    w0 = num.d0 / den.d0
    if sense and np.abs(w0) >= 1:
        return NotSensePreserving(point=z, modulus=float(np.abs(w0)))
    if eps is not None and 1 + eps * w0 == 0:
        return DegenerateDenominator("1 + eps*omega vanished", point=z)
    return PoleEncountered("non-finite value", point=z)


def _expr_cause(e: Expr, z: complex) -> EvaluationError:
    """Why an operator of the analytic expression e failed at z: a pole of e,
    else a critical point (e'(z) = 0), else a pole at z."""
    try:
        d1 = eval_jet(e, z, 1).d1
    except PoleEncountered as exc:
        return exc
    if d1 == 0:
        return CriticalPoint("derivative vanishes", point=z)
    return PoleEncountered("non-finite value", point=z)


def _at(formula, target, z: complex, cause=_cause, **flags):
    """formula(target, z) at one Python complex z, by as_field's rule: a
    value that is not finite, or a raise from ``_FAILURES``, fails, and
    only then is ``cause(target, z, **flags)`` consulted for the typed
    error to raise."""
    z = complex(z)
    with np.errstate(all="ignore"):
        try:
            v = formula(target, z)
            if all(map(cmath.isfinite, v if isinstance(v, tuple) else (v,))):
                return v
        except _FAILURES:
            pass
        raise cause(target, z, **flags)


# -- the operators: formula, scalar operator, field -----------------------


def _dilatation(f: LogHarmonicMap, z):
    return _omega_from_factors(f, z, 1).d0


def dilatation(f: LogHarmonicMap, z: complex) -> complex:
    """omega(z); b/a at the origin when m >= 1."""
    return complex(_at(_dilatation, f, z))


def dilatation_field(f: LogHarmonicMap):
    """Vectorized z -> omega(z), b/a at the origin; NaN only where the
    dilatation itself is not finite."""
    return as_field(partial(_dilatation, f), conjugate=_real_data(f))


def _jacobian(f: LogHarmonicMap, z):
    omega, G, H = _raw_local(f, z, 1)
    return abs(H.d0 * G.d0) ** 2 * (1 - abs(omega.d0) ** 2)


def jacobian(f: LogHarmonicMap, z: complex) -> float:
    """|f_z|^2 - |f_zbar|^2 = |H G|^2 (1 - |omega|^2); positive iff
    sense-preserving and locally univalent at z."""
    return float(_at(_jacobian, f, z))


def _value(f: LogHarmonicMap, z, order: int) -> tuple[Jet, Jet]:
    """Jets of A = z^a h and B = z^b g, so f = A conj(B), f_z = A' conj(B)
    and f_zbar = A conj(B').  A zero exponent (both when m = 0) multiplies
    by nothing, so no factor 1 turns an overflow's inf into NaN."""
    A, B = eval_jet(f.h, z, order), eval_jet(f.g, z, order)
    a, b = f.exponents
    if a != 0:
        A = type(A)(zpow_jet(z, a, order).coeffs) * A
    if b != 0:
        B = type(B)(zpow_jet(z, b, order).coeffs) * B
    return A, B


def map_value(f: LogHarmonicMap, z):
    """f(z) itself, left inf where h or g overflows and NaN where it is
    otherwise undefined.  Accepts arrays, and then returns a new array shaped
    like z.  The origin maps to 0 whenever m >= 1: |f| = |z|^Re(a+b) |h g| and
    Re(a + b) = (2 Re beta + 1) m > 0, though z^b may have a pole there."""
    array = isinstance(z, np.ndarray)
    if not array:
        z = complex(z)
        if f.m and z == 0:
            return 0j
    with np.errstate(all="ignore"):
        A, B = _value(f, z, 0)
        conj_b = B.d0.conjugate()  # a named operand, which numpy never elides
        v = A.d0 * conj_b
        # an infinite factor such as z^a (inf+0j) = inf+nanj can leave the
        # product NaN in both parts
        nan = np.isnan(v)
        if nan.any():
            v = np.where(nan & (np.isinf(A.d0) | np.isinf(B.d0)), np.inf, v)
    if not array:
        return complex(v)
    if f.m:
        v = np.where(z == 0, 0j, v)
    return v if np.shape(v) == z.shape else np.full(z.shape, v)  # constant h and g


def _wirtinger(f: LogHarmonicMap, z):
    A, B = _value(f, z, 1)
    conj_b = B.d0.conjugate()
    return A.d1 * conj_b, A.d0 * B.d1.conjugate(), A.d0 * conj_b


def wirtinger(f: LogHarmonicMap, z: complex) -> tuple[complex, complex, complex]:
    """(f_z, f_zbar, f(z)).  Satisfies |f_z|^2 - |f_zbar|^2 = jacobian(f, z)."""
    return tuple(map(complex, _at(_wirtinger, f, z)))


def _pre(f: LogHarmonicMap, z):
    """P_f = G'/G + H'/H - conj(w) w' / (1 - |w|^2)."""
    omega, G, H = _raw_local(f, z, 2)
    p = _phi_logderiv(G, H) - _sigma(omega.d0, omega.d1)
    return np.where(np.abs(omega.d0) < 1, p, np.nan)


def pre_schwarzian(f: LogHarmonicMap, z: complex) -> complex:
    """P_f = d/dz log J_f, via the closed form G'/G + H'/H - conj(w)w'/(1-|w|^2)."""
    return complex(_at(_pre, f, z, origin=True, sense=True))


def pre_schwarzian_field(f: LogHarmonicMap):
    """Vectorized z -> P_f(z); non-evaluable points come back NaN."""
    return as_field(partial(_pre, f), conjugate=_real_data(f))


def _phi(f: LogHarmonicMap, z):
    _, G, H = _raw_local(f, z, 3)
    return _phi_logderiv(G, H), _phi_schwarzian(G, H)


def phi_family(f: LogHarmonicMap, z: complex) -> tuple[complex, complex]:
    """(P, S) of the analytic function with derivative H*G (never integrated)."""
    p, s = _at(_phi, f, z, origin=True)
    return complex(p), complex(s)


def _schwarzian(f: LogHarmonicMap, z):
    """S_f = S_phi - (3/2) sigma^2 + conj(w) (w' P_phi - w'') / (1 - |w|^2)."""
    omega, G, H = _raw_local(f, z, 3)
    w0, w1, w2 = omega.d0, omega.d1, omega.d2
    p_phi, s_phi = _phi_logderiv(G, H), _phi_schwarzian(G, H)
    denom = 1 - abs(w0) ** 2
    s = s_phi - 1.5 * _sigma(w0, w1) ** 2 + (w0.conjugate() / denom) * (w1 * p_phi - w2)
    return np.where(np.abs(w0) < 1, s, np.nan)


def schwarzian(f: LogHarmonicMap, z: complex) -> complex:
    """S_f = dP_f/dz - P_f^2 / 2, in closed form."""
    return complex(_at(_schwarzian, f, z, origin=True, sense=True))


def schwarzian_field(f: LogHarmonicMap):
    """Vectorized z -> S_f(z); non-evaluable points come back NaN."""
    return as_field(partial(_schwarzian, f), conjugate=_real_data(f))


def _dbar_pre(f: LogHarmonicMap, z):
    """d/dzbar P_f = -|w'|^2 / (1 - |w|^2)^2."""
    om = _omega_from_factors(f, z, 2)
    v = -abs(om.d1) ** 2 / (1 - abs(om.d0) ** 2) ** 2
    return np.where(np.abs(om.d0) < 1, v, np.nan)


def dbar_pre_schwarzian(f: LogHarmonicMap, z: complex) -> complex:
    """d/dzbar of P_f: always -|omega'|^2 / (1-|omega|^2)^2, real and <= 0.

    Needs only the dilatation jet, so it is evaluable at the origin for
    every m (the other derivative operators only when c == 0).
    """
    return complex(_at(_dbar_pre, f, z, sense=True))


def dbar_pre_schwarzian_field(f: LogHarmonicMap):
    """Vectorized z -> d/dzbar P_f(z): regular at the origin for every m,
    NaN where |omega| >= 1."""
    return as_field(partial(_dbar_pre, f), conjugate=_real_data(f))


def _dbar_schwarzian(f: LogHarmonicMap, z):
    """d/dzbar S_f = conj(w') ((w' P_phi - w'') / (1 - |w|^2)^2
    - 3 w'^2 conj(w) / (1 - |w|^2)^3)."""
    omega, G, H = _raw_local(f, z, 3)
    w0, w1, w2 = omega.d0, omega.d1, omega.d2
    p_phi = _phi_logderiv(G, H)
    denom = 1 - abs(w0) ** 2
    v = w1.conjugate() * (
        (w1 * p_phi - w2) / denom ** 2 - 3 * w1 ** 2 * w0.conjugate() / denom ** 3
    )
    return np.where(np.abs(w0) < 1, v, np.nan)


def dbar_schwarzian(f: LogHarmonicMap, z: complex) -> complex:
    """d/dzbar of S_f in closed form (vanishes iff omega is constant)."""
    return complex(_at(_dbar_schwarzian, f, z, origin=True, sense=True))


def dbar_schwarzian_field(f: LogHarmonicMap):
    """Vectorized z -> d/dzbar S_f(z); non-evaluable points come back NaN."""
    return as_field(partial(_dbar_schwarzian, f), conjugate=_real_data(f))


# -- analytic specializations --------------------------------------------


def _analytic_pre(e: Expr, z):
    """e''/e'."""
    j = eval_jet(e, z, order=2)
    return j.d2 / j.d1


def analytic_pre_schwarzian(e: Expr, z: complex) -> complex:
    """e''/e' for an analytic expression."""
    return complex(_at(_analytic_pre, e, z, _expr_cause))


def analytic_pre_schwarzian_field(e: Expr):
    return as_field(partial(_analytic_pre, e), conjugate=real_coefficients(e))


def _analytic_schwarzian(e: Expr, z):
    """e'''/e' - (3/2)(e''/e')^2."""
    j = eval_jet(e, z, order=3)
    d1 = j.d1
    return j.d3 / d1 - 1.5 * (j.d2 / d1) ** 2


def analytic_schwarzian(e: Expr, z: complex) -> complex:
    """e'''/e' - (3/2)(e''/e')^2 for an analytic expression."""
    return complex(_at(_analytic_schwarzian, e, z, _expr_cause))


def analytic_schwarzian_field(e: Expr):
    return as_field(partial(_analytic_schwarzian, e), conjugate=real_coefficients(e))


def _hg(f: LogHarmonicMap, z, eps: complex):
    """h''/h' + g'/g + (eps-1) g'/g + eps w' / (1 + eps w), for m = 0."""
    omega, G, H = _raw_local(f, z, 2)  # m = 0, so G = g and H = h'
    logg = G.d1 / G.d0
    return H.d1 / H.d0 + logg + (eps - 1) * logg + eps * omega.d1 / (1 + eps * omega.d0)


def hg_epsilon_pre_schwarzian(f: LogHarmonicMap, eps: complex, z: complex) -> complex:
    """Pre-Schwarzian of the analytic family member h * g^eps (m = 0 only).

    Closed form h''/h' + g'/g + (eps-1) g'/g + eps omega'/(1 + eps omega);
    for eps = 1 this is the pre-Schwarzian of h*g, for eps = -1 of h/g.
    """
    if f.m != 0:
        raise ValueError("the h g^eps family is defined for m = 0 mappings")
    eps = complex(eps)
    return complex(_at(partial(_hg, eps=eps), f, z, eps=eps))


def hg_epsilon_field(f: LogHarmonicMap, eps: complex):
    """Vectorized pre-Schwarzian of h * g^eps (m = 0)."""
    if f.m != 0:
        raise ValueError("the h g^eps family is defined for m = 0 mappings")
    eps = complex(eps)
    return as_field(partial(_hg, f, eps=eps), conjugate=_real_data(f, eps))


def compose_with_analytic(f: LogHarmonicMap, psi: Expr, z: complex) -> complex:
    """P of f o psi at z (m = 0), by the chain rule (P_f o psi) psi' + psi''/psi'."""
    if f.m != 0:
        raise ValueError("composition is supported for m = 0 mappings")
    z = complex(z)
    psi_pre = analytic_pre_schwarzian(psi, z)  # CriticalPoint where psi' vanishes
    pj = eval_jet(psi, z, order=1)
    w = complex(pj.d0)
    if abs(w) >= 1:
        raise ValueError(f"psi(z) = {w} leaves the unit disk")
    return pre_schwarzian(f, w) * complex(pj.d1) + psi_pre
