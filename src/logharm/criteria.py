"""Sampled univalence and starlikeness checks, and norm-gap comparisons.

Every verdict here is a statement about samples, and one rule gives it
(`_report`): pass iff the worst margin is at most the slack, 1e-9 for
pointwise inequalities and 2 * NORM_TOL for comparisons of norm estimates.
A pass certifies the criterion only up to sampling density; a fail carries
a concrete witness point whose margin reproduces on re-evaluation.  A
check is inconclusive when the norm of f diverges or its hypothesis fails.
A check walks the grid only for the numbers it reports and builds its
whole report itself: norm-bound reads its hypothesis from one walk of the
eps = 1 margin and leaves the Becker corroboration to eps-univalence.
Docs and report text avoid claiming more: sampling can refute a sup bound
but cannot prove one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ZeroEncountered
from .expr import Div, Expr, Lit, Mul, Pow, Var, eval_jet, real_coefficients, unparse
from .maps import (
    LogHarmonicMap,
    _phi_logderiv,
    _raw_local,
    _real_data,
    _sigma,
    analytic_pre_schwarzian_field,
    as_field,
    analytic_schwarzian_field,
    hg_epsilon_field,
)
from .norms import (
    _INNER_RADIUS,
    GridSpec,
    Sup,
    bloch_log_sup,
    level_walk,
    pre_schwarzian_norm,
    pre_schwarzian_sup,
    weighted_sup,
    weighted_sups,
)

# additive slack for pointwise inequalities
SAMPLE_SLACK = 1e-9
# accepted drift of a norm estimate from its true sup on the default grids
NORM_TOL = 0.01
_DIVERGED = "pre-Schwarzian norm diverges at the origin factor"


@dataclass(frozen=True)
class CheckReport:
    verdict: str  # "pass" | "fail" | "inconclusive"
    worst_point: complex
    worst_margin: float
    samples: int
    detail: str = ""
    extras: dict = dc_field(default_factory=dict)


def _report(margin, point, samples, passed_detail, failed_detail, extras, slack=SAMPLE_SLACK):
    """The one verdict rule: pass iff the worst margin is at most the slack."""
    ok = margin <= slack
    detail = passed_detail if ok else failed_detail
    return CheckReport("pass" if ok else "fail", point, margin, samples, detail, extras)


def _inconclusive(point, samples, detail, extras) -> CheckReport:
    """A check whose hypothesis fails or whose norm diverges claims nothing."""
    return CheckReport("inconclusive", point, math.nan, samples, detail, extras)


def _worst_margin(margin_field, grid: GridSpec | None, inner: float = 0.0, *others):
    """(worst margin, witness, samples, failed) of a real margin field,
    followed by the max of each real field of ``others``, from one walk.

    The margin is re-evaluated at the witness; that re-evaluation pins the
    reported margin to its witness and is the certificate of a fail.
    """
    walk, *maxima = level_walk(
        [lambda r, zs, fld=fld: fld(zs) for fld in (margin_field, *others)],
        grid or GridSpec(), inner,
    )
    re_eval = float(margin_field(np.array([walk.point]))[0])
    worst = re_eval if math.isfinite(re_eval) else walk.value
    return (worst, walk.point, walk.samples, walk.failed, *(w.value for w in maxima))


# -- pointwise univalence criteria ---------------------------------------


def _sup_check(field, weight_power: int, bound: float, grid, failed_detail: str) -> CheckReport:
    """Sampled sup (1 - |z|^2)^weight_power |field| <= bound."""
    est = weighted_sup(field, weight_power, grid)
    return _report(
        est.value - bound, est.argmax, est.samples, "criterion satisfied (sampled)",
        failed_detail, {"sup": est.value, "failed_samples": est.failed_samples},
    )


def becker_check(e: Expr, grid: GridSpec | None = None) -> CheckReport:
    """Sampled test of sup (1 - |z|^2) |z e''(z)/e'(z)| <= 1.

    Passing certifies the univalence criterion up to sampling density; a
    fail means the criterion is violated, which says nothing about
    univalence itself (the bound is sufficient, not necessary).
    """
    pf = analytic_pre_schwarzian_field(e)
    return _sup_check(
        lambda z: z * pf(z), 1, 1.0, grid,
        "criterion violated at witness; univalence itself undecided",
    )


def nehari_check(e: Expr, grid: GridSpec | None = None) -> CheckReport:
    """Optional classical check: sup (1 - |z|^2)^2 |S_e| <= 2, sampled.

    Included for diagnostics only; a pass certifies the inequality on the
    sample set, not univalence.
    """
    return _sup_check(analytic_schwarzian_field(e), 2, 2.0, grid, "criterion violated at witness")


def schwarz_pick_check(omega: Expr, grid: GridSpec | None = None) -> CheckReport:
    """Sampled |omega'| <= (1 - |omega|^2)/(1 - |z|^2) for a disk self-map.

    ``max_modulus`` is the max of |omega| over the same walk, which shares
    omega's jets with the margin."""
    conjugate = real_coefficients(omega)

    def margin(z):
        j = eval_jet(omega, z, order=1)
        return np.abs(j.d1) * (1.0 - np.abs(z) ** 2) - (1.0 - np.abs(j.d0) ** 2)

    def modulus(z):
        return np.abs(eval_jet(omega, z, order=0).d0)

    worst, point, total, failed, max_mod = _worst_margin(
        as_field(margin, real=True, conjugate=conjugate), grid, 0.0,
        as_field(modulus, real=True, conjugate=conjugate),
    )
    return _report(
        worst, point, total, "inequality holds at all samples",
        "violated; the map is not a disk self-map at the witness" if max_mod >= 1
        else "violated at witness",
        {"max_modulus": max_mod, "failed_samples": failed},
    )


# -- the h g^eps family --------------------------------------------------


def _a5_margin_field(f: LogHarmonicMap, eps: complex):
    if f.m != 0:
        raise ValueError("the h g^eps criterion applies to m = 0 mappings")
    one_minus = abs(1 - eps)

    def margin(z):
        omega, G, H = _raw_local(f, z, 2)
        w0, w1 = omega.d0, omega.d1
        pf = _phi_logderiv(G, H) - _sigma(w0, w1)
        lhs = (
            np.abs(z * pf)
            + one_minus * np.abs(z * (G.d1 / G.d0))
            + np.abs(z * w1) / (1.0 - np.abs(w0) ** 2)
        )
        m = (1.0 - np.abs(z) ** 2) * lhs - 1.0
        return np.where(np.abs(w0) < 1, m, np.nan)

    return as_field(margin, real=True, conjugate=_real_data(f, eps))


def hg_epsilon_univalence_check(
    f: LogHarmonicMap, eps: complex, grid: GridSpec | None = None
) -> CheckReport:
    """Three-term sampled criterion for univalence of h g^eps (m = 0).

    Tests (1-|z|^2)(|z P_f| + |1-eps||z g'/g| + |z omega'|/(1-|omega|^2))
    <= 1 at every sample.  A pass reports the family member as univalent
    up to sampling; the conclusion concerns h g^eps, not f itself.  A
    Becker check of the member expression is attached for corroboration.
    """
    eps = complex(eps)
    worst, point, total, failed = _worst_margin(_a5_margin_field(f, eps), grid)
    corroboration = becker_check(Mul(f.h, Pow(f.g, Lit(eps))), grid)
    return _report(
        worst, point, total, "h g^eps univalence criterion satisfied (sampled)",
        "criterion violated at witness; h g^eps univalence undecided",
        {
            "eps": eps,
            "failed_samples": failed,
            "becker_verdict": corroboration.verdict,
            "becker_sup": corroboration.extras["sup"],
        },
    )


# -- norm-gap comparisons ------------------------------------------------


def norm_gap_check(f: LogHarmonicMap, grid: GridSpec | None = None) -> CheckReport:
    """|norm(P_f) - norm(P_{hg})| against the bound 1."""
    est_f, est_hg = weighted_sups(
        [pre_schwarzian_sup(f), Sup(analytic_pre_schwarzian_field(Mul(f.h, f.g)), 1)], grid
    )
    samples = est_f.samples + est_hg.samples
    if est_f.diverged:
        return _inconclusive(
            est_f.argmax, samples, _DIVERGED,
            {"norm_f": est_f.value, "norm_product": est_hg.value},
        )
    gap = abs(est_f.value - est_hg.value)
    detail = f"gap {gap:.6f} vs bound 1"
    return _report(
        gap - 1.0, est_f.argmax, samples, detail, detail,
        {"gap": gap, "norm_f": est_f.value, "norm_product": est_hg.value},
        slack=2 * NORM_TOL,
    )


def epsilon_norm_gap_check(
    f: LogHarmonicMap, eps: complex, grid: GridSpec | None = None
) -> CheckReport:
    """|norm(P_f) - norm(P_{h g^eps})| against 1 + |1-eps| b, b the Bloch
    seminorm of log g; the weaker bound 1 + 2b is reported alongside."""
    eps = complex(eps)
    member = hg_epsilon_field(f, eps)  # raises for m >= 1, before any sweep
    est_f, est_member, est_bloch = weighted_sups(
        [pre_schwarzian_sup(f), Sup(member, 1), bloch_log_sup(f.g)], grid
    )
    beta = est_bloch.value
    bound = 1.0 + abs(1 - eps) * beta
    weak_bound = 1.0 + 2.0 * beta
    samples = est_f.samples + est_member.samples
    gap = abs(est_f.value - est_member.value)
    detail = f"gap {gap:.6f} vs bound {bound:.6f} (weak bound {weak_bound:.6f})"
    return _report(
        gap - bound, est_f.argmax, samples, detail, detail,
        {
            "eps": eps,
            "gap": gap,
            "norm_f": est_f.value,
            "norm_member": est_member.value,
            "bloch_log_g": beta,
            "bound": bound,
            "weak_bound": weak_bound,
        },
        slack=2 * NORM_TOL,
    )


def pre_schwarzian_bound_check(
    f: LogHarmonicMap, grid: GridSpec | None = None
) -> CheckReport:
    """norm(P_f) <= 7 whenever the eps = 1 family criterion holds.

    The hypothesis is one walk of the eps = 1 margin; inconclusive when it
    fails: the bound is then not claimed.
    """
    margin, point, samples, _ = _worst_margin(_a5_margin_field(f, 1 + 0j), grid)
    if not margin <= SAMPLE_SLACK:
        return _inconclusive(
            point, samples, "hypothesis fails at witness; the bound is not claimed",
            {"hypothesis_margin": margin},
        )
    est = pre_schwarzian_norm(f, grid)
    detail = f"norm estimate {est.value:.6f} vs bound 7"
    return _report(
        est.value - 7.0, est.argmax, samples + est.samples, detail, detail,
        {"norm_f": est.value, "hypothesis_margin": margin},
        slack=2 * NORM_TOL,
    )


# -- starlikeness --------------------------------------------------------


def _starlike_margin_field(f: LogHarmonicMap):
    a, b = f.exponents

    def margin(z):
        hj = eval_jet(f.h, z, order=1)
        gj = eval_jet(f.g, z, order=1)
        small = np.fmin(np.abs(hj.d0), np.abs(gj.d0))
        if np.any(small < 1e-12):
            # the witness is the smallest value on the first level (row of a
            # level block) that holds a zero, whatever the block size
            rows = small.reshape(-1, z.shape[-1])
            i = int(np.argmax(np.any(rows < 1e-12, axis=1)))
            k = int(np.nanargmin(rows[i]))
            raise ZeroEncountered(
                "the map vanishes away from the origin",
                point=complex(z.reshape(rows.shape)[i, k]),
            )
        val = a + z * hj.d1 / hj.d0 - np.conj(b + z * gj.d1 / gj.d0)
        return -np.real(val)

    return as_field(margin, real=True, conjugate=_real_data(f))


def starlike_check(f: LogHarmonicMap, grid: GridSpec | None = None) -> CheckReport:
    """Sampled positivity of Re((z f_z - conj(z) f_zbar)/f) off the origin.

    Uses the cancellation-free closed form a + z h'/h - conj(b + z g'/g),
    (a, b) = f.exponents; the direct Wirtinger quotient is exercised as a
    cross-check in the test suite.
    """
    worst, point, total, failed = _worst_margin(_starlike_margin_field(f), grid, _INNER_RADIUS)
    return _report(
        worst, point, total, "functional positive at all samples",
        "functional nonpositive at witness", {"failed_samples": failed},
    )


def associated_starlike(
    f: LogHarmonicMap, grid: GridSpec | None = None
) -> tuple[Expr, CheckReport]:
    """The analytic companion z h/g of a vanishing map, with its
    starlikeness report.

    Returns the expression phi = z h(z)/g(z) and a sampled check of
    Re(z phi'/phi) > 0, computed as 1 + z h'/h - z g'/g; the report's
    ``companion`` extra is phi as text.
    """
    if f.m < 1:
        raise ValueError("the companion construction needs m >= 1")
    phi = Div(Mul(Var(), f.h), f.g)

    def margin(z):
        hj = eval_jet(f.h, z, order=1)
        gj = eval_jet(f.g, z, order=1)
        return -np.real(1.0 + z * hj.d1 / hj.d0 - z * gj.d1 / gj.d0)

    field = as_field(margin, real=True, conjugate=real_coefficients(f.h, f.g))
    worst, point, total, failed = _worst_margin(field, grid, _INNER_RADIUS)
    return phi, _report(
        worst, point, total, "companion is starlike at all samples",
        "companion functional nonpositive at witness",
        {"failed_samples": failed, "companion": unparse(phi)},
    )
