"""Sampled univalence and starlikeness checks, and norm-gap comparisons.

Every verdict here is a statement about samples.  A pass means the tested
inequality held (within additive slack 1e-9) at every grid sample, which
certifies the criterion only up to sampling density; a fail carries a
concrete witness point whose margin reproduces on re-evaluation.  Docs and
report text avoid claiming more: sampling can refute a sup bound but
cannot prove one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ZeroEncountered
from .expr import Div, Expr, Lit, Mul, Pow, Var, eval_jet
from .maps import (
    LogHarmonicMap,
    _phi_logderiv,
    _pre_kernel,
    _raw_local,
    analytic_pre_schwarzian_field,
    analytic_schwarzian_field,
    hg_epsilon_field,
)
from .norms import GridSpec, bloch_norm_log, level_walk, pre_schwarzian_norm, weighted_sup

# additive slack for pointwise inequalities
SAMPLE_SLACK = 1e-9
# accepted drift of a norm estimate from its true sup on the default grids
NORM_TOL = 0.01
# checks never sample the origin itself
_INNER = 1e-3


@dataclass(frozen=True)
class CheckReport:
    verdict: str  # "pass" | "fail" | "inconclusive"
    worst_point: complex
    worst_margin: float
    samples: int
    detail: str = ""
    extras: dict = dc_field(default_factory=dict)


def _worst_margin(margin_field, grid: GridSpec, inner: float = 0.0):
    """(worst margin, witness, samples, failed) of a real margin field.

    The margin is re-evaluated at the witness; that re-evaluation pins the
    reported margin to its witness and is the certificate of a fail.
    """
    walk = level_walk(lambda r, zs: margin_field(zs), grid, inner)
    re_eval = float(np.asarray(margin_field(np.array([walk.point])), dtype=float)[0])
    worst = re_eval if math.isfinite(re_eval) else walk.value
    return worst, walk.point, walk.samples, walk.failed


def _verdict(margin: float) -> str:
    return "pass" if margin <= SAMPLE_SLACK else "fail"


# -- pointwise univalence criteria ---------------------------------------


def becker_check(e: Expr, grid: GridSpec | None = None) -> CheckReport:
    """Sampled test of sup (1 - |z|^2) |z e''(z)/e'(z)| <= 1.

    Passing certifies the univalence criterion up to sampling density; a
    fail means the criterion is violated, which says nothing about
    univalence itself (the bound is sufficient, not necessary).
    """
    grid = grid or GridSpec()
    pf = analytic_pre_schwarzian_field(e)

    def field(z):
        return z * pf(z)

    est = weighted_sup(field, 1, grid)
    margin = est.value - 1.0
    return CheckReport(
        verdict=_verdict(margin),
        worst_point=est.argmax,
        worst_margin=margin,
        samples=est.samples,
        detail="criterion satisfied (sampled)" if margin <= SAMPLE_SLACK
        else "criterion violated at witness; univalence itself undecided",
        extras={"sup": est.value, "failed_samples": est.failed_samples},
    )


def nehari_check(e: Expr, grid: GridSpec | None = None) -> CheckReport:
    """Optional classical check: sup (1 - |z|^2)^2 |S_e| <= 2, sampled.

    Included for diagnostics only; a pass certifies the inequality on the
    sample set, not univalence.
    """
    grid = grid or GridSpec()
    est = weighted_sup(analytic_schwarzian_field(e), 2, grid)
    margin = est.value - 2.0
    return CheckReport(
        verdict=_verdict(margin),
        worst_point=est.argmax,
        worst_margin=margin,
        samples=est.samples,
        detail="criterion satisfied (sampled)" if margin <= SAMPLE_SLACK
        else "criterion violated at witness",
        extras={"sup": est.value, "failed_samples": est.failed_samples},
    )


def schwarz_pick_check(omega: Expr, grid: GridSpec | None = None) -> CheckReport:
    """Sampled |omega'| <= (1 - |omega|^2)/(1 - |z|^2) for a disk self-map."""
    grid = grid or GridSpec()
    max_mod = [0.0]

    def margin(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            j = eval_jet(omega, z, order=1)
            w0 = np.broadcast_to(np.asarray(j.d0, dtype=complex), z.shape)
            w1 = np.broadcast_to(np.asarray(j.d1, dtype=complex), z.shape)
            m = np.abs(w1) * (1.0 - np.abs(z) ** 2) - (1.0 - np.abs(w0) ** 2)
            mods = np.abs(w0)[np.isfinite(w0)]
            if mods.size:
                max_mod[0] = max(max_mod[0], float(np.max(mods)))
        return np.where(np.isfinite(m), m, np.nan)

    worst, point, total, failed = _worst_margin(margin, grid)
    ok = worst <= SAMPLE_SLACK
    return CheckReport(
        verdict="pass" if ok else "fail",
        worst_point=point,
        worst_margin=worst,
        samples=total,
        detail="inequality holds at all samples" if ok
        else "violated; the map is not a disk self-map at the witness"
        if max_mod[0] >= 1
        else "violated at witness",
        extras={"max_modulus": max_mod[0], "failed_samples": failed},
    )


# -- the h g^eps family --------------------------------------------------


def _a5_margin_field(f: LogHarmonicMap, eps: complex):
    one_minus = abs(1 - eps)

    def margin(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            omega, G, H = _raw_local(f, z)
            w0, w1 = omega.d0, omega.d1
            pf = _pre_kernel(w0, w1, _phi_logderiv(G, H))
            lhs = (
                np.abs(z * pf)
                + one_minus * np.abs(z * (G.d1 / G.d0))
                + np.abs(z * w1) / (1.0 - np.abs(w0) ** 2)
            )
            m = (1.0 - np.abs(z) ** 2) * lhs - 1.0
            m = np.where(np.abs(w0) < 1, m, np.nan)
        return np.where(np.isfinite(m), m, np.nan)

    return margin


def hg_epsilon_univalence_check(
    f: LogHarmonicMap, eps: complex, grid: GridSpec | None = None
) -> CheckReport:
    """Three-term sampled criterion for univalence of h g^eps (m = 0).

    Tests (1-|z|^2)(|z P_f| + |1-eps||z g'/g| + |z omega'|/(1-|omega|^2))
    <= 1 at every sample.  A pass reports the family member as univalent
    up to sampling; the conclusion concerns h g^eps, not f itself.  A
    Becker check of the member expression is attached for corroboration.
    """
    if f.m != 0:
        raise ValueError("the h g^eps criterion applies to m = 0 mappings")
    grid = grid or GridSpec()
    eps = complex(eps)
    worst, point, total, failed = _worst_margin(_a5_margin_field(f, eps), grid)
    member = Mul(f.h, Pow(f.g, Lit(eps)))
    corroboration = becker_check(member, grid)
    ok = worst <= SAMPLE_SLACK
    return CheckReport(
        verdict="pass" if ok else "fail",
        worst_point=point,
        worst_margin=worst,
        samples=total,
        detail="h g^eps univalence criterion satisfied (sampled)" if ok
        else "criterion violated at witness; h g^eps univalence undecided",
        extras={
            "eps": eps,
            "failed_samples": failed,
            "becker_verdict": corroboration.verdict,
            "becker_sup": corroboration.extras["sup"],
        },
    )


# -- norm-gap comparisons ------------------------------------------------


def norm_gap_check(f: LogHarmonicMap, grid: GridSpec | None = None) -> CheckReport:
    """|norm(P_f) - norm(P_{hg})| against the bound 1."""
    grid = grid or GridSpec()
    est_f = pre_schwarzian_norm(f, grid)
    est_hg = weighted_sup(analytic_pre_schwarzian_field(Mul(f.h, f.g)), 1, grid)
    if est_f.diverged:
        return CheckReport(
            verdict="inconclusive",
            worst_point=est_f.argmax,
            worst_margin=math.nan,
            samples=est_f.samples + est_hg.samples,
            detail="pre-Schwarzian norm diverges at the origin factor",
            extras={"norm_f": est_f.value, "norm_product": est_hg.value},
        )
    gap = abs(est_f.value - est_hg.value)
    margin = gap - 1.0
    ok = margin <= 2 * NORM_TOL
    return CheckReport(
        verdict="pass" if ok else "fail",
        worst_point=est_f.argmax,
        worst_margin=margin,
        samples=est_f.samples + est_hg.samples,
        detail=f"gap {gap:.6f} vs bound 1",
        extras={"gap": gap, "norm_f": est_f.value, "norm_product": est_hg.value},
    )


def epsilon_norm_gap_check(
    f: LogHarmonicMap, eps: complex, grid: GridSpec | None = None
) -> CheckReport:
    """|norm(P_f) - norm(P_{h g^eps})| against 1 + |1-eps| b, b the Bloch
    seminorm of log g; the weaker bound 1 + 2b is reported alongside."""
    grid = grid or GridSpec()
    eps = complex(eps)
    est_f = pre_schwarzian_norm(f, grid)
    est_member = weighted_sup(hg_epsilon_field(f, eps), 1, grid)
    beta = bloch_norm_log(f.g, grid).value
    bound = 1.0 + abs(1 - eps) * beta
    weak_bound = 1.0 + 2.0 * beta
    if est_f.diverged:
        return CheckReport(
            verdict="inconclusive",
            worst_point=est_f.argmax,
            worst_margin=math.nan,
            samples=est_f.samples + est_member.samples,
            detail="pre-Schwarzian norm diverges at the origin factor",
            extras={"bloch_log_g": beta, "bound": bound, "weak_bound": weak_bound},
        )
    gap = abs(est_f.value - est_member.value)
    margin = gap - bound
    ok = margin <= 2 * NORM_TOL
    return CheckReport(
        verdict="pass" if ok else "fail",
        worst_point=est_f.argmax,
        worst_margin=margin,
        samples=est_f.samples + est_member.samples,
        detail=f"gap {gap:.6f} vs bound {bound:.6f} (weak bound {weak_bound:.6f})",
        extras={
            "eps": eps,
            "gap": gap,
            "norm_f": est_f.value,
            "norm_member": est_member.value,
            "bloch_log_g": beta,
            "bound": bound,
            "weak_bound": weak_bound,
        },
    )


def pre_schwarzian_bound_check(
    f: LogHarmonicMap, grid: GridSpec | None = None
) -> CheckReport:
    """norm(P_f) <= 7 whenever the eps = 1 family criterion holds.

    Inconclusive when the hypothesis fails: the bound is then not claimed.
    """
    grid = grid or GridSpec()
    hypothesis = hg_epsilon_univalence_check(f, 1, grid)
    if hypothesis.verdict != "pass":
        return CheckReport(
            verdict="inconclusive",
            worst_point=hypothesis.worst_point,
            worst_margin=math.nan,
            samples=hypothesis.samples,
            detail="hypothesis fails at witness; the bound is not claimed",
            extras={"hypothesis_margin": hypothesis.worst_margin},
        )
    est = pre_schwarzian_norm(f, grid)
    margin = est.value - 7.0
    ok = margin <= 2 * NORM_TOL
    return CheckReport(
        verdict="pass" if ok else "fail",
        worst_point=est.argmax,
        worst_margin=margin,
        samples=hypothesis.samples + est.samples,
        detail=f"norm estimate {est.value:.6f} vs bound 7",
        extras={"norm_f": est.value, "hypothesis_margin": hypothesis.worst_margin},
    )


# -- starlikeness --------------------------------------------------------


def _starlike_margin_field(f: LogHarmonicMap):
    bm = f.beta * f.m

    def margin(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            hj = eval_jet(f.h, z, order=1)
            gj = eval_jet(f.g, z, order=1)
            h0 = np.broadcast_to(np.asarray(hj.d0, dtype=complex), z.shape)
            g0 = np.broadcast_to(np.asarray(gj.d0, dtype=complex), z.shape)
            small = np.fmin(np.abs(h0), np.abs(g0))
            if np.any(small[np.isfinite(small)] < 1e-12):
                k = int(np.argmin(np.where(np.isfinite(small), small, np.inf)))
                raise ZeroEncountered(
                    "the map vanishes away from the origin", point=complex(z[k])
                )
            val = (
                (1 + f.beta) * f.m
                + z * hj.d1 / h0
                - np.conj(bm + z * gj.d1 / g0)
            )
            m = -np.real(val)
        return np.where(np.isfinite(m), m, np.nan)

    return margin


def starlike_check(f: LogHarmonicMap, grid: GridSpec | None = None) -> CheckReport:
    """Sampled positivity of Re((z f_z - conj(z) f_zbar)/f) off the origin.

    Uses the cancellation-free closed form (1+beta)m + z h'/h
    - conj(beta m + z g'/g); the direct Wirtinger quotient is exercised as
    a cross-check in the test suite.
    """
    grid = grid or GridSpec()
    worst, point, total, failed = _worst_margin(
        _starlike_margin_field(f), grid, inner=_INNER
    )
    ok = worst <= SAMPLE_SLACK
    return CheckReport(
        verdict="pass" if ok else "fail",
        worst_point=point,
        worst_margin=worst,
        samples=total,
        detail="functional positive at all samples" if ok
        else "functional nonpositive at witness",
        extras={"failed_samples": failed},
    )


def associated_starlike(
    f: LogHarmonicMap, grid: GridSpec | None = None
) -> tuple[Expr, CheckReport]:
    """The analytic companion z h/g of a vanishing map, with its
    starlikeness report.

    Returns the expression phi = z h(z)/g(z) and a sampled check of
    Re(z phi'/phi) > 0, computed as 1 + z h'/h - z g'/g.
    """
    if f.m < 1:
        raise ValueError("the companion construction needs m >= 1")
    grid = grid or GridSpec()
    phi = Div(Mul(Var(), f.h), f.g)

    def margin(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            hj = eval_jet(f.h, z, order=1)
            gj = eval_jet(f.g, z, order=1)
            h0 = np.broadcast_to(np.asarray(hj.d0, dtype=complex), z.shape)
            g0 = np.broadcast_to(np.asarray(gj.d0, dtype=complex), z.shape)
            val = 1.0 + z * hj.d1 / h0 - z * gj.d1 / g0
            m = -np.real(val)
        return np.where(np.isfinite(m), m, np.nan)

    worst, point, total, failed = _worst_margin(margin, grid, inner=_INNER)
    ok = worst <= SAMPLE_SLACK
    report = CheckReport(
        verdict="pass" if ok else "fail",
        worst_point=point,
        worst_margin=worst,
        samples=total,
        detail="companion is starlike at all samples" if ok
        else "companion functional nonpositive at witness",
        extras={"failed_samples": failed},
    )
    return phi, report
