"""End-to-end acceptance: sharp constants, identity suites, and determinism.

One test per criterion; each prints a single pass/fail line with the
measured numbers so a log scan shows the whole scoreboard.
"""
from __future__ import annotations

import cmath
import math
import random
import time

import numpy as np

from logharm.criteria import (
    associated_starlike,
    schwarz_pick_check,
    starlike_check,
)
from logharm.expr import Mul, eval_jet, eval_value, parse
from logharm.maps import (
    analytic_pre_schwarzian_field,
    pre_schwarzian_field,
    compose_with_analytic,
    dbar_pre_schwarzian,
    dbar_schwarzian,
    hg_epsilon_field,
    jacobian,
    pre_schwarzian,
    schwarzian,
    wirtinger,
)
from logharm.norms import (
    GridSpec,
    bloch_norm_log,
    level_walk,
    pre_schwarzian_norm,
    schwarzian_norm,
    weighted_sup,
)

from conftest import IDENTITY_SUITE, build, one_call_reference

FD = 1e-5
GRID = GridSpec()  # default grid throughout; the tolerances below assume it


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {num}: {detail}"


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


def _ring_samples():
    angles = [k * 2 * math.pi / 24 for k in range(24)]
    return [r * cmath.exp(1j * t) for r in (0.15, 0.35, 0.55, 0.75) for t in angles]


def test_criterion_1_unit_gap_sharp_pair():
    f = build("gap-one-sharp")
    t0 = time.perf_counter()
    norm_f = pre_schwarzian_norm(f, GRID).value
    t1 = time.perf_counter()
    norm_hg = weighted_sup(analytic_pre_schwarzian_field(Mul(f.h, f.g)), 1, GRID).value
    t2 = time.perf_counter()
    gap = abs(norm_f - norm_hg)
    ok = (
        abs(norm_f - 5) <= 0.01
        and abs(norm_hg - 4) <= 0.01
        and abs(gap - 1) <= 0.02
        and (t1 - t0) < 10
        and (t2 - t1) < 10
    )
    _line(
        1,
        ok,
        f"map norm {norm_f:.6f} (target 5), product norm {norm_hg:.6f} (target 4), "
        f"gap {gap:.6f}, runtimes {t1 - t0:.2f}s / {t2 - t1:.2f}s",
    )


def test_criterion_2_gap_five_sharp_pair():
    f = build("gap-five-sharp")
    norm_f = pre_schwarzian_norm(f, GRID).value
    member = weighted_sup(hg_epsilon_field(f, -1), 1, GRID).value
    blog = bloch_norm_log(f.g, GRID).value
    gap = abs(norm_f - member)
    # "member norm is 0 exactly" reads as: below accumulated roundoff
    ok = (
        abs(norm_f - 5) <= 0.01
        and member <= 1e-8
        and abs(blog - 2) <= 0.01
        and abs(gap - 5) <= 0.02
        and abs(gap - (1 + 2 * blog)) <= 0.04
    )
    _line(
        2,
        ok,
        f"map norm {norm_f:.6f} (target 5), member norm {member:.2e} (target 0), "
        f"log-factor Bloch norm {blog:.6f} (target 2), gap {gap:.6f} (target 5)",
    )


def _interior_max_closed_form(a: float) -> float:
    r1 = (1 - math.sqrt(1 - a * a)) / a
    return 2 * (1 + r1) + (a - r1) * (2 + r1) / (1 - a * r1)


def test_criterion_3_mobius_family_closed_form():
    assert abs(_interior_max_closed_form(0.6) - 31 / 9) < 1e-12
    values = {}
    for a, name in ((0.6, "mobius-gap-a60"), (0.9, "mobius-gap-a90"), (0.99, "mobius-gap-a99")):
        target = _interior_max_closed_form(a)
        got = pre_schwarzian_norm(build(name), GRID).value
        values[a] = (got, target, abs(got - target) / target)
    monotone = values[0.6][0] < values[0.9][0] < values[0.99][0] < 7
    ok = monotone and all(rel <= 1e-3 for _, _, rel in values.values())
    detail = ", ".join(
        f"a={a}: {got:.6f} vs {target:.6f} (rel {rel:.1e})"
        for a, (got, target, rel) in values.items()
    )
    _line(3, ok, detail + f", monotone toward 7: {monotone}")


def test_criterion_4_koebe_constants():
    f = build("koebe")
    p = pre_schwarzian_norm(f, GRID).value
    s = schwarzian_norm(f, GRID).value
    ok = abs(p - 6) <= 0.01 and abs(s - 6) <= 0.01
    _line(4, ok, f"first-order norm {p:.6f}, second-order norm {s:.6f} (targets 6, 6)")


def test_criterion_5_derivative_identity_suite():
    assert len(IDENTITY_SUITE) >= 10
    rng = random.Random(7_2024)
    worst = {"logjac": 0.0, "chain": 0.0, "dbar1": 0.0, "dbar2": 0.0, "area": 0.0}
    for name in IDENTITY_SUITE:
        f = build(name)
        for z in _suite_points(name, rng, 100):
            p = pre_schwarzian(f, z)
            s = schwarzian(f, z)

            fd_p = _wirt_dz(lambda w: math.log(jacobian(f, w)), z)
            worst["logjac"] = max(worst["logjac"], abs(p - fd_p) / (1 + abs(p)))

            fd_dp = _wirt_dz(lambda w: pre_schwarzian(f, w), z)
            worst["chain"] = max(worst["chain"], abs(s - (fd_dp - 0.5 * p * p)) / (1 + abs(s)))

            db1 = dbar_pre_schwarzian(f, z)
            fd_db1 = _wirt_dzbar(lambda w: pre_schwarzian(f, w), z)
            worst["dbar1"] = max(worst["dbar1"], abs(db1 - fd_db1) / (1 + abs(db1)))

            db2 = dbar_schwarzian(f, z)
            # second-order quantity: shrink the step so FD truncation at the
            # outer sampling rim stays an order below the 1e-4 budget
            fd_db2 = _wirt_dzbar(lambda w: schwarzian(f, w), z, h=1e-6)
            worst["dbar2"] = max(worst["dbar2"], abs(db2 - fd_db2) / (1 + abs(db2)))

            fz, fzb, _ = wirtinger(f, z)
            jac = jacobian(f, z)
            worst["area"] = max(worst["area"], abs((abs(fz) ** 2 - abs(fzb) ** 2) - jac) / jac)
    ok = (
        worst["logjac"] <= 1e-5
        and worst["chain"] <= 1e-5
        and worst["dbar1"] <= 1e-5
        and worst["dbar2"] <= 1e-4
        and worst["area"] <= 1e-9
    )
    _line(
        5,
        ok,
        f"{len(IDENTITY_SUITE)} fixtures x 100 points; worst rel errors: "
        f"d_z log J {worst['logjac']:.1e} (<=1e-5), "
        f"second-from-first {worst['chain']:.1e} (<=1e-5), "
        f"dbar first {worst['dbar1']:.1e} (<=1e-5), "
        f"dbar second {worst['dbar2']:.1e} (<=1e-4), "
        f"area identity {worst['area']:.1e} (<=1e-9)",
    )


def test_criterion_6_constant_dilatation_characterization():
    samples = _ring_samples()
    worst_power_law = 0.0
    for name in ("koebe", "constant-dilatation"):  # g is a constant times a power of h
        f = build(name)
        for z in samples:
            worst_power_law = max(
                worst_power_law, abs(dbar_pre_schwarzian(f, z)), abs(dbar_schwarzian(f, z))
            )
    origin_values = {}
    for name in ("vanishing-simple", "logharmonic-koebe", "logharmonic-halfplane"):
        origin_values[name] = abs(dbar_pre_schwarzian(build(name), 0))
    ok = worst_power_law < 1e-10 and all(
        abs(v - 1) <= 1e-9 for v in origin_values.values()
    )
    _line(
        6,
        ok,
        f"power-law fixtures max |dbar| {worst_power_law:.1e} (<1e-10); "
        f"identity-dilatation origin values "
        + ", ".join(f"{v:.12f}" for v in origin_values.values())
        + " (target 1)",
    )


def test_criterion_7_starlike_pipeline():
    omega_report = schwarz_pick_check(parse("(2-3*z)/(3-2*z)"), GRID)
    mesh_ok = (
        omega_report.verdict == "pass"
        and omega_report.samples >= 100_000
        and omega_report.extras["max_modulus"] < 1
    )

    f = build("starlike-vanishing")
    phi, phi_report = associated_starlike(f, GRID)
    koebe = parse("z/(1-z)^2")
    phi_dev = max(
        abs(eval_value(phi, z) - eval_value(koebe, z)) for z in _ring_samples()
    )
    phi_ok = phi_report.verdict == "pass" and phi_dev < 1e-9

    full_report = starlike_check(f, GRID)
    functional_dev = 0.0
    for z in _ring_samples():
        fz, fzb, fv = wirtinger(f, z)
        functional = ((z * fz - z.conjugate() * fzb) / fv).real
        expected = 1 + 2 * (z / (1 - z)).real
        functional_dev = max(functional_dev, abs(functional - expected))
    full_ok = (
        full_report.verdict == "pass"
        and full_report.worst_margin <= -1e-9
        and functional_dev <= 1e-9
    )

    ok = mesh_ok and phi_ok and full_ok
    _line(
        7,
        ok,
        f"dilatation self-map: {omega_report.verdict} on {omega_report.samples} points "
        f"(max modulus {omega_report.extras['max_modulus']:.6f}); companion vs closed form "
        f"dev {phi_dev:.1e}, verdict {phi_report.verdict}; full map {full_report.verdict} "
        f"margin {-full_report.worst_margin:.2e}, functional dev {functional_dev:.1e}",
    )


_AUTOMORPHISMS = (
    "(0.6+0.8*i)*z",
    "(0.3-z)/(1-0.3*z)",
    "(0.5*i-z)/(1+0.5*i*z)",
    "((-0.2+0.4*i)-z)/(1+(0.2+0.4*i)*z)",
    "(0.6+0.8*i)*((0.25-z)/(1-0.25*z))",
)


def test_criterion_8_composition_rule():
    rng = random.Random(8_2024)
    worst = 0.0
    for psi_text in _AUTOMORPHISMS:
        psi = parse(psi_text)
        for name in ("gap-one-sharp", "mobius-gap-a60", "constant-dilatation"):
            f = build(name)
            for z in _points(rng, 20, rmax=0.55):
                got = compose_with_analytic(f, psi, z)

                def oracle(w):
                    pj = eval_jet(psi, w, order=1)
                    return math.log(jacobian(f, complex(pj.d0))) + 2 * math.log(
                        abs(complex(pj.d1))
                    )

                fd = _wirt_dz(oracle, z)
                worst = max(worst, abs(got - fd) / (1 + abs(got)))
    ok = worst <= 1e-5
    _line(
        8,
        ok,
        f"5 automorphisms x 3 fixtures x 20 points; worst rel error vs FD {worst:.1e} (<=1e-5)",
    )


def test_criterion_9_sweep_determinism():
    f = build("gap-five-sharp")
    field = pre_schwarzian_field(f)
    ref_value, ref_point = one_call_reference(field, 1, GRID)
    walk = level_walk(lambda r, z: np.abs(field(z)) * (1.0 - r * r), GRID)
    results = []
    for _ in range(2):
        est = pre_schwarzian_norm(f, GRID)
        results.append((est.value, est.argmax, est.samples, est.refine_values))
    ok = (
        (walk.value, walk.point) == (ref_value, ref_point)
        and results[0][3][0] == ref_value
        and results[0] == results[1]
    )
    _line(
        9,
        ok,
        f"sampled max {ref_value!r} at {ref_point!r} equals the one-call reference; "
        f"norm {results[0][0]!r} at {results[0][1]!r} identical across two runs: {ok}",
    )
