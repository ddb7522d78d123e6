"""Half-ring evaluation of real-coefficient fields on the walk's mirrored rings.

The walk holds each block of a ring of even size with its upper half,
columns 0..n/2, of which column n - j of the block is the conjugate of
column j.  A field whose data have real coefficients runs its formula on
that half and fills the other columns by conjugation (`maps.as_field`).
A render holds the blocks of its mesh the same way (`render._evaluate`),
so a real-data target's image and color field take that path too.
These tests hold that path to the direct evaluation bit for bit, check
where it must not be taken, and pin the ring, the held half and the
certificate that it depends on.
"""
from __future__ import annotations

import json
import math
from functools import partial

import numpy as np
import pytest

from logharm import criteria, expr, fixtures, maps, norms, render
from logharm.criteria import (
    _a5_margin_field,
    _starlike_margin_field,
    associated_starlike,
    schwarz_pick_check,
)
from logharm.errors import ZeroEncountered
from logharm.expr import Mul, parse, real_coefficients, shared_jets
from logharm.fixtures import fixture_names, load_fixture
from logharm.maps import (
    LogHarmonicMap,
    analytic_pre_schwarzian_field,
    analytic_schwarzian_field,
    dbar_pre_schwarzian_field,
    dbar_schwarzian_field,
    dilatation_field,
    hg_epsilon_field,
    pre_schwarzian_field,
    schwarzian_field,
)
from logharm.norms import (
    _INNER_RADIUS,
    GridSpec,
    bloch_norm_log,
    level_walk,
    logderiv_field,
    pre_schwarzian_sup,
    schwarzian_sup,
    weighted_sups,
)

from conftest import build

# factors equal to 1 at the origin, so that any product of them is a valid
# g for m >= 1; {a} is a real coefficient in (-0.9, 0.9), {p} a real power
_FACTORS = (
    "(1-{a}*z)",
    "exp({a}*z)",
    "(1+{a}*z)^({p})",
    "(1+log(1+{a}*z))",
    "(1+{a}*z^2)",
    "exp({a}*z^2)",
)


def _seeded_factor(rng) -> str:
    a = round(float(rng.uniform(-0.9, 0.9)), 3)
    p = round(float(rng.uniform(-2.5, 2.5)), 2)
    return rng.choice(_FACTORS).format(a=a, p=p)


def _seeded_maps(count: int = 10, seed: int = 2024):
    """Real-coefficient maps built from exp, log, powers and products, with
    m = 0 and m = 1 and a real beta."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        h, g = ("*".join(_seeded_factor(rng) for _ in range(rng.integers(1, 4))) for _ in "hg")
        if k % 2:
            beta = round(float(rng.uniform(-0.4, 1.0)), 2)
            out.append((f"seeded-{k}", LogHarmonicMap.from_strings(1, beta, h, g)))
        else:
            out.append((f"seeded-{k}", LogHarmonicMap.from_strings(0, 0, f"z*{h}", g)))
    return out


MAPS = [(name, build(name)) for name in fixture_names()] + _seeded_maps()


def _captured_margins(run, monkeypatch):
    """The real fields a criterion hands to its walk."""
    seen = []
    walk = criteria._worst_margin

    def recording(margin_field, grid, inner=0.0, *others):
        seen.extend((margin_field, *others))
        return walk(margin_field, grid, inner, *others)

    monkeypatch.setattr(criteria, "_worst_margin", recording)
    run()
    monkeypatch.undo()
    return seen


def _fields(f: LogHarmonicMap, omega, monkeypatch):
    """(name, field) for every field of f the mirror applies to."""
    out = [
        ("P", pre_schwarzian_field(f)),
        ("S", schwarzian_field(f)),
        ("omega", dilatation_field(f)),
        ("dbar-P", dbar_pre_schwarzian_field(f)),
        ("dbar-S", dbar_schwarzian_field(f)),
        ("analytic P of hg", analytic_pre_schwarzian_field(Mul(f.h, f.g))),
        ("analytic S of hg", analytic_schwarzian_field(Mul(f.h, f.g))),
        ("g'/g", logderiv_field(f.g)),
        ("starlike margin", _starlike_margin_field(f)),
    ]
    if f.m == 0:
        out += [
            ("h g^-1", hg_epsilon_field(f, -1)),
            ("h g^0.5", hg_epsilon_field(f, 0.5)),
            ("a5 margin", _a5_margin_field(f, 1)),
        ]
    else:
        grid = GridSpec(radial_levels=2, angular_count=8, refine_rounds=0)
        (margin,) = _captured_margins(lambda: associated_starlike(f, grid), monkeypatch)
        out.append(("associated margin", margin))
    if omega is not None:
        grid = GridSpec(radial_levels=2, angular_count=8, refine_rounds=0)
        margin, modulus = _captured_margins(lambda: schwarz_pick_check(omega, grid), monkeypatch)
        out += [("schwarz-pick margin", margin), ("schwarz-pick modulus", modulus)]
    return out


def _walk_holds(grid: GridSpec, inner: float) -> list:
    """(block, half) for each block `level_walk` holds, without the origin's
    one sample: the half it is held with, or None."""
    holds = []

    def record(r, zs):
        holds.append((zs, expr.held_half(zs)))
        return np.zeros(zs.shape)

    level_walk([record], grid, inner)
    return [(zs, half) for zs, half in holds if zs.shape[1] > 1]


def _walk_blocks(grid: GridSpec, inner: float) -> list:
    """The blocks `level_walk` holds, without the origin's one sample."""
    return [zs for zs, _ in _walk_holds(grid, inner)]


# every hold of the 40x512 walks, and every sixth of the 200x512 walks
# (the first and the last among them), from the origin and from the inner
# radius: 20 blocks of 8 x 512 points, each with its half of 8 x 257
HOLDS = {
    (levels, inner): _walk_holds(GridSpec(radial_levels=levels), inner)[::stride]
    for levels, stride in ((200, 6), (40, 1))
    for inner in (0.0, _INNER_RADIUS)
}


def _bits(v) -> bytes:
    return np.ascontiguousarray(v).tobytes()


_UNFOLD = maps._unfold


def _unfold_calls(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(maps, "_unfold", lambda *a: calls.append(1) or _UNFOLD(*a))
    return calls


def _values(fields, holds) -> list:
    """Each field on each block, held as given; a raise is kept as its type
    and witness."""
    out = []
    for label, field in fields:
        for zs, half in holds:
            with shared_jets() as hold:
                hold(zs, half)
                try:
                    out.append((label, _bits(field(zs))))
                except ZeroEncountered as exc:  # a zero of h or g
                    out.append((label, exc.point))
    return out


@pytest.mark.parametrize("name, f", MAPS, ids=[name for name, _ in MAPS])
def test_mirrored_equals_direct_bit_for_bit(name, f, monkeypatch):
    assert maps._real_data(f)
    omega = load_fixture(name).omega if name in fixture_names() else None
    fields = _fields(f, omega, monkeypatch)
    holds = [hold for holds in HOLDS.values() for hold in holds]
    unfolded = _unfold_calls(monkeypatch)
    mirrored = _values(fields, holds)
    assert len(unfolded) >= len(holds) * (len(fields) - 1)
    # the same blocks held without their half: each block whole in one call
    unfolded.clear()
    direct = _values(fields, [(zs, None) for zs, _ in holds])
    assert not unfolded
    for m, d in zip(mirrored, direct):
        assert m == d, m[0]


COMPLEX_LITERAL = LogHarmonicMap.from_strings(0, 0, "(0.5-0.4*i)*z", "1+0.3*z")


@pytest.mark.parametrize(
    "label, make",
    [
        ("complex beta, P", lambda: pre_schwarzian_field(build("complex-beta"))),
        ("complex beta, S", lambda: schwarzian_field(build("complex-beta"))),
        ("complex beta, omega", lambda: dilatation_field(build("complex-beta"))),
        ("complex beta, starlike", lambda: _starlike_margin_field(build("complex-beta"))),
        ("complex literal, P", lambda: pre_schwarzian_field(COMPLEX_LITERAL)),
        ("complex literal, dbar-S", lambda: dbar_schwarzian_field(COMPLEX_LITERAL)),
        ("complex literal, hg", lambda: analytic_pre_schwarzian_field(
            Mul(COMPLEX_LITERAL.h, COMPLEX_LITERAL.g))),
        ("complex literal, g'/g", lambda: logderiv_field(parse("1/(1-(0.5-0.4*i)*z)"))),
        ("complex eps, member", lambda: hg_epsilon_field(build("koebe"), 0.5 + 0.5j)),
        ("complex eps, a5", lambda: _a5_margin_field(build("koebe"), 0.5 + 0.5j)),
    ],
)
def test_complex_data_are_never_mirrored(label, make, monkeypatch):
    calls = _unfold_calls(monkeypatch)
    field = make()
    (walk,) = level_walk([lambda r, zs: np.abs(field(zs))], GridSpec(radial_levels=20))
    assert walk.samples == 1 + 19 * 512
    assert not calls


def test_odd_rings_and_complex_omega_are_never_mirrored(monkeypatch):
    calls = _unfold_calls(monkeypatch)
    koebe = build("koebe")
    odd = GridSpec(radial_levels=20, angular_count=63, refine_rounds=1)
    weighted_sups([pre_schwarzian_sup(koebe), schwarzian_sup(koebe)], odd)
    schwarz_pick_check(parse("(0.6-0.2*i-z)/(1-(0.6+0.2*i)*z)"), GridSpec(radial_levels=20))
    assert not calls
    # the same map on an even ring, and a real omega, are mirrored
    weighted_sups([pre_schwarzian_sup(koebe)], GridSpec(radial_levels=20, angular_count=64))
    assert calls
    calls.clear()
    schwarz_pick_check(parse("(0.6-z)/(1-0.6*z)"), GridSpec(radial_levels=20))
    assert calls


# a render mesh of 5 blocks of 8 rings (the last of 7) with this block size
RENDER_MESH, RENDER_BLOCK = (40, 128), 8 * 128
REAL_EXPRS = [
    (text, parse(text))
    for text in ("1/z", "z/(1-z)^2", "exp(z/(1-z))", "(1-0.99*z)^(-199/99)", "2^z*log(1+0.5*z)")
]


def _rendered(target, resolution, colored, monkeypatch):
    """(mesh, image, color values) of the render's block loop."""
    monkeypatch.setattr(render, "_CHUNK_POINTS", RENDER_BLOCK)
    z = render.mesh_points(resolution, 1 - 1e-3)
    return (z, *render._evaluate(target, z, resolution[1], colored))


@pytest.mark.parametrize("name, target", MAPS + REAL_EXPRS, ids=[n for n, _ in MAPS + REAL_EXPRS])
def test_mirrored_images_equal_direct_bit_for_bit(name, target, monkeypatch):
    unfolded = _unfold_calls(monkeypatch)
    for colored in (False, True):
        z, w, vals = _rendered(target, RENDER_MESH, colored, monkeypatch)
        # each of the 5 ring blocks: the image, and the color field, on the half
        assert len(unfolded) == 5 * (1 + colored)
        unfolded.clear()
        # the whole mesh, in one call with no hold: every point computed
        assert _bits(w) == _bits(render.eval_target(target, z)), colored
        if colored:
            field = render._weighted_field(target)
            assert _bits(vals) == _bits(np.abs(field(z)) * (1 - np.abs(z) ** 2))
        assert not unfolded
    if name == "1/z":
        assert np.isnan(w[0]) and np.isnan(vals[0]) and np.isfinite(w[1:]).all()


def _image_shapes(monkeypatch) -> list:
    """The shape of every array the render's image formula is called on."""
    shapes = []
    for name in ("map_value", "eval_value"):
        image = getattr(render, name)
        monkeypatch.setattr(render, name, lambda t, z, image=image: shapes.append(z.shape)
                            or image(t, z))
    return shapes


@pytest.mark.parametrize(
    "target, resolution",
    [
        (build("complex-beta"), RENDER_MESH),
        (parse("exp((0.3+0.2*i)*z)/(1-z)"), RENDER_MESH),
        (build("koebe"), (40, 127)),
    ],
    ids=["complex-beta", "complex-constant", "odd-ring"],
)
def test_renders_with_no_mirrored_half(target, resolution, monkeypatch):
    unfolded = _unfold_calls(monkeypatch)
    shapes = _image_shapes(monkeypatch)
    _rendered(target, resolution, True, monkeypatch)
    n = resolution[1]
    # the origin, then whole blocks of rings
    assert shapes == [(1,)] + [(8, n)] * 4 + [(7, n)]
    assert not unfolded


def test_a_real_render_evaluates_its_image_on_the_half(monkeypatch):
    shapes = _image_shapes(monkeypatch)
    _rendered(build("koebe"), RENDER_MESH, False, monkeypatch)
    assert shapes == [(1,)] + [(8, 65)] * 4 + [(7, 65)]


@pytest.mark.parametrize(
    "text, real",
    [
        ("z/(1-z)^2", True),
        ("exp(-0.5*log(1-z)^2)", True),
        ("(1-0.99*z)^(-199/99)", True),
        ("2^z", True),
        ("exp(log(2)*z)", True),
        ("(0.5-0.4*i)*z", False),
        ("i*i*z", True),  # the constant i*i is -1
        # real literals, but a value that is not real on the real axis
        ("exp((-1)^0.5*z)", False),
        ("(-1)^z", False),
        ("z*log(-1)", False),
        ("z+log(0)", False),
    ],
)
def test_real_coefficients(text, real):
    assert real_coefficients(parse(text)) is real


def test_real_data_reads_beta_only_through_the_exponents():
    assert not maps._real_data(build("complex-beta"))
    # beta does not enter an m = 0 map
    assert maps._real_data(LogHarmonicMap.from_strings(0, 0.5 + 0.25j, "z", "1"))
    assert not maps._real_data(build("koebe"), 0.5 + 0.5j)
    assert maps._real_data(build("koebe"), -1)


@pytest.mark.parametrize("n", [512, 64, 96])
def test_the_walk_ring_is_mirrored(n):
    grid = GridSpec(radial_levels=40, angular_count=n)
    thetas = np.arange(n) * (2.0 * math.pi / n)
    h = n // 2
    seen = 0
    for zs, half in _walk_holds(grid, 0.0) + _walk_holds(grid, _INNER_RADIUS):
        r = np.abs(zs[:, :1])  # the first column is r + 0j
        assert _bits(zs[:, 0].imag) == _bits(np.zeros(len(zs)))
        # the upper half is r exp(i theta) bit for bit, as on an unmirrored ring
        assert _bits(zs[:, : h + 1]) == _bits(r * np.exp(1j * thetas[: h + 1]))
        assert _bits(zs[:, h + 1 :]) == _bits(np.conj(zs[:, h - 1 : 0 : -1]))
        # and the block is held with those very points
        assert half.shape == (len(zs), h + 1)
        assert _bits(half) == _bits(zs[:, : h + 1])
        seen += len(zs)
    assert seen == 39 + 40


def test_odd_ring_is_exp_itheta():
    n = 63
    thetas = np.arange(n) * (2.0 * math.pi / n)
    for zs, half in _walk_holds(GridSpec(radial_levels=20, angular_count=n), 0.0):
        assert _bits(zs) == _bits(np.abs(zs[:, :1]) * np.exp(1j * thetas))
        assert half is None


def test_certificate_reevaluates_a_lower_half_witness():
    # g'/g = c/(1 - c z) peaks where c z is near |c|, at the angle -0.5
    g = parse("1/(1-(0.78983+0.43148*i)*z)")
    field = logderiv_field(g)
    grid = GridSpec(radial_levels=60, angular_count=512, refine_rounds=0)
    (walk,) = level_walk([partial(norms._weighted, field, 1)], grid)
    assert walk.theta > math.pi
    r = float(walk.radii[walk.level])
    # the lower-half sample is r conj(ring[n - j]), not r exp(i theta_j)
    assert walk.point != r * np.exp(1j * walk.theta)
    est = bloch_norm_log(g, grid)
    assert est.argmax == walk.point
    assert est.value == float(norms._weighted(field, 1, r, np.array([est.argmax]))[0])
    assert est.value == walk.value


def _held_h_calls(f: LogHarmonicMap, monkeypatch) -> list:
    """(shape, order) of each evaluation of f's h on a held array."""
    calls = []
    evaluate = expr._eval

    def counting(e, zjet, share=True):
        if e is f.h and not share:
            calls.append((np.shape(zjet.coeffs[0]), zjet.order))
        return evaluate(e, zjet, share)

    monkeypatch.setattr(expr, "_eval", counting)
    return calls


def test_unmirrored_fields_evaluate_h_once_per_whole_block(monkeypatch):
    f = COMPLEX_LITERAL
    grid = GridSpec(radial_levels=30, angular_count=512, refine_rounds=0)
    shapes = _held_h_calls(f, monkeypatch)
    weighted_sups([schwarzian_sup(f), pre_schwarzian_sup(f)], grid)
    # h once per 8-level block, on all its 8 x 512 points, at the highest
    # order read; the last block has 5 levels
    assert shapes == [((1, 1), 3)] + [((8, 512), 3)] * 3 + [((5, 512), 3)]


def test_a_mixed_walk_evaluates_h_once_on_each_held_array(monkeypatch):
    # P_f and the Bloch norm are mirrored, the member of a complex eps is not
    f = LogHarmonicMap.from_strings(0, 0, "z/(1-z)", "1/(1-z)")
    calls = _held_h_calls(f, monkeypatch)
    criteria.epsilon_norm_gap_check(f, 0.5 + 0.5j, GridSpec(refine_rounds=0))
    # the origin, then each of the 25 blocks of up to 8 levels: once on its
    # half for P_f (the Bloch norm reads only g) and once whole for the member
    blocks = math.ceil((GridSpec().radial_levels - 1) / 8)
    assert len(calls) == 1 + 2 * blocks == 51
    assert [shape[1] for shape, _ in calls] == [1] + [257, 512] * blocks


def test_schwarz_pick_reads_max_modulus_from_its_one_walk(monkeypatch):
    walks = []
    walk = norms.level_walk

    def counted(level_fns, grid, inner=0.0):
        walks.append(len(level_fns))
        return walk(level_fns, grid, inner)

    monkeypatch.setattr(criteria, "level_walk", counted)
    grid = GridSpec(radial_levels=30, angular_count=64, refine_rounds=1)
    for text in ("(0.6-z)/(1-0.6*z)", "(0.6-0.2*i-z)/(1-(0.6+0.2*i)*z)", "1.2*z", "z^2"):
        omega = parse(text)
        rep = schwarz_pick_check(omega, grid)
        # max |omega| over the samples of that walk, evaluated directly
        radii = norms._radii(0.0, grid.r_max, grid.radial_levels)
        blocks = _walk_blocks(grid, 0.0)
        zs = np.concatenate([np.zeros(1, complex)] + [b.ravel() for b in blocks])
        assert len(zs) == 1 + (len(radii) - 1) * grid.angular_count
        with np.errstate(all="ignore"):
            want = float(np.nanmax(np.abs(expr.eval_value(omega, zs))))
        assert rep.extras["max_modulus"] == want, text
        assert (rep.detail == "violated; the map is not a disk self-map at the witness") == (
            rep.verdict == "fail" and want >= 1
        )
    assert walks == [2] * 4


def test_catalog_is_parsed_once_per_process(monkeypatch):
    loads = []
    parse_json = json.loads
    monkeypatch.setattr(fixtures.json, "loads", lambda s: loads.append(1) or parse_json(s))
    fixtures._catalog.cache_clear()
    for _ in range(3):
        for name in fixture_names():
            load_fixture(name)
    assert loads == [1]


def test_loaded_fixtures_share_no_state_with_the_catalog():
    first = load_fixture("koebe")
    for check in first.checks:
        check["metric"] = "changed"
        for value in check.values():
            if isinstance(value, list):
                value[0] = math.nan
    again = load_fixture("koebe")
    raw = fixtures.resources.files("logharm").joinpath("fixtures.json").read_text("utf-8")
    (koebe,) = [e for e in json.loads(raw)["fixtures"] if e["name"] == "koebe"]
    assert list(again.checks) == koebe["checks"]
