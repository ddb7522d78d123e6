"""Parser, printer, and jet evaluation of expression strings."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logharm.errors import PoleEncountered
from logharm.expr import (
    Add,
    Call,
    Div,
    ExprSyntaxError,
    Lit,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    eval_jet,
    eval_value,
    parse,
    unparse,
)

CORPUS = [
    "z",
    "1/(1-z)",
    "z/(1-z)^2",
    "(1-z)^2",
    "exp(z)",
    "exp(z/(1-z))",
    "exp(-z/(1-z))/(1-z)",
    "log(1-z)",
    "(2-3*z)/(3-2*z)",
    "(1-z)*(1-0.6*z)^(-8/3)",
    "exp(z+0.3*z^2)",
    "z^3-2*z+i",
    "(1+z)^(0.5)",
    "exp(2*z/(1-z))/(1-z)",
    "2+3*i",
    "0.7*exp(0.4*z+0.12*z^2)",
]

POINTS = [0.1 + 0.2j, -0.35 + 0.1j, 0.05 - 0.5j, 0.6 + 0j, -0.2 - 0.2j, 0j]


def test_literals_and_i():
    assert eval_value(parse("2+3*i"), 0j) == 2 + 3j
    assert eval_value(parse("1e-3"), 0j) == pytest.approx(1e-3)
    assert eval_value(parse(".5"), 0j) == 0.5
    assert eval_value(parse("2.5e2"), 0j) == 250.0


def test_identity_jet():
    j = eval_jet(parse("z"), 0.3 + 0.4j)
    assert j.d0 == 0.3 + 0.4j
    assert j.d1 == 1
    assert j.d2 == 0
    assert j.d3 == 0


def test_koebe_jet_at_origin():
    # z/(1-z)^2 = z + 2 z^2 + 3 z^3 + ...: derivatives 0, 1, 4, 18
    j = eval_jet(parse("z/(1-z)^2"), 0j)
    assert [j.d0, j.d1, j.d2, j.d3] == pytest.approx([0, 1, 4, 18])


def test_exp_composite_jet_at_origin():
    # exp(z/(1-z)) = 1 + z + 3/2 z^2 + 13/6 z^3 + ...
    j = eval_jet(parse("exp(z/(1-z))"), 0j)
    assert [j.d0, j.d1, j.d2, j.d3] == pytest.approx([1, 1, 3, 13])


def test_power_right_associative():
    assert eval_value(parse("z^2^3"), 1.5 + 0j) == pytest.approx(1.5 ** 8)


def test_unary_minus_binds_tighter_than_caret():
    # grammar reading: -z^2 is (-z)^2
    assert eval_value(parse("-z^2"), 3 + 0j) == pytest.approx(9)


def test_caret_with_negative_parenthesized_exponent():
    v = eval_value(parse("(1-0.6*z)^(-8/3)"), 0.5 + 0j)
    assert v == pytest.approx(0.7 ** (-8 / 3))


@pytest.mark.parametrize(
    "text,offset",
    [
        ("1+*2", 2),
        ("(1+z", 4),
        ("z+", 2),
        ("2**z", 2),
        ("", 0),
    ],
)
def test_syntax_error_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert exc.value.offset == offset


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("sin(z)")
    assert "sin" in str(exc.value)
    assert exc.value.offset == 0


def test_trailing_input():
    with pytest.raises(ExprSyntaxError):
        parse("z z")


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip_evaluates_identically(text):
    tree = parse(text)
    reparsed = parse(unparse(tree))
    for p in POINTS:
        try:
            want = eval_jet(tree, p)
        except PoleEncountered:
            with pytest.raises(PoleEncountered):
                eval_jet(reparsed, p)
            continue
        got = eval_jet(reparsed, p)
        assert got.coeffs == want.coeffs, (text, p)


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        # negatives only via Neg nodes, as the parser itself produces them
        return rng.choice(
            [Var(), Lit(complex(rng.choice([0, 1, 2, 0.5, 1.5]))), Lit(1j), Lit(0.5j)]
        )
    kind = rng.randrange(6)
    if kind == 0:
        return Neg(_random_tree(rng, depth - 1))
    if kind == 1:
        return Call(rng.choice(["exp", "log"]), _random_tree(rng, depth - 1))
    if kind == 5:
        # keep exponents constant-ish so evaluation stays tame
        exponent = Lit(complex(rng.choice([1, 2, 3, 0.5])))
        if rng.random() < 0.3:
            exponent = Neg(exponent)
        return Pow(_random_tree(rng, depth - 1), exponent)
    cls = [Add, Sub, Mul, Div][kind - 2]
    return cls(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_round_trip_on_random_trees():
    import cmath

    import numpy as np

    rng = random.Random(20240817)
    points = [0.3 + 0.1j, -0.2 + 0.4j, 0.05 - 0.3j]
    for _ in range(1000):
        tree = _random_tree(rng, 4)
        text = unparse(tree)
        reparsed = parse(text)
        for p in points:
            with np.errstate(all="ignore"):
                try:
                    want = eval_jet(tree, p).coeffs
                except (PoleEncountered, OverflowError):
                    continue
                if not all(cmath.isfinite(complex(c)) for c in want):
                    continue
                got = eval_jet(reparsed, p).coeffs
            assert got == want, text


@pytest.mark.parametrize("text", CORPUS)
def test_power_one_is_identity(text):
    wrapped = parse(f"({text})^1")
    tree = parse(text)
    for p in POINTS:
        try:
            want = eval_jet(tree, p)
        except PoleEncountered:
            continue
        got = eval_jet(wrapped, p)
        assert got.coeffs == want.coeffs


@pytest.mark.parametrize("text", ["1/(1-z)", "exp(z)", "(2-3*z)/(3-2*z)", "2+3*i"])
def test_exp_log_inverse(text):
    tree = parse(text)
    composed = Call("exp", Call("log", tree))
    for p in POINTS:
        want = eval_jet(tree, p)
        v = want.d0
        if v == 0 or (v.real < 0 and v.imag == 0):
            continue  # on or beside the branch cut
        got = eval_jet(composed, p)
        for a, b in zip(got.coeffs, want.coeffs):
            assert abs(a - b) <= 1e-12 * (1 + abs(b))


def test_power_with_z_dependent_exponent():
    # (1+z)^z is exp(z log(1+z)) by definition of the principal power
    got = eval_jet(parse("(1+z)^z"), 0.3 - 0.2j)
    want = eval_jet(parse("exp(z*log(1+z))"), 0.3 - 0.2j)
    for a, b in zip(got.coeffs, want.coeffs):
        assert abs(a - b) <= 1e-12 * (1 + abs(b))


def test_a_z_dependent_exponent_is_evaluated_at_each_point():
    e = parse("(1+z)^z")
    for p in (0.3 - 0.2j, 0.5 + 0j, 0.3 - 0.2j, -0.25 + 0.1j):
        want = eval_jet(parse("exp(z*log(1+z))"), p)
        for a, b in zip(eval_jet(e, p).coeffs, want.coeffs):
            assert abs(a - b) <= 1e-12 * (1 + abs(b)), p


def test_folding_a_constant_exponent_changes_no_comparison_or_text():
    text = "(1-z)*(1-0.6*z)^(-8/3)+z^(2^(1/2))"
    e, twin = parse(text), parse(text)
    before = (repr(e), hash(e), unparse(e))
    first = eval_jet(e, 0.3 + 0.1j).coeffs
    assert e.lhs.rhs._folded is not None and twin.lhs.rhs._folded is None
    assert (repr(e), hash(e), unparse(e)) == before == (repr(twin), hash(twin), unparse(twin))
    assert e == twin and parse(unparse(e)) == e
    assert eval_jet(e, 0.3 + 0.1j).coeffs == first == eval_jet(twin, 0.3 + 0.1j).coeffs


def test_a_freed_tree_never_lends_its_exponent():
    # each tree is freed before the next is parsed, so node ids are reused
    ids = []
    for k in range(1, 300):
        e = parse(f"(1+z)^({k}/7)")
        ids.append(id(e))
        assert eval_value(e, 0.3 + 0j) == pytest.approx(1.3 ** (k / 7), rel=1e-13), k
        del e
    assert len(set(ids)) < len(ids)


def test_a_failing_constant_exponent_fails_every_time():
    e = parse("z^(1/0)")
    for _ in range(2):
        with pytest.raises(PoleEncountered):
            eval_jet(e, 0.5 + 0j)


def test_pole_carries_point():
    with pytest.raises(PoleEncountered) as exc:
        eval_jet(parse("1/(1-z)"), 1 + 0j)
    assert exc.value.point == 1 + 0j
    with pytest.raises(PoleEncountered):
        eval_jet(parse("log(z)"), 0j)
    with pytest.raises(PoleEncountered):
        eval_jet(parse("z^(-2)"), 0j)


FD_STEP = 1e-5


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(CORPUS) - 1),
    st.floats(min_value=0.0, max_value=0.62),
    st.floats(min_value=0.0, max_value=6.28),
)
def test_fd_consistency_property(idx, r, theta):
    import cmath

    tree = parse(CORPUS[idx])
    p = r * cmath.exp(1j * theta)
    try:
        center = eval_jet(tree, p)
        hi = eval_jet(tree, p + FD_STEP)
        lo = eval_jet(tree, p - FD_STEP)
    except PoleEncountered:
        return
    for k in range(1, 4):
        approx = (getattr(hi, f"d{k-1}") - getattr(lo, f"d{k-1}")) / (2 * FD_STEP)
        exact = getattr(center, f"d{k}")
        if abs(exact) > 1e8:
            continue  # too close to a pole for a 1e-5 step to be meaningful
        assert abs(approx - exact) <= 2e-6 * (1 + abs(exact))
