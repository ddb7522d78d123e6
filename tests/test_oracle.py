"""P_f, S_f and omega against a 40-digit oracle built from the definitions.

The oracle never reads `maps.py`.  It writes the map as the paper defines
it, f = z^m |z|^(2 beta m) h(z) conj(g(z)), as a sympy expression in z and
w = conj(z), so that |z|^2 = z w and conj(g(z)) = gbar(w), where gbar is g
with its constants conjugated.  The conjugate of a function of (z, w)
conjugates its constants and swaps z and w, so conj(f_z) = d(conj f)/dw.
From there

    J = f_z conj(f_z) - f_w conj(f_w),  P = d/dz log J,
    S = dP/dz - P^2 / 2,                 omega = conj(f_w / f) / (f_z / f),

each differentiated by sympy and evaluated by mpmath at 40 digits.  A field
value passes when it is within 1e-12 relative of the oracle's, times the
condition number 1/(1 - |omega|^2) of the omega terms; below modulus 1 the
bound is absolute.  This is the rule of the scalar-field parity test.
"""
from __future__ import annotations

import functools
import math
import operator
import random

import mpmath
import numpy as np
import pytest
import sympy as sp

from logharm.expr import Add, Call, Div, Lit, Mul, Neg, Pow, Sub, Var
from logharm.maps import dilatation_field, pre_schwarzian_field, schwarzian_field

from conftest import ALL_MAP_NAMES, build

_DIGITS = 40
_POINTS = 4
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
Z, W = sp.symbols("z w")


def _constant(c: complex, bar: bool):
    c = complex(c).conjugate() if bar else complex(c)
    return sp.Rational(c.real) + sp.I * sp.Rational(c.imag)


def _sympy(e, var, bar: bool):
    """The expression e of z as a sympy expression of ``var``, with its
    constants conjugated when ``bar``; binary floats convert exactly."""
    if isinstance(e, Lit):
        return _constant(e.value, bar)
    if isinstance(e, Var):
        return var
    if isinstance(e, Neg):
        return -_sympy(e.arg, var, bar)
    if isinstance(e, Pow):
        return _sympy(e.base, var, bar) ** _sympy(e.exponent, var, bar)
    if isinstance(e, Call):
        return {"exp": sp.exp, "log": sp.log}[e.func](_sympy(e.arg, var, bar))
    return _BINARY[type(e)](_sympy(e.lhs, var, bar), _sympy(e.rhs, var, bar))


def _map_and_conjugate(f):
    """f(z, w) = z^m (z w)^(beta m) h(z) gbar(w), and conj f as a function
    of (z, w): its constants conjugated, z and w swapped."""
    beta, beta_bar = _constant(f.beta, False), _constant(f.beta, True)
    fmap = Z**f.m * (Z * W) ** (beta * f.m) * _sympy(f.h, Z, False) * _sympy(f.g, W, True)
    fc = W**f.m * (Z * W) ** (beta_bar * f.m) * _sympy(f.h, W, True) * _sympy(f.g, Z, False)
    return fmap, fc


@functools.cache
def _oracle(name: str):
    """(P, S, omega) of the named map as mpmath functions of (z, w), derived
    once per session."""
    f, fc = _map_and_conjugate(build(name))
    jac = sp.diff(f, Z) * sp.diff(fc, W) - sp.diff(f, W) * sp.diff(fc, Z)
    pre = sp.diff(sp.log(jac), Z)
    schw = sp.diff(pre, Z) - pre**2 / 2
    omega = (sp.diff(fc, Z) / fc) / (sp.diff(f, Z) / f)
    return tuple(sp.lambdify((Z, W), q, modules="mpmath", cse=True) for q in (pre, schw, omega))


def _points(name: str) -> list[complex]:
    rng = random.Random(f"oracle:{name}")
    return [
        rng.uniform(0.1, 0.9) * complex(math.cos(t), math.sin(t))
        for t in (rng.uniform(-math.pi, math.pi) for _ in range(_POINTS))
    ]


@pytest.mark.parametrize("name", ALL_MAP_NAMES)
def test_fields_match_the_oracle(name):
    f = build(name)
    zs = np.array(_points(name))
    fields = {
        "P_f": pre_schwarzian_field(f)(zs),
        "S_f": schwarzian_field(f)(zs),
        "omega": dilatation_field(f)(zs),
    }
    with mpmath.workdps(_DIGITS):
        for k, z in enumerate(zs):
            zm = mpmath.mpc(z.real, z.imag)
            want = {
                label: complex(fn(zm, mpmath.conj(zm)))
                for label, fn in zip(fields, _oracle(name))
            }
            cond = 1.0 / (1.0 - abs(want["omega"]) ** 2)
            for label, got in fields.items():
                got = complex(got[k])
                scale = max(abs(want[label]), abs(got), 1.0)
                assert abs(want[label] - got) <= 1e-12 * cond * scale, (label, z, want[label], got)
