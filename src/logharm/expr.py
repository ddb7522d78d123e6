"""Parsing and jet evaluation of analytic-function expressions.

The accepted language covers everything the mapping factors in this
toolkit need: rational combinations of ``z``, complex literals written
through arithmetic on ``i`` (for example ``2+3*i``), ``exp``, ``log``,
and powers.  Grammar, in the order the parser descends:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?          right-associative
    unary  := '-'? atom
    atom   := number | 'i' | 'z' | ('exp' | 'log') '(' expr ')' | '(' expr ')'
    number := digits ['.' digits] [('e' | 'E') ['+' | '-'] digits]

Powers use the principal branch (cut on the negative real axis,
log(1) = 0) via a^b = exp(b log a), except that an exact-integer constant
exponent is applied by repeated multiplication, so ``e^1`` reproduces the
jet of ``e`` bit for bit and integer powers of negative reals do not
wobble through the branch cut.  A constant exponent is evaluated on the
first evaluation of its power and kept on that ``Pow`` node.

Note the grammar gives unary minus the tighter binding: ``-z^2`` is
``(-z)^2``.  Parenthesize exponents when in doubt; the printer does.

This module picks the arithmetic: the point jet of z, in ``eval_jet`` and
in the held block's table, is built in the class bound to the name `Jet`
here.  A literal is built in the class of that point jet, and jet
arithmetic returns its operands' class, so every jet of an evaluation,
and every jet ``maps`` builds from one, is of that class.  The folding
of constants also names `Jet`, but yields plain numbers.
"""
from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import PoleEncountered
from .jets import Jet


# -- syntax tree ----------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: complex


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Sub:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Mul:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Div:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: "Expr"
    # the exponent's value once evaluated if it does not read z, else
    # _VARIES; a cache, so it is neither compared nor printed
    _folded: object = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    func: str  # "exp" or "log"
    arg: "Expr"


Expr = Union[Lit, Var, Neg, Add, Sub, Mul, Div, Pow, Call]

_FUNCTIONS = ("exp", "log")


class ExprSyntaxError(ValueError):
    """Malformed expression text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (offset {offset})")


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: int | None = None):
        raise ExprSyntaxError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            self.error(f"expected '{ch}'")

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            if self.take("+"):
                e = Add(e, self.term())
            elif self.take("-"):
                e = Sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            if self.take("*"):
                e = Mul(e, self.factor())
            elif self.take("/"):
                e = Div(e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        base = self.unary()
        if self.take("^"):
            return Pow(base, self.factor())
        return base

    def unary(self) -> Expr:
        if self.take("-"):
            return Neg(self.atom())
        return self.atom()

    def atom(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            return self.ident()
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")

    def number(self) -> Lit:
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(text) and text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(text) and text[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(text) and text[self.pos].isdigit():
                while self.pos < len(text) and text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent after all
        lexeme = text[start : self.pos]
        try:
            return Lit(complex(float(lexeme)))
        except ValueError:
            self.error("malformed number", start)

    def ident(self) -> Expr:
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos].isalpha():
            self.pos += 1
        name = text[start : self.pos]
        if name == "z":
            return Var()
        if name == "i":
            return Lit(1j)
        if name in _FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(name, arg)
        self.error(f"unknown identifier '{name}'", start)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# -- printer --------------------------------------------------------------

# precedence levels: Add/Sub 1, Mul/Div 2, Neg 3, Pow 4, atoms 5
_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Lit: 5, Var: 5, Call: 5}


def _fmt_complex(value: complex) -> str:
    # always an atom: anything non-atomic is parenthesized here, so literals
    # can be dropped into any precedence slot unguarded
    re, im = value.real, value.imag
    if im == 0:
        return _fmt_float(re)
    if re == 0:
        if im == 1:
            return "i"
        return f"({_fmt_float(im)}*i)" if im != -1 else "(-i)"
    sign = "+" if im > 0 else "-"
    imag = "i" if abs(im) == 1 else f"{_fmt_float(abs(im))}*i"
    return f"({_fmt_float(re)}{sign}{imag})"


def _fmt_float(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        s = str(int(x))
    else:
        s = repr(x)
    return f"({s})" if x < 0 else s


def unparse(e: Expr) -> str:
    """Render a tree back to parseable text; round-trips through ``parse``."""
    prec = _PREC[type(e)]

    def sub(child: Expr, need: int) -> str:
        s = unparse(child)
        return f"({s})" if _PREC[type(child)] < need else s

    if isinstance(e, Lit):
        return _fmt_complex(e.value)
    if isinstance(e, Var):
        return "z"
    if isinstance(e, Neg):
        return f"-{sub(e.arg, 5)}"
    if isinstance(e, Add):
        return f"{sub(e.lhs, 1)}+{sub(e.rhs, 2)}"
    if isinstance(e, Sub):
        return f"{sub(e.lhs, 1)}-{sub(e.rhs, 2)}"
    if isinstance(e, Mul):
        return f"{sub(e.lhs, 2)}*{sub(e.rhs, 3)}"
    if isinstance(e, Div):
        return f"{sub(e.lhs, 2)}/{sub(e.rhs, 5)}"
    if isinstance(e, Pow):
        return f"{sub(e.base, 5)}^({unparse(e.exponent)})"
    if isinstance(e, Call):
        return f"{e.func}({unparse(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# -- evaluation -----------------------------------------------------------


def contains_var(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, Lit):
        return False
    if isinstance(e, (Neg, Call)):
        return contains_var(e.arg)
    if isinstance(e, Pow):
        return contains_var(e.base) or contains_var(e.exponent)
    return contains_var(e.lhs) or contains_var(e.rhs)


def real_coefficients(*exprs: Expr) -> bool:
    """True when each expression is real on the real axis by construction:
    every constant in it is real, and a constant raised to a power of z is
    positive.  Then e(conj z) = conj e(z) on the principal branches, and jet
    arithmetic keeps that symmetry to the bit, up to the sign of a zero part
    (see ``maps.as_field``)."""
    return all(map(_real, exprs))


def _real(e: Expr) -> bool:
    if not contains_var(e):
        return _constant(e).imag == 0
    if isinstance(e, Var):
        return True
    if isinstance(e, (Neg, Call)):
        return _real(e.arg)
    if isinstance(e, Pow) and not contains_var(e.base):
        c = _constant(e.base)  # c^w = exp(w log c) needs log c real
        return c.imag == 0 and c.real > 0 and _real(e.exponent)
    if isinstance(e, Pow):
        return _real(e.base) and _real(e.exponent)
    return _real(e.lhs) and _real(e.rhs)


def _constant(e: Expr) -> complex:
    """The value of an expression that does not read z; NaN where it fails."""
    if isinstance(e, Lit):  # no jet: a render reads real_coefficients per block
        v = e.value
    else:
        try:
            with np.errstate(all="ignore"):
                v = complex(_eval(e, Jet.constant(0j, 0)).d0)
        except (ArithmeticError, PoleEncountered):
            return complex(math.nan, math.nan)
    return v if cmath.isfinite(v) else complex(math.nan, math.nan)


class _BlockJets:
    """The jets of one block of points, shared by the fields a sweep calls there.

    While a sweep holds a block (`shared_jets`), a node that ``eval_jet`` is
    asked for on that very array, or on the half held with it, is evaluated
    once per array, at the highest order any field has read it in the sweep
    so far, and a read at a lower order gets that jet's prefix: the same
    bits, because jet arithmetic is triangular (see ``jets``).  Such a node
    met inside another expression on the array, as h is inside h*g, is read
    from here too.
    """

    def __init__(self):
        self.block = self.half = None
        self.jets: dict[tuple[int, int], Jet] = {}  # (id of array, id of node)
        # id -> (node, highest order read); holding the node keeps its id
        self.orders: dict[int, tuple[Expr, int]] = {}

    def hold(self, block, half=None) -> None:
        self.block, self.half, self.jets = block, half, {}

    def holds(self, p) -> bool:
        return p is self.block or p is self.half

    def read(self, e: Expr, p, order: int) -> Jet:
        key = (id(p), id(e))
        jet = self.jets.get(key)
        if jet is None or jet.order < order:
            top = max(order, self.orders.get(id(e), (e, 0))[1])
            self.orders[id(e)] = (e, top)
            jet = self.jets[key] = _eval(e, Jet.variable(p, top), share=False)
        return jet.truncate(order)


_held: _BlockJets | None = None


@contextmanager
def shared_jets():
    """Share jets between the fields called on one block of points at a time.

    Yields ``hold(block, half=None)``: from that call on until the next,
    every field that evaluates an expression at exactly the array ``block``,
    or at the array ``half``, shares one jet of it per array.  ``half`` is
    the upper half of a mirrored block, columns 0..n/2 of it, for the fields
    that evaluate only that (`held_half`).  Leaving the context drops every
    jet.
    """
    global _held
    outer, _held = _held, _BlockJets()
    try:
        yield _held.hold
    finally:
        _held = outer


def held_half(z):
    """The half held with z when z is the held block, else None: columns
    0..n/2 of a block whose column n - j is the conjugate of column j, as
    the walk holds it (`norms.level_walk`)."""
    held = _held
    return held.half if held is not None and z is held.block else None


def _eval(e: Expr, zjet: Jet, share: bool = True) -> Jet:
    """The jet of e, read from the held block's jets where e is shared there;
    ``share=False`` evaluates e itself (its subexpressions may be read)."""
    held = _held
    if share and held is not None and id(e) in held.orders and held.holds(zjet.coeffs[0]):
        return held.read(e, zjet.coeffs[0], len(zjet.coeffs) - 1)
    rule = _RULES.get(type(e))
    if rule is None:
        raise TypeError(f"not an expression node: {e!r}")
    return rule(e, zjet)


_VARIES = object()  # a Pow's exponent reads z


def _folded_exponent(e: Pow):
    """e's constant exponent, evaluated on its first use and kept on the node,
    or _VARIES.  An exponent that fails is not kept, so it fails every time."""
    if contains_var(e.exponent):
        w = _VARIES
    else:
        w = _eval(e.exponent, Jet.constant(0j, 0)).d0
    object.__setattr__(e, "_folded", w)
    return w


def _eval_pow(e: Pow, zjet: Jet) -> Jet:
    base = _eval(e.base, zjet)
    w = e._folded
    if w is None:
        w = _folded_exponent(e)
    if w is _VARIES:
        return base ** _eval(e.exponent, zjet)
    # a constant exponent is a number, so integer powers stay exact
    return base ** w


def _eval_call(e: Call, zjet: Jet) -> Jet:
    arg = _eval(e.arg, zjet)
    return arg.exp() if e.func == "exp" else arg.log()


_RULES = {
    Lit: lambda e, zjet: type(zjet).constant(e.value, len(zjet.coeffs) - 1),
    Var: lambda e, zjet: zjet,
    Neg: lambda e, zjet: -_eval(e.arg, zjet),
    Add: lambda e, zjet: _eval(e.lhs, zjet) + _eval(e.rhs, zjet),
    Sub: lambda e, zjet: _eval(e.lhs, zjet) - _eval(e.rhs, zjet),
    Mul: lambda e, zjet: _eval(e.lhs, zjet) * _eval(e.rhs, zjet),
    Div: lambda e, zjet: _eval(e.lhs, zjet) / _eval(e.rhs, zjet),
    Pow: _eval_pow,
    Call: _eval_call,
}


def eval_jet(e: Expr, p, order: int = 3) -> Jet:
    """Value and derivatives of the expression at p, as an order-``order`` jet.

    p may be a complex scalar (pole conditions raise) or a numpy array of
    points (lift the formula with ``maps.as_field`` to mask non-finite entries).
    Inside ``shared_jets``, the jet at the held block, or at the half held
    with it, is shared.
    """
    try:
        held = _held
        if held is not None and held.holds(p):
            return held.read(e, p, order)
        return _eval(e, Jet.variable(p, order))
    except ZeroDivisionError as exc:
        raise PoleEncountered("division by zero", point=complex(p)) from exc
    except PoleEncountered as exc:
        if exc.point is None:
            exc.point = complex(p) if not hasattr(p, "shape") else None
        raise


def eval_value(e: Expr, p):
    return eval_jet(e, p, order=0).d0

