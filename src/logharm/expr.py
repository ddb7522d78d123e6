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
wobble through the branch cut.

Note the grammar gives unary minus the tighter binding: ``-z^2`` is
``(-z)^2``.  Parenthesize exponents when in doubt; the printer does.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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


def _eval(e: Expr, zjet: Jet) -> Jet:
    if isinstance(e, Lit):
        return Jet.constant(e.value, zjet.order)
    if isinstance(e, Var):
        return zjet
    if isinstance(e, Neg):
        return -_eval(e.arg, zjet)
    if isinstance(e, Add):
        return _eval(e.lhs, zjet) + _eval(e.rhs, zjet)
    if isinstance(e, Sub):
        return _eval(e.lhs, zjet) - _eval(e.rhs, zjet)
    if isinstance(e, Mul):
        return _eval(e.lhs, zjet) * _eval(e.rhs, zjet)
    if isinstance(e, Div):
        return _eval(e.lhs, zjet) / _eval(e.rhs, zjet)
    if isinstance(e, Pow):
        base = _eval(e.base, zjet)
        if contains_var(e.exponent):
            return base ** _eval(e.exponent, zjet)
        # constant exponent: fold it so integer powers stay exact
        w = _eval(e.exponent, Jet.constant(0j, 0)).d0
        return base ** w
    if isinstance(e, Call):
        arg = _eval(e.arg, zjet)
        return arg.exp() if e.func == "exp" else arg.log()
    raise TypeError(f"not an expression node: {e!r}")


def eval_jet(e: Expr, p, order: int = 3) -> Jet:
    """Value and derivatives of the expression at p, as an order-``order`` jet.

    p may be a complex scalar (pole conditions raise) or a numpy array of
    points (lift the formula with ``maps.as_field`` to mask non-finite entries).
    """
    try:
        return _eval(e, Jet.variable(p, order))
    except ZeroDivisionError as exc:
        raise PoleEncountered("division by zero", point=complex(p)) from exc
    except PoleEncountered as exc:
        if exc.point is None:
            exc.point = complex(p) if not hasattr(p, "shape") else None
        raise


def eval_value(e: Expr, p):
    return eval_jet(e, p, order=0).d0


def wirtinger_pair(e: Expr, p) -> tuple[complex, complex]:
    """(d/dz, d/dzbar) of an analytic expression: the second slot is 0."""
    jet = eval_jet(e, p, order=1)
    return jet.d1, 0j
