"""Truncated Taylor jets of analytic functions in one complex variable.

A jet of order n at a basepoint p stores the Taylor coefficients
a_k = f^(k)(p)/k! for k = 0..n (n <= 3 here; three derivatives is all the
Schwarzian machinery ever needs).  Arithmetic is exact truncated-series
arithmetic, so evaluating an expression tree on ``Jet.variable(p)``
produces the value and first three derivatives of the expression at p in
one pass, without symbolic differentiation or finite differences.

Coefficients may be Python complex scalars or numpy arrays; mixing the two
broadcasts elementwise, which is what the grid-sweep code relies on.  On
the scalar path a vanishing denominator (division, log, negative power)
raises :class:`PoleEncountered`; array formulas are lifted by
``maps.as_field``, which silences numpy warnings and masks non-finite
entries.
"""
from __future__ import annotations

import numpy as np

from .errors import PoleEncountered

MAX_ORDER = 3

# k! for k = 0..3, used to convert between Taylor coefficients and derivatives
_FACTORIAL = (1.0, 1.0, 2.0, 6.0)

_NUMERIC = (int, float, complex)


def _is_scalar_zero(x) -> bool:
    return not isinstance(x, np.ndarray) and complex(x) == 0


def _as_exact_int(w) -> int | None:
    """Return w as an int when it is numerically an integer, else None."""
    if isinstance(w, (bool, np.bool_)):
        return None
    if isinstance(w, (int, np.integer)):
        return int(w)
    if isinstance(w, (float, np.floating)):
        return int(w) if float(w).is_integer() else None
    if isinstance(w, (complex, np.complexfloating)):
        wc = complex(w)
        if wc.imag == 0.0 and wc.real.is_integer():
            return int(wc.real)
    return None


class Jet:
    """Taylor coefficients (a_0, ..., a_n) of an analytic function at a point."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not 1 <= len(coeffs) <= MAX_ORDER + 1:
            raise ValueError(f"jet order must be 0..{MAX_ORDER}, got {len(coeffs) - 1}")
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value, order: int = MAX_ORDER) -> "Jet":
        return cls((value,) + (0j,) * order)

    @classmethod
    def variable(cls, point, order: int = MAX_ORDER) -> "Jet":
        """The jet of the identity z -> z at ``point``."""
        if order == 0:
            return cls((point,))
        return cls((point, 1.0 + 0j) + (0j,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _deriv(self, k: int):
        if self.order < k:
            raise ValueError(f"jet of order {self.order} has no derivative {k}")
        return self.coeffs[k] * _FACTORIAL[k]

    @property
    def d0(self):
        return self.coeffs[0]

    @property
    def d1(self):
        return self._deriv(1)

    @property
    def d2(self):
        return self._deriv(2)

    @property
    def d3(self):
        return self._deriv(3)

    def truncate(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(self.coeffs[: order + 1])

    def derivative(self) -> "Jet":
        """Jet of f' at the same basepoint, one order lower."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(tuple((k + 1) * c for k, c in enumerate(self.coeffs[1:])))

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            return other
        if isinstance(other, _NUMERIC) or isinstance(
            other, (np.generic, np.ndarray)
        ):
            return Jet.constant(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return Jet(tuple(a + b for a, b in zip(self.coeffs[: n + 1], o.coeffs[: n + 1])))

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        a, b = self.coeffs, o.coeffs
        out = []
        for k in range(n + 1):
            acc = a[0] * b[k]
            for i in range(1, k + 1):
                acc = acc + a[i] * b[k - i]
            out.append(acc)
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        a, b = self.coeffs, o.coeffs
        if _is_scalar_zero(b[0]):
            raise PoleEncountered("division by zero")
        out = [a[0] / b[0]]
        for k in range(1, n + 1):
            acc = a[k]
            for i in range(k):
                acc = acc - out[i] * b[k - i]
            out.append(acc / b[0])
        return Jet(out)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def exp(self) -> "Jet":
        a = self.coeffs
        out = [np.exp(a[0])]
        for k in range(1, self.order + 1):
            acc = 1 * a[1] * out[k - 1]
            for j in range(2, k + 1):
                acc = acc + j * a[j] * out[k - j]
            out.append(acc / k)
        return Jet(out)

    def log(self) -> "Jet":
        """Principal-branch logarithm (cut on the negative real axis)."""
        a = self.coeffs
        if _is_scalar_zero(a[0]):
            raise PoleEncountered("log of zero")
        out = [np.log(a[0])]
        for k in range(1, self.order + 1):
            acc = k * a[k]
            for j in range(1, k):
                acc = acc - j * out[j] * a[k - j]
            out.append(acc / (k * a[0]))
        return Jet(out)

    def _int_pow(self, n: int) -> "Jet":
        if n == 0:
            return Jet.constant(1.0 + 0j, self.order)
        if n == 1:
            return self
        if n < 0:
            return Jet.constant(1.0 + 0j, self.order) / self._int_pow(-n)
        half = self._int_pow(n // 2)
        sq = half * half
        return sq * self if n % 2 else sq

    def __pow__(self, other):
        """a^w: repeated multiplication for integer w (so a^1 is a, exactly),
        principal-branch exp(w log a) otherwise."""
        if isinstance(other, Jet):
            return (self.log() * other).exp()
        n = _as_exact_int(other)
        if n is not None:
            return self._int_pow(n)
        if isinstance(other, _NUMERIC) or isinstance(other, np.generic):
            return (self.log() * other).exp()
        return NotImplemented

    def __repr__(self) -> str:
        return f"Jet({', '.join(repr(c) for c in self.coeffs)})"


def zpow_value(z, w):
    """z^w with the z = 0 limit rules: 0 for Re w > 0, 1 for w = 0, pole otherwise.

    Scalar z only; the array path goes through exp(w log z) and masks."""
    wc = complex(w)
    if complex(z) == 0:
        if wc == 0:
            return 1.0 + 0j
        if wc.real > 0:
            return 0j
        raise PoleEncountered("z^w at origin with Re(w) <= 0", point=0j)
    n = _as_exact_int(w)
    if n is not None:
        return complex(z) ** n
    return np.exp(wc * np.log(z))


def zpow_jet(z, w, order: int = 2) -> Jet:
    """Jet of z -> z^w (principal branch) at z != 0.

    Taylor coefficients are binomial: a_k = C(w, k) z^(w-k)."""
    v = np.exp(w * np.log(z))
    coeffs = [v]
    binom = 1.0 + 0j
    for k in range(1, order + 1):
        binom = binom * (w - (k - 1)) / k
        v = v / z
        coeffs.append(binom * v)
    return Jet(coeffs)
