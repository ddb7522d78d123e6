"""A textbook truncated Taylor jet, the reference `logharm.jets.Jet` is held to.

`RefJet` computes every product term, multiplies by every k, subtracts by
adding the negation, and keeps each recurrence of Griewank & Walther,
*Evaluating Derivatives*, ch. 13, as one loop, with the terms in the order
the loop meets them.  The value of a logarithm is `jets._log`, which is
tested against numpy on its own.

Three class attributes switch on the economies that `Jet` documents, so a
subclass can take any of them back:

- ``skip_zero_terms``: where a value coefficient is an array, a product
  term that is a scalar zero times an array is left out;
- ``skip_unit_factors``: 1 * x is taken as x;
- ``direct_subtraction``: a - b is one subtraction, not a + (-b).

`LeanRefJet` has all three, and must match `Jet` bit for bit.  The plain
`RefJet` is what every field must come out the same against.

`use_reference_jets` evaluates the package on a reference class.  The
point jet that ``expr`` builds for z is the one place the package picks
its jet class; every other jet takes the class of its operands, so the
helper sets that one binding.  A reference jet refuses to mix with a jet
of any other class, so a jet built by class name anywhere else, which
would quietly run part of a field's arithmetic on `Jet`, fails the test.
"""
from __future__ import annotations

import numpy as np

from logharm import expr
from logharm.errors import PoleEncountered
from logharm.jets import MAX_ORDER, _log

_NUMBERS = (int, float, complex, np.generic, np.ndarray)


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray)


def _scalar_zero(x) -> bool:
    return not _is_array(x) and complex(x) == 0


class RefJet:
    skip_zero_terms = False
    skip_unit_factors = False
    direct_subtraction = False

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not 1 <= len(coeffs) <= MAX_ORDER + 1:
            raise ValueError(f"jet order must be 0..{MAX_ORDER}, got {len(coeffs) - 1}")
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value, order: int = MAX_ORDER):
        return cls((value,) + (0j,) * order)

    @classmethod
    def variable(cls, point, order: int = MAX_ORDER):
        if order == 0:
            return cls((point,))
        return cls((point, 1.0 + 0j) + (0j,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _times(self, k, x):
        """k * x, or x itself for k == 1 when unit factors are skipped."""
        if self.skip_unit_factors and k == 1:
            return x
        return k * x

    def _deriv(self, k: int):
        if self.order < k:
            raise ValueError(f"jet of order {self.order} has no derivative {k}")
        return self._times((1.0, 1.0, 2.0, 6.0)[k], self.coeffs[k])

    d0 = property(lambda self: self.coeffs[0])
    d1 = property(lambda self: self._deriv(1))
    d2 = property(lambda self: self._deriv(2))
    d3 = property(lambda self: self._deriv(3))

    def truncate(self, order: int):
        if order >= self.order:
            return self
        return type(self)(self.coeffs[: order + 1])

    def derivative(self):
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        a = self.coeffs
        return type(self)(self._times(k, a[k]) for k in range(1, len(a)))

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RefJet):
            return other
        if hasattr(other, "coeffs"):
            raise TypeError(f"a reference jet does not mix with {type(other).__name__}")
        if isinstance(other, _NUMBERS):
            return type(self).constant(other, self.order)
        return None

    def _arrays(self, other) -> bool:
        """True when a product term of these jets may be left out."""
        return self.skip_zero_terms and (
            _is_array(self.coeffs[0]) or _is_array(other.coeffs[0])
        )

    @staticmethod
    def _structural_zero(x, y) -> bool:
        return (_is_array(x) and not _is_array(y) and y == 0) or (
            _is_array(y) and not _is_array(x) and x == 0
        )

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return type(self)(self.coeffs[k] + o.coeffs[k] for k in range(n + 1))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-c for c in self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.direct_subtraction:
            return self + (-o)
        n = min(self.order, o.order)
        return type(self)(self.coeffs[k] - o.coeffs[k] for k in range(n + 1))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        # c_k = sum_{i=0..k} a_i b_{k-i}
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        skip = self._arrays(o)
        out = []
        for k in range(min(len(a), len(b))):
            acc = None
            for i in range(k + 1):
                if skip and self._structural_zero(a[i], b[k - i]):
                    continue
                term = a[i] * b[k - i]
                acc = term if acc is None else acc + term
            out.append(0j if acc is None else acc)
        return type(self)(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # c_k = (a_k - sum_{i=0..k-1} c_i b_{k-i}) / b_0
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if _scalar_zero(b[0]):
            raise PoleEncountered("division by zero")
        skip = self._arrays(o)
        out = [a[0] / b[0]]
        for k in range(1, min(len(a), len(b))):
            acc = a[k]
            for i in range(k):
                if not (skip and self._structural_zero(out[i], b[k - i])):
                    acc = acc - out[i] * b[k - i]
            out.append(acc / b[0])
        return type(self)(out)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def exp(self):
        # e_k = (1/k) sum_{j=1..k} j a_j e_{k-j}
        a = self.coeffs
        skip = self._arrays(self)
        out = [np.exp(a[0])]
        for k in range(1, len(a)):
            acc = None
            for j in range(1, k + 1):
                if skip and self._structural_zero(a[j], out[k - j]):
                    continue
                term = self._times(j, a[j]) * out[k - j]
                acc = term if acc is None else acc + term
            out.append(0j if acc is None else acc / k)
        return type(self)(out)

    def log(self):
        # l_k = (k a_k - sum_{j=1..k-1} j l_j a_{k-j}) / (k a_0)
        a = self.coeffs
        if _scalar_zero(a[0]):
            raise PoleEncountered("log of zero")
        skip = self._arrays(self)
        out = [_log(a[0])]
        for k in range(1, len(a)):
            acc = self._times(k, a[k])
            for j in range(1, k):
                if not (skip and self._structural_zero(out[j], a[k - j])):
                    acc = acc - self._times(j, out[j]) * a[k - j]
            out.append(acc / self._times(k, a[0]))
        return type(self)(out)

    def _int_pow(self, n: int):
        # binary powering: a^n = (a^(n//2))^2, times a when n is odd
        if n == 0:
            return type(self).constant(1.0 + 0j, self.order)
        if n == 1:
            return self
        if n < 0:
            return type(self).constant(1.0 + 0j, self.order) / self._int_pow(-n)
        half = self._int_pow(n // 2)
        sq = half * half
        return sq * self if n % 2 else sq

    def __pow__(self, other):
        if isinstance(other, RefJet):
            return (self.log() * other).exp()
        n = _whole(other)
        if n is not None:
            return self._int_pow(n)
        if isinstance(other, (int, float, complex, np.generic)):
            return (self.log() * other).exp()
        return NotImplemented


def _whole(w) -> int | None:
    """w as an int when it is numerically a whole number, else None;
    booleans are not numbers here."""
    if isinstance(w, (bool, np.bool_)):
        return None
    if isinstance(w, (int, np.integer)):
        return int(w)
    if isinstance(w, (float, complex, np.floating, np.complexfloating)):
        w = complex(w)
        if w.imag == 0 and w.real.is_integer():
            return int(w.real)
    return None


class LeanRefJet(RefJet):
    """The economies `Jet` documents, all three."""

    skip_zero_terms = skip_unit_factors = direct_subtraction = True


def use_reference_jets(monkeypatch, jet_class: type) -> None:
    """Make ``jet_class`` the class that ``expr`` builds its point jets in."""
    monkeypatch.setattr(expr, "Jet", jet_class)
