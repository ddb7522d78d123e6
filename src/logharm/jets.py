"""Truncated Taylor jets of analytic functions in one complex variable.

A jet of order n at a basepoint p stores the Taylor coefficients
a_k = f^(k)(p)/k! for k = 0..n (n <= 3 here; three derivatives is all the
Schwarzian machinery ever needs).  Arithmetic is exact truncated-series
arithmetic, so evaluating an expression tree on ``Jet.variable(p)``
produces the value and first three derivatives of the expression at p in
one pass, without symbolic differentiation or finite differences.  It is
triangular: coefficient k never reads a coefficient above k, so a jet of
order n is, bit for bit, the first n + 1 coefficients of the same jet at a
higher order, and a caller evaluates at the lowest order its formula reads
(Griewank & Walther, *Evaluating Derivatives*, ch. 13).

Coefficients may be Python complex scalars or numpy arrays; mixing the two
broadcasts elementwise, which is what the grid-sweep code relies on.  A jet
whose value coefficient is a scalar takes the scalar path: products,
quotients, ``exp`` and ``log`` are written out by order, with every term
computed in the order the array loops add them, so the scalar path costs
little more than its arithmetic.  On the array path two things keep the
numpy work to what can be nonzero:

- a product term that is a scalar zero times an array (the zero tail of a
  constant or of the jet of z) is left out rather than computed as an
  array of zeros; on the scalar path every term is computed, so an inf
  times a zero tail still gives NaN there;
- the logarithm of an array is ``log|a| + i atan2(Im a, Re a)``, with the
  real part taken as ``0.5 log1p(|a|^2 - 1)`` for |a|^2 >= 1/2, where
  ``|a|^2 - 1 = (M-1)(M+1) + m^2`` keeps its relative accuracy (M and m
  the larger and smaller of |Re a| and |Im a|).  It agrees with ``np.log``
  to a few ulp of |log a| at a quarter of the cost; scalars use ``np.log``.

On the scalar path a vanishing denominator (division, log, negative power)
raises :class:`PoleEncountered`; ``maps.as_field`` lifts array formulas,
silencing numpy warnings, masking non-finite entries and reading such a
raise on a z-independent coefficient as a field that is NaN everywhere.

Jet arithmetic returns a jet of its operands' class, and the package
builds no jet by class name outside ``expr``, whose point jet picks the
class.  ``zpow_jet`` returns a `Jet`; ``maps`` copies its coefficients
into the class of the jet it multiplies.
"""
from __future__ import annotations

from operator import add as _add, neg as _neg, sub as _sub

import numpy as np

from .errors import PoleEncountered

MAX_ORDER = 3

# the zero coefficients of a constant jet of order k, k = 0..3
_ZERO_TAILS = tuple((0j,) * k for k in range(MAX_ORDER + 1))

_NUMERIC = (int, float, complex)


def _is_scalar_zero(x) -> bool:
    return not isinstance(x, np.ndarray) and complex(x) == 0


def _skips(x, y) -> bool:
    """True when x * y is a scalar zero times an array: a structural zero
    that array arithmetic leaves out.  Jets whose value coefficient is a
    scalar compute every product and never call this."""
    if type(x) is np.ndarray:
        return type(y) is not np.ndarray and y == 0
    return type(y) is np.ndarray and x == 0


def _scaled(k, x):
    """k * x for a whole number k, with no pass over an array x when k == 1."""
    return x if k == 1 else k * x


def _log(a):
    """Principal log; see the module docstring for the array form."""
    if type(a) is not np.ndarray:
        return np.log(a)
    x, y = a.real, a.imag
    ax, ay = np.abs(x), np.abs(y)
    big, small = np.maximum(ax, ay), np.minimum(ax, ay)
    with np.errstate(all="ignore"):
        r2m1 = (big - 1) * (big + 1) + small * small
        near = (r2m1 >= -0.5) & (r2m1 < np.inf)
        re = np.where(near, 0.5 * np.log1p(r2m1), np.log(np.abs(a)))
    out = np.empty(a.shape, dtype=complex)
    out.real = re
    out.imag = np.arctan2(y, x)
    return out


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
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be 0..{MAX_ORDER}, got {order}")
        return _jet((value,) + _ZERO_TAILS[order])

    @classmethod
    def variable(cls, point, order: int = MAX_ORDER) -> "Jet":
        """The jet of the identity z -> z at ``point``."""
        if order == 0:
            return _jet((point,))
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be 0..{MAX_ORDER}, got {order}")
        return _jet((point, 1.0 + 0j) + _ZERO_TAILS[order - 1])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _no_deriv(self, k: int):
        raise ValueError(f"jet of order {self.order} has no derivative {k}")

    # d_k = k! a_k; a_1 itself for d1, as k! = 1 there

    @property
    def d0(self):
        return self.coeffs[0]

    @property
    def d1(self):
        c = self.coeffs
        if len(c) < 2:
            self._no_deriv(1)
        return c[1]

    @property
    def d2(self):
        c = self.coeffs
        if len(c) < 3:
            self._no_deriv(2)
        return 2.0 * c[2]

    @property
    def d3(self):
        c = self.coeffs
        if len(c) < 4:
            self._no_deriv(3)
        return 6.0 * c[3]

    def truncate(self, order: int) -> "Jet":
        if order >= len(self.coeffs) - 1:
            return self
        return Jet(self.coeffs[: order + 1])

    def derivative(self) -> "Jet":
        """Jet of f' at the same basepoint, one order lower."""
        a = self.coeffs
        n = len(a)
        if n == 1:
            raise ValueError("cannot differentiate an order-0 jet")
        if n == 2:
            return _jet((a[1],))
        if n == 3:
            return _jet((a[1], 2 * a[2]))
        return _jet((a[1], 2 * a[2], 3 * a[3]))

    # -- arithmetic -------------------------------------------------------
    # Each operation on scalars is written out by order; every term is
    # computed, in the order and with the factors of the array loops below.

    def _coerce(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            return other
        if isinstance(other, _NUMERIC) or isinstance(
            other, (np.generic, np.ndarray)
        ):
            return _jet((other,) + _ZERO_TAILS[len(self.coeffs) - 1])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _jet(tuple(map(_add, self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return _jet(tuple(map(_neg, self.coeffs)))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _jet(tuple(map(_sub, self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        a0, b0 = a[0], b[0]
        if type(a0) is np.ndarray or type(b0) is np.ndarray:
            return _jet(_array_product(a, b))
        n = min(len(a), len(b))
        c0 = a0 * b0
        if n == 1:
            return _jet((c0,))
        a1, b1 = a[1], b[1]
        c1 = a0 * b1 + a1 * b0
        if n == 2:
            return _jet((c0, c1))
        a2, b2 = a[2], b[2]
        c2 = a0 * b2 + a1 * b1 + a2 * b0
        if n == 3:
            return _jet((c0, c1, c2))
        a3, b3 = a[3], b[3]
        return _jet((c0, c1, c2, a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        a0, b0 = a[0], b[0]
        if _is_scalar_zero(b0):
            raise PoleEncountered("division by zero")
        if type(a0) is np.ndarray or type(b0) is np.ndarray:
            return _jet(_array_quotient(a, b))
        n = min(len(a), len(b))
        c0 = a0 / b0
        if n == 1:
            return _jet((c0,))
        b1 = b[1]
        c1 = (a[1] - c0 * b1) / b0
        if n == 2:
            return _jet((c0, c1))
        b2 = b[2]
        c2 = (a[2] - c0 * b2 - c1 * b1) / b0
        if n == 3:
            return _jet((c0, c1, c2))
        return _jet((c0, c1, c2, (a[3] - c0 * b[3] - c1 * b2 - c2 * b1) / b0))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def exp(self) -> "Jet":
        a = self.coeffs
        a0 = a[0]
        if type(a0) is np.ndarray:
            return _jet(_array_exp(a))
        e0 = np.exp(a0)
        n = len(a)
        if n == 1:
            return _jet((e0,))
        a1 = a[1]
        e1 = a1 * e0 / 1  # x / 1 is not x where a part of x is infinite
        if n == 2:
            return _jet((e0, e1))
        a2 = a[2]
        e2 = (a1 * e1 + 2 * a2 * e0) / 2
        if n == 3:
            return _jet((e0, e1, e2))
        return _jet((e0, e1, e2, (a1 * e2 + 2 * a2 * e1 + 3 * a[3] * e0) / 3))

    def log(self) -> "Jet":
        """Principal-branch logarithm (cut on the negative real axis)."""
        a = self.coeffs
        a0 = a[0]
        if _is_scalar_zero(a0):
            raise PoleEncountered("log of zero")
        if type(a0) is np.ndarray:
            return _jet(_array_log(a))
        l0 = np.log(a0)
        n = len(a)
        if n == 1:
            return _jet((l0,))
        a1 = a[1]
        l1 = a1 / a0
        if n == 2:
            return _jet((l0, l1))
        a2 = a[2]
        l2 = (2 * a2 - l1 * a1) / (2 * a0)
        if n == 3:
            return _jet((l0, l1, l2))
        return _jet((l0, l1, l2, (3 * a[3] - l1 * a2 - 2 * l2 * a1) / (3 * a0)))

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


_new_jet = object.__new__


def _jet(coeffs: tuple) -> Jet:
    """A jet of a coefficient tuple that jet arithmetic built: no copy and no
    order check, which ``Jet(...)`` makes on every other input."""
    j = _new_jet(Jet)
    j.coeffs = coeffs
    return j


# -- array coefficients -----------------------------------------------------
# The loops the scalar branches above write out, with the structural-zero
# skip (`_skips`) that only arrays take.


def _array_product(a: tuple, b: tuple) -> tuple:
    out = []
    for k in range(min(len(a), len(b))):
        acc = None
        for i in range(k + 1):
            if _skips(a[i], b[k - i]):
                continue
            term = a[i] * b[k - i]
            acc = term if acc is None else acc + term
        out.append(0j if acc is None else acc)
    return tuple(out)


def _array_quotient(a: tuple, b: tuple) -> tuple:
    out = [a[0] / b[0]]
    for k in range(1, min(len(a), len(b))):
        acc = a[k]
        for i in range(k):
            if not _skips(out[i], b[k - i]):
                acc = acc - out[i] * b[k - i]
        out.append(acc / b[0])
    return tuple(out)


def _array_exp(a: tuple) -> tuple:
    out = [np.exp(a[0])]
    for k in range(1, len(a)):
        acc = None
        for j in range(1, k + 1):
            if _skips(a[j], out[k - j]):
                continue
            term = _scaled(j, a[j]) * out[k - j]
            acc = term if acc is None else acc + term
        out.append(0j if acc is None else acc / k)
    return tuple(out)


def _array_log(a: tuple) -> tuple:
    out = [_log(a[0])]
    for k in range(1, len(a)):
        acc = _scaled(k, a[k])
        for j in range(1, k):
            if not _skips(out[j], a[k - j]):
                acc = acc - _scaled(j, out[j]) * a[k - j]
        out.append(acc / _scaled(k, a[0]))
    return tuple(out)


def _origin_coeff(w, k: int):
    """The z -> 0 limit of the coefficient C(w, k) z^(w-k): 1 when w == k,
    0 when Re(w - k) > 0 or C(w, k) == 0 (w a whole number below k), and a
    pole otherwise."""
    if w == k:
        return 1.0 + 0j
    if (w - k).real > 0 or _as_exact_int(w) in range(k):
        return 0j
    raise PoleEncountered(f"z^w at origin with Re(w) <= {k}", point=0j)


def zpow_jet(z, w, order: int = 2) -> Jet:
    """Jet of z -> z^w (principal branch).

    Taylor coefficients are binomial: a_k = C(w, k) z^(w-k).  An integer w
    takes z^w by multiplication, with no log or exp.  w = 0 gives the
    constant 1 everywhere; any other w takes each coefficient's limit at a
    scalar z = 0 (`_origin_coeff`), while an array z = 0 is left to mask."""
    if w == 0:
        return Jet.constant(1.0 + 0j, order)
    if not isinstance(z, np.ndarray) and z == 0:
        return Jet(_origin_coeff(w, k) for k in range(order + 1))
    n = _as_exact_int(w)
    if n is not None:
        v = z ** n
    else:
        log_z = _log(z)  # a named operand, which numpy never elides
        v = np.exp(w * log_z)
    coeffs = [v]
    binom = 1.0 + 0j
    for k in range(1, order + 1):
        binom = binom * (w - (k - 1)) / k
        v = v / z
        coeffs.append(binom * v)
    return Jet(coeffs)
