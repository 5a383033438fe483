"""Quaternion arithmetic over two strictly separated scalar backends.

The exact backend stores every component as a `fractions.Fraction` and never
rounds; the float backend stores IEEE-754 doubles.  The backend is a property
of the data, not of the call site: mixing the two in a single operation raises
`BackendMismatch` instead of silently promoting, so an "exact" certificate can
never be contaminated by a stray double.  `scalar_backend` is the one rule for
raw scalars: Python and numpy floats are float, Fractions are exact, ints and
bools follow the others, and any other type is a TypeError.  `negligible`
is the one zero test built on that rule, DEFAULT_TOL the one default
tolerance, and `largest` the one maximum of magnitudes (NaN first).

Conventions: q = h0 + h1*i + h2*j + h3*k with i*j = k = -j*i, j*k = i, k*i = j
and i^2 = j^2 = k^2 = -1.  conj(q) negates the imaginary part, and
norm_sq(q) = q * conj(q) is real.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import numpy as np

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"

# The float comparison tolerance when none is given (--tol's default).
DEFAULT_TOL = 1e-9


class Sp2Error(Exception):
    """Base class for every error this package raises on purpose."""


class BackendMismatch(Sp2Error):
    """Exact and float scalars met inside a single operation."""


class ZeroDivisor(Sp2Error):
    """Inversion of zero was requested."""


class NotRepresentable(Sp2Error):
    """The result exists but cannot be written exactly on this backend."""


class ParseError(Sp2Error):
    """Malformed serialized data."""


_FLOAT_TYPES = (float, np.floating)


def scalar_backend(types, backend: str | None = None) -> str:
    """The one rule for the backend of raw scalars, given their types.

    Python and numpy floats are FLOAT and Fractions EXACT; ints and bools
    follow the others, or the requested backend, and are EXACT when nothing
    else decides.  Any other type raises TypeError, and floats and Fractions
    together, or either on the other backend, raise BackendMismatch.
    """
    kinds = set()
    for t in types:
        if t is Fraction:
            kinds.add(EXACT)
        elif t is float or issubclass(t, _FLOAT_TYPES):
            kinds.add(FLOAT)
        elif t is not int and t is not bool:
            raise TypeError(f"unsupported scalar type {t.__name__}")
    if backend is not None:
        if backend != EXACT and backend != FLOAT:
            raise ValueError(f"unknown backend {backend!r}")
        kinds.add(backend)
    if len(kinds) > 1:
        requested = "" if backend is None else f" on the {backend} backend"
        raise BackendMismatch(f"exact and float scalars meet{requested}")
    return kinds.pop() if kinds else EXACT


def negligible(x, tol: float = DEFAULT_TOL) -> bool:
    """The one zero test, decided by the scalar type as scalar_backend
    decides a backend: Python and numpy floats are negligible when
    abs(x) <= tol (never NaN, nor an infinity at a finite tol); Fractions,
    ints and bools only when they are 0, whatever tol is."""
    t = type(x)
    if t is float:
        return abs(x) <= tol
    if t is Fraction or t is int or t is bool:
        return x == 0
    if issubclass(t, _FLOAT_TYPES):
        return bool(abs(x) <= tol)
    raise TypeError(f"unsupported scalar type {t.__name__}")


def largest(magnitudes) -> Scalar:
    """The largest of a sequence of magnitudes (nonnegative scalars), NaN
    when one of them is NaN.  max() alone drops a NaN that is not its first
    argument; a sum of magnitudes is NaN only when one of them is, and only
    floats can be NaN, so exact scalars pay one type test."""
    top = max(magnitudes)
    if type(top) is float and math.isnan(sum(magnitudes)):
        return math.nan
    return top


def on_backend(parts, backend: str | None = None) -> tuple:
    """parts stored on the backend scalar_backend decides: Python floats
    (numpy floats included) or Fractions."""
    if scalar_backend(set(map(type, parts)), backend) == FLOAT:
        return tuple([float(x) for x in parts])
    return tuple([x if type(x) is Fraction else Fraction(x) for x in parts])


class Quaternion:
    __slots__ = ("h0", "h1", "h2", "h3")

    def __init__(self, h0, h1, h2, h3):
        # Fast paths: all-float and all-Fraction tuples dominate the hot loops.
        if type(h0) is float and type(h1) is float and type(h2) is float and type(h3) is float:
            pass
        elif (
            type(h0) is Fraction
            and type(h1) is Fraction
            and type(h2) is Fraction
            and type(h3) is Fraction
        ):
            pass
        else:
            h0, h1, h2, h3 = on_backend((h0, h1, h2, h3))
        self.h0 = h0
        self.h1 = h1
        self.h2 = h2
        self.h3 = h3

    # -- backend bookkeeping ------------------------------------------------

    @property
    def backend(self) -> str:
        return FLOAT if type(self.h0) is float else EXACT

    def _check_backend(self, other: "Quaternion"):
        if (type(self.h0) is float) != (type(other.h0) is float):
            raise BackendMismatch("operands live on different scalar backends")

    def components(self):
        return (self.h0, self.h1, self.h2, self.h3)

    # -- ring structure -----------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        self._check_backend(other)
        return Quaternion(*add4(self.components(), other.components()))

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        self._check_backend(other)
        return Quaternion(*sub4(self.components(), other.components()))

    def __neg__(self) -> "Quaternion":
        return Quaternion(*neg4(self.components()))

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        if type(self.h0) is float and type(other.h0) is float:
            return Quaternion(*hamilton(self.components(), other.components()))
        self._check_backend(other)
        # Exact: the Hamilton product of the integer numerators, so only the
        # four results pay a gcd (in the Fraction constructor), not every
        # one of the 28 intermediate operations.
        da, db = denominator(self), denominator(other)
        c0, c1, c2, c3 = hamilton(numerators(self, da), numerators(other, db))
        den = da * db
        return Quaternion(Fraction(c0, den), Fraction(c1, den), Fraction(c2, den), Fraction(c3, den))

    def scale(self, s: Scalar) -> "Quaternion":
        """Multiply every component by a plain scalar (same backend)."""
        (s,) = on_backend((s,), self.backend)
        return Quaternion(self.h0 * s, self.h1 * s, self.h2 * s, self.h3 * s)

    def conj(self) -> "Quaternion":
        return Quaternion(*conj4(self.components()))

    def norm_sq(self) -> Scalar:
        if type(self.h0) is float:
            return norm_sq4(self.components())
        # Exact: for q = N / d, |q|^2 = |N|^2 / d^2, one Fraction.
        d = denominator(self)
        return Fraction(norm_sq4(numerators(self, d)), d * d)

    def inverse(self) -> "Quaternion":
        if type(self.h0) is float:
            n = self.norm_sq()
            if n == 0:
                raise ZeroDivisor("zero quaternion has no inverse")
            return Quaternion(self.h0 / n, -self.h1 / n, -self.h2 / n, -self.h3 / n)
        # Exact: q^-1 = d conj(N) / |N|^2 for q = N / d, one Fraction per
        # component.
        d = denominator(self)
        n0, n1, n2, n3 = numerators(self, d)
        n = n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3
        if n == 0:
            raise ZeroDivisor("zero quaternion has no inverse")
        return Quaternion(
            Fraction(d * n0, n), Fraction(-d * n1, n), Fraction(-d * n2, n), Fraction(-d * n3, n)
        )

    # -- predicates and parts -------------------------------------------------

    def is_zero(self, tol: float = 0.0) -> bool:
        """Every component negligible: literal on the exact backend (tol is
        ignored), within tol on floats; is_imaginary tests Re alike."""
        return (
            negligible(self.h0, tol)
            and negligible(self.h1, tol)
            and negligible(self.h2, tol)
            and negligible(self.h3, tol)
        )

    def is_imaginary(self, tol: float = 0.0) -> bool:
        return negligible(self.h0, tol)

    def max_abs(self) -> Scalar:
        return largest((abs(self.h0), abs(self.h1), abs(self.h2), abs(self.h3)))

    # -- dunder plumbing ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        if (type(self.h0) is float) != (type(other.h0) is float):
            return False
        return (
            self.h0 == other.h0
            and self.h1 == other.h1
            and self.h2 == other.h2
            and self.h3 == other.h3
        )

    def __hash__(self):
        return hash((self.h0, self.h1, self.h2, self.h3))

    def __repr__(self):
        return f"Quaternion({self.h0!r}, {self.h1!r}, {self.h2!r}, {self.h3!r})"


# -- 4-tuple arithmetic ----------------------------------------------------------

# Quaternions as 4-tuples of components (integers or floats): the one home
# of the arithmetic that Quaternion, QMat2 and the span kernel run on.


def denominator(q: "Quaternion") -> int:
    """The lcm of the component denominators of an exact quaternion."""
    return math.lcm(q.h0.denominator, q.h1.denominator, q.h2.denominator, q.h3.denominator)


def numerators(q: "Quaternion", den: int):
    """The integers (n0, n1, n2, n3) with q = n / den; den must be a
    multiple of denominator(q)."""
    h0, h1, h2, h3 = q.h0, q.h1, q.h2, q.h3
    return (
        h0.numerator * (den // h0.denominator),
        h1.numerator * (den // h1.denominator),
        h2.numerator * (den // h2.denominator),
        h3.numerator * (den // h3.denominator),
    )


def lowest_terms(nums, den: int):
    """(nums / g, den / g) for g = gcd(den, *nums): the integers over the
    smallest common denominator of the values nums[i] / den, for den > 0."""
    g = math.gcd(den, *nums)
    return [c // g for c in nums], den // g


def hamilton(a, b):
    """The Hamilton product of two quaternions given as 4-tuples of
    components (integers or floats)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def conj4(a):
    """conj of a quaternion given as a 4-tuple."""
    return (a[0], -a[1], -a[2], -a[3])


def add4(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def sub4(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def neg4(a):
    return (-a[0], -a[1], -a[2], -a[3])


def norm_sq4(a):
    """|a|^2 of a quaternion given as a 4-tuple, summed in component order."""
    return a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]


def matmul4(m, n):
    """The product of two 2x2 quaternionic matrices [[a, b], [c, d]] given
    as their entries (a, b, c, d) in 4-tuples, returned the same way."""
    a, b, c, d = m
    e, f, g, h = n
    return (
        add4(hamilton(a, e), hamilton(b, g)),
        add4(hamilton(a, f), hamilton(b, h)),
        add4(hamilton(c, e), hamilton(d, g)),
        add4(hamilton(c, f), hamilton(d, h)),
    )


# -- constructors -------------------------------------------------------------


def quat(h0, h1=0, h2=0, h3=0, backend: str | None = None) -> Quaternion:
    """Coercing constructor.  With backend=None the components decide."""
    if backend is None:
        return Quaternion(h0, h1, h2, h3)
    return Quaternion(*on_backend((h0, h1, h2, h3), backend))


def zero(backend: str) -> Quaternion:
    return quat(0, 0, 0, 0, backend=backend)


def one(backend: str) -> Quaternion:
    return quat(1, 0, 0, 0, backend=backend)


def qi(backend: str) -> Quaternion:
    return quat(0, 1, 0, 0, backend=backend)


def qj(backend: str) -> Quaternion:
    return quat(0, 0, 1, 0, backend=backend)


def qk(backend: str) -> Quaternion:
    return quat(0, 0, 0, 1, backend=backend)


def as_float(s: Scalar) -> float:
    """The float of a scalar for a report: +-inf when it is too large for
    a float, where float() raises OverflowError."""
    try:
        return float(s)
    except OverflowError:
        return math.inf if s > 0 else -math.inf


def dot(q: Quaternion, r: Quaternion) -> Scalar:
    """Euclidean component dot product, equal to Re(q * conj(r))."""
    q._check_backend(r)
    return q.h0 * r.h0 + q.h1 * r.h1 + q.h2 * r.h2 + q.h3 * r.h3


# -- JSON encoding --------------------------------------------------------------

# Exact scalars travel as "num/den" strings, float scalars as JSON numbers
# (json round-trips doubles bit-exactly via repr).


def scalar_to_json(s: Scalar):
    if type(s) is Fraction:
        return f"{s.numerator}/{s.denominator}"
    return s


def scalar_from_json(obj, backend: str) -> Scalar:
    if backend == EXACT:
        if isinstance(obj, str):
            try:
                return Fraction(obj)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational literal {obj!r}") from exc
        if isinstance(obj, int) and not isinstance(obj, bool):
            return Fraction(obj)
        raise ParseError(f"exact scalar must be a string or integer, got {obj!r}")
    if backend == FLOAT:
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            # json reads NaN, Infinity and integers beyond the double range;
            # none of them is a coordinate of a point
            try:
                value = float(obj)
            except OverflowError:
                value = math.inf
            if math.isfinite(value):
                return value
            raise ParseError(f"float scalar must be finite, got {obj!r}")
        raise ParseError(f"float scalar must be a JSON number, got {obj!r}")
    raise ParseError(f"unknown backend {backend!r}")


def quat_to_json(q: Quaternion):
    return [scalar_to_json(x) for x in q.components()]


def quat_from_json(obj, backend: str) -> Quaternion:
    if not isinstance(obj, list) or len(obj) != 4:
        raise ParseError(f"quaternion must be a 4-element array, got {obj!r}")
    return Quaternion(*(scalar_from_json(x, backend) for x in obj))
