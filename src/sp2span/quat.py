"""Quaternion arithmetic over two strictly separated scalar backends.

The exact backend never rounds: a Quaternion stores integer numerators over
one positive denominator in lowest terms and reads its components out as
`fractions.Fraction`s; the float backend stores IEEE-754 doubles over 1.
Both run the same 4-tuple arithmetic (hamilton, add4, ...) on the stored
numerators.  The backend is a property of the data, not of the call site:
mixing the two in a single operation raises `BackendMismatch` instead of
silently promoting, so an "exact" certificate can never be contaminated by a
stray double.  `scalar_backend` is the one rule for raw scalars: Python and
numpy floats are float, Fractions are exact, ints and bools follow the
others, and any other type is a TypeError.  `negligible` is the one zero
test built on that rule, DEFAULT_TOL the one default tolerance, and
`largest` the one maximum of magnitudes (NaN first).

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


class Quaternion:
    """q = (n0 + n1 i + n2 j + n3 k) / d, stored as the numerators n and the
    denominator d.  Exact: Python ints over an int d > 0 in lowest terms,
    gcd(d, *n) == 1, so equal values have equal storage.  Float: the four
    components, Python floats, over d = 1.

    Quaternion(n0, n1, n2, n3, d) takes numerators: ints over an int d > 0,
    which it puts in lowest terms with one gcd, or Python floats over d = 1
    (a numpy float is not one: it would be read as exact); the arithmetic
    below builds every result this way.  quat() takes components.  h0..h3
    and components() read the components: Fractions on the exact backend."""

    __slots__ = ("n", "d")

    def __init__(self, n0, n1, n2, n3, d):
        if d != 1:
            if d <= 0:
                raise ValueError(f"denominator must be positive, got {d}")
            g = math.gcd(d, n0, n1, n2, n3)
            if g != 1:
                n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
        self.n = (n0, n1, n2, n3)
        self.d = d

    def _component(i):
        def get(self):
            c = self.n[i]
            return c if type(c) is float else Fraction(c, self.d)

        return property(get, doc=f"h{i}: a Fraction on the exact backend, else a float.")

    h0, h1, h2, h3 = map(_component, range(4))
    del _component

    # -- backend bookkeeping ------------------------------------------------

    @property
    def backend(self) -> str:
        return FLOAT if type(self.n[0]) is float else EXACT

    def _check_backend(self, other: "Quaternion"):
        if (type(self.n[0]) is float) != (type(other.n[0]) is float):
            raise BackendMismatch("operands live on different scalar backends")

    def components(self):
        n = self.n
        if type(n[0]) is float:
            return n
        d = self.d
        return (Fraction(n[0], d), Fraction(n[1], d), Fraction(n[2], d), Fraction(n[3], d))

    # -- ring structure -----------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        self._check_backend(other)
        (a, b), d = over_lcm((self, other))
        return Quaternion(*add4(a, b), d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        self._check_backend(other)
        (a, b), d = over_lcm((self, other))
        return Quaternion(*sub4(a, b), d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(*neg4(self.n), self.d)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        self._check_backend(other)
        return Quaternion(*hamilton(self.n, other.n), self.d * other.d)

    def scale(self, s: Scalar) -> "Quaternion":
        """Multiply every component by a plain scalar (same backend)."""
        if scalar_backend((type(s),), self.backend) == FLOAT:
            s = float(s)
            return Quaternion(*[c * s for c in self.n], 1)
        return Quaternion(*[c * s.numerator for c in self.n], self.d * s.denominator)

    def conj(self) -> "Quaternion":
        return Quaternion(*conj4(self.n), self.d)

    def norm_sq(self) -> Scalar:
        n = norm_sq4(self.n)
        return n if type(n) is float else Fraction(n, self.d * self.d)

    def inverse(self) -> "Quaternion":
        n0, n1, n2, n3 = self.n
        n = n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3
        if n == 0:
            raise ZeroDivisor("zero quaternion has no inverse")
        if type(n) is float:
            return Quaternion(n0 / n, -n1 / n, -n2 / n, -n3 / n, 1)
        # (N/d)^-1 = d conj(N) / |N|^2
        d = self.d
        return Quaternion(d * n0, -d * n1, -d * n2, -d * n3, n)

    # -- predicates and parts -------------------------------------------------

    def is_zero(self, tol: float = 0.0) -> bool:
        """Every component negligible: literal on the exact backend (tol is
        ignored), within tol on floats; is_imaginary tests Re alike.  An
        exact component is 0 exactly when its numerator is."""
        n0, n1, n2, n3 = self.n
        return (
            negligible(n0, tol) and negligible(n1, tol) and negligible(n2, tol) and negligible(n3, tol)
        )

    def is_imaginary(self, tol: float = 0.0) -> bool:
        return negligible(self.n[0], tol)

    def max_abs(self) -> Scalar:
        top = largest([abs(c) for c in self.n])
        return top if type(top) is float else Fraction(top, self.d)

    # -- dunder plumbing ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, b = self.n, other.n
        if (type(a[0]) is float) != (type(b[0]) is float):
            return False
        # componentwise, so a NaN component is unequal even to itself
        return self.d == other.d and a[0] == b[0] and a[1] == b[1] and a[2] == b[2] and a[3] == b[3]

    def __hash__(self):
        return hash((self.n, self.d))

    def __repr__(self):
        return f"quat({self.h0!r}, {self.h1!r}, {self.h2!r}, {self.h3!r})"


# -- 4-tuple arithmetic ----------------------------------------------------------

# Quaternions as 4-tuples of components (integers or floats): the one home
# of the arithmetic that Quaternion, QMat2 and the span kernel run on.


def over_lcm(qs):
    """(nums, den): the quaternions qs as 4-tuples over one denominator, the
    lcm of their stored ones.  Integer numerators on the exact backend, the
    float components over 1 on floats."""
    den = math.lcm(*[q.d for q in qs])
    return [q.n if q.d == den else tuple([c * (den // q.d) for c in q.n]) for q in qs], den


def ratios_over_lcm(pairs):
    """(nums, den): the rationals given as (numerator, denominator) pairs,
    as integer numerators over one denominator, the lcm of theirs."""
    den = math.lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


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


def quat(h0, h1=0, h2=0, h3=0) -> Quaternion:
    """The quaternion with components h0..h3, on the backend scalar_backend
    gives them: floats stored as Python floats over 1, ints and Fractions
    as integer numerators over the lcm of their denominators."""
    if scalar_backend({type(h0), type(h1), type(h2), type(h3)}) == FLOAT:
        return Quaternion(float(h0), float(h1), float(h2), float(h3), 1)
    nums, d = ratios_over_lcm([(h.numerator, h.denominator) for h in (h0, h1, h2, h3)])
    return Quaternion(*nums, d)


# 0, 1, i, j and k as integer 4-tuples, and as Quaternions on each backend,
# built once: nothing changes a Quaternion after __init__, so every caller
# can share them.
ZERO4, ONE4, I4, J4, K4 = (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
_CONSTANTS = {
    EXACT: tuple(Quaternion(*c, 1) for c in (ZERO4, ONE4, I4, J4, K4)),
    FLOAT: tuple(Quaternion(*map(float, c), 1) for c in (ZERO4, ONE4, I4, J4, K4)),
}


def zero(backend: str) -> Quaternion:
    return _CONSTANTS[backend][0]


def one(backend: str) -> Quaternion:
    return _CONSTANTS[backend][1]


def qi(backend: str) -> Quaternion:
    return _CONSTANTS[backend][2]


def qj(backend: str) -> Quaternion:
    return _CONSTANTS[backend][3]


def qk(backend: str) -> Quaternion:
    return _CONSTANTS[backend][4]


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
    (a0, a1, a2, a3), (b0, b1, b2, b3) = q.n, r.n
    s = a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
    return s if type(s) is float else Fraction(s, q.d * r.d)


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
    return quat(*(scalar_from_json(x, backend) for x in obj))
