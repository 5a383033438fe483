"""2x2 quaternionic matrices, Sp(2), its Lie algebra sp(2), and certified
real-rank computation in the 10 real coordinates of sp(2).

Layout convention (kept everywhere): m = [[a, b], [c, d]], and for group
points the entries are named p = [[x, y], [w, z]].  The Lie algebra consists
of m with adjoint(m) = -m, i.e. a and d purely imaginary and c = -conj(b); its
real coordinates are

    vec10(m) = (a1, a2, a3, b0, b1, b2, b3, d1, d2, d3)

in which the Ad-invariant inner product <u, v> = Re Tr(u v*) becomes the dot
product with weight 2 on the four b-coordinates (the -conj(b) entry
contributes the same amount again).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, lcm
from typing import Iterable, Sequence

import numpy as np

from .quat import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    BackendMismatch,
    ParseError,
    Quaternion,
    Scalar,
    Sp2Error,
    as_float,
    conj4,
    dot,
    hamilton,
    largest,
    matmul4,
    over_lcm,
    quat_from_json,
    quat_to_json,
    scalar_backend,
    zero,
)


class InvariantViolation(Sp2Error):
    """A validated structural invariant (p p* = Id, adjoint(m) = -m, ...) failed."""


class ShapeMismatch(Sp2Error):
    """Input does not have the documented shape."""


class NonFiniteRows(Sp2Error):
    """A float rank input holds NaN or an infinity."""


class QMat2:
    """Plain 2x2 matrix over the quaternions; no structure is assumed."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Quaternion, b: Quaternion, c: Quaternion, d: Quaternion):
        fa = type(a.n[0]) is float
        if (type(b.n[0]) is float) != fa or (type(c.n[0]) is float) != fa or (type(d.n[0]) is float) != fa:
            raise BackendMismatch("matrix entries live on different scalar backends")
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @property
    def backend(self) -> str:
        return self.a.backend

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "QMat2") -> "QMat2":
        if (type(self.a.n[0]) is float) != (type(other.a.n[0]) is float):
            raise BackendMismatch("operands live on different scalar backends")
        # The numerators over one denominator per operand (floats over 1),
        # so each of the four output entries pays one gcd.
        m, d1 = over_lcm(self.entries())
        n, d2 = over_lcm(other.entries())
        den = d1 * d2
        return QMat2(*(Quaternion(*e, den) for e in matmul4(m, n)))

    def __add__(self, other: "QMat2") -> "QMat2":
        return QMat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "QMat2") -> "QMat2":
        return QMat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self) -> "QMat2":
        return QMat2(-self.a, -self.b, -self.c, -self.d)

    def scale(self, s: Scalar) -> "QMat2":
        return QMat2(self.a.scale(s), self.b.scale(s), self.c.scale(s), self.d.scale(s))

    def left_mul(self, q: Quaternion) -> "QMat2":
        """Entrywise left multiplication q * m_rs, i.e. (q Id) @ m."""
        return QMat2(q * self.a, q * self.b, q * self.c, q * self.d)

    def adjoint(self) -> "QMat2":
        """Conjugate transpose."""
        return QMat2(self.a.conj(), self.c.conj(), self.b.conj(), self.d.conj())

    def trace(self) -> Quaternion:
        """Full quaternionic trace a + d.  Not cyclic; only its real part is."""
        return self.a + self.d

    def max_abs(self) -> Scalar:
        return largest([e.max_abs() for e in self.entries()])

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMat2):
            return NotImplemented
        return (
            self.a == other.a and self.b == other.b and self.c == other.c and self.d == other.d
        )

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"QMat2(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    def to_json(self):
        return {
            "a": quat_to_json(self.a),
            "b": quat_to_json(self.b),
            "c": quat_to_json(self.c),
            "d": quat_to_json(self.d),
        }

    @staticmethod
    def from_json(obj, backend: str) -> "QMat2":
        if not isinstance(obj, dict):
            raise ParseError(f"matrix must be an object, got {obj!r}")
        try:
            return QMat2(*(quat_from_json(obj[k], backend) for k in ("a", "b", "c", "d")))
        except KeyError as exc:
            raise ParseError(f"matrix object is missing entry {exc.args[0]!r}") from exc


def diag(q1: Quaternion, q2: Quaternion) -> QMat2:
    z = zero(q1.backend)
    return QMat2(q1, z, z, q2)


def scalar_mat(q: Quaternion) -> QMat2:
    return diag(q, q)


# -- validated wrappers ---------------------------------------------------------


def _unitarity_defect(x, y, w, z, one):
    """The largest component of p p* - one Id and p* p - one Id for
    p = [[x, y], [w, z]] given as 4-tuples, from their independent entries:
    the four column and row norms and the two off-diagonal products (the
    other off-diagonals are their conjugates, and the imaginary part of a
    diagonal entry is identically 0).  NaN when any deviation is NaN."""
    nx, ny, nw, nz = (a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 for a0, a1, a2, a3 in (x, y, w, z))
    devs = [abs(nx + ny - one), abs(nw + nz - one), abs(nx + nw - one), abs(ny + nz - one)]
    rows = zip(hamilton(x, conj4(w)), hamilton(y, conj4(z)))  # (p p*)_12
    cols = zip(hamilton(conj4(x), y), hamilton(conj4(w), z))  # (p* p)_12
    devs += [abs(s + t) for s, t in rows]
    devs += [abs(s + t) for s, t in cols]
    return largest(devs)


def _require_unitary(den, entries):
    """Raise InvariantViolation unless P = [[x, y], [w, z]], given as integer
    4-tuples, is den times a point of Sp(2): P P* = P* P = den^2 Id."""
    err = _unitarity_defect(*entries, den * den)
    if err != 0:
        dev = as_float(Fraction(err, den * den))
        raise InvariantViolation(f"p p* deviates from Id by {dev:.3e}")


class Sp2Point:
    """A point of Sp(2): m @ m* = m* @ m = Id (exact, or within tol)."""

    __slots__ = ("m",)

    def __init__(self, m: QMat2, tol: float = DEFAULT_TOL, validate: bool = True):
        if validate:
            if m.backend == EXACT:
                entries, den = over_lcm(m.entries())
                _require_unitary(den, entries)
            else:
                err = _unitarity_defect(*(e.n for e in m.entries()), 1.0)
                if not err <= tol:
                    raise InvariantViolation(f"p p* deviates from Id by {err:.3e}")
        self.m = m

    # named-entry accessors: p = [[x, y], [w, z]]
    @property
    def x(self) -> Quaternion:
        return self.m.a

    @property
    def y(self) -> Quaternion:
        return self.m.b

    @property
    def w(self) -> Quaternion:
        return self.m.c

    @property
    def z(self) -> Quaternion:
        return self.m.d

    @property
    def backend(self) -> str:
        return self.m.backend

    def inverse(self) -> "Sp2Point":
        return Sp2Point(self.m.adjoint(), validate=False)

    def __eq__(self, other):
        if not isinstance(other, Sp2Point):
            return NotImplemented
        return self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return f"Sp2Point({self.m!r})"

    def to_json(self):
        out = self.m.to_json()
        out["kind"] = "sp2-point"
        return out

    @staticmethod
    def from_json(obj, backend: str, tol: float = DEFAULT_TOL) -> "Sp2Point":
        if isinstance(obj, dict) and obj.get("kind") not in (None, "sp2-point"):
            raise ParseError(f"expected kind 'sp2-point', got {obj.get('kind')!r}")
        return Sp2Point(QMat2.from_json(obj, backend), tol=tol)


def point_from_numerators(entries) -> Sp2Point:
    """The exact point [[x, y], [w, z]] from four (numerators, denominator)
    pairs, validated on the integers.  Each entry is stored in lowest terms,
    so the common denominator the check runs on is the point's own, not a
    product of the factors it was built from."""
    return Sp2Point(QMat2(*(Quaternion(*nums, d) for nums, d in entries)))


class Sp2Alg:
    """An element of sp(2): adjoint(m) = -m, i.e. [[alpha, beta], [-conj(beta), gamma]]
    with alpha, gamma purely imaginary (exact, or within DEFAULT_TOL on
    floats, whatever tol the caller checks with)."""

    __slots__ = ("m",)

    def __init__(self, m: QMat2, validate: bool = True):
        if validate:
            diff = m.adjoint() + m
            if not all(e.is_zero(DEFAULT_TOL) for e in diff.entries()):
                dev = as_float(diff.max_abs())
                raise InvariantViolation(f"m* + m deviates from 0 by {dev:.3e}")
        self.m = m

    @property
    def backend(self) -> str:
        return self.m.backend

    def __eq__(self, other):
        if not isinstance(other, Sp2Alg):
            return NotImplemented
        return self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return f"Sp2Alg({self.m!r})"


def ad(p: Sp2Point, u: Sp2Alg) -> Sp2Alg:
    """Adjoint action Ad_p(u) = p u p*.  Preserves sp(2), so no revalidation."""
    return Sp2Alg(p.m @ u.m @ p.m.adjoint(), validate=False)


def bracket(u: Sp2Alg, v: Sp2Alg) -> Sp2Alg:
    """Lie bracket [u, v] = u v - v u on sp(2).

    Both arguments must be `Sp2Alg`: for skew-Hermitian u and v,
    (u v)* = v* u* = v u, so the bracket is u v - (u v)*, one matrix product
    instead of two.  For matrices that are not skew-Hermitian that is not the
    commutator, so a plain `QMat2` raises ShapeMismatch.
    """
    if not (isinstance(u, Sp2Alg) and isinstance(v, Sp2Alg)):
        raise ShapeMismatch("bracket takes two sp(2) elements (Sp2Alg)")
    uv = u.m @ v.m
    return Sp2Alg(uv - uv.adjoint(), validate=False)


def inner(u: Sp2Alg, v: Sp2Alg) -> Scalar:
    """Ad-invariant inner product <u, v> = Re Tr(u v*) = sum of entrywise dots."""
    um, vm = u.m, v.m
    return dot(um.a, vm.a) + dot(um.b, vm.b) + dot(um.c, vm.c) + dot(um.d, vm.d)


# -- Vec10 coordinates ------------------------------------------------------------

Vec10 = tuple  # 10 scalars: (a1, a2, a3, b0, b1, b2, b3, d1, d2, d3)


def to_vec10(u: Sp2Alg) -> Vec10:
    a, b, d = u.m.a, u.m.b, u.m.d
    return (a.h1, a.h2, a.h3, b.h0, b.h1, b.h2, b.h3, d.h1, d.h2, d.h3)


def vec10_weighted_dot(s: Vec10, t: Vec10) -> Scalar:
    """The inner product in coordinates: weight 2 on the four b slots."""
    acc = s[0] * t[0] + s[1] * t[1] + s[2] * t[2]
    acc += 2 * (s[3] * t[3] + s[4] * t[4] + s[5] * t[5] + s[6] * t[6])
    return acc + s[7] * t[7] + s[8] * t[8] + s[9] * t[9]


# -- rank -------------------------------------------------------------------------


@dataclass
class RankResult:
    """Outcome of a real-rank computation over Vec10 rows.

    For the exact backend `pivots` holds the Bareiss pivots (integer leading
    minors of the integer rows: rows of ints as given, Fraction rows after
    row-wise denominator clearing): the rank certificate is that each is a
    nonzero integer.  For floats `pivots` holds pivot magnitudes (Python
    floats) after row max-abs equilibration, `positions` their (row, column)
    in the input, and `min_rel_pivot` is their minimum relative to the
    largest equilibrated entry.
    """

    rank: int
    method: str
    pivots: list = field(default_factory=list)
    positions: list = field(default_factory=list)
    min_rel_pivot: float | None = None

    def to_json(self):
        out = {
            "rank": self.rank,
            "method": self.method,
            "positions": [list(p) for p in self.positions],
        }
        if self.method == "bareiss":
            out["pivots"] = [str(p) for p in self.pivots]
        else:
            out["pivots"] = list(self.pivots)
            out["min_rel_pivot"] = self.min_rel_pivot
        return out


def _bareiss_rank(rows: list[Sequence[int]]) -> RankResult:
    """Fraction-free (Bareiss) elimination with first-nonzero row pivoting,
    doing only the big-integer updates its result reads.

    After j steps every entry of a row is a (j+1) x (j+1) minor of the
    input, an integer, and step j updates a row by
    row <- (row * piv_j - row[c_j] * prow_j) / piv_{j-1}, which zeroes its
    entry in the pivot column c_j.  Two rules skip work without changing a
    pivot or a position:

    - Lazy rows.  The pivot search at a column brings a row up to date
      only when it reads it, and stops at the first nonzero, so a row that
      no search reaches is never eliminated.  A row's zeros in the pivot
      columns are its record of the steps it has received: bringing it up
      to date reads its multiplier at each earlier step and applies the
      steps whose multiplier is not 0.
    - Zero multipliers.  When row[c_j] is 0 the update only scales the row
      by piv_j / piv_{j-1}, and a run of such steps telescopes, so it is
      skipped.  The stored row is then the true one times
      div[r] / piv_{j-1}, where div[r] is the pivot the row last divided by
      (1 at first), and a stored entry is 0 exactly when the true one is.
      The next step with a nonzero stored multiplier f gives the true row
      (row * piv_j - f * prow_j) / div[r], and a row that becomes the pivot
      row after skipped steps is rescaled once, to row * prev / div[r].
      Both results are minors, so both divisions are exact.  Dividing by
      prev in the first would floor an inexact quotient after skipped
      steps, a wrong value with no error.  A row swap moves div with its
      row.

    eager_bareiss_rank in tests/conftest.py updates every row at every
    step: the reference these rules must match.
    """
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0])
    div = [1] * n_rows
    cols = []
    prev = 1
    pr = 0
    pivots = []
    positions = []
    for pc in range(n_cols):
        pivot_row = None
        for r in range(pr, n_rows):
            row = m[r]
            d = div[r]
            for j, cj in enumerate(cols):
                f = row[cj]
                if f:
                    piv = pivots[j]
                    prow = m[j]
                    row[cj] = 0
                    for c in range(cj + 1, n_cols):
                        row[c] = (row[c] * piv - f * prow[c]) // d
                    d = piv
            div[r] = d
            if row[pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            div[pr], div[pivot_row] = div[pivot_row], div[pr]
        row = m[pr]
        d = div[pr]
        if d != prev:
            for c in range(pc, n_cols):
                row[c] = row[c] * prev // d
        piv = row[pc]
        cols.append(pc)
        pivots.append(piv)
        positions.append((pr, pc))
        prev = piv
        pr += 1
        if pr == n_rows:
            break
    return RankResult(rank=pr, method="bareiss", pivots=pivots, positions=positions)


def _pivoted_rank(rows: Sequence[Sequence[float]], rel_tol: float) -> RankResult:
    """Complete-pivot Gaussian elimination: one numpy step per pivot on the
    whole equilibrated block.

    Pivot rows are left exactly 0 (their factor is piv / piv = 1.0) and pivot
    columns are set to 0, so the largest entry of the whole block is the
    largest free one, and argmax (the first largest in row-major order) finds
    it at its input indices.  The update x - f * y takes the product and the
    difference as two IEEE operations, the arithmetic of the scalar
    elimination: every pivot and position is the one a row-by-row loop over
    the free block finds (`numpy_pivoted_rank` in tests/conftest.py).
    """
    a = np.array(rows, dtype=np.float64)
    n_rows, n_cols = a.shape
    # Row equilibration: rank is invariant under scaling rows by nonzero
    # constants, and it keeps the pivot ratios meaningful when one frame
    # entry dwarfs the others.
    scale = np.abs(a).max(axis=1)
    # max passes a NaN on and an infinity is its own max, so one test on the
    # largest row scale catches both.
    if not isfinite(scale.max()):
        raise NonFiniteRows("float rank input holds NaN or an infinity")
    nonzero = scale > 0.0
    a[nonzero] /= scale[nonzero, None]
    max_initial = float(np.abs(a).max())
    if max_initial == 0.0:
        return RankResult(rank=0, method="pivoted-ge", min_rel_pivot=None)
    threshold = rel_tol * max_initial
    steps = min(n_rows, n_cols)
    pivots = []
    positions = []
    while True:
        absa = np.abs(a)
        flat = int(absa.argmax())
        val = float(absa.flat[flat])
        if val <= threshold:
            break
        r, c = divmod(flat, n_cols)
        pivots.append(val)
        positions.append((r, c))
        if len(pivots) == steps:
            break
        a -= np.multiply.outer(a[:, c] / a[r, c], a[r])
        a[:, c] = 0.0
    min_rel = min(pivots) / max_initial if pivots else None
    return RankResult(
        rank=len(pivots),
        method="pivoted-ge",
        pivots=pivots,
        positions=positions,
        min_rel_pivot=min_rel,
    )


def real_rank(vectors: Iterable[Vec10], tol: float = DEFAULT_TOL) -> RankResult:
    """Rank of the real span of the given coordinate vectors.

    The rows' backend is quat.scalar_backend's of their scalar types.  Exact
    backend: fraction-free Bareiss elimination, the result a certificate,
    not an estimate.  Rows of Python ints (the span kernel's exact rows) go
    to it as they are; rows holding Fractions are first cleared of
    denominators row by row, which turns a row into the integer row the
    kernel returns for the same values.  Float backend (Python or numpy
    floats, taken into one float64 array as they are): complete-pivot
    Gaussian elimination on equilibrated rows with relative pivot threshold
    `tol`, one numpy step per pivot.  Rows mixing Fractions and floats
    raise BackendMismatch, rows of width 0 ShapeMismatch, and float rows
    holding NaN or an infinity NonFiniteRows.
    """
    rows = [tuple(v) for v in vectors]
    if not rows:
        return RankResult(rank=0, method="empty")
    width = len(rows[0])
    if width == 0:
        raise ShapeMismatch("rank input rows have no coordinates")
    for row in rows:
        if len(row) != width:
            raise ShapeMismatch("rank input rows have inconsistent lengths")
    types = {type(x) for row in rows for x in row}
    if scalar_backend(types) == FLOAT:
        return _pivoted_rank(rows, tol)
    if types == {int}:
        return _bareiss_rank(rows)
    int_rows = []
    for row in rows:
        # an int is its own numerator over 1
        denom = lcm(*(x.denominator for x in row))
        int_rows.append([x.numerator * (denom // x.denominator) for x in row])
    return _bareiss_rank(int_rows)
