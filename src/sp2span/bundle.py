"""The sphere projection, horizontality conditions, and point generation on Sp(2).

A group point is written p = [[x, y], [w, z]].  The sphere projection
sends p to (y, z) on S^7 and on to S^4 by (2 conj(y) z, |y|^2 - |z|^2),
which is invariant under the left/right mixed action
diag(lam, lam) p diag(conj(mu), 1).

The horizontal space at p is described three times:

* downstairs ("variant A"): u = [[0, beta], [-conj(beta), gamma]] lies in
  h_p iff  x beta conj(y) - y conj(beta) conj(x) + w beta conj(z)
  - z conj(beta) conj(w) + y gamma conj(y) + z gamma conj(z) = 0.
  No command computes this residual; h_p_residual in tests/test_bundle.py
  does, as the reference that variant B is bridged to;

* upstairs ("variant B"): trace-free u = [[a, b], [-conj(b), -a]] lies in
  Ad_p(h_p) iff  conj(x) a x - conj(w) conj(b) x + conj(x) b w
  - conj(w) a w = 0;

* by the metric: trace-free u lies in Ad_p(h_p) iff it is orthogonal to
  the three vertical fields ell_rho = rho Id - p diag(rho, 0) p* in the
  Ad-invariant metric <u, v> = Re Tr(u v*) (qmat.inner).  The variant-B
  residual is r = (p* u p)_11, and Re Tr is cyclic, so
  <u, p diag(rho, 0) p*> = Re(r conj(rho)) and
  <u, ell_rho> = dot(a + d, rho) - r_rho, which is -r_rho when a + d = 0.
  The span check (frames.check_rows) decides membership this way, on
  the rows it ranks.

Both residuals have identically vanishing real part, which is asserted as a
free sanity check (_sanity_zero_real).  Variant B for u is equivalent to
variant A for Ad_{p^-1}(u): the variant-B residual is, as a polynomial, the
(1,1) entry of Ad_{p^-1}(u), so a member of Ad_p(h_p) has that corner
vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import cos, isqrt, sin, sqrt

import numpy as np

from .qmat import (
    InvariantViolation,
    QMat2,
    ShapeMismatch,
    Sp2Alg,
    Sp2Point,
    conjugate4,
    diag,
    ell4,
    real_rank,
)
from .quat import (
    BackendMismatch,
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    NotRepresentable,
    Quaternion,
    Scalar,
    Sp2Error,
    ZERO4,
    add4,
    as_float,
    conj4,
    hamilton,
    largest,
    neg4,
    negligible,
    norm_sq4,
    one,
    over_lcm,
    qi,
    qj,
    qk,
    quat,
    ratios_over_lcm,
    sub4,
    zero,
)


class NonImaginaryRho(Sp2Error):
    """The direction rho fed to a fundamental-field formula has a real part."""


class DegenerateDraw(Sp2Error):
    """Random draws kept producing (numerically) dependent columns."""


# -- sphere projection and actions ------------------------------------------------


def project_s4_gm(p: Sp2Point):
    """(2 conj(y) z, |y|^2 - |z|^2): the projection whose total space
    realizes the exotic sphere quotient; invariant under the
    diag(lam, lam) ... diag(conj(mu), 1) action."""
    return (p.y.conj() * p.z).scale(2), p.y.norm_sq() - p.z.norm_sq()


def e_action(p: Sp2Point, lam: Quaternion, mu: Quaternion) -> Sp2Point:
    """p -> diag(lam, lam) @ p @ diag(conj(mu), 1) for unit lam, mu."""
    m = diag(lam, lam) @ p.m @ diag(mu.conj(), one(p.backend))
    return Sp2Point(m, validate=False)


# -- fundamental vertical fields --------------------------------------------------


def _require_backend_of(p: Sp2Point, rho: Quaternion):
    if p.backend != rho.backend:
        raise BackendMismatch("p and rho live on different scalar backends")


def ell_direct(p: Sp2Point, rho: Quaternion) -> QMat2:
    """Entrywise formula [[rho - x rho conj(x), -x rho conj(w)],
    [-w rho conj(x), rho - w rho conj(w)]] (qmat.ell4), on the numerators
    of x and w over their lcm P: every entry is over P^2 times rho's
    denominator."""
    _require_backend_of(p, rho)
    (xn, wn), pd = over_lcm((p.x, p.w))
    p_sq = pd * pd
    den = p_sq * rho.d
    return QMat2(*(Quaternion(*e, den) for e in ell4(xn, wn, rho.n, p_sq)))


def ell_from_projector(p: Sp2Point, rho: Quaternion) -> QMat2:
    """Independent construction rho Id - p @ diag(rho, 0) @ p*, the generic
    matrix product (qmat.conjugate4) on the numerators of p over their lcm
    P; the reference that identity_ell_dual and the tests compare
    ell_direct against."""
    _require_backend_of(p, rho)
    pn, pd = over_lcm(p.m.entries())
    p_sq = pd * pd
    r = rho.n
    rho_p = tuple([c * p_sq for c in r])
    # ZERO4 is integers: times a float it gives the bits that 0.0 would
    projected = conjugate4(pn, (r, ZERO4, ZERO4, ZERO4))
    den = p_sq * rho.d
    scalar = (rho_p, ZERO4, ZERO4, rho_p)
    return QMat2(*(Quaternion(*sub4(s, t), den) for s, t in zip(scalar, projected)))


def ell(p: Sp2Point, rho: Quaternion) -> Sp2Alg:
    """The vertical fundamental-field matrix ell_rho at p, via the entrywise
    formula.  rho must be imaginary: its real part is negligible at
    DEFAULT_TOL, as every invariant is checked, so literally 0 on the exact
    backend; otherwise NonImaginaryRho."""
    if not rho.is_imaginary(DEFAULT_TOL):
        raise NonImaginaryRho(f"rho must be purely imaginary, got real part {rho.h0}")
    return Sp2Alg(ell_direct(p, rho), validate=False)


# -- horizontality conditions ------------------------------------------------------


def _sanity_zero_real(res: Quaternion, scale: Scalar):
    # an invariant of the formulas, so DEFAULT_TOL whatever the caller's tol;
    # a NaN scale fails it
    if not negligible(res.n[0], DEFAULT_TOL * largest((1.0, as_float(scale)))):
        raise InvariantViolation("membership residual grew a real part (bug)")


def _require_trace_free(trace: Quaternion, tol: float):
    if not trace.is_zero(tol):
        raise ShapeMismatch("variant B needs a trace-free element")


def ad_h_p_residual(p: Sp2Point, u: Sp2Alg, tol: float = DEFAULT_TOL) -> Quaternion:
    """Variant B residual for trace-free u = [[a, b], [-conj(b), -a]]:
    conj(x) a x - conj(w) conj(b) x + conj(x) b w - conj(w) a w."""
    a, b, d = u.m.a, u.m.b, u.m.d
    _require_trace_free(a + d, tol)
    x, w = p.x, p.w
    res = x.conj() * a * x - w.conj() * b.conj() * x + x.conj() * b * w - w.conj() * a * w
    _sanity_zero_real(res, u.m.max_abs())
    return res


def in_ad_h_p(p: Sp2Point, u: Sp2Alg, tol: float = DEFAULT_TOL) -> bool:
    return ad_h_p_residual(p, u, tol).is_zero(tol)


def horizontal_space_rank(p: Sp2Point):
    """Rank of the linear system cutting Ad_p(h_p) out of the 7-dimensional
    trace-free (a, b) space, and the resulting solution dimension.

    The residual is R-linear in (a, b); its three imaginary components are
    evaluated on the 7 basis directions and the rank of the 7x3 matrix is
    certified (Bareiss on the exact backend).
    """
    backend = p.backend
    zero_q = zero(backend)
    basis = []
    for unit in (qi(backend), qj(backend), qk(backend)):
        basis.append((unit, zero_q))
    for unit in (one(backend), qi(backend), qj(backend), qk(backend)):
        basis.append((zero_q, unit))
    rows = []
    for a, b in basis:
        u = Sp2Alg(QMat2(a, b, -b.conj(), -a), validate=False)
        res = ad_h_p_residual(p, u)
        rows.append((res.h1, res.h2, res.h3))
    result = real_rank(rows)
    return result.rank, 7 - result.rank


def case_ii_corner(p: Sp2Point, tol: float = DEFAULT_TOL) -> str | None:
    """"x" or "w" when that entry of p vanishes, else None: its squared norm
    is negligible at (tol/4)^2, so 0 on the exact backend and at most
    (tol/4)^2 on floats.  Below the cut the constant antidiagonal basis is
    horizontal within tol, since its membership residual is at most
    2|x||w|, and so are its row defects <u, ell_rho>, which the span check
    tests (their trace part is 0)."""
    cut_sq = (tol / 4) ** 2
    if negligible(p.x.norm_sq(), cut_sq):
        return "x"
    if negligible(p.w.norm_sq(), cut_sq):
        return "w"
    return None


# -- random and constructed points --------------------------------------------------


RANDOM_SP2_ATTEMPTS = 64  # draws random_sp2 tries before DegenerateDraw

_KEY_WORD = (1 << 64) - 1  # a Philox key is two 64-bit words, low word first


@cache
def _philox() -> np.random.Generator:
    """The one Philox generator of the process, made on the first draw and
    re-keyed by every keyed_stream call, so importing the package builds
    none."""
    return np.random.Generator(np.random.Philox(key=0))


def keyed_stream(key: int) -> np.random.Generator:
    """The process's Philox generator set to counter 0 of key % 2^128 with
    an empty buffer, the state of a fresh
    np.random.Generator(np.random.Philox(key=key % 2^128)): it draws what
    that would, whatever was drawn before.  Re-keying skips the
    SeedSequence a new generator gathers and then discards.  The caller
    must take every draw before the next keyed_stream call (every point
    draw makes one), which re-keys the same generator; the package starts
    no threads, and a forked worker re-keys its own copy."""
    key %= 1 << 128
    g = _philox()
    g.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key & _KEY_WORD, key >> 64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return g


def random_sp2(seed: int) -> Sp2Point:
    """Haar-ish random float point: two Gaussian 8-vectors, the second
    orthogonalized against the first in the quaternionic Hermitian sense
    <(x,w),(y,z)> = conj(x) y + conj(w) z, both normalized, assembled as
    columns.  Deterministic per seed: the draws of a fresh Philox stream
    keyed by seed (keyed_stream).  The entries are built as 4-tuples
    (quat.hamilton), as exact_random_point builds its own, and become
    Quaternions only for the point."""
    g = keyed_stream(seed)
    for _ in range(RANDOM_SP2_ATTEMPTS):
        vals = g.standard_normal(16).tolist()
        x, w, y, z = vals[0:4], vals[4:8], vals[8:12], vals[12:16]
        n1 = norm_sq4(x) + norm_sq4(w)
        if n1 < 1e-12:
            continue
        s1 = 1.0 / sqrt(n1)
        x, w = [c * s1 for c in x], [c * s1 for c in w]
        overlap = add4(hamilton(conj4(x), y), hamilton(conj4(w), z))
        y, z = sub4(y, hamilton(x, overlap)), sub4(z, hamilton(w, overlap))
        n2 = norm_sq4(y) + norm_sq4(z)
        if n2 < 1e-12:
            continue
        s2 = 1.0 / sqrt(n2)
        y, z = [c * s2 for c in y], [c * s2 for c in z]
        return Sp2Point(QMat2(*(Quaternion(*q, 1) for q in (x, y, w, z))))
    raise DegenerateDraw(f"no usable draw after {RANDOM_SP2_ATTEMPTS} attempts (seed {seed})")


def sp1_cayley(s: Quaternion) -> Quaternion:
    """Unit quaternion (1 - s)(1 + s)^-1 from an exact imaginary s.

    For imaginary s, s^2 = -|s|^2 and (1 + s)^-1 = (1 - s)/(1 + |s|^2), so
    with s = S/D the unit is ((D^2 - |S|^2) - 2 D S)/(D^2 + |S|^2), built
    from the stored numerators with one gcd."""
    if s.backend != EXACT:
        raise BackendMismatch("sp1_cayley takes an exact s, not a float one")
    if not s.is_imaginary():
        raise ValueError("sp1_cayley needs a purely imaginary argument")
    _, a1, a2, a3 = s.n
    d = s.d
    d_sq, s_sq = d * d, a1 * a1 + a2 * a2 + a3 * a3
    t = -2 * d
    return Quaternion(d_sq - s_sq, t * a1, t * a2, t * a3, d_sq + s_sq)


@dataclass
class FiberNormalization:
    """Result of normalize_fiber: the rotated point, the unit lam that was
    applied (None for case II inputs, which pass through unchanged), and the
    normalized v = x w^-1 (None for case II)."""

    point: Sp2Point
    lam: Quaternion | None
    v: Quaternion | None


def normalize_fiber(p: Sp2Point) -> FiberNormalization:
    """Move p inside its diag(lam, lam)-orbit so that v = x w^-1, already in
    span{1, i}, gets a nonnegative i-part.

    Uses p -> diag(lam, lam) p diag(conj(lam), 1), which maps v to
    lam v conj(lam).  One rule on both backends, with no square root:
    points with x = 0 or w = 0 (case_ii_corner) are case II and are
    returned unchanged; a v in span{1, i} with a negative i-part is flipped
    to conj(v) by lam = j, which only permutes and negates components, so
    the moved point is exact on floats too; any other v raises
    NotRepresentable.  No verdict depends on it: the span check works on
    the point as given.
    """
    if case_ii_corner(p):
        return FiberNormalization(point=p, lam=None, v=None)
    v = p.x * p.w.inverse()
    if v.n[2] != 0 or v.n[3] != 0:
        raise NotRepresentable(
            "rotating Im(v) onto the i-axis needs square roots; "
            "supply a point whose v = x w^-1 lies in span{1, i}"
        )
    if v.n[1] >= 0:
        return FiberNormalization(point=p, lam=one(p.backend), v=v)
    lam = qj(p.backend)
    return FiberNormalization(point=e_action(p, lam, lam), lam=lam, v=v.conj())


# -- exact point factories -----------------------------------------------------------

# For a rational complex v with 1 + |v|^2 = (A^2 + B^2)/n^2 a sum of two
# rational squares, w0 = n (A + B i)/(A^2 + B^2) has |w0|^2 = 1/(1 + |v|^2)
# and
#
#     p = [[v w0 u1, w0 u2], [w0 u1, -conj(v) w0 u2]]
#
# is exactly symplectic for ANY rational unit quaternions u1, u2 (the
# columns stay orthonormal), with v = x w^-1 preserved exactly.  With v in
# span{1, i} and a nonnegative i-part, as the grids and the named cases of
# exact_random_point choose it, these points are fiber-normalized, as the
# paper's case frames expect; varying (u1, u2) sweeps the whole
# fiber-normalized locus over that v.  (The span check needs no
# normalization.)  tests/conftest.py keeps the object expressions of
# fiber_point, sp1_cayley and ir_w0 as the references they must equal.


def fiber_point(v: Quaternion, w0: Quaternion, u1: Quaternion, u2: Quaternion) -> Sp2Point:
    """Assemble the point above from the stored numerators, one gcd per
    entry (on floats, the IEEE operations of the Quaternion products in the
    same order).  Preconditions: |w0|^2 (1 + |v|^2) = 1 and
    |u1| = |u2| = 1; validated via the Sp2Point invariant."""
    if len({q.backend for q in (v, w0, u1, u2)}) > 1:
        raise BackendMismatch("fiber_point's operands live on different scalar backends")
    vn, w0n = v.n, w0.n
    w, w_den = hamilton(w0n, u1.n), w0.d * u1.d
    y, y_den = hamilton(w0n, u2.n), w0.d * u2.d
    return Sp2Point(QMat2(
        Quaternion(*hamilton(vn, w), v.d * w_den),
        Quaternion(*y, y_den),
        Quaternion(*w, w_den),
        Quaternion(*neg4(hamilton(conj4(vn), y)), v.d * y_den),
    ))


def two_squares(n: int):
    """Some (A, B) with A^2 + B^2 = n, or None.  Bounded search; n stays
    small here (grid denominators)."""
    for a in range(isqrt(n) + 1):
        rem = n - a * a
        b = isqrt(rem)
        if b * b == rem:
            return (a, b)
    return None


def complex_v_by_height(first: int):
    """Yield the integer triples (m1, m2, n) of the complex v = (m1 + m2 i)/n
    with m2 >= 0 and n >= 1 by height max(|m1|, m2, n), from height first
    on; within a height by n, then m1, then m2.  Unreduced triples are
    included."""
    height = first
    while True:
        for n in range(1, height + 1):
            for m1 in range(-height, height + 1):
                for m2 in range(0, height + 1):
                    if max(abs(m1), m2, n) == height:
                        yield m1, m2, n
        height += 1


def admissible_v_stream():
    """Yield (v, w0) pairs: rational complex v = (m1 + m2 i)/n such that
    1 + |v|^2 is a sum of two rational squares, together with the matching
    complex w0.  Deterministic enumeration, small heights first."""
    for m1, m2, n in complex_v_by_height(2):
        norm = n * n + m1 * m1 + m2 * m2
        sq = two_squares(norm)
        if sq is None:
            continue
        a_, b_ = sq
        v = quat(Fraction(m1, n), Fraction(m2, n), 0, 0)
        w0 = quat(Fraction(n * a_, norm), Fraction(n * b_, norm), 0, 0)
        yield v, w0


def ir_w0(v: Quaternion) -> Quaternion:
    """For real rational v = pnum/qden, a complex w0 with
    |w0|^2 = 1/(1 + v^2): w0 = qden (qden + pnum i)/(pnum^2 + qden^2)."""
    if v.backend != EXACT:
        raise BackendMismatch("ir_w0 takes an exact v, not a float one")
    pnum, qden = v.n[0], v.d
    return Quaternion(qden * qden, qden * pnum, 0, 0, pnum * pnum + qden * qden)


IB_W0 = quat(Fraction(1, 2), Fraction(1, 2), 0, 0)  # |w0|^2 = 1/2, for v = i


# -- exact sampling -------------------------------------------------------------------

# exact_random_point draws small rationals from a Philox stream.  The named
# cases are built by the factories above (sp1_cayley, fiber_point, ir_w0).
# Case None builds its U(2) core and right dressing as integer 4-tuples over
# one denominator (quat.hamilton on numerators); each entry's Quaternion puts
# them in lowest terms, so the point is validated over its own common
# denominator, not a product of the factors it was built from.  cayley_sp2 in
# tests/conftest.py and r_action in tests/test_bundle.py are the object
# constructions the tests compare it with.

# The bounds of a ratio's two draws, repeated for the most ratios one point
# takes (ten, case None): numerator in [-8, 8], denominator in [1, 8].
_RATIO_LOW = (-8, 1) * 10
_RATIO_HIGH = (9, 9) * 10


def rng_ratios(g, count: int, low=_RATIO_LOW, high=_RATIO_HIGH):
    """count random rationals as (numerator, denominator) pairs, drawn in
    that order in one call with the bounds of each draw from low and high
    (by default the sampler's): numpy's bounded draws take the same bits as
    2 * count scalar g.integers calls would."""
    draws = g.integers(low[: 2 * count], high[: 2 * count]).tolist()
    return list(zip(draws[::2], draws[1::2]))


def ratio_quaternion(ratios) -> Quaternion:
    """The exact quaternion whose components are the rationals given as
    (numerator, denominator) pairs, over their lcm: all four, or the i, j,
    k parts of an imaginary one when three are given."""
    nums, den = ratios_over_lcm(ratios)
    if len(nums) == 3:
        nums = [0, *nums]
    return Quaternion(*nums, den)


def _two_units(g):
    """sp1_cayley of two random imaginary s."""
    ratios = rng_ratios(g, 6)
    return sp1_cayley(ratio_quaternion(ratios[:3])), sp1_cayley(ratio_quaternion(ratios[3:]))


def _cayley_core(ratios):
    """The U(2) point (Id - S)(Id + S)^-1 for S = [[a i, b], [-conj(b), c i]]
    with b = b0 + b1 i, given as the (numerator, denominator) pairs of
    (a, b0, b1, c), as its entries (x, y, w, z) in integer 4-tuples over one
    denominator.

    With S = S'/D, M = D Id + S' = [[D + A i, B], [-conj(B), D + C i]] has
    adjugate [[D + C i, -B], [conj(B), D + A i]] and determinant
    det = (D + A i)(D + C i) + |B|^2, and (D Id - S') adj(M) is
    [[r + e i, -2 D B], [2 D conj(B), r - e i]] with r = D^2 + A C - |B|^2
    and e = D (C - A).  The point is that matrix times conj(det) over |det|^2.
    """
    (a, b0, b1, c), d = ratios_over_lcm(ratios)
    b_sq = b0 * b0 + b1 * b1
    r, e = d * d + a * c - b_sq, d * (c - a)
    t, f = d * d - a * c + b_sq, d * (a + c)  # det = t + f i
    d2 = 2 * d
    x = (r * t + e * f, e * t - r * f, 0, 0)
    y = (-d2 * (b0 * t + b1 * f), -d2 * (b1 * t - b0 * f), 0, 0)
    w = (d2 * (b0 * t - b1 * f), -d2 * (b1 * t + b0 * f), 0, 0)
    z = (r * t - e * f, -(e * t + r * f), 0, 0)
    return (x, y, w, z), t * t + f * f


EXACT_CASE_KINDS = (None, "I-b", "I-r", "II-x0", "II-w0")
# The case of sample index n of exact `verify`: EXACT_CYCLE[n % 8].
EXACT_CYCLE = (None, "I-b", None, "I-r", "II-x0", None, "II-w0", None)


def exact_random_point(seed: int, case: str | None = None) -> Sp2Point:
    """Deterministic exact rational point of Sp(2).

    case=None composes a U(2) Cayley core (all entries in span{1, i}) with a
    random Sp(1)-Cayley right dressing diag(conj(lam), conj(mu)), which
    fixes v = x w^-1.  So v is complex, but its i-part takes either sign:
    these points are not fiber-normalized, and land in case I-a almost
    always.  The named cases are built on the fiber-normalized locus of
    their stratum, by fiber_point (I-b with v = i and IB_W0, I-r with a
    random real v and ir_w0) or as the diagonal or antidiagonal matrix of
    two units (II), each unit an sp1_cayley of random imaginary s.  All
    outputs are exactly symplectic and exactly classifiable.  The draws
    are those of a fresh Philox stream keyed by seed (keyed_stream).
    """
    g = keyed_stream(seed)
    if case is None:
        ratios = rng_ratios(g, 10)
        (x0, y0, w0, z0), core_den = _cayley_core(ratios[:4])
        lam = sp1_cayley(ratio_quaternion(ratios[4:7]))
        mu = sp1_cayley(ratio_quaternion(ratios[7:]))
        lam_c, mu_c = conj4(lam.n), conj4(mu.n)
        x_den, y_den = core_den * lam.d, core_den * mu.d
        return Sp2Point(QMat2(
            Quaternion(*hamilton(x0, lam_c), x_den),
            Quaternion(*hamilton(y0, mu_c), y_den),
            Quaternion(*hamilton(w0, lam_c), x_den),
            Quaternion(*hamilton(z0, mu_c), y_den),
        ))
    if case == "I-b":
        return fiber_point(qi(EXACT), IB_W0, *_two_units(g))
    if case == "I-r":
        for _ in range(64):
            ((num, den),) = rng_ratios(g, 1)
            if num != 0:
                break
        else:
            raise DegenerateDraw("could not draw a nonzero rational v")
        v = Quaternion(num, 0, 0, 0, den)
        return fiber_point(v, ir_w0(v), *_two_units(g))
    if case == "II-x0":
        zq = zero(EXACT)
        return Sp2Point(QMat2(zq, *_two_units(g), zq))
    if case == "II-w0":
        return Sp2Point(diag(*_two_units(g)))
    raise ValueError(f"unknown case request {case!r}")


# Deterministic unit menu for grid constructions (no RNG involved): the
# sp1_cayley units of these imaginary seeds.
UNIT_SEEDS = (
    quat(0, 0, 0, 0),
    quat(0, 1, 0, 0),
    quat(0, 0, 1, 0),
    quat(0, 0, 0, 1),
    quat(0, Fraction(1, 2), Fraction(1, 3), 0),
    quat(0, 0, Fraction(2, 3), Fraction(1, 2)),
    quat(0, Fraction(1, 3), 0, Fraction(3, 4)),
    quat(0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    quat(0, Fraction(2, 5), Fraction(1, 5), Fraction(3, 5)),
    quat(0, 1, Fraction(1, 4), Fraction(1, 2)),
)
UNIT_MENU = [sp1_cayley(s) for s in UNIT_SEEDS]


def grid_ia(count: int):
    """Deterministic case I-a points: admissible complex v off the real axis
    and off v = i, dressed by cycling rational units."""
    out = []
    stream = admissible_v_stream()
    k = 0
    while len(out) < count:
        v, w0 = next(stream)
        if v.h1 == 0:
            continue
        if v.h0 == 0 and v.h1 == 1:
            continue
        u1 = UNIT_MENU[k % len(UNIT_MENU)]
        u2 = UNIT_MENU[(k // len(UNIT_MENU) + k) % len(UNIT_MENU)]
        out.append(fiber_point(v, w0, u1, u2))
        k += 1
    return out

def grid_ib(count: int):
    """Deterministic case I-b points (v = i); the unit dressing sweeps the
    |a|^2 - |b|^2 split across the stratum."""
    out = []
    for k in range(count):
        u1 = UNIT_MENU[k % len(UNIT_MENU)]
        u2 = UNIT_MENU[(k + 3) % len(UNIT_MENU)]
        out.append(fiber_point(qi(EXACT), IB_W0, u1, u2))
    return out


IR_V_MENU = [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2),
    Fraction(-1, 2), Fraction(3, 4), Fraction(-4, 3), Fraction(5, 12), Fraction(7, 2),
]


def grid_ir(count: int):
    out = []
    for k in range(count):
        v = quat(IR_V_MENU[k % len(IR_V_MENU)], 0, 0, 0)
        u1 = UNIT_MENU[k % len(UNIT_MENU)]
        u2 = UNIT_MENU[(k + 5) % len(UNIT_MENU)]
        out.append(fiber_point(v, ir_w0(v), u1, u2))
    return out


def grid_ii(count: int):
    """Alternating x = 0 (antidiagonal) and w = 0 (diagonal) points."""
    out = []
    zq = zero(EXACT)
    for k in range(count):
        u1 = UNIT_MENU[k % len(UNIT_MENU)]
        u2 = UNIT_MENU[(k + 7) % len(UNIT_MENU)]
        if k % 2 == 0:
            out.append(Sp2Point(QMat2(zq, u1, u2, zq)))
        else:
            out.append(Sp2Point(diag(u1, u2)))
    return out


def ib_float_point(split: float, phase1: float = 0.3, phase2: float = 1.1) -> Sp2Point:
    """Float case I-b point with |a|^2 - |b|^2 = split.

    Needed because the quarter stratum split = 1/4 contains no rational
    points at all (|a|^2 = 3/8 is not a sum of two rational squares), so it
    can only be reached numerically.
    """
    if not -0.5 <= split <= 0.5:
        raise ValueError("split must lie in [-1/2, 1/2]")
    ra = sqrt((0.5 + split) / 2.0)
    rb = sqrt((0.5 - split) / 2.0)
    w = quat(ra * cos(phase1), ra * sin(phase1), rb * cos(phase2), rb * sin(phase2))
    y = quat(cos(phase1 + phase2) / sqrt(2.0), sin(phase1 + phase2) / sqrt(2.0), 0.0, 0.0)
    i_f = qi(FLOAT)
    return Sp2Point(QMat2(i_f * w, y, w, i_f * y))
