"""Shared strategies and independent oracles for the test suite, and the
reference constructions that no command runs: the object-level Cayley
transform and 2x2 inverse behind the exact sampler's reference, the object
expressions of the Sp(1) Cayley unit, the fiber point, ir_w0's w0, ell_rho
and Ad_p that the numerator code in bundle and qmat must equal, and the
canonical report form the golden and CLI tests compare."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from sp2span import frames
from sp2span.qmat import QMat2, RankResult, Sp2Alg, Sp2Point, diag, scalar_mat
from sp2span.quat import EXACT, Quaternion, ZeroDivisor, one, quat, zero

# Small rationals keep Fraction blowup in long products under control while
# still exercising carries and sign handling.
fracs = st.fractions(min_value=-5, max_value=5, max_denominator=12)

floats = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False, width=64
)


def exact_quat(a, b, c, d) -> Quaternion:
    return quat(Fraction(a), Fraction(b), Fraction(c), Fraction(d), backend=EXACT)


exact_quats = st.builds(exact_quat, fracs, fracs, fracs, fracs)

# Pairwise coprime denominators (Mersenne primes) for the large strategy.
MERSENNE_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)
big_ints = st.integers(min_value=-(10**40), max_value=10**40)
big_dens = st.integers(min_value=1, max_value=10**40)


@st.composite
def big_exact_quats(draw) -> Quaternion:
    """Exact quaternions with denominators up to 10^40.  Each component is
    zero, over a denominator shared by the quaternion, over its own Mersenne
    prime (coprime to every other component's), or over a free denominator."""
    shared = draw(big_dens)
    parts = []
    for prime in MERSENNE_PRIMES:
        kind = draw(st.sampled_from(("zero", "shared", "coprime", "free")))
        if kind == "zero":
            parts.append(Fraction(0))
        elif kind == "shared":
            parts.append(Fraction(draw(big_ints), shared))
        elif kind == "coprime":
            parts.append(Fraction(draw(big_ints), prime))
        else:
            parts.append(Fraction(draw(big_ints), draw(big_dens)))
    return exact_quat(*parts)


nonzero_exact_quats = exact_quats.filter(lambda q: not q.is_zero())
float_quats = st.builds(lambda a, b, c, d: quat(a, b, c, d), floats, floats, floats, floats)


def left_mult_matrix(q: Quaternion):
    """The 4x4 real matrix of r -> q r in the (1, i, j, k) basis; an
    independent model of the Hamilton product."""
    a, b, c, d = q.components()
    return [
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ]


def mat_vec(m, v):
    return [sum(m[r][c] * v[c] for c in range(4)) for r in range(4)]


def object_check(p, tol, drop_label=None):
    """The span check on the object path: frames.verify_frame on
    frames.span_frame without the row labeled drop_label.  The reference
    for frames.check_point; returns (the FrameCheck, the checked frame)."""
    full = frames.span_frame(p, tol)
    frame = frames.Frame(
        tag=full.tag, entries=tuple(e for e in full.entries if e.label != drop_label)
    )
    return frames.verify_frame(p, frame, tol), frame


@pytest.fixture(scope="session")
def identity_results():
    """One run of the full identity suite, shared by every test that reads it."""
    return frames.run_identity_suite()


def numpy_pivoted_rank(rows, rel_tol: float) -> RankResult:
    """The float rank as elimination on the free block: the reference for
    qmat._pivoted_rank, which runs the same algorithm as one step on the
    whole block per pivot (pivot rows left at 0, pivot columns set to 0).
    Same row equilibration, complete-pivot search (np.argmax over the free
    rows and columns: the first largest entry in row-major order), relative
    threshold, and update row -= (row[c] / piv) * prow on every free row."""
    a = np.array(rows, dtype=np.float64)
    n_rows, n_cols = a.shape
    scale = np.max(np.abs(a), axis=1)
    nonzero = scale > 0.0
    a[nonzero] /= scale[nonzero, None]
    max_initial = float(np.max(np.abs(a))) if a.size else 0.0
    if max_initial == 0.0:
        return RankResult(rank=0, method="pivoted-ge", min_rel_pivot=None)
    threshold = rel_tol * max_initial
    row_free = list(range(n_rows))
    col_free = list(range(n_cols))
    pivots = []
    positions = []
    while row_free and col_free:
        sub = np.abs(a[np.ix_(row_free, col_free)])
        flat = int(np.argmax(sub))
        ri, ci = divmod(flat, sub.shape[1])
        val = float(sub[ri, ci])
        if val <= threshold:
            break
        r, c = row_free[ri], col_free[ci]
        pivots.append(val)
        positions.append((r, c))
        piv = a[r, c]
        for r2 in row_free:
            if r2 != r and a[r2, c] != 0.0:
                a[r2, :] -= (a[r2, c] / piv) * a[r, :]
        row_free.remove(r)
        col_free.remove(c)
    min_rel = min(pivots) / max_initial if pivots else None
    return RankResult(
        rank=len(pivots),
        method="pivoted-ge",
        pivots=pivots,
        positions=positions,
        min_rel_pivot=min_rel,
    )


def eager_bareiss_rank(rows) -> RankResult:
    """The exact rank as eager Bareiss elimination, every row below the
    pivot updated at every step: the reference for qmat._bareiss_rank,
    which brings a row up to date only when a pivot search reads it and
    skips zero-multiplier steps.  Same first-nonzero row pivoting, row swap
    and pivots."""
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0])
    prev = 1
    pr = 0
    pivots = []
    positions = []
    for pc in range(n_cols):
        pivot_row = None
        for r in range(pr, n_rows):
            if m[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
        piv = m[pr][pc]
        for r in range(pr + 1, n_rows):
            mrpc = m[r][pc]
            row_r = m[r]
            row_p = m[pr]
            for c in range(pc + 1, n_cols):
                # fraction-free update: every intermediate is an integer minor
                row_r[c] = (row_r[c] * piv - mrpc * row_p[c]) // prev
            row_r[pc] = 0
        pivots.append(piv)
        positions.append((pr, pc))
        prev = piv
        pr += 1
        if pr == n_rows:
            break
    return RankResult(rank=pr, method="bareiss", pivots=pivots, positions=positions)


# -- reference constructions -------------------------------------------------------


def identity(backend: str) -> QMat2:
    return QMat2(one(backend), zero(backend), zero(backend), one(backend))


def qmat_inverse(m: QMat2) -> QMat2:
    """Invert a 2x2 quaternionic matrix via a Schur-complement step.

    The pivot is chosen as the larger of |a|, |d| for float stability; the
    antidiagonal case a = d = 0 is handled directly.  Raises ZeroDivisor for
    singular input.
    """
    a, b, c, d = m.entries()
    na, nd = a.norm_sq(), d.norm_sq()
    if na == 0 and nd == 0:
        if b.norm_sq() == 0 or c.norm_sq() == 0:
            raise ZeroDivisor("singular 2x2 quaternionic matrix")
        return QMat2(zero(m.backend), c.inverse(), b.inverse(), zero(m.backend))
    if na >= nd:
        ai = a.inverse()
        s = d - c * ai * b
        if s.norm_sq() == 0:
            raise ZeroDivisor("singular 2x2 quaternionic matrix")
        si = s.inverse()
        return QMat2(
            ai + ai * b * si * c * ai,
            -(ai * b * si),
            -(si * c * ai),
            si,
        )
    di = d.inverse()
    t = a - b * di * c
    if t.norm_sq() == 0:
        raise ZeroDivisor("singular 2x2 quaternionic matrix")
    ti = t.inverse()
    return QMat2(
        ti,
        -(ti * b * di),
        -(di * c * ti),
        di + di * c * ti * b * di,
    )


def cayley_sp2(s: Sp2Alg) -> Sp2Point:
    """Cayley transform (Id - S)(Id + S)^-1; lands in Sp(2) for any S in
    sp(2), exactly on the exact backend."""
    ident = identity(s.backend)
    return Sp2Point((ident - s.m) @ qmat_inverse(ident + s.m))


def sp1_cayley_reference(s: Quaternion) -> Quaternion:
    """(1 - s)(1 + s)^-1 on Quaternion objects."""
    o = one(s.backend)
    return (o - s) * (o + s).inverse()


def fiber_point_reference(v: Quaternion, w0: Quaternion, u1: Quaternion, u2: Quaternion) -> Sp2Point:
    """[[v w0 u1, w0 u2], [w0 u1, -conj(v) w0 u2]] on Quaternion objects."""
    w = w0 * u1
    y = w0 * u2
    return Sp2Point(QMat2(v * w, y, w, -(v.conj() * y)))


def ir_w0_reference(v: Quaternion) -> Quaternion:
    """qden (qden + pnum i)/(pnum^2 + qden^2) for real v = pnum/qden, on
    Fractions."""
    fr = v.h0
    pnum, qden = fr.numerator, fr.denominator
    norm = pnum * pnum + qden * qden
    return quat(Fraction(qden * qden, norm), Fraction(qden * pnum, norm), 0, 0)


def ell_from_projector_reference(p: Sp2Point, rho: Quaternion) -> QMat2:
    """rho Id - p diag(rho, 0) p* on QMat2 objects."""
    return scalar_mat(rho) - p.m @ diag(rho, zero(rho.backend)) @ p.m.adjoint()


def ell_direct_reference(p: Sp2Point, rho: Quaternion) -> QMat2:
    """The entrywise formula for ell_rho on Quaternion objects."""
    x, w = p.x, p.w
    return QMat2(
        rho - x * rho * x.conj(),
        -(x * rho * w.conj()),
        -(w * rho * x.conj()),
        rho - w * rho * w.conj(),
    )


def ad_reference(p: Sp2Point, u: Sp2Alg) -> Sp2Alg:
    """Ad_p(u) = p u p* on QMat2 objects."""
    return Sp2Alg(p.m @ u.m @ p.m.adjoint(), validate=False)


def canonical_json(report: dict) -> str:
    """The canonical serialized form: everything except wall time."""
    trimmed = {k: v for k, v in report.items() if k != "elapsed_s"}
    return json.dumps(trimmed, sort_keys=True, indent=2)
