"""The span check, case labels, horizontal bases, and the paper's case frames.

The check at every point is case-free: the seven rows of the distribution D
(three vertical generators ell_rho and the four-element u-basis of
Ad_p(h_p)) plus the six brackets [u_a, u_b] must span sp(2) (real rank 10),
and D alone must have rank exactly 7.  That is the machine-checkable content
of the step-2 bracket-generating claim, and it needs no fiber normalization.

Every point also carries a case label, for reports only:

* I-a: the generic stratum,
* I-b: v = x w^-1 a unit imaginary quaternion (v = i once normalized),
  subdivided by whether |a|^2 - |b|^2 equals 1/4 for the normalized
  w = a + b j,
* I-r: v real and nonzero,
* II:  x = 0 or w = 0.

The paper gives each case its own 10-element frame (build_frame); those stay
here as the reference the acceptance tests certify, alongside the
closed-form displays (M, B, S, T, alpha, t11, t12, the non-degeneracy
factor) and an identity suite comparing them with direct computation.

Conventions: complex scalars such as alpha(v) act on matrices by LEFT
multiplication, alpha * m meaning (alpha Id) @ m; this matters because
quaternions do not commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, hypot

from . import bundle, kernel
from .qmat import (
    QMat2,
    RankResult,
    Sp2Alg,
    Sp2Point,
    ad,
    bracket,
    diag,
    inner,
    real_rank,
    to_vec10,
    vec10_weighted_dot,
)
from .quat import (
    DEFAULT_TOL,
    EXACT,
    BackendMismatch,
    Quaternion,
    Scalar,
    Sp2Error,
    as_float,
    dot,
    negligible,
    one,
    qi,
    qj,
    qk,
    quat,
    zero,
)
from .bundle import ell, in_ad_h_p

CASE_IA = "I-a"
CASE_IB_NONQUARTER = "I-b-nonquarter"
CASE_IB_QUARTER = "I-b-quarter"
CASE_IR = "I-r"
CASE_II = "II"


class ZeroV(Sp2Error):
    """v = x w^-1 vanished where a case-I construction needs it nonzero."""


class DegenerateV(Sp2Error):
    """alpha(v) (or a dependent closed form) is undefined at this v."""


# -- case labels ----------------------------------------------------------------------


@dataclass(frozen=True)
class CaseTag:
    """The case label of a point.  No verdict depends on its kind.

    v = x w^-1 is None for case II, and picks the u-basis (d_entries,
    kernel.span_rows); split is the I-b quantity |a|^2 - |b|^2, present
    only for I-b.
    """

    kind: str
    v: Quaternion | None = None
    split: Scalar | None = None


def classify(p: Sp2Point, tol: float = DEFAULT_TOL) -> CaseTag:
    """The case label of p as given, on either backend.

    * II when x or w vanishes (bundle.case_ii_corner);
    * otherwise I-r when Im v = 0;
    * otherwise I-b when Re v = 0 and |Im v| = 1.  Its split is the
      v-component of conj(w) v w, which the fiber action
      p -> diag(lam, lam) p diag(conj(lam), 1) leaves unchanged and which
      equals |a|^2 - |b|^2 once v = i; it is rational on exact points and is
      compared with 1/4;
    * otherwise I-a.

    Every comparison is quat.negligible of the difference: literal on exact
    points, within tol on floats.
    """
    if bundle.case_ii_corner(p, tol):
        return CaseTag(kind=CASE_II)
    v = p.x * p.w.inverse()
    # |Im v|, squared on the exact backend (from the stored numerators over
    # d^2); only its comparisons with 0 and 1 are read, which the square
    # does not change.  An exact Re v is 0 exactly when its numerator is.
    n0, n1, n2, n3 = v.n
    if p.backend == EXACT:
        im = Fraction(n1 * n1 + n2 * n2 + n3 * n3, v.d * v.d)
    else:
        im = hypot(n1, n2, n3)
    if negligible(im, tol):
        return CaseTag(kind=CASE_IR, v=v)
    if negligible(n0, tol) and negligible(im - 1, tol):
        s = dot(p.w.conj() * v * p.w, v)
        kind = CASE_IB_QUARTER if negligible(s - Fraction(1, 4), tol) else CASE_IB_NONQUARTER
        return CaseTag(kind=kind, v=v, split=s)
    return CaseTag(kind=CASE_IA, v=v)


# -- the u-basis ---------------------------------------------------------------------


def solution_b(v: Quaternion, a: Quaternion) -> Quaternion:
    """b_a = (v a - |v|^2 a v)/(2 |v|^2): the pairing that makes (a, b_a)
    solve conj(v) a v - a = conj(b) v - conj(v) b for imaginary a.  Valid for
    any nonzero quaternion v, not just complex ones."""
    n = v.norm_sq()
    if v.is_zero():
        raise ZeroV("b_a needs v != 0")
    return (v * a - (a * v).scale(n)).scale(1 / (2 * n))


def u_basis(v: Quaternion):
    """(u0, u_i, u_j, u_k): a basis of Ad_p(h_p) for any p with x w^-1 = v.

    u0 = [[0, v], [-conj(v), 0]] and u_rho = [[rho, b_rho], [-conj(b_rho),
    -rho]] with b_rho from solution_b."""
    if v.is_zero():
        raise ZeroV("u_basis needs v != 0")
    backend = v.backend
    u0 = Sp2Alg(QMat2(zero(backend), v, -v.conj(), zero(backend)), validate=False)
    out = [u0]
    for a in (qi(backend), qj(backend), qk(backend)):
        b = solution_b(v, a)
        out.append(Sp2Alg(QMat2(a, b, -b.conj(), -a), validate=False))
    return tuple(out)


def case_ii_basis(backend: str):
    """The constant basis of Ad_p(h_p) at points with x = 0 or w = 0:
    [[0, b], [-conj(b), 0]] for b in (1, i, j, k)."""
    zq = zero(backend)
    out = []
    for b in (one(backend), qi(backend), qj(backend), qk(backend)):
        out.append(Sp2Alg(QMat2(zq, b, -b.conj(), zq), validate=False))
    return tuple(out)


# -- closed-form displays (exact complex v) -------------------------------------------


def _require_complex_nonzero(v: Quaternion):
    """The one gate of every closed form: v exact, nonzero and in span{1, i}."""
    if v.backend != EXACT:
        raise BackendMismatch("closed forms take an exact v, not a float one")
    if v.is_zero():
        raise ZeroV("closed forms need v != 0")
    if v.h2 != 0 or v.h3 != 0:
        raise DegenerateV("closed forms are stated for v in span{1, i}")


def s_matrix(v: Quaternion) -> QMat2:
    """S(v) = [[1, s12], [s12, -1]], s12 = (v - |v|^2 conj(v))/(2 |v|^2);
    u_j = S(v) diag(j, j) and u_k = S(v) diag(k, k)."""
    _require_complex_nonzero(v)
    n = v.norm_sq()
    s12 = (v - v.conj().scale(n)).scale(1 / (2 * n))
    return QMat2(quat(1), s12, s12, quat(-1))


def ui_display(v: Quaternion) -> QMat2:
    """The printed factorization of u_i: [[1, v(1-|v|^2)/(2|v|^2)],
    [conj(v)(1-|v|^2)/(2|v|^2), -1]] diag(i, i)."""
    _require_complex_nonzero(v)
    n = v.norm_sq()
    f = (1 - n) / (2 * n)
    m = QMat2(quat(1), v.scale(f), v.conj().scale(f), quat(-1))
    return m @ diag(qi(EXACT), qi(EXACT))


def c0i_matrix(v: Quaternion) -> QMat2:
    """Closed form of [u0, u_i]: [[1-|v|^2, -2v], [-2 conj(v), |v|^2-1]]
    diag(i, i)."""
    _require_complex_nonzero(v)
    n = v.norm_sq()
    m = QMat2(quat(1 - n), v.scale(-2), v.conj().scale(-2), quat(n - 1))
    return m @ diag(qi(EXACT), qi(EXACT))


def m_matrix(v: Quaternion) -> QMat2:
    """M(v) = [[v^2 (1 - conj(v)^2)/|v|^2, -2 v0], [-2 v0, conj(v)^2 - 1]];
    [u0, u_j] = M(v) diag(j, j) and [u0, u_k] = M(v) diag(k, k)."""
    _require_complex_nonzero(v)
    n = v.norm_sq()
    vb2 = v.conj() * v.conj()
    m11 = (v * v * (quat(1) - vb2)).scale(1 / n)
    off = quat(-2 * v.h0)
    return QMat2(m11, off, off, vb2 - quat(1))


def b_matrix(v: Quaternion) -> QMat2:
    """B(v), the closed form with [u_i, u_j] = B(v) diag(k, k) and
    [u_i, u_k] = -B(v) diag(j, j)."""
    _require_complex_nonzero(v)
    n = v.norm_sq()
    vb2 = v.conj() * v.conj()
    two = quat(2)
    b11 = two + (v * v * (quat(1) - vb2)).scale((1 - n) / (2 * n * n))
    off = qi(EXACT).scale(-v.h1 * (1 - n) / n)
    b22 = two + ((quat(1) - vb2)).scale((1 - n) / (2 * n))
    return QMat2(b11, off, off, b22)


def _cdiv(a: Quaternion, b: Quaternion) -> Quaternion:
    return a * b.inverse()


def alpha(v: Quaternion) -> Quaternion:
    """The complex constant making Tr(U_j) = Tr(U_k) = 0, in its first
    printed form

      (8|v|^4 + (1-conj(v)^2)(1-|v|^2)(v^2+|v|^2))
      / (2|v|^2 (1-conj(v)^2)(|v|^2 - v^2)).

    identity_alpha_forms compares it with the second printed form.
    """
    _require_complex_nonzero(v)
    if v.h1 == 0:
        raise DegenerateV("alpha(v) needs v1 != 0")
    n = v.norm_sq()
    o = quat(1)
    vb = v.conj()
    v2, vb2 = v * v, vb * vb
    nq = quat(n)
    den = (o - vb2) * (nq - v2)
    if den.is_zero():
        raise DegenerateV("alpha(v) denominator vanishes (v^2 = -1 or v real)")
    num = quat(8 * n * n) + (o - vb2) * (o - nq) * (v2 + nq)
    return _cdiv(num, den.scale(2 * n))


def _alpha_form2(v: Quaternion) -> Quaternion:
    """The second printed form of alpha(v):
    4 conj(v)/((1-conj(v)^2)(conj(v)-v)) + (1-|v|^2)(v+conj(v))/(2|v|^2 (conj(v)-v))."""
    _require_complex_nonzero(v)
    n = v.norm_sq()
    vb = v.conj()
    dvv = vb - v
    return _cdiv(vb.scale(4), (quat(1) - vb * vb) * dvv) + _cdiv(
        (v + vb).scale(1 - n), dvv.scale(2 * n)
    )


def u_jk(v: Quaternion):
    """(U_j, U_k) = (alpha [u0,u_j] - [u_i,u_k], alpha [u0,u_k] + [u_i,u_j]);
    both trace-free by the choice of alpha, both of the form T(v) diag(rho, rho)."""
    return _u_jk_from(alpha(v), u_basis(v))


def _u_jk_from(a: Quaternion, us):
    u0, ui_, uj_, uk_ = us
    uj_m = bracket(u0, uj_).m.left_mul(a) - bracket(ui_, uk_).m
    uk_m = bracket(u0, uk_).m.left_mul(a) + bracket(ui_, uj_).m
    return Sp2Alg(uj_m), Sp2Alg(uk_m)


def t_matrix(v: Quaternion) -> QMat2:
    """T(v) = alpha(v) M(v) + B(v), so that U_j = T(v) diag(j, j)."""
    return m_matrix(v).left_mul(alpha(v)) + b_matrix(v)


def t11_closed(v: Quaternion) -> Quaternion:
    """(1 + |v|^2) v (1 + conj(v)^2) / (|v|^2 (conj(v) - v))."""
    _require_complex_nonzero(v)
    n = v.norm_sq()
    o = quat(1)
    num = (v * (o + v.conj() * v.conj())).scale(1 + n)
    return _cdiv(num, (v.conj() - v).scale(n))


def t12_closed(v: Quaternion) -> Quaternion:
    """2 (1 + |v|^2)(1 + conj(v)^2) / ((1 - conj(v)^2)(v - conj(v)))."""
    _require_complex_nonzero(v)
    n = v.norm_sq()
    o = quat(1)
    vb2 = v.conj() * v.conj()
    num = ((o + vb2)).scale(2 * (1 + n))
    return _cdiv(num, (o - vb2) * (v - v.conj()))


def nondegeneracy_factor(v: Quaternion) -> Quaternion:
    """-t11 s12 + t12 in its factored form
    (1 + |v|^2)(1 + conj(v)^2)^3 / (2 (v - conj(v)) conj(v)^2 (1 - conj(v)^2)),
    the quantity whose non-vanishing separates case I-a."""
    _require_complex_nonzero(v)
    if v.h1 == 0:
        raise DegenerateV("the factor needs v1 != 0")
    n = v.norm_sq()
    o = quat(1)
    vb = v.conj()
    vb2 = vb * vb
    if (o - vb2).is_zero() or (o + vb2).is_zero():
        raise DegenerateV("the factor needs v^2 != -1 (and v not real)")
    opv = o + vb2
    num = (opv * opv * opv).scale(1 + n)
    den = ((v - vb) * vb2 * (o - vb2)).scale(2)
    return _cdiv(num, den)


# -- frames ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameEntry:
    """One frame matrix with its defining formula (emitted as paper_eq in
    JSON).  Its role is read from its label: a row of D when the label is
    in D_LABELS, and a member that must lie in Ad_p(h_p) when it is in
    U_LABELS; every other entry is a bracket.  standard_sphere_frame's
    labels u0..u3 are not span labels, so its frame is never checked by
    verify_frame."""

    label: str
    formula: str
    m: Sp2Alg


@dataclass(frozen=True)
class Frame:
    tag: CaseTag
    entries: tuple


ELL_LABELS = ("ell_i", "ell_j", "ell_k")
U_LABELS = ("u0", "u_i", "u_j", "u_k")
D_LABELS = ELL_LABELS + U_LABELS  # the rows of D; the u rows are its members
SPAN_LABELS = D_LABELS + tuple(f"[{a},{b}]" for a, b in combinations(U_LABELS, 2))
_B_RHO = "b_rho = (v rho - |v|^2 rho v)/(2|v|^2), v = x w^-1"


def d_entries(p: Sp2Point, tag: CaseTag):
    """The seven rows of D at p, labeled D_LABELS: ell_i, ell_j, ell_k and
    the u-basis of Ad_p(h_p) for p's case label tag (classify): the
    constant antidiagonal basis where x or w vanishes (tag.v is None), else
    the basis built from the nonzero v = x w^-1.  It takes no tolerance:
    the case is decided in tag, and the ell directions are the constants
    i, j, k."""
    backend = p.backend
    out = [
        FrameEntry(label, f"{r}*Id - p diag({r}, 0) p*", ell(p, rho))
        for label, r, rho in zip(ELL_LABELS, "ijk", (qi(backend), qj(backend), qk(backend)))
    ]
    if tag.v is None:
        us = case_ii_basis(backend)
        formulas = [f"[[0, {b}], [-conj({b}), 0]]" for b in "1ijk"]
    else:
        us = u_basis(tag.v)
        formulas = ["[[0, v], [-conj(v), 0]], v = x w^-1"]
        formulas += [f"[[{r}, b_{r}], [-conj(b_{r}), -{r}]], {_B_RHO}" for r in "ijk"]
    out += [FrameEntry(n, f, u) for n, f, u in zip(U_LABELS, formulas, us)]
    return out


def span_frame(p: Sp2Point, tol: float = DEFAULT_TOL) -> Frame:
    """The case-free frame of the span check: the seven D rows and the six
    brackets [u_a, u_b], in SPAN_LABELS order, as objects.  check_point
    computes the same rows in kernel.span_rows; this form is their
    reference and gives `frame` its matrices."""
    tag = classify(p, tol)
    d = d_entries(p, tag)
    brackets = [
        FrameEntry(f"[{a.label},{b.label}]", f"bracket {a.label} {b.label}", bracket(a.m, b.m))
        for a, b in combinations(d[3:], 2)
    ]
    return Frame(tag=tag, entries=tuple(d + brackets))


def build_frame(p: Sp2Point, tag: CaseTag | None = None) -> Frame:
    """The paper's 10-element frame for p's case; the reference the
    acceptance tests certify.  The ell and u entries are those of the span
    frame (d_entries).

    I-a:  u0, u_i, u_j, u_k, [u0, u_i], U_j, U_k, ell_i, ell_j, ell_k.
    I-b:  ell_i, ell_j, ell_k, u0, u_i, u_j, u_k, F_i, F_j, F_k, with
          F_i = 1/2 [u0, u_i] replaced by F'_i = 1/4 [u_j, u_k] on the
          quarter stratum.
    I-r / II: ell_i, ell_j, ell_k, u0, u_i, u_j, u_k, [u0, u_i], [u0, u_j],
          [u0, u_k] (with the constant u-basis for case II).

    The recipes are stated at fiber-normalized points.  I-a's alpha(v) is a
    closed form, so its point must be exact with v in span{1, i}: a float
    point raises BackendMismatch, and an exact v off that line DegenerateV.
    The other recipes take either backend.
    """
    if tag is None:
        tag = classify(p)
    d = d_entries(p, tag)
    ells, u_entries = d[:3], d[3:]
    us = [e.m for e in u_entries]
    u0, ui_, uj_, uk_ = us

    if tag.kind == CASE_IA:
        uj_big, uk_big = _u_jk_from(alpha(tag.v), us)
        rest = [
            FrameEntry(
                "[u0,u_i]",
                "bracket u0 u_i = [[1-|v|^2, -2v], [-2 conj(v), |v|^2-1]] diag(i,i)",
                bracket(u0, ui_),
            ),
            FrameEntry("U_j", "alpha(v) [u0,u_j] - [u_i,u_k]", uj_big),
            FrameEntry("U_k", "alpha(v) [u0,u_k] + [u_i,u_j]", uk_big),
        ]
        return Frame(tag=tag, entries=tuple(u_entries + rest + ells))

    if tag.kind in (CASE_IB_NONQUARTER, CASE_IB_QUARTER):
        minus_half = _ratio(p.backend, -1, 2)
        if tag.kind == CASE_IB_NONQUARTER:
            f_first = FrameEntry(
                "F_i",
                "1/2 [u0,u_i] = [[0, 1], [-1, 0]]",
                Sp2Alg(bracket(u0, ui_).m.scale(_ratio(p.backend, 1, 2))),
            )
        else:
            f_first = FrameEntry(
                "F'_i",
                "1/4 [u_j,u_k] = [[i, 1], [-1, i]]",
                Sp2Alg(bracket(uj_, uk_).m.scale(_ratio(p.backend, 1, 4))),
            )
        rest = [
            f_first,
            FrameEntry(
                "F_j", "-1/2 [u0,u_j] = diag(j, j)", Sp2Alg(bracket(u0, uj_).m.scale(minus_half))
            ),
            FrameEntry(
                "F_k", "-1/2 [u0,u_k] = diag(k, k)", Sp2Alg(bracket(u0, uk_).m.scale(minus_half))
            ),
        ]
        return Frame(tag=tag, entries=tuple(ells + u_entries + rest))

    rest = [
        FrameEntry(name, f"bracket u0 {name[4:-1]}", bracket(u0, other))
        for name, other in (("[u0,u_i]", ui_), ("[u0,u_j]", uj_), ("[u0,u_k]", uk_))
    ]
    return Frame(tag=tag, entries=tuple(ells + u_entries + rest))


def _ratio(backend: str, num: int, den: int) -> Scalar:
    """num/den on the backend: a Fraction, or the float it equals."""
    return Fraction(num, den) if backend == EXACT else num / den


def standard_sphere_frame() -> Frame:
    """The constant frame on the round 7-sphere, on the exact backend: the
    antidiagonal u-basis at the identity plus all six pairwise brackets;
    spans sp(2) with rank 10."""
    us = case_ii_basis(EXACT)
    names = ("u0", "u1", "u2", "u3")
    entries = [FrameEntry(n, f"[[0, {b}], [-conj({b}), 0]]", u) for n, b, u in zip(names, "1ijk", us)]
    entries += [
        FrameEntry(f"[u{a},u{b}]", f"bracket u{a} u{b}", bracket(us[a], us[b]))
        for a, b in combinations(range(4), 2)
    ]
    return Frame(tag=CaseTag(kind="standard"), entries=tuple(entries))


# -- frame verification ----------------------------------------------------------------


@dataclass
class FrameCheck:
    case: str
    rank: RankResult
    negative_rank: RankResult
    membership_violations: list

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self):
        out = []
        if self.rank.rank != 10:
            out.append(f"rank {self.rank.rank} != 10")
        if self.negative_rank.rank != 7:
            out.append(f"bracket-free rank {self.negative_rank.rank} != 7")
        out += [f"{lbl} fails membership" for lbl in self.membership_violations]
        return out


def verify_frame(p: Sp2Point, frame: Frame, tol: float = DEFAULT_TOL) -> FrameCheck:
    """The frame has rank 10, its entries labeled D_LABELS (the rows of D)
    have rank exactly 7, the dimension of D, so the brackets are genuinely
    needed, and its entries labeled U_LABELS lie in Ad_p(h_p).  Membership
    needs a trace-free u (ad_h_p_residual raises ShapeMismatch otherwise),
    and its residual is the (1,1) entry of Ad_{p^-1}(u), so that corner
    needs no separate check."""
    vecs = [to_vec10(e.m) for e in frame.entries]
    d_rows = [vec for vec, e in zip(vecs, frame.entries) if e.label in D_LABELS]
    member_bad = [
        e.label for e in frame.entries if e.label in U_LABELS and not in_ad_h_p(p, e.m, tol)
    ]
    return _frame_check(frame.tag.kind, vecs, d_rows, member_bad, tol)


def check_point(p: Sp2Point, tol: float = DEFAULT_TOL, drop_label: str | None = None) -> FrameCheck:
    """The span check at p as given, with no fiber normalization: the 13
    rows of span_frame have rank 10, the rows labeled D_LABELS rank exactly
    7, and each row labeled U_LABELS lies in Ad_p(h_p).  drop_label removes
    that row first; it is the corruption hook that proves the failure path
    fires, and must name a row of SPAN_LABELS.

    Both backends run on the rows of kernel.span_rows alone: exact points
    get Bareiss certificates on its integer rows (span_frame's rows cleared
    of denominators), float points the pivoted elimination, and membership
    is read off the u and ell rows (_horizontal_row), with no residual
    formed.  span_frame and verify_frame build the same check from
    Quaternion/QMat2 objects; they are its reference."""
    if drop_label is not None and drop_label not in SPAN_LABELS:
        raise ValueError(f"no frame row is labeled {drop_label!r}")
    tag = classify(p, tol)
    rows = dict(zip(SPAN_LABELS, kernel.span_rows(p.x, p.w, tag.v)))
    ell_rows = [rows[label] for label in ELL_LABELS]  # read before a drop
    rows.pop(drop_label, None)
    member_bad = [u for u in U_LABELS if u in rows and not _horizontal_row(rows[u], ell_rows, tol)]
    d_rows = [row for label, row in rows.items() if label in D_LABELS]
    return _frame_check(tag.kind, list(rows.values()), d_rows, member_bad, tol)


def _horizontal_row(u_row, ell_rows, tol: float) -> bool:
    """Whether u lies in Ad_p(h_p), from its Vec10 row and the rows of the
    three ell_rho at p (each row may be scaled by a positive denominator):
    u is trace-free, a1 + d1 = a2 + d2 = a3 + d3 = 0, and orthogonal to
    every ell_rho in the Ad-invariant metric (the bundle module docstring).
    Each of these six numbers must be negligible (quat.negligible): 0 on
    the exact backend's integer rows, and within tol on floats."""
    defects = [u_row[c] + u_row[c + 7] for c in range(3)]
    defects += [vec10_weighted_dot(u_row, ell_row) for ell_row in ell_rows]
    return all(negligible(d, tol) for d in defects)


def _frame_check(case: str, rows, d_rows, member_bad, tol: float) -> FrameCheck:
    """The FrameCheck of a frame's rows: the rank of all of them, then of
    its D rows."""
    rank = real_rank(rows, tol)
    return FrameCheck(case, rank, real_rank(d_rows, tol), member_bad)


def frame_to_json(frame: Frame, check: FrameCheck) -> dict:
    return {
        "case": frame.tag.kind,
        "matrices": [
            {"label": e.label, "paper_eq": e.formula, "m": e.m.m.to_json()}
            for e in frame.entries
        ],
        "rank": check.rank.rank,
        "pivots": check.rank.to_json()["pivots"],
    }


# -- identity suite ---------------------------------------------------------------------

OK = "OK"
FAIL = "FAIL"


@dataclass
class IdentityResult:
    name: str
    status: str
    worst: float
    n: int
    note: str = ""

    def line(self) -> str:
        out = f"{self.status:4s} {self.name}  (n={self.n}, worst dev {self.worst:.3e})"
        return out + (f"  [{self.note}]" if self.note else "")


def rational_v_grid(count: int, admissible: bool = True):
    """Deterministic nonzero rational complex v values of increasing height;
    admissible ones avoid the real axis and v = i, as I-a needs."""
    out = []
    triples = bundle.complex_v_by_height(1)
    while len(out) < count:
        m1, m2, n = next(triples)
        if gcd(gcd(abs(m1), m2), n) != 1:
            continue  # the reduced form already appeared
        if (m1 == 0 and m2 == 0) or (admissible and (m2 == 0 or (m1 == 0 and m2 == n))):
            continue
        out.append(quat(Fraction(m1, n), Fraction(m2, n), 0, 0))
    return out


def _dev(a, b) -> Scalar:
    """The largest component of a - b, exact on the exact backend."""
    return 0 if a == b else (a - b).max_abs()


def _result(name: str, devs) -> IdentityResult:
    """Identities are checked exactly: OK when every deviation is 0, else
    FAIL.  The status is decided on the exact deviations; only the reported
    worst one becomes a float (inf when it is too large for one)."""
    worst = max(devs, default=0)
    status = OK if worst == 0 else FAIL
    return IdentityResult(name=name, status=status, worst=as_float(worst), n=len(devs))


def identity_standard_commutators() -> IdentityResult:
    """The six printed brackets of the constant antidiagonal basis."""
    us = case_ii_basis(EXACT)
    i, j, k = qi(EXACT), qj(EXACT), qk(EXACT)
    printed = {
        (0, 1): diag(i.scale(2), i.scale(-2)),
        (0, 2): diag(j.scale(2), j.scale(-2)),
        (0, 3): diag(k.scale(2), k.scale(-2)),
        (1, 2): diag(k.scale(2), k.scale(2)),
        (1, 3): diag(j.scale(-2), j.scale(-2)),
        (2, 3): diag(i.scale(2), i.scale(2)),
    }
    devs = [_dev(bracket(us[a], us[b]).m, m) for (a, b), m in printed.items()]
    return _result("standard-sphere printed commutators", devs)


def identity_case_commutators() -> IdentityResult:
    """The five printed closed forms ([u0,u_i] display, M(v) twice, B(v)
    twice) against direct brackets, on rational complex v including real ones."""
    vs = rational_v_grid(60, admissible=False) + [
        quat(Fraction(m, n), 0, 0, 0)
        for m, n in ((1, 1), (-1, 2), (2, 1), (3, 4), (-5, 3))
    ]
    devs = []
    for v in vs:
        u0, ui_, uj_, uk_ = u_basis(v)
        jj = diag(qj(EXACT), qj(EXACT))
        kk = diag(qk(EXACT), qk(EXACT))
        devs.append(_dev(bracket(u0, ui_).m, c0i_matrix(v)))
        devs.append(_dev(bracket(u0, uj_).m, m_matrix(v) @ jj))
        devs.append(_dev(bracket(u0, uk_).m, m_matrix(v) @ kk))
        devs.append(_dev(bracket(ui_, uj_).m, b_matrix(v) @ kk))
        devs.append(_dev(bracket(ui_, uk_).m, -(b_matrix(v) @ jj)))
    return _result("case-I printed commutator forms (M, B)", devs)


def identity_u_displays() -> IdentityResult:
    """The printed factorizations of u_i, u_j, u_k through S(v)."""
    devs = []
    for v in rational_v_grid(60, admissible=False):
        u0, ui_, uj_, uk_ = u_basis(v)
        sv = s_matrix(v)
        devs.append(_dev(ui_.m, ui_display(v)))
        devs.append(_dev(uj_.m, sv @ diag(qj(EXACT), qj(EXACT))))
        devs.append(_dev(uk_.m, sv @ diag(qk(EXACT), qk(EXACT))))
    return _result("u-basis printed S(v) factorizations", devs)


def identity_alpha_forms() -> IdentityResult:
    """The two printed forms of alpha(v) on the admissible grid."""
    devs = [_dev(alpha(v), _alpha_form2(v)) for v in rational_v_grid(100)]
    return _result("alpha(v) two printed forms agree", devs)


def identity_trace_ujk() -> IdentityResult:
    devs = []
    for v in rational_v_grid(100):
        uj_big, uk_big = u_jk(v)
        devs.append(uj_big.m.trace().max_abs())
        devs.append(uk_big.m.trace().max_abs())
    return _result("Tr(U_j) = Tr(U_k) = 0", devs)


def identity_t_closed_forms() -> IdentityResult:
    """t11 and t12 of T(v) = alpha M + B against their printed closed forms,
    and T's match with the direct U_j = T diag(j,j)."""
    devs = []
    jj_inv = diag(qj(EXACT).scale(-1), qj(EXACT).scale(-1))
    for v in rational_v_grid(100):
        t = t_matrix(v)
        uj_big, _ = u_jk(v)
        t_direct = uj_big.m @ jj_inv
        devs.append(_dev(t, t_direct))
        devs.append(_dev(t.a, t11_closed(v)))
        devs.append(_dev(t.b, t12_closed(v)))
    return _result("t11/t12 printed closed forms", devs)


def identity_nondegeneracy_factor() -> IdentityResult:
    """-t11 s12 + t12 equals its printed factorization and is nonzero on the
    I-a grid."""
    devs = []
    nonzero_fail = 0
    for v in rational_v_grid(100):
        t = t_matrix(v)
        s12 = s_matrix(v).b
        direct = -(t.a * s12) + t.b
        devs.append(_dev(direct, nondegeneracy_factor(v)))
        if direct.is_zero():
            nonzero_fail += 1
    res = _result("non-degeneracy factor -t11 s12 + t12", devs)
    if nonzero_fail:
        res.status = FAIL
        res.note = f"factor vanished at {nonzero_fail} grid points"
    return res


def identity_ad_invariance() -> IdentityResult:
    """<Ad_g u, Ad_g v> = <u, v> on exact random triples."""
    import numpy as np

    devs = []
    g_rng = np.random.Generator(np.random.Philox(key=20260301))
    for idx in range(200):
        g = bundle.exact_random_point(1000 + idx)
        u = _random_alg(g_rng)
        w = _random_alg(g_rng)
        devs.append(abs(inner(ad(g, u), ad(g, w)) - inner(u, w)))
    return _result("Ad-invariance of the inner product", devs)


def _random_alg(g) -> Sp2Alg:
    def fr():
        return Fraction(int(g.integers(-6, 7)), int(g.integers(1, 7)))

    a = quat(0, fr(), fr(), fr())
    d = quat(0, fr(), fr(), fr())
    b = quat(fr(), fr(), fr(), fr())
    return Sp2Alg(QMat2(a, b, -b.conj(), d))


def identity_ell_dual() -> IdentityResult:
    """ell via the entrywise formula vs rho Id - p diag(rho,0) p* at exact
    points."""
    devs = []
    for idx in range(1000):
        p = bundle.exact_random_point(2000 + idx, case=bundle.EXACT_CASE_KINDS[idx % 5])
        for rho in (qi(EXACT), qj(EXACT), qk(EXACT)):
            m1 = bundle.ell_direct(p, rho)
            m2 = bundle.ell_from_projector(p, rho)
            devs.append(_dev(m1, m2))
    return _result("ell dual construction paths", devs)


def identity_corner_vanishing() -> IdentityResult:
    """(1,1) of Ad_{p^-1}(u_rho) vanishes for the u-basis at p."""
    devs = []
    for idx in range(100):
        p = bundle.exact_random_point(3000 + idx, case=bundle.EXACT_CASE_KINDS[idx % 5])
        tag = classify(p)
        us = case_ii_basis(EXACT) if tag.v is None else u_basis(tag.v)
        pinv = p.inverse()
        for u in us:
            devs.append(ad(pinv, u).m.a.max_abs())
    return _result("(1,1) of Ad_p^-1(u_rho) vanishes", devs)


def identity_h_dim() -> IdentityResult:
    """The membership condition cuts the 7-dimensional (a,b) space down to
    exactly 4 dimensions at every sampled point."""
    devs = []
    for idx in range(100):
        p = bundle.exact_random_point(4000 + idx, case=bundle.EXACT_CASE_KINDS[idx % 5])
        rank, dim = bundle.horizontal_space_rank(p)
        devs.append(abs(dim - 4) + abs(rank - 3))
    return _result("dim Ad_p(h_p) = 4", devs)


def identity_s2_solution() -> IdentityResult:
    """conj(b_a) v - conj(v) b_a = conj(v) a v - a for random fully general
    quaternion v (not only complex) and imaginary a."""
    import numpy as np

    g = np.random.Generator(np.random.Philox(key=20260302))

    def fr():
        return Fraction(int(g.integers(-9, 10)), int(g.integers(1, 9)))

    devs = []
    for _ in range(200):
        v = quat(fr(), fr(), fr(), fr())
        if v.is_zero():
            continue
        a = quat(0, fr(), fr(), fr())
        b = solution_b(v, a)
        lhs = b.conj() * v - v.conj() * b
        rhs = v.conj() * a * v - a
        devs.append(_dev(lhs, rhs))
    return _result("solution identity for b_a (general v)", devs)


def identity_ib_adjoints() -> IdentityResult:
    """The displayed Ad_{p^-1} images at v = i points p = [[iw, y], [w, iy]]:
    brackets, the u-basis itself, and F_i.  The (2,1) entries follow from
    skewness of the (1,2) entries."""
    i = qi(EXACT)
    j, k = qj(EXACT), qk(EXACT)
    zq = zero(EXACT)
    devs = []
    for idx in range(40):
        p = bundle.exact_random_point(5000 + idx, case="I-b")
        w, y = p.w, p.y
        pinv = p.inverse()
        u0, ui_, uj_, uk_ = u_basis(i)

        def adm(u):
            return ad(pinv, u).m

        wiw = (w.conj() * i * w).scale(4)
        yiy = (y.conj() * i * y).scale(4)
        devs.append(_dev(adm(bracket(u0, ui_)), QMat2(-wiw, zq, zq, yiy)))
        b_j = (w.conj() * k * y).scale(4)
        devs.append(_dev(adm(bracket(u0, uj_)), QMat2(zq, b_j, -b_j.conj(), zq)))
        b_k = (w.conj() * j * y).scale(-4)
        devs.append(_dev(adm(bracket(u0, uk_)), QMat2(zq, b_k, -b_k.conj(), zq)))
        devs.append(
            _dev(adm(bracket(uj_, uk_)), QMat2(zq, zq, zq, (y.conj() * i * y).scale(16)))
        )
        b_0 = (w.conj() * i * y).scale(2)
        devs.append(_dev(adm(u0), QMat2(zq, b_0, -b_0.conj(), zq)))
        b_i = (w.conj() * y).scale(2)
        devs.append(_dev(adm(ui_), QMat2(zq, b_i, -b_i.conj(), zq)))
        devs.append(_dev(adm(uj_), QMat2(zq, zq, zq, (y.conj() * j * y).scale(4))))
        devs.append(_dev(adm(uk_), QMat2(zq, zq, zq, (y.conj() * k * y).scale(4))))
        f_i = Sp2Alg(bracket(u0, ui_).m.scale(Fraction(1, 2)))
        devs.append(
            _dev(adm(f_i), QMat2((w.conj() * i * w).scale(-2), zq, zq, (y.conj() * i * y).scale(2)))
        )
    return _result("v = i displayed Ad_p^-1 images", devs)


def run_identity_suite():
    """All identities, each OK or FAIL on exact deviations: direct algebra
    against direct algebra, and direct brackets against the paper's printed
    closed forms."""
    return [
        identity_standard_commutators(),
        identity_case_commutators(),
        identity_u_displays(),
        identity_alpha_forms(),
        identity_trace_ujk(),
        identity_t_closed_forms(),
        identity_nondegeneracy_factor(),
        identity_ad_invariance(),
        identity_ell_dual(),
        identity_corner_vanishing(),
        identity_h_dim(),
        identity_s2_solution(),
        identity_ib_adjoints(),
    ]
