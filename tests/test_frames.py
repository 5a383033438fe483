"""The span check and the case machinery: labels on raw points, closed-form
displays, frozen values, the span check near every stratum and at raw exact
points, the paper's per-case frames and their rank certificates, negative
controls, and the identity suite's plumbing."""

import dataclasses
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp2span import bundle, frames
from sp2span.bundle import exact_random_point, fiber_point, ib_float_point, normalize_fiber
from sp2span.frames import (
    CASE_IA,
    CASE_IB_NONQUARTER,
    CASE_IB_QUARTER,
    CASE_II,
    CASE_IR,
    SPAN_LABELS,
    DegenerateV,
    ZeroV,
    alpha,
    build_frame,
    c0i_matrix,
    check_point,
    classify,
    frame_to_json,
    nondegeneracy_factor,
    rational_v_grid,
    s_matrix,
    solution_b,
    standard_sphere_frame,
    t11_closed,
    t12_closed,
    t_matrix,
    u_basis,
    u_jk,
    verify_frame,
)
from sp2span.qmat import QMat2, Sp2Alg, ad, bracket, diag, real_rank, to_vec10
from sp2span.quat import EXACT, FLOAT, BackendMismatch, Quaternion, qi, qj, qk, quat

from conftest import cayley_sp2, nonzero_exact_quats


def cx(h0, h1) -> "quat":
    return quat(Fraction(h0), Fraction(h1), backend=EXACT)


# -- classification -------------------------------------------------------------------


def test_classify_all_exact_kinds():
    assert classify(exact_random_point(1, case="I-r")).kind == CASE_IR
    assert classify(exact_random_point(2, case="I-b")).kind == CASE_IB_NONQUARTER
    assert classify(exact_random_point(3, case="II-x0")).kind == CASE_II
    assert classify(exact_random_point(4, case="II-w0")).kind == CASE_II
    p = normalize_fiber(exact_random_point(5)).point
    assert classify(p).kind in (CASE_IA, CASE_IR)


def test_classify_labels_unnormalized_exact():
    # Rotate v out of span{1, i} with a fiber action by a generic unit: the
    # label is read off the raw point, and the span check passes there.
    base = exact_random_point(31)
    lam = bundle.sp1_cayley(quat(Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(0), backend=EXACT))
    p = bundle.e_action(base, lam, lam)
    v = p.x * p.w.inverse()
    assert v.h2 != 0 or v.h3 != 0
    assert classify(p) == dataclasses.replace(classify(base), v=v)
    res = check_point(p)
    assert res.ok and res.case == classify(base).kind


def test_classify_float_quarter_band():
    p = ib_float_point(0.25)
    tag = classify(p)
    assert tag.kind == CASE_IB_QUARTER
    assert (tag.v - qi(FLOAT)).max_abs() <= 1e-15
    near = ib_float_point(0.25 + 5e-8)
    assert classify(near).kind == CASE_IB_NONQUARTER
    # a split exactly tol from 1/4 is on the quarter stratum; at a tol one
    # ulp smaller it is not
    gap = abs(classify(near).split - 0.25)
    assert classify(near, gap).kind == CASE_IB_QUARTER
    assert classify(near, math.nextafter(gap, 0.0)).kind == CASE_IB_NONQUARTER


def _other_ib_subcase(tag):
    other = CASE_IB_NONQUARTER if tag.kind == CASE_IB_QUARTER else CASE_IB_QUARTER
    return dataclasses.replace(tag, kind=other)


def test_flip_ib_subcase():
    # At split = 1/4 only the paper's quarter recipe spans: flipping the I-b
    # subcase keeps the point and the split but loses a rank.  The span
    # check needs no recipe and passes.
    p = ib_float_point(0.25)
    res = check_point(p)
    assert res.ok and res.case == CASE_IB_QUARTER
    tag = classify(p)
    assert verify_frame(p, build_frame(p, tag)).ok
    other = _other_ib_subcase(tag)
    assert other.kind == CASE_IB_NONQUARTER and other.split == tag.split
    flipped = verify_frame(p, build_frame(p, other))
    assert not flipped.ok
    assert flipped.failures() == ["rank 9 != 10"]


# -- u-basis and closed forms ----------------------------------------------------------


@given(nonzero_exact_quats)
@settings(max_examples=60)
def test_solution_b_solves_basic_condition(v):
    # conj(b) v - conj(v) b = conj(v) a v - a for each imaginary unit a.
    for a in (qi(EXACT), qj(EXACT), qk(EXACT)):
        b = solution_b(v, a)
        lhs = b.conj() * v - v.conj() * b
        rhs = v.conj() * a * v - a
        assert lhs == rhs


def test_u_basis_members_are_horizontal():
    it = bundle.admissible_v_stream()
    g = random.Random(41)
    for _ in range(8):
        v, w0 = next(it)
        s1 = quat(Fraction(0), Fraction(g.randint(-3, 3), 4), Fraction(g.randint(-3, 3), 4), Fraction(0), backend=EXACT)
        u1 = bundle.sp1_cayley(s1)
        p = fiber_point(v, w0, u1, u1)
        for u in u_basis(v):
            assert bundle.in_ad_h_p(p, u)


def test_u_basis_rejects_zero():
    with pytest.raises(ZeroV):
        u_basis(quat(Fraction(0), backend=EXACT))


def test_commutator_closed_form_spot():
    v = cx(Fraction(3, 4), Fraction(2, 3))
    u0, ui, uj, uk = u_basis(v)
    lhs = bracket(u0, ui).m
    assert (lhs - c0i_matrix(v)).max_abs() == 0


def test_s_matrix_reproduces_uj_uk():
    v = cx(Fraction(1, 2), Fraction(5, 4))
    _, _, uj, uk = u_basis(v)
    s = s_matrix(v)
    assert (s @ diag(qj(EXACT), qj(EXACT)) - uj.m).max_abs() == 0
    assert (s @ diag(qk(EXACT), qk(EXACT)) - uk.m).max_abs() == 0


@pytest.mark.parametrize(
    "form",
    [
        frames.s_matrix,
        frames.ui_display,
        frames.c0i_matrix,
        frames.m_matrix,
        frames.b_matrix,
        frames.alpha,
        frames._alpha_form2,
        frames.u_jk,
        frames.t_matrix,
        frames.t11_closed,
        frames.t12_closed,
        frames.nondegeneracy_factor,
    ],
    ids=lambda f: f.__name__,
)
def test_closed_forms_take_exact_v_only(form):
    form(quat(Fraction(7, 10), Fraction(2, 5)))
    with pytest.raises(BackendMismatch):
        form(quat(0.7, 0.4, backend=FLOAT))


# -- frozen values ---------------------------------------------------------------------


def test_alpha_frozen_value():
    assert alpha(cx(1, 1)) == cx(Fraction(6, 5), Fraction(-13, 20))


def test_alpha_at_i_is_one():
    assert alpha(qi(EXACT)) == quat(Fraction(1), backend=EXACT)


def test_alpha_degenerate_inputs():
    with pytest.raises(DegenerateV):
        alpha(cx(2, 0))  # real v: the closed forms divide by v - conj(v)
    with pytest.raises(ZeroV):
        alpha(quat(Fraction(0), backend=EXACT))


def test_nondegeneracy_factor_frozen_value():
    got = nondegeneracy_factor(cx(1, 1))
    assert got == cx(Fraction(-21, 40), Fraction(9, 5))


def test_t_closed_forms_match_matrix():
    v = cx(Fraction(2, 3), Fraction(1, 2))
    t = t_matrix(v)
    assert t.a == t11_closed(v)
    assert t.b == t12_closed(v)


def test_u_jk_trace_free_and_skew():
    v = cx(Fraction(1, 3), Fraction(3, 2))
    for u in u_jk(v):
        Sp2Alg(u.m)  # validates skew-Hermitian
        tr = u.m.trace()
        assert tr.is_zero()


# -- frames ---------------------------------------------------------------------------


CASE_POINT_BUILDERS = [
    ("I-a", lambda: normalize_fiber(exact_random_point(101)).point),
    ("I-b", lambda: exact_random_point(102, case="I-b")),
    ("I-r", lambda: exact_random_point(103, case="I-r")),
    ("II-x0", lambda: exact_random_point(104, case="II-x0")),
    ("II-w0", lambda: exact_random_point(105, case="II-w0")),
]


@pytest.mark.parametrize("name,maker", CASE_POINT_BUILDERS)
def test_frame_rank_10_per_case(name, maker):
    # The span check, and the paper's frame for the case, each certified
    # exactly: rank 10, and rank exactly 7 without the brackets.
    p = maker()
    res = check_point(p)
    assert res.ok, res.failures()
    assert [e.label for e in frames.span_frame(p).entries] == list(SPAN_LABELS)
    assert res.rank.rank == 10
    assert res.rank.method == "bareiss"
    assert res.negative_rank.rank == 7
    paper = verify_frame(p, build_frame(p))
    assert paper.ok, paper.failures()
    assert paper.case == res.case
    assert paper.rank.rank == 10 and paper.rank.method == "bareiss"
    assert paper.negative_rank.rank == 7


@pytest.mark.parametrize("name,maker", CASE_POINT_BUILDERS)
def test_negative_control_is_exactly_7(name, maker):
    # The distribution itself is 7-dimensional: the entries labeled
    # D_LABELS must have exactly rank 7, never more.
    p = maker()
    frame = build_frame(p)
    rows = [to_vec10(e.m) for e in frame.entries if e.label in frames.D_LABELS]
    assert real_rank(rows).rank == 7


def test_negative_control_fails_on_its_own():
    # Relabeling ell_i out of D_LABELS leaves six D rows: the frame still
    # spans, and only the negative control reports it.
    p = exact_random_point(110, case="I-r")
    frame = build_frame(p)
    assert frame.entries[0].label == "ell_i"
    moved = dataclasses.replace(frame.entries[0], label="[ell_i]")
    check = verify_frame(p, frames.Frame(tag=frame.tag, entries=(moved,) + frame.entries[1:]))
    assert check.rank.rank == 10 and not check.ok
    assert check.failures() == ["bracket-free rank 6 != 7"]


def test_ia_recipe_takes_exact_points_in_span_1_i():
    # I-a's U_j, U_k go through the closed form alpha(v): a float point
    # raises BackendMismatch, and an exact point whose v a fiber action has
    # rotated out of span{1, i} raises DegenerateV.  The span check needs
    # neither and passes at both.
    p = bundle.random_sp2(0)
    assert classify(p).kind == CASE_IA and check_point(p).ok
    with pytest.raises(BackendMismatch):
        build_frame(p)
    lam = bundle.sp1_cayley(quat(Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(0), backend=EXACT))
    p = bundle.e_action(exact_random_point(31), lam, lam)
    assert classify(p).kind == CASE_IA and check_point(p).ok
    with pytest.raises(DegenerateV):
        build_frame(p)


def test_frame_has_ten_labeled_entries():
    p = normalize_fiber(exact_random_point(106)).point
    frame = build_frame(p)
    assert len(frame.entries) == 10
    labels = [e.label for e in frame.entries]
    assert len(set(labels)) == 10
    assert all(e.formula for e in frame.entries)


def test_float_quarter_point_verifies():
    res = check_point(ib_float_point(0.25))
    assert res.ok and res.case == CASE_IB_QUARTER


def test_near_quarter_tries_both_subcase_frames():
    # Inside the band where float rounding could blur the two subcases, the
    # span check passes, and so do both of the paper's I-b recipes: the
    # label's choice between them decides nothing.
    p = ib_float_point(0.25 + 2e-7)
    res = check_point(p)
    assert res.ok and res.case == CASE_IB_NONQUARTER
    tag = classify(p)
    for t in (tag, _other_ib_subcase(tag)):
        check = verify_frame(p, build_frame(p, t))
        assert check.ok and check.rank.rank == 10


def test_far_from_quarter_uses_single_frame():
    # One frame, the same 13 rows whatever the case label says.
    p = ib_float_point(0.1)
    res = check_point(p)
    assert res.ok and res.case == CASE_IB_NONQUARTER
    frame = frames.span_frame(p)
    assert frame.tag == classify(p)
    assert [e.label for e in frame.entries] == list(SPAN_LABELS)
    assert verify_frame(p, frame).ok
    assert verify_frame(p, build_frame(p)).ok


NEAR_QUARTER_PHASES = ((0.3, 1.1), (0.1, 0.7), (1.3, 2.9), (math.pi / 4, math.pi / 4), (2.2, 0.4), (-1.0, 3.0))


def test_near_quarter_continuation():
    # Float I-b points approach split = 1/4 from both sides.  The one frame
    # the classification picks must span all the way in, at either tolerance;
    # far from the threshold (relative to tol) both recipes get exercised.
    for tol in (1e-9, 1e-6):
        for k in range(1, 16):
            eps = 10.0**-k
            for sign in (1, -1):
                for phase1, phase2 in NEAR_QUARTER_PHASES:
                    res = check_point(ib_float_point(0.25 + sign * eps, phase1, phase2), tol)
                    assert res.ok, (tol, k, sign, phase1, phase2, res.failures())
                    if eps < tol / 10:
                        assert res.case == CASE_IB_QUARTER
                    elif eps > tol * 10:
                        assert res.case == CASE_IB_NONQUARTER


def _float_unit(a: float, b: float, c: float) -> Quaternion:
    return quat(
        math.cos(a),
        math.sin(a) * math.cos(b),
        math.sin(a) * math.sin(b) * math.cos(c),
        math.sin(a) * math.sin(b) * math.sin(c),
        backend=FLOAT,
    )


# Five (u1, u2, lam) dressings: u1, u2 move the point along its fiber over v,
# lam rotates v = x w^-1 out of span{1, i}, so no swept point is normalized.
BOUNDARY_DRESSINGS = [
    (
        _float_unit(0.3 + k, 1.1 * k, 0.7 + k),
        _float_unit(1.2 - k, 0.4 + k, 2.0 * k),
        _float_unit(0.9 + 0.6 * k, 2.1 - k, 0.5 * k),
    )
    for k in range(5)
]
_C = quat(0.6, 0.8, backend=FLOAT)
# v as a function of (side, eps, dressing index), approaching each stratum.
BOUNDARY_V = {
    "v->i": lambda s, e, k: quat(0.0, 1.0 + s * e, backend=FLOAT) if k % 2 else quat(s * e, 1.0, backend=FLOAT),
    "v->real": lambda s, e, k: quat(0.7, s * e, backend=FLOAT),
    "v->-1": lambda s, e, k: quat(-1.0 + 0.6 * s * e, 0.8 * s * e, backend=FLOAT),
    "x->0": lambda s, e, k: _C.scale(s * e),
    "w->0": lambda s, e, k: _C.scale(s / e),
}


def _boundary_point(stratum: str, side: int, eps: float, k: int):
    u1, u2, lam = BOUNDARY_DRESSINGS[k]
    if stratum == "split->1/4":
        p = ib_float_point(0.25 + side * eps, 0.3 + k, 1.1 + 0.5 * k)
    else:
        v = BOUNDARY_V[stratum](side, eps, k)
        p = fiber_point(v, quat(1.0 / math.sqrt(1.0 + v.norm_sq()), backend=FLOAT), u1, u2)
    return bundle.e_action(p, lam, lam)


@pytest.mark.parametrize("stratum", list(BOUNDARY_V) + ["split->1/4"])
def test_boundary_continuation(stratum):
    # Raw float points approach each stratum from both sides at 10^-k,
    # k = 1..15, in five dressings (150 points per stratum, 900 in all).
    # The one span check passes at every one of them, whatever the label.
    pivots = []
    for k in range(len(BOUNDARY_DRESSINGS)):
        for e in range(1, 16):
            for side in (1, -1):
                p = _boundary_point(stratum, side, 10.0**-e, k)
                v = p.x * p.w.inverse()
                assert max(abs(v.h2), abs(v.h3)) > 0  # not fiber-normalized
                res = check_point(p)
                assert res.ok, (stratum, side, e, k, res.case, res.failures())
                pivots.append(res.rank.min_rel_pivot)
    assert len(pivots) == 150 and min(pivots) > 0.1


def raw_cayley_points(count=50):
    """Rational Cayley points of random sp(2) elements: v = x w^-1 is a
    general quaternion, which no rational fiber rotation can normalize."""
    g = random.Random(17)

    def fr():
        return Fraction(g.randint(-6, 6), g.randint(1, 8))

    out = []
    for _ in range(count):
        a = quat(0, fr(), fr(), fr(), backend=EXACT)
        d = quat(0, fr(), fr(), fr(), backend=EXACT)
        b = quat(fr(), fr(), fr(), fr(), backend=EXACT)
        out.append(cayley_sp2(Sp2Alg(QMat2(a, b, -b.conj(), d))))
    return out


def test_raw_cayley_points_certified():
    # The span check certifies the raw Cayley points as given.
    raw = 0
    for p in raw_cayley_points():
        v = p.x * p.w.inverse()
        raw += v.h2 != 0 or v.h3 != 0
        res = check_point(p)
        assert res.ok, res.failures()
        assert res.rank.method == "bareiss" and res.rank.rank == 10
    assert raw >= 45


def _fiber_lams(backend: str):
    if backend == EXACT:
        half, third = Fraction(1, 2), Fraction(1, 3)
        seeds = ((1, 0, 0), (half, third, 0), (0, 2 * third, -3 * half), (-third, 2, half))
        return [bundle.sp1_cayley(quat(0, a, b, c, backend=EXACT)) for a, b, c in seeds]
    angles = ((0.4, 1.0, 2.0), (2.5, 0.3, 0.9), (1.3, 2.2, -0.6), (3.0, 0.1, 1.4))
    return [_float_unit(a, b, c) for a, b, c in angles]


def _label_points():
    exact = [exact_random_point(700 + i, case=bundle.EXACT_CASE_KINDS[i % 5]) for i in range(40)]
    exact += bundle.grid_ia(5) + bundle.grid_ib(5) + bundle.grid_ir(5) + bundle.grid_ii(4)
    floats = [bundle.random_sp2(800 + i) for i in range(20)]
    floats += [ib_float_point(split, 0.2 + split, 1.3) for split in (0.25, -0.3, 0.1, 0.45)]
    return exact + floats


def test_classify_invariant_under_fiber_action():
    # The label reads off the raw point: moving p along the fiber action
    # p -> diag(lam, lam) p diag(conj(lam), 1) keeps it, and at an exact
    # point it is the label of the normalized point (the float points have
    # v outside span{1, i}, which normalize_fiber does not move).
    for p in _label_points():
        kind = classify(p).kind
        if p.backend == EXACT:
            assert classify(normalize_fiber(p).point).kind == kind
        for lam in _fiber_lams(p.backend):
            assert classify(bundle.e_action(p, lam, lam)).kind == kind, (kind, lam)


def test_classify_raw_edge_points():
    # v = -i is I-b (the normalized v = i), and |x| = 1e-150 is case II,
    # where the constant basis passes the span check.
    unit = quat(1, backend=EXACT)
    minus_i = fiber_point(-qi(EXACT), bundle.IB_W0, unit, unit)
    assert classify(minus_i).kind == CASE_IB_NONQUARTER
    assert check_point(minus_i).ok
    tiny = fiber_point(_C.scale(1e-150), quat(1.0, backend=FLOAT), *BOUNDARY_DRESSINGS[0][:2])
    assert classify(tiny).kind == CASE_II and check_point(tiny).ok


def test_corrupted_frame_detected():
    p = normalize_fiber(exact_random_point(107)).point
    assert classify(p).kind == CASE_IA
    res = check_point(p, drop_label="ell_i")
    assert not res.ok
    assert any("rank" in f for f in res.failures())


def test_exact_certificates_are_frozen():
    # The Bareiss results of both check_point rank calls, (rank, pivots,
    # positions), at the points of exact `verify --samples 1600 --seed 0`
    # (200 per EXACT_CYCLE slot), whole and with ell_i, u0 and [u_j,u_k]
    # dropped: a change to the exact rows or to the elimination must not
    # move a single pivot.
    digest = hashlib.sha256()
    cycle = bundle.EXACT_CYCLE
    for index in range(200 * len(cycle)):
        p = exact_random_point(index, cycle[index % len(cycle)])
        for drop in (None, "ell_i", "u0", "[u_j,u_k]"):
            res = check_point(p, drop_label=drop)
            for r in (res.rank, res.negative_rank):
                record = [r.rank, [str(x) for x in r.pivots], [list(x) for x in r.positions]]
                digest.update(json.dumps(record).encode())
                digest.update(b"\n")
    assert digest.hexdigest() == "0b0ef5ec2da80b22c9d74dd5c44a5639f1f50a98753317cb1c9afc85d3bf6955"


def test_unknown_drop_label_raises():
    p = exact_random_point(107)
    with pytest.raises(ValueError):
        check_point(p, drop_label="U_j")


@pytest.mark.parametrize("kind", bundle.EXACT_CASE_KINDS + ("float",))
def test_check_point_decides_the_case_once(monkeypatch, kind):
    # classify is the one case decision: a check classifies once and takes
    # v = x w^-1 once (not at all at case II), on both backends, and
    # build_frame with a label decides nothing again.  The float point is
    # built on v = 0.7 + 0.4 i, as _boundary_point builds its points; its
    # I-a recipe needs the exact closed form alpha(v), so build_frame
    # raises there, before it classifies anything.
    if kind == "float":
        v = quat(0.7, 0.4, backend=FLOAT)
        u1, u2, _ = BOUNDARY_DRESSINGS[0]
        p = fiber_point(v, quat(1.0 / math.sqrt(1.0 + v.norm_sq()), backend=FLOAT), u1, u2)
    else:
        p = exact_random_point(120, case=kind)
    tag = classify(p)
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(frames, "classify")
    count(bundle, "case_ii_corner")
    count(Quaternion, "inverse")
    assert check_point(p).ok
    assert [calls["classify"], calls["case_ii_corner"], calls["inverse"]] == [1, 1, int(tag.v is not None)]
    calls.clear()
    if kind == "float":
        with pytest.raises(BackendMismatch):
            build_frame(p, tag)
    else:
        build_frame(p, tag)
    assert calls["classify"] == calls["case_ii_corner"] == 0


def test_verify_frame_membership_flags():
    p = exact_random_point(108, case="I-b")
    frame = build_frame(p)
    check = verify_frame(p, frame)
    assert check.ok
    assert check.membership_violations == []
    pinv = p.inverse()
    horizontal = [e for e in frame.entries if e.label in frames.U_LABELS]
    assert len(horizontal) == 4
    for e in horizontal:
        assert ad(pinv, e.m).m.a.is_zero()


# -- standard sphere -------------------------------------------------------------------


def test_standard_sphere_exact_rank():
    frame = standard_sphere_frame()
    vecs = [to_vec10(e.m) for e in frame.entries]
    res = real_rank(vecs)
    assert res.rank == 10 and res.method == "bareiss"
    assert real_rank(vecs[:4]).rank == 4
    assert real_rank(vecs[4:]).rank == 6


# -- serialization ----------------------------------------------------------------------


def test_frame_to_json_shape():
    p = exact_random_point(109, case="I-r")
    frame = build_frame(p)
    check = verify_frame(p, frame)
    blob = frame_to_json(frame, check)
    assert set(blob) >= {"case", "matrices", "rank", "pivots"}
    assert blob["case"] == CASE_IR and blob["rank"] == 10
    assert len(blob["matrices"]) == 10
    for m in blob["matrices"]:
        assert set(m) == {"label", "paper_eq", "m"}
        assert set(m["m"]) == {"a", "b", "c", "d"}


# -- identity plumbing --------------------------------------------------------------------


def test_identity_status_is_decided_on_exact_deviations():
    # a deviation that rounds to 0.0 as a float is still a failure
    tiny = frames._dev(quat(1, 0, 0, 0), quat(1 + Fraction(1, 10**400), 0, 0, 0))
    res = frames._result("x", [tiny])
    assert (res.status, res.worst) == (frames.FAIL, 0.0)
    # one too large for a float fails the entry and reports inf
    huge = frames._dev(quat(Fraction(10**400), 0, 0, 0), quat(0, 0, 0, 0))
    res = frames._result("x", [0, huge])
    assert (res.status, res.worst) == (frames.FAIL, math.inf)
    same = frames._result("x", [frames._dev(quat(1, 2, 3, 4), quat(1, 2, 3, 4))])
    assert (res.n, same.status, same.worst) == (2, frames.OK, 0.0)


# -- grids and property sweep ------------------------------------------------------------


def test_rational_v_grid_contract():
    vs = rational_v_grid(12)
    assert len(vs) == 12
    for v in vs:
        assert v.backend == EXACT and v.h1 > 0
        assert not (v.h0 == 0 and v.h1 == 1)
    assert len({(v.h0, v.h1) for v in vs}) == 12


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_exact_point_sweep_property(seed):
    res = check_point(exact_random_point(seed))
    assert res.ok, res.failures()
    assert res.rank.rank == 10


@given(st.floats(min_value=-0.49, max_value=0.49, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_ib_float_split_sweep_property(split):
    res = check_point(ib_float_point(split))
    assert res.ok, res.failures()
