"""The span kernel against the object path.

The object expressions in tests/conftest.py (`span_frame_reference`,
`u_basis_reference`, `case_ii_basis_reference`, on Quaternion/QMat2
objects) and `frames.verify_frame` are the reference
(`conftest.object_check`); `frames.span_frame` and `frames.u_basis` wrap
the kernel's own numerators, so they are held to the kernel's rows bit for
bit instead.  On float points the kernel
must give the same rows, ranks, pivots and membership verdicts at
Haar points, at the 900 points of test_boundary_continuation, and at float
points on the quarter stratum.  The kernel forms each row over a common
denominator (2|v|^2 for the u rows, its square for the brackets) and
divides at the end, so its float rows round differently from the
quaternion products: float rows and pivots are compared at tolerances
fixed from float64 (about 1e-15 was measured on both), not bitwise, and
pivot positions may differ where the reference's own choice between equal
entries is a tie.  On exact points everything must be equal: the rows
(integers, the object row cleared by the lcm of its denominators) as
Fractions, and the whole FrameCheck, Bareiss pivots included.  The same
formulas on a float copy of an exact point give the exact rows up to
rounding.

Membership is read off the rows: <u, ell_rho> in the Ad-invariant metric
(qmat.vec10_weighted_dot) is minus the rho component of the object path's
residual ad_h_p_residual, Fraction for Fraction on exact points.
"""

import dataclasses
import hashlib
import json
import math
import random
import struct
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp2span import bundle, cli, frames, kernel
from sp2span.bundle import EXACT_CASE_KINDS, ad_h_p_residual, ib_float_point, in_ad_h_p
from sp2span.frames import SPAN_LABELS, FrameCheck, check_point, classify
from sp2span.qmat import QMat2, Sp2Point, to_vec10, vec10_weighted_dot
from sp2span.quat import EXACT, FLOAT, quat

from conftest import (
    big_exact_quats,
    case_ii_basis_reference,
    dropped_check,
    float_quats,
    nonzero_exact_quats,
    object_check,
    span_frame_reference,
    u_basis_reference,
)
from test_frames import (
    BOUNDARY_DRESSINGS,
    BOUNDARY_V,
    NEAR_QUARTER_PHASES,
    _boundary_point,
    raw_cayley_points,
)

TOL = 1e-9
ROW_TOL = 1e-13  # times the row's largest entry
# Pivots are compared, and ties told apart, relative to the largest entry of
# the equilibrated rows, which is 1: a small pivot left by cancellation
# carries an absolute error of about 1e-16, not a relative one.
PIVOT_TOL = 1e-12


def _haar(count=500):
    return [bundle.random_sp2(9000 + n) for n in range(count)]


def _boundary():
    return [
        _boundary_point(stratum, side, 10.0**-e, k)
        for stratum in list(BOUNDARY_V) + ["split->1/4"]
        for k in range(len(BOUNDARY_DRESSINGS))
        for e in range(1, 16)
        for side in (1, -1)
    ]


def _quarter():
    points = [ib_float_point(0.25, 0.1 + 0.2 * k, 0.7 + 0.3 * k) for k in range(25)]
    return points + [ib_float_point(0.25, a, b) for a, b in NEAR_QUARTER_PHASES]


FAMILIES = {"haar": _haar, "boundary": _boundary, "quarter": _quarter}


def _ell_dots(rows, u, dens=None):
    """<u, ell_rho> for rho = i, j, k from the kernel's rows, u indexing
    them: floats from the float rows, and Fractions from the exact backend's
    integer rows given their denominators dens (_den of the object rows)."""
    dots = [vec10_weighted_dot(rows[u], rows[e]) for e in range(3)]
    if dens is None:
        return dots
    return [Fraction(d, dens[u] * dens[e]) for e, d in enumerate(dots)]


def _den(obj):
    """The lcm of the denominators of an exact object's Vec10 row: the
    factor the kernel's integer row carries."""
    return lcm(*(f.denominator for f in to_vec10(obj)))


def _assert_trace_free(u_row):
    # exactly 0, not merely within tol, on both backends
    assert [u_row[c] + u_row[c + 7] for c in range(3)] == [0, 0, 0]


def _forced_path(rows, positions):
    """Run the float elimination on rows with its pivots forced to the given
    positions.  Per step: (the forced pivot's magnitude, the largest free
    magnitude, the second largest)."""
    a = np.array(rows, dtype=np.float64)
    scale = np.max(np.abs(a), axis=1)
    a[scale > 0] /= scale[scale > 0, None]
    row_free, col_free = list(range(a.shape[0])), list(range(a.shape[1]))
    steps = []
    for r, c in positions:
        free = np.sort(np.abs(a[np.ix_(row_free, col_free)]), axis=None)
        steps.append((abs(a[r, c]), free[-1], free[-2] if free.size > 1 else 0.0))
        for r2 in row_free:
            if r2 != r and a[r2, c] != 0.0:
                a[r2, :] -= (a[r2, c] / a[r, c]) * a[r, :]
        row_free.remove(r)
        col_free.remove(c)
    return steps


def _assert_same_rank(mine, ref, rows):
    """Same rank; the kernel's pivot sequence is a complete-pivot sequence
    of the object rows, with the same pivots; and it leaves the reference's
    positions only where the reference's own choice was a tie, which the
    last bit of rounding decides (the I-b frames have many entries of
    exactly 1 and 2)."""
    assert mine.rank == ref.rank
    for val, (forced, top, _) in zip(mine.pivots, _forced_path(rows, mine.positions)):
        assert forced >= top - PIVOT_TOL
        assert abs(val - forced) <= PIVOT_TOL
    if mine.positions != ref.positions:
        step = next(s for s, (m, r) in enumerate(zip(mine.positions, ref.positions)) if m != r)
        _, top, second = _forced_path(rows, ref.positions)[step]
        assert second >= top - PIVOT_TOL, "positions differ without a tie"
    else:
        assert all(abs(a - b) <= PIVOT_TOL for a, b in zip(mine.pivots, ref.pivots))


def _assert_matches_object_path(p, drop_label=None):
    res = check_point(p, TOL) if drop_label is None else dropped_check(p, TOL, drop_label)
    ref, frame = object_check(p, TOL, drop_label)
    assert res.case == ref.case
    assert res.membership_violations == ref.membership_violations
    assert res.failures() == ref.failures()
    assert res.ok == ref.ok
    rows = [to_vec10(e.m) for e in frame.entries]
    d_rows = [row for row, e in zip(rows, frame.entries) if e.label in frames.D_LABELS]
    _assert_same_rank(res.rank, ref.rank, rows)
    _assert_same_rank(res.negative_rank, ref.negative_rank, d_rows)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_kernel_rows_match_object_rows(family):
    for p in FAMILIES[family]():
        rows = kernel.span_rows(p.x, p.w, classify(p, TOL).v)
        frame = span_frame_reference(p, TOL)
        assert [e.label for e in frame.entries] == list(SPAN_LABELS)
        assert len(rows) == len(SPAN_LABELS)
        for got, e in zip(rows, frame.entries):
            want = to_vec10(e.m)
            assert all(type(x) is float for x in got)
            assert max(abs(g - w) for g, w in zip(got, want)) <= ROW_TOL * max(map(abs, want))
        for u, e in enumerate(frame.entries[3:7], start=3):
            _assert_trace_free(rows[u])
            want = ad_h_p_residual(p, e.m, TOL).components()[1:]
            got = [-d for d in _ell_dots(rows, u)]
            assert max(abs(g - w) for g, w in zip(got, want)) <= ROW_TOL * max(1.0, *map(abs, rows[u]))
            assert frames._horizontal_row(rows[u], rows[:3], TOL) == in_ad_h_p(p, e.m, TOL)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_kernel_check_matches_object_check(family):
    for p in FAMILIES[family]():
        _assert_matches_object_path(p)


def test_kernel_residuals_of_non_members():
    # With v off by a fixed quaternion the four u are not horizontal at p:
    # their <u, ell_rho> still match the object path's residuals, and fail.
    for n in range(50):
        p = bundle.random_sp2(n)
        v = classify(p, TOL).v
        off = quat(v.h0 + 0.3, v.h1, v.h2 - 0.2, v.h3)
        rows = kernel.span_rows(p.x, p.w, off)
        for u, obj in enumerate(u_basis_reference(off), start=3):
            _assert_trace_free(rows[u])
            want = ad_h_p_residual(p, obj, TOL).components()[1:]
            got = [-d for d in _ell_dots(rows, u)]
            assert max(abs(g - w) for g, w in zip(got, want)) <= ROW_TOL * max(1.0, *map(abs, rows[u]))
            assert max(map(abs, got)) > 1e-3
            verdict = frames._horizontal_row(rows[u], rows[:3], TOL)
            assert verdict == in_ad_h_p(p, obj, TOL)
            assert not verdict


@pytest.mark.parametrize("label", SPAN_LABELS)
def test_dropped_row_failures_match_object_path(label):
    points = _haar(20) + _quarter()[:4] + _boundary()[::75]
    for p in points:
        _assert_matches_object_path(p, label)


def test_float_check_builds_no_frame_objects(monkeypatch):
    # The float check runs on the kernel's rows: the object path (span_frame,
    # verify_frame) must not run for it.
    p = bundle.random_sp2(1)

    def refuse(*args):
        raise AssertionError("the float check built frame objects")

    monkeypatch.setattr(frames, "span_frame", refuse)
    monkeypatch.setattr(frames, "verify_frame", refuse)
    res = dropped_check(p, TOL, "ell_j")
    assert isinstance(res, FrameCheck)
    assert res.ok is False
    assert res.failures() == ["bracket-free rank 6 != 7"]


# -- the object views wrap the kernel's numerators ----------------------------------


def _bits(row) -> bytes:
    return struct.pack(f"<{len(row)}d", *row)


def _float_numerators(alg):
    return [c for e in alg.m.entries() for c in e.n]


def _signed_zero_ii_point():
    """A float case-II point, w = 0, whose zeros carry both signs."""
    x, y = quat(0.0, 1.0, -0.0, 0.0), quat(-0.0, 0.0, -0.0, 0.0)
    return Sp2Point(QMat2(x, y, quat(0.0, -0.0, 0.0, -0.0), quat(0.6, 0.0, 0.8, -0.0)))


def test_frame_prints_the_rows_it_ranks():
    # `frame` prints span_frame's matrices and check_point ranks
    # kernel.span_rows: on float points they are the same numbers in every
    # bit, the sign of a zero included.  Every float numerator of the
    # object views is a Python float (a numpy float would read as exact).
    points = [bundle.random_sp2(n) for n in range(300)] + [ib_float_point(0.25), _signed_zero_ii_point()]
    assert classify(points[-1], TOL).kind == frames.CASE_II
    for p in points:
        v = classify(p, TOL).v
        frame = frames.span_frame(p, TOL)
        rows = kernel.span_rows(p.x, p.w, v)
        assert [_bits(to_vec10(e.m)) for e in frame.entries] == [_bits(row) for row in rows]
        us = frames.case_ii_basis(FLOAT) if v is None else frames.u_basis(v)
        for alg in [e.m for e in frame.entries] + list(us):
            assert all(type(c) is float for c in _float_numerators(alg))


def _float_point(p):
    """The exact point p on the float backend, entry by entry."""
    return Sp2Point(QMat2(*(_float_copy(q) for q in p.m.entries())))


def _block_points():
    """1200 Haar points, float points on and off the quarter stratum, and
    float case-II points with x = 0 and with w = 0 (one with zeros of both
    signs), shuffled so the case-II points fall among the Haar ones."""
    points = _haar(1200) + [ib_float_point(0.25), ib_float_point(0.1, 0.4, 0.9), _signed_zero_ii_point()]
    points += [_float_point(p) for p in bundle.grid_ii(2)]
    random.Random(31).shuffle(points)
    return points


# sha256 of the rows of _block_points, float by float, as 8-byte
# little-endian IEEE doubles, point after point: the bits that Python float
# arithmetic gave on one point at a time before rows were built in blocks.
BLOCK_ROWS_SHA256 = "e0b02daafea24b1cd41400f7b5253785b7fe1b8016f75d4c657bedc383021c0d"


def test_block_rows_are_the_point_rows():
    # verify builds float rows a block at a time: one evaluation of the
    # kernel's formulas on arrays, with case-I and case-II points mixed.
    # Each point's rows must be the rows of that point alone (span_rows, on
    # Python floats) and the matrices span_frame wraps, in every bit, the
    # sign of a zero included, and each point's rows one C-contiguous
    # 13 x 10 float64 array.  The digest pins the same bits to the
    # formulas' grouping.
    points = _block_points()
    tags = [classify(p, TOL) for p in points]
    assert sum(tag.kind == frames.CASE_II for tag in tags) == 3
    assert {frames.CASE_IA, frames.CASE_IB_QUARTER, frames.CASE_IB_NONQUARTER} <= {tag.kind for tag in tags}
    block = list(kernel.span_row_block(points, tags))
    assert len(block) == len(points)
    digest = hashlib.sha256()
    for p, tag, rows in zip(points, tags, block):
        assert len(rows) == len(SPAN_LABELS)
        assert type(rows) is np.ndarray and rows.dtype == np.float64
        assert rows.shape == (len(SPAN_LABELS), 10) and rows.flags.c_contiguous
        bits = [_bits(row) for row in rows]
        assert bits == [_bits(row) for row in kernel.span_rows(p.x, p.w, tag.v)]
        assert bits == [_bits(to_vec10(e.m)) for e in frames.span_frame(p, TOL).entries]
        digest.update(b"".join(bits))
    assert digest.hexdigest() == BLOCK_ROWS_SHA256
    # exact points take the block entry too: their rows are span_rows's ints
    exact = [bundle.exact_random_point(n, case) for n, case in enumerate(bundle.EXACT_CYCLE)]
    exact_tags = [classify(p, TOL) for p in exact]
    assert sum(tag.kind == frames.CASE_II for tag in exact_tags) >= 2
    assert list(kernel.span_row_block(exact, exact_tags)) == [
        kernel.span_rows(p.x, p.w, tag.v) for p, tag in zip(exact, exact_tags)
    ]


def test_lone_float_point_makes_no_array_call(monkeypatch):
    # A float group of one point runs the scalar formulas: span_rows and
    # check_point on a Haar, a quarter-stratum and a signed-zero case-II
    # point reach no numpy helper, and their rows are the ones a
    # multi-point block gives them, in every bit.
    points = [bundle.random_sp2(n) for n in range(3)] + [ib_float_point(0.25), _signed_zero_ii_point()]
    points += [_float_point(bundle.grid_ii(2)[1])]
    tags = [classify(p, TOL) for p in points]
    assert sum(tag.v is None for tag in tags) == 2
    block = [[_bits(row) for row in rows] for rows in kernel.span_row_block(points, tags)]

    def refuse(*args):
        raise AssertionError("a lone float point reached the array path")

    monkeypatch.setattr(kernel, "component_arrays", refuse)
    monkeypatch.setattr(kernel, "rows_from_arrays", refuse)
    for p, tag, want in zip(points, tags, block):
        rows = kernel.span_rows(p.x, p.w, tag.v)
        assert all(type(c) is float for row in rows for c in row)
        assert [_bits(row) for row in rows] == want
        assert [_bits(row) for row in next(kernel.span_row_block([p], [tag]))] == want
        assert check_point(p, TOL).ok


@given(st.one_of(nonzero_exact_quats, big_exact_quats().filter(lambda v: not v.is_zero())))
@settings(max_examples=80)
def test_exact_u_basis_equals_reference(v):
    # every quaternion v, with j and k parts and denominators up to 10^40:
    # the kernel's numerators over their denominator are the object
    # expressions, Fraction for Fraction
    assert frames.u_basis(v) == u_basis_reference(v)


@given(float_quats.filter(lambda v: v.norm_sq() > 1e-6))
@settings(max_examples=80)
def test_float_u_basis_agrees_with_reference(v):
    for got, want in zip(frames.u_basis(v), u_basis_reference(v), strict=True):
        got_n, want_n = _float_numerators(got), _float_numerators(want)
        assert all(type(c) is float for c in got_n)
        assert max(abs(g - w) for g, w in zip(got_n, want_n)) <= ROW_TOL * max(map(abs, want_n))


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_case_ii_basis_equals_reference(backend):
    assert frames.case_ii_basis(backend) == case_ii_basis_reference(backend)


# -- exact points: equal, not close -------------------------------------------------


def _exact_random(seeds=range(20)):
    return [bundle.exact_random_point(seed, case) for case in EXACT_CASE_KINDS for seed in seeds]


EXACT_FAMILIES = {
    "random": _exact_random,
    "grid_ia": lambda: bundle.grid_ia(12),
    "grid_ib": lambda: bundle.grid_ib(12),
    "grid_ir": lambda: bundle.grid_ir(12),
    "grid_ii": lambda: bundle.grid_ii(12),
    "raw_cayley": raw_cayley_points,
}


@pytest.mark.parametrize("family", list(EXACT_FAMILIES))
def test_exact_kernel_rows_equal_object_rows(family):
    # Each exact row is the object row cleared by the lcm of its
    # denominators, the row Bareiss took before the kernel returned ints:
    # over that lcm it rebuilds the object row Fraction for Fraction, so a
    # row scaled by a constant fails.
    for p in EXACT_FAMILIES[family]():
        assert p.backend == EXACT
        rows = kernel.span_rows(p.x, p.w, classify(p, TOL).v)
        frame = span_frame_reference(p, TOL)
        dens = [_den(e.m) for e in frame.entries]
        for got, den, e in zip(rows, dens, frame.entries, strict=True):
            want = list(to_vec10(e.m))
            assert all(type(x) is int for x in got)
            assert got == [f.numerator * (den // f.denominator) for f in want]
            rebuilt = [Fraction(c, den) for c in got]
            assert all(type(x) is Fraction for x in rebuilt)
            assert rebuilt == want
        for u, e in enumerate(frame.entries[3:7], start=3):
            _assert_trace_free(rows[u])
            dots = _ell_dots(rows, u, dens)
            assert all(type(x) is Fraction for x in dots)
            assert [-d for d in dots] == list(ad_h_p_residual(p, e.m, TOL).components()[1:])
            assert frames._horizontal_row(rows[u], rows[:3], 0) == in_ad_h_p(p, e.m, TOL)


def _float_copy(q):
    """The exact quaternion q on the float backend, component by float()."""
    return quat(*map(float, q.components()))


def _cross_ring_points():
    grids = (bundle.grid_ia, bundle.grid_ib, bundle.grid_ir, bundle.grid_ii)
    return [p for grid in grids for p in grid(12)] + _exact_random()


def test_float_rows_equal_exact_rows_across_rings():
    # One set of formulas, two rings: the float rows of a float copy of an
    # exact point are the exact rows up to rounding.  The exact row is the
    # row times a positive integer, so both are compared divided by their
    # largest absolute entry.  This guards the two steps where the backends
    # differ, reading numerators and finishing rows; every float entry is a
    # Python float, at case-II points too, where the formulas see only
    # integer constants.
    case_ii = 0
    for p in _cross_ring_points():
        v = classify(p, TOL).v
        case_ii += v is None
        exact_rows = kernel.span_rows(p.x, p.w, v)
        float_v = None if v is None else _float_copy(v)
        float_rows = kernel.span_rows(_float_copy(p.x), _float_copy(p.w), float_v)
        assert len(float_rows) == len(exact_rows) == len(SPAN_LABELS)
        for got, want in zip(float_rows, exact_rows):
            assert all(type(x) is float for x in got)
            got_top, want_top = max(map(abs, got)), max(map(abs, want))
            assert want_top > 0
            assert max(abs(g / got_top - w / want_top) for g, w in zip(got, want)) <= ROW_TOL
    assert case_ii >= 12


@pytest.mark.parametrize("family", list(EXACT_FAMILIES))
def test_exact_check_equals_object_check(family):
    for p in EXACT_FAMILIES[family]():
        res = check_point(p, TOL)
        ref, _ = object_check(p, TOL)
        assert res == ref  # rank, method, pivots, positions, membership
        assert res.ok, res.failures()


@pytest.mark.parametrize("label", SPAN_LABELS)
def test_exact_dropped_row_equals_object_check(label):
    points = _exact_random(range(3)) + raw_cayley_points(5)
    points += [grid(2)[1] for grid in (bundle.grid_ia, bundle.grid_ib, bundle.grid_ir, bundle.grid_ii)]
    for p in points:
        res = dropped_check(p, TOL, label)
        ref, _ = object_check(p, TOL, label)
        assert res == ref
        assert res.failures() == ref.failures()


def test_exact_kernel_residuals_of_non_members():
    # v moved off x w^-1: the four u are not horizontal at p, and the
    # kernel's verdicts are in_ad_h_p's.
    shift = quat(Fraction(1, 3), 0, Fraction(-1, 5), 0)
    points = [p for p in _exact_random(range(8)) + raw_cayley_points(10) if classify(p).v is not None]
    assert len(points) >= 30
    for p in points:
        off = classify(p, TOL).v + shift
        rows = kernel.span_rows(p.x, p.w, off)
        us = u_basis_reference(off)
        dens = [_den(e.m) for e in span_frame_reference(p, TOL).entries[:3]] + [_den(m) for m in us]
        for u, obj in enumerate(us, start=3):
            _assert_trace_free(rows[u])
            dots = _ell_dots(rows, u, dens)
            assert [-d for d in dots] == list(ad_h_p_residual(p, obj, TOL).components()[1:])
            verdict = frames._horizontal_row(rows[u], rows[:3], 0)
            assert verdict == in_ad_h_p(p, obj, TOL)
            assert not verdict


def test_exact_check_builds_no_frame_objects(monkeypatch):
    # Both backends check on the kernel's rows: the object path (span_frame,
    # verify_frame, and the per-entry ell and membership) must not run.
    p = bundle.exact_random_point(1)

    def refuse(*args):
        raise AssertionError("the exact check built frame objects")

    for name in ("span_frame", "verify_frame", "ell", "in_ad_h_p"):
        monkeypatch.setattr(frames, name, refuse)
    res = dropped_check(p, TOL, "ell_j")
    assert isinstance(res, FrameCheck)
    assert res.rank.method == "bareiss"
    assert res.ok is False
    assert res.failures() == ["bracket-free rank 6 != 7"]


def test_frame_builds_span_frame_once(monkeypatch, tmp_path):
    calls = []
    span_frame = frames.span_frame

    def counted(*args):
        calls.append(args)
        return span_frame(*args)

    monkeypatch.setattr(frames, "span_frame", counted)
    point_file = tmp_path / "point.json"
    point = bundle.exact_random_point(3, "I-r")
    point_file.write_text(json.dumps({"backend": "exact", "p": point.m.to_json()}))
    assert cli.main(["frame", str(point_file), "--out", str(tmp_path / "out.txt")]) == 0
    assert len(calls) == 1


# -- membership on the rows ---------------------------------------------------------

# Hand-built Vec10 rows (a1, a2, a3, b0, b1, b2, b3, d1, d2, d3) standing in
# for the three ell rows: ell number c pairs a_c with b_{c-1}.
ELL_ROWS = [
    (1, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 1, 0, 0, 0, 0),
]
# Trace-free and orthogonal to all three: a_c + 2 b_{c-1} = 2 - 2 = 0.
MEMBER = (2, 2, 2, -1, -1, -1, 5, -2, -2, -2)


def _plus(row, slot, amount):
    return tuple(c + amount * (n == slot) for n, c in enumerate(row))


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_horizontal_row_predicate(backend):
    def rows(*vecs):
        return [tuple(map(float, v)) for v in vecs] if backend == FLOAT else list(vecs)

    bound = 0 if backend == EXACT else TOL
    ells = rows(*ELL_ROWS)
    (member,) = rows(MEMBER)
    assert frames._horizontal_row(member, ells, bound)
    # a + d != 0, yet orthogonal to every ell row (they have no d entries)
    for c in range(3):
        assert not frames._horizontal_row(*rows(_plus(MEMBER, 7 + c, 1)), ells, bound)
    # the b slots weigh 2: MEMBER is orthogonal only with weight 2, and this
    # trace-free row (a1 + b0 = 1 - 1 = 0) would be only with weight 1
    assert sum(m * e for m, e in zip(MEMBER, ELL_ROWS[0])) != 0
    assert not frames._horizontal_row(*rows((1, 0, 0, -1, 0, 0, 0, -1, 0, 0)), ells, bound)
    # each ell row matters: moving b_{c-1} breaks orthogonality to ell_c alone
    for c in range(3):
        (off,) = rows(_plus(MEMBER, 3 + c, 1))
        assert [vec10_weighted_dot(off, e) != 0 for e in ells] == [n == c for n in range(3)]
        assert not frames._horizontal_row(off, ells, bound)


def test_horizontal_row_tolerance():
    # literal on exact rows, within tol on floats, like Quaternion.is_zero
    ells = [tuple(map(float, e)) for e in ELL_ROWS]
    near = _plus(tuple(map(float, MEMBER)), 3, 1e-10)  # <u, ell_i> = 2e-10
    assert frames._horizontal_row(near, ells, 1e-9)
    assert not frames._horizontal_row(near, ells, 1e-11)
    assert not frames._horizontal_row(_plus(MEMBER, 3, Fraction(1, 10**12)), ELL_ROWS, 0)


@pytest.mark.parametrize("slot", range(6))
def test_horizontal_row_reads_every_defect(monkeypatch, slot):
    # The six defects one at a time: the traces a_c + d_c, then <u, ell_rho>,
    # with the metric replaced so that each "ell row" is its own dot.  Each
    # is negligible at exactly tol and not one ulp past it, and a NaN in any
    # slot fails.
    monkeypatch.setattr(frames, "vec10_weighted_dot", lambda u_row, ell_row: ell_row)

    def horizontal(value):
        defects = [value if n == slot else 0.0 for n in range(6)]
        return frames._horizontal_row(defects[:3] + [0.0] * 7, defects[3:], TOL)

    assert horizontal(0.0) and horizontal(TOL) and horizontal(-TOL)
    assert not horizontal(math.nextafter(TOL, 1.0))
    assert not horizontal(math.nan)


def _shifted_classify(monkeypatch, shift):
    """frames.classify with v moved off x w^-1 by shift (case-I points)."""
    classify_point = frames.classify

    def moved(p, tol=TOL):
        tag = classify_point(p, tol)
        assert tag.v is not None
        return dataclasses.replace(tag, v=tag.v + shift)

    monkeypatch.setattr(frames, "classify", moved)


U_FAILURES = [f"{label} fails membership" for label in frames.U_LABELS]


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_membership_fails_end_to_end(monkeypatch, tmp_path, backend):
    # The check's membership verdict can fail: with v moved off x w^-1 the
    # four u are not horizontal, and check_point and `verify` say so.  The
    # first four exact samples (I-a, I-b, I-a, I-r) all have a v.
    if backend == EXACT:
        points = [bundle.exact_random_point(7, case) for case in (None, "I-b", "I-r")]
        shift = quat(Fraction(1, 3), 0, Fraction(-1, 5), 0)
    else:
        points = _haar(5)
        shift = quat(1 / 3, 0, -1 / 5, 0)
    _shifted_classify(monkeypatch, shift)
    for p in points:
        assert check_point(p, TOL).failures() == U_FAILURES
    out = tmp_path / "verify.json"
    argv = ["verify", "--backend", backend, "--samples", "4", "--seed", "5", "--emit", "json"]
    assert cli.main(argv + ["--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert [rec["index"] for rec in report["failures"]] == [0, 1, 2, 3]
    assert all(rec["problems"] == U_FAILURES for rec in report["failures"])
