"""Matrix layer: product/adjoint laws, symplectic and skew-Hermitian
validation, bracket identities, Vec10 coordinates, and the rank engines
checked against sympy (exact) and numpy (float) oracles."""

import math
import random
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    MERSENNE_PRIMES,
    big_exact_quats,
    bracket_reference,
    cayley_sp2,
    eager_bareiss_rank,
    exact_quats,
    float_quats,
    floats,
    identity,
    numpy_pivoted_rank,
    qmat_inverse,
)
from sp2span import bundle, frames, kernel
from sp2span.qmat import (
    InvariantViolation,
    NonFiniteRows,
    QMat2,
    ShapeMismatch,
    Sp2Alg,
    Sp2Point,
    ad,
    bracket,
    bracket4,
    diag,
    ell4,
    inner,
    real_rank,
    to_vec10,
    vec10_weighted_dot,
)
from sp2span.quat import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    BackendMismatch,
    Quaternion,
    Scalar,
    ZeroDivisor,
    conj4,
    neg4,
    one,
    over_lcm,
    qi,
    qj,
    qk,
    quat,
    zero,
)

exact_mats = exact_quats.flatmap(
    lambda a: exact_quats.flatmap(
        lambda b: exact_quats.flatmap(lambda c: exact_quats.map(lambda d: QMat2(a, b, c, d)))
    )
)


def rng_frac(g: random.Random) -> Fraction:
    return Fraction(g.randint(-6, 6), g.randint(1, 8))


def rng_quat(g: random.Random):
    return quat(rng_frac(g), rng_frac(g), rng_frac(g), rng_frac(g))


def rng_alg(g: random.Random) -> Sp2Alg:
    """Random exact skew-Hermitian matrix: imaginary diagonal, free corner."""
    za = quat(Fraction(0), rng_frac(g), rng_frac(g), rng_frac(g))
    zc = quat(Fraction(0), rng_frac(g), rng_frac(g), rng_frac(g))
    b = rng_quat(g)
    return Sp2Alg(QMat2(za, b, -b.conj(), zc))


def from_vec10(coords: Sequence[Scalar]) -> Sp2Alg:
    """The sp(2) element with these Vec10 coordinates: to_vec10's inverse."""
    if len(coords) != 10:
        raise ShapeMismatch(f"vec10 needs exactly 10 coordinates, got {len(coords)}")
    a1, a2, a3, b0, b1, b2, b3, d1, d2, d3 = coords
    alpha = quat(0, a1, a2, a3)
    beta = quat(b0, b1, b2, b3)
    gamma = quat(0, d1, d2, d3)
    alpha._check_backend(beta)
    beta._check_backend(gamma)
    return Sp2Alg(QMat2(alpha, beta, -beta.conj(), gamma), validate=False)


def rng_float_alg(g: random.Random) -> Sp2Alg:
    """Random float skew-Hermitian matrix with entries over several scales."""
    s = 10.0 ** g.randint(-3, 3)
    return from_vec10([g.uniform(-s, s) for _ in range(10)])


# -- product and adjoint ---------------------------------------------------------


@given(exact_mats, exact_mats, exact_mats)
@settings(max_examples=60)
def test_matmul_associative(m, n, p):
    assert (m @ n) @ p == m @ (n @ p)


@given(exact_mats, exact_mats)
@settings(max_examples=60)
def test_adjoint_antihomomorphism(m, n):
    assert (m @ n).adjoint() == n.adjoint() @ m.adjoint()


@given(exact_mats, exact_mats)
@settings(max_examples=60)
def test_real_trace_is_cyclic(m, n):
    # Full quaternionic traces do not commute, their real parts do.
    assert (m @ n).trace().h0 == (n @ m).trace().h0


@given(exact_mats)
@settings(max_examples=60)
def test_left_mul_is_scalar_matrix_product(m):
    q = quat(Fraction(2), Fraction(-1), Fraction(0), Fraction(3))
    assert m.left_mul(q) == diag(q, q) @ m


def _entrywise(m: QMat2, n: QMat2) -> QMat2:
    """The product from its definition, one Quaternion product per term."""
    a, b, c, d = m.entries()
    e, f, g, h = n.entries()
    return QMat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _components(m: QMat2):
    return [x for q in m.entries() for x in q.components()]


# entries with denominators up to 10^40, small ones, and zero entries
_product_entries = st.one_of(big_exact_quats(), exact_quats, st.just(zero(EXACT)))
big_exact_mats = st.tuples(*[_product_entries] * 4).map(lambda t: QMat2(*t))
float_mats = st.tuples(*[float_quats] * 4).map(lambda t: QMat2(*t))


@given(big_exact_mats, big_exact_mats)
@settings(max_examples=100, deadline=None)
def test_exact_matmul_is_the_entrywise_product(m, n):
    got = _components(m @ n)
    want = _components(_entrywise(m, n))
    assert all(type(x) is Fraction for x in got)
    assert [(x.numerator, x.denominator) for x in got] == [(x.numerator, x.denominator) for x in want]


@given(float_mats, float_mats)
@settings(max_examples=100)
def test_float_matmul_is_bitwise_the_entrywise_product(m, n):
    got = _components(m @ n)
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [x.hex() for x in _components(_entrywise(m, n))]


@given(big_exact_mats, float_mats)
@settings(max_examples=30)
def test_shape_mismatch_on_backend_cross(me, mf):
    # either order raises BackendMismatch: no TypeError, no silent coercion
    with pytest.raises(BackendMismatch):
        me @ mf
    with pytest.raises(BackendMismatch):
        mf @ me


# -- inverse (conftest's reference, behind cayley_sp2) ----------------------------


@given(exact_mats)
@settings(max_examples=80)
def test_qmat_inverse(m):
    try:
        inv = qmat_inverse(m)
    except ZeroDivisor:
        return
    assert m @ inv == identity(EXACT)
    assert inv @ m == identity(EXACT)


def test_qmat_inverse_antidiagonal():
    m = QMat2(zero(EXACT), qi(EXACT), qj(EXACT), zero(EXACT))
    inv = qmat_inverse(m)
    assert m @ inv == identity(EXACT)


def test_qmat_inverse_singular_raises():
    q = quat(Fraction(1), Fraction(2))
    m = QMat2(q, q, q, q)
    with pytest.raises(ZeroDivisor):
        qmat_inverse(m)


# -- wrappers ---------------------------------------------------------------------


def test_sp2point_validates():
    g = random.Random(11)
    u = rng_alg(g)
    p = cayley_sp2(u)
    assert p.m @ p.m.adjoint() == identity(EXACT)
    bad = QMat2(p.m.a + one(EXACT), p.m.b, p.m.c, p.m.d)
    with pytest.raises(InvariantViolation):
        Sp2Point(bad)


def _with_component(m: QMat2, index: int, value) -> QMat2:
    """m with component index % 4 of entry index // 4 (x, y, w, z order)
    replaced by value."""
    entries = [list(e.components()) for e in m.entries()]
    entries[index // 4][index % 4] = value
    return QMat2(*(quat(*e) for e in entries))


def _old_defect(m: QMat2):
    """The deviation of p p* and p* p from Id as two full QMat2 products."""
    ident = identity(m.backend)
    return max(
        (m @ m.adjoint() - ident).max_abs(),
        (m.adjoint() @ m - ident).max_abs(),
    )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_sp2point_rejects_non_finite_components(bad):
    # max() keeps a NaN only in first place; the validation must fail on
    # any non-finite deviation, wherever it sits.
    for seed in range(3):
        m = bundle.random_sp2(seed).m
        for index in range(16):
            with pytest.raises(InvariantViolation):
                Sp2Point(_with_component(m, index, bad))


def test_sp2point_rejects_every_exact_perturbation():
    for case in bundle.EXACT_CASE_KINDS:
        m = bundle.exact_random_point(40, case).m
        Sp2Point(m)
        for index in range(16):
            moved = _with_component(m, index, m.entries()[index // 4].components()[index % 4] + Fraction(1, 10**6))
            with pytest.raises(InvariantViolation) as info:
                Sp2Point(moved)
            # the reported deviation is the one the full products give
            assert str(info.value) == f"p p* deviates from Id by {float(_old_defect(moved)):.3e}"


def _numerator_entries(m: QMat2):
    """The four (numerators, denominator) pairs of an exact matrix."""
    return [[list(q.n), q.d] for q in m.entries()]


def _point_from_numerators(entries) -> Sp2Point:
    """The point of four (numerators, denominator) pairs, built the way
    exact_random_point's case None builds its own: each entry stored in
    lowest terms, so the check runs on the point's own common denominator."""
    return Sp2Point(QMat2(*(Quaternion(*nums, d) for nums, d in entries)))


def test_point_from_numerators_validates_on_the_integers():
    for case in bundle.EXACT_CASE_KINDS:
        m = bundle.exact_random_point(41, case).m
        assert _point_from_numerators(_numerator_entries(m)).m == m
        for index in range(16):
            entries = _numerator_entries(m)
            entries[index // 4][0][index % 4] += 1
            with pytest.raises(InvariantViolation) as info:
                _point_from_numerators(entries)
            # the same deviation the Fraction matrix reports
            moved = QMat2(*(quat(*(Fraction(c, d) for c in nums)) for nums, d in entries))
            with pytest.raises(InvariantViolation) as reference:
                Sp2Point(moved)
            assert str(info.value) == str(reference.value)


def test_sp2point_float_deviation_matches_full_products():
    for seed in range(20):
        m = bundle.random_sp2(seed).m
        for index in range(16):
            moved = _with_component(m, index, m.entries()[index // 4].components()[index % 4] + 1e-3)
            with pytest.raises(InvariantViolation) as info:
                Sp2Point(moved)
            reported = float(str(info.value).rsplit(" ", 1)[1])
            assert reported == pytest.approx(_old_defect(moved), rel=2e-3)


def _scaled(m: QMat2, s: float) -> QMat2:
    return QMat2(*(quat(*(c * s for c in e.n)) for e in m.entries()))


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-6])
def test_sp2point_decides_a_float_defect_at_tol(tol):
    # (1 + e) p is off Sp(2) by about 2e: below tol it validates, above it
    # raises with the float deviation.  tol=1e-6 is what `frame --tol` passes.
    for seed in range(5):
        m = bundle.random_sp2(seed).m
        Sp2Point(_scaled(m, 1 + tol / 4), tol=tol)
        with pytest.raises(InvariantViolation) as info:
            Sp2Point(_scaled(m, 1 + tol), tol=tol)
        reported = float(str(info.value).rsplit(" ", 1)[1])
        assert reported == pytest.approx(2 * tol, rel=2e-3)
    # on diag(1 + tol, 1) the defect is the float (1 + tol)^2 - 1
    Sp2Point(diag(quat(1 + tol / 4), one(FLOAT)), tol=tol)
    with pytest.raises(InvariantViolation) as info:
        Sp2Point(diag(quat(1 + tol), one(FLOAT)), tol=tol)
    assert str(info.value) == f"p p* deviates from Id by {(1 + tol) * (1 + tol) - 1:.3e}"


def test_sp2point_reports_an_exact_defect_over_one():
    # diag(2, 1) is over denominator 1: |x|^2 + |y|^2 - 1 = 3
    with pytest.raises(InvariantViolation, match=r"deviates from Id by 3\.000e\+00$"):
        Sp2Point(diag(quat(2), one(EXACT)))


def test_sp2alg_validates():
    with pytest.raises(InvariantViolation):
        Sp2Alg(identity(EXACT))
    Sp2Alg(QMat2(qi(EXACT), zero(EXACT), zero(EXACT), qk(EXACT)))


def test_validation_reports_a_deviation_too_large_for_a_float():
    huge = quat(Fraction(10**400), 0, 0, 0)
    with pytest.raises(InvariantViolation, match="by inf"):
        Sp2Point(QMat2(huge, zero(EXACT), zero(EXACT), one(EXACT)))
    with pytest.raises(InvariantViolation, match="by inf"):
        Sp2Alg(QMat2(huge, zero(EXACT), zero(EXACT), zero(EXACT)))


def test_max_abs_and_validation_keep_nan():
    # max() alone drops a NaN that is not its first argument: a NaN entry
    # must not read as the largest of the others, nor be reported as 0.
    nan_entry = quat(math.nan, 0.0, 0.0, 0.0)
    assert math.isnan(QMat2(one(FLOAT), zero(FLOAT), zero(FLOAT), nan_entry).max_abs())
    with pytest.raises(InvariantViolation, match="deviates from 0 by nan"):
        Sp2Alg(QMat2(zero(FLOAT), quat(0.0, math.nan, 0.0, 0.0), zero(FLOAT), zero(FLOAT)))


# -- bracket and ad ----------------------------------------------------------------


def test_bracket_antisymmetric_and_jacobi():
    g = random.Random(7)
    for _ in range(20):
        u, v, w = rng_alg(g), rng_alg(g), rng_alg(g)
        assert bracket(u, v).m == -bracket(v, u).m
        jac = (
            bracket(Sp2Alg(bracket(u, v).m, validate=False), w).m
            + bracket(Sp2Alg(bracket(v, w).m, validate=False), u).m
            + bracket(Sp2Alg(bracket(w, u).m, validate=False), v).m
        )
        assert jac.max_abs() == 0


def test_bracket_is_the_commutator():
    # bracket computes u v - (u v)*, which equals u v - v u on sp(2).
    g = random.Random(23)
    for _ in range(30):
        u, v = rng_alg(g), rng_alg(g)
        assert bracket(u, v).m == u.m @ v.m - v.m @ u.m
    for _ in range(200):
        u, v = rng_float_alg(g), rng_float_alg(g)
        m = bracket(u, v).m
        scale = u.m.max_abs() * v.m.max_abs()
        assert (m - (u.m @ v.m - v.m @ u.m)).max_abs() <= 1e-14 * scale
        # Exactly skew on floats: m* + m is 0 in every component.
        assert (m + m.adjoint()).max_abs() == 0.0


def _imaginary(q: Quaternion) -> Quaternion:
    return q - quat(q.h0)


# sp(2) elements whose entries lie over unrelated denominators up to 10^40
big_exact_algs = st.builds(
    lambda a, b, d: Sp2Alg(QMat2(_imaginary(a), b, -b.conj(), _imaginary(d))),
    big_exact_quats(),
    big_exact_quats(),
    big_exact_quats(),
)


@given(big_exact_algs, big_exact_algs)
@settings(max_examples=60)
def test_bracket_is_the_object_expression(u, v):
    assert bracket(u, v) == bracket_reference(u, v)


def test_bracket_rejects_mixed_backends():
    u, f = rng_alg(random.Random(5)), rng_float_alg(random.Random(5))
    for args in ((u, f), (f, u)):
        with pytest.raises(BackendMismatch):
            bracket(*args)


def _assert_skew_tuples(a, b, c, d):
    """[[a, b], [c, d]] is skew-Hermitian: a and d imaginary, c = -conj(b)."""
    assert a[0] == 0 and d[0] == 0
    assert c == neg4(conj4(b))


@given(big_exact_algs, big_exact_algs)
@settings(max_examples=60)
def test_bracket4_is_skew_hermitian(u, v):
    _assert_skew_tuples(*bracket4(over_lcm(u.m.entries())[0], over_lcm(v.m.entries())[0]))


def test_ell4_is_skew_hermitian():
    # ell4 times P^2 at exact points of every case, x and w often stored
    # over different denominators
    g = random.Random(29)
    for seed in range(40):
        p = bundle.exact_random_point(seed, bundle.EXACT_CASE_KINDS[seed % 5])
        (xn, wn), pd = over_lcm((p.x, p.w))
        for rho in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, *(g.randint(-9, 9) for _ in range(3)))):
            _assert_skew_tuples(*ell4(xn, wn, rho, pd * pd))


def test_bracket_rejects_plain_matrices():
    u = rng_alg(random.Random(3))
    not_skew = QMat2(one(EXACT), zero(EXACT), zero(EXACT), zero(EXACT))
    for args in ((u.m, u), (u, u.m), (not_skew, u)):
        with pytest.raises(ShapeMismatch):
            bracket(*args)


def test_ad_is_lie_algebra_automorphism():
    g = random.Random(13)
    for _ in range(10):
        p = cayley_sp2(rng_alg(g))
        u, v = rng_alg(g), rng_alg(g)
        lhs = ad(p, Sp2Alg(bracket(u, v).m, validate=False))
        rhs = bracket(
            Sp2Alg(ad(p, u).m, validate=False), Sp2Alg(ad(p, v).m, validate=False)
        )
        assert lhs.m == rhs.m
        # ad preserves skew-Hermitian: constructing with validation passes.
        Sp2Alg(ad(p, u).m)


def test_inner_matches_weighted_vec10_dot():
    g = random.Random(17)
    for _ in range(20):
        u, v = rng_alg(g), rng_alg(g)
        assert inner(u, v) == vec10_weighted_dot(to_vec10(u), to_vec10(v))


def test_vec10_round_trip():
    g = random.Random(19)
    for _ in range(20):
        u = rng_alg(g)
        assert from_vec10(to_vec10(u)).m == u.m


def test_vec10_slot_order():
    a = quat(Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    b = quat(Fraction(4), Fraction(5), Fraction(6), Fraction(7))
    d = quat(Fraction(0), Fraction(8), Fraction(9), Fraction(10))
    u = Sp2Alg(QMat2(a, b, -b.conj(), d))
    assert to_vec10(u) == tuple(Fraction(n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10))


# -- rank engines -----------------------------------------------------------------


def big_frac(g: random.Random) -> Fraction:
    """Zero, or a numerator up to 10^40 over a free denominator up to 10^40
    or over one of the pairwise coprime Mersenne primes."""
    kind = g.randrange(3)
    if kind == 0:
        return Fraction(0)
    den = g.randint(1, 10**40) if kind == 1 else g.choice(MERSENNE_PRIMES)
    return Fraction(g.randint(-(10**40), 10**40), den)


def _planted_vectors(g: random.Random, k: int, extra: int, backend: str, frac=rng_frac):
    """k independent exact Vec10 rows plus `extra` random rational
    combinations of them; sympy certifies independence of the seed rows."""
    while True:
        base = [[frac(g) for _ in range(10)] for _ in range(k)]
        if sympy.Matrix(base).rank() == k:
            break
    rows = [list(r) for r in base]
    for _ in range(extra):
        coeffs = [frac(g) for _ in range(k)]
        rows.append([sum(c * base[j][t] for j, c in enumerate(coeffs)) for t in range(10)])
    g.shuffle(rows)
    if backend == FLOAT:
        rows = [[float(x) for x in r] for r in rows]
    return rows


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 9, 10])
def test_exact_rank_matches_sympy(k):
    g = random.Random(100 + k)
    rows = _planted_vectors(g, k, extra=3, backend=EXACT)
    res = real_rank(rows)
    assert res.rank == sympy.Matrix(rows).rank() == k
    assert res.method == "bareiss"
    # Bareiss pivots on cleared-denominator rows are integers.
    assert all(p == int(p) for p in res.pivots)


@pytest.mark.parametrize("k", [1, 4, 9, 10])
def test_exact_rank_large_mixed_denominators(k):
    # Row clearing scales each numerator by lcm / denominator; with 10^40-size
    # free and coprime denominators the cleared rows are far past 64 bits.
    g = random.Random(300 + k)
    rows = _planted_vectors(g, k, extra=3, backend=EXACT, frac=big_frac)
    assert real_rank(rows).rank == sympy.Matrix(rows).rank() == k


def _assert_eager_reference(rows):
    got, ref = real_rank(rows), eager_bareiss_rank(rows)
    assert got.method == ref.method == "bareiss"
    assert (got.rank, got.pivots, got.positions) == (ref.rank, ref.pivots, ref.positions)
    return got


@st.composite
def sparse_int_rows(draw):
    """1-14 integer rows of width 1-11 with at least half of the entries 0:
    sparse drawn rows, integer combinations of them (planted rank
    deficiency), zero rows and copies of drawn rows, in a drawn order, with
    entries up to 10^40 of either sign."""
    n_rows = draw(st.integers(min_value=1, max_value=14))
    width = draw(st.integers(min_value=1, max_value=11))
    entry = st.one_of(st.just(0), st.just(0), st.integers(min_value=-(10**40), max_value=10**40))
    k = draw(st.integers(min_value=0, max_value=n_rows))
    base = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=k, max_size=k))
    rows = list(base)
    while len(rows) < n_rows:
        kind = draw(st.sampled_from(("combination", "zero", "copy")))
        if kind == "combination" and base:
            coeffs = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=k, max_size=k))
            rows.append([sum(c * b[t] for c, b in zip(coeffs, base)) for t in range(width)])
        elif kind == "copy" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append([0] * width)
    rows = draw(st.permutations(rows))
    assume(2 * sum(x == 0 for row in rows for x in row) >= n_rows * width)
    return rows


@given(sparse_int_rows())
@settings(max_examples=300, deadline=None)
def test_exact_rank_is_the_eager_elimination_on_sparse_rows(rows):
    # Lazy rows and skipped zero-multiplier steps change no pivot, position
    # or rank; sympy decides the rank independently.
    assert _assert_eager_reference(rows).rank == sympy.Matrix(rows).rank()


def test_exact_rank_is_the_eager_elimination_on_frames():
    # The 13 rows and the 7 D rows of exact points of every sampled case and
    # of the four grids, in order and reversed, and under every single-label
    # drop as check_point ranks it under --corrupt-frame: the 12 kept rows
    # and the D rows among them.
    points = [bundle.exact_random_point(key, case) for case in bundle.EXACT_CASE_KINDS for key in range(40)]
    for grid in (bundle.grid_ia, bundle.grid_ib, bundle.grid_ir, bundle.grid_ii):
        points += grid(6)
    ranks = set()
    for p in points:
        rows = kernel.span_rows(p.x, p.w, frames.classify(p).v)
        assert _assert_eager_reference(rows).rank == 10
        assert _assert_eager_reference(rows[:7]).rank == 7
        _assert_eager_reference(rows[::-1])
        _assert_eager_reference(rows[6::-1])
        for i in range(len(frames.SPAN_LABELS)):
            kept = rows[:i] + rows[i + 1 :]
            ranks.add((_assert_eager_reference(kept).rank, _assert_eager_reference(kept[: 7 - (i < 7)]).rank))
    assert {(9, 6), (10, 6), (10, 7)} <= ranks


@pytest.mark.parametrize("k", [1, 2, 4, 6, 8, 10])
def test_float_rank_matches_numpy(k):
    g = random.Random(200 + k)
    rows = _planted_vectors(g, k, extra=3, backend=FLOAT)
    res = real_rank(rows, tol=1e-9)
    assert res.rank == np.linalg.matrix_rank(np.array(rows), tol=1e-9) == k
    assert res.method == "pivoted-ge"
    if k == 10:
        assert res.min_rel_pivot is not None and res.min_rel_pivot > 0


def test_rank_invariant_under_row_ops():
    g = random.Random(33)
    rows = _planted_vectors(g, 6, extra=2, backend=EXACT)
    base = real_rank(rows).rank
    shuffled = list(rows)
    random.Random(5).shuffle(shuffled)
    scaled = [[x * Fraction(7, 3) for x in r] for r in shuffled]
    assert real_rank(scaled).rank == base


def test_rank_of_zero_and_empty():
    assert real_rank([[Fraction(0)] * 10]).rank == 0
    assert real_rank([]).rank == 0


@pytest.mark.parametrize("rows", [[[]], [[], []], np.empty((2, 0)), np.zeros(10), np.zeros((2, 3, 4))])
def test_rank_rejects_rows_of_width_zero(rows):
    # and arrays that are not a 2-D block of rows
    match = "no coordinates" if np.ndim(rows) == 2 else f"is a {np.ndim(rows)}-D array"
    with pytest.raises(ShapeMismatch, match=match):
        real_rank(rows)


def test_float_rank_rejects_nan():
    rows = _span_rows(1)
    rows[4] = rows[4][:3] + (float("nan"),) + rows[4][4:]
    for variant in (rows, np.array(rows)):
        with pytest.raises(NonFiniteRows, match="NaN or an infinity"):
            real_rank(variant)


def test_float_rank_rejects_inf():
    rows = _span_rows(1)
    rows[9] = rows[9][:6] + (-float("inf"),) + rows[9][7:]
    for variant in (rows, np.array(rows)):
        with pytest.raises(NonFiniteRows, match="NaN or an infinity"):
            real_rank(variant)


def test_float_rank_scale_invariance():
    # Equilibration keeps wildly scaled but independent rows at full rank.
    g = random.Random(44)
    rows = _planted_vectors(g, 10, extra=0, backend=FLOAT)
    scaled = [[x * (10.0 ** (idx - 5)) for x in r] for idx, r in enumerate(rows)]
    assert real_rank(scaled, tol=1e-9).rank == 10


def _span_rows(seed: int):
    return [to_vec10(e.m) for e in frames.span_frame(bundle.random_sp2(seed)).entries]


def test_float_rank_takes_numpy_floats():
    # Rows of numpy floats are float rows: a 2-D ndarray, tuples of
    # np.float64 (the benchmark's rank capture re-packs rows as tuples) and
    # rows mixing np.float64 with float rank like lists of Python floats,
    # not as exact binary rationals by Bareiss.
    rows = _span_rows(3)
    ref = real_rank([list(r) for r in rows])
    assert ref.method == "pivoted-ge" and ref.rank == 10
    arr = np.array(rows)
    np_tuples = [tuple(np.float64(x) for x in r) for r in rows]
    for variant in (arr, list(arr), np_tuples, [rows[0]] + list(arr[1:])):
        got = real_rank(variant)
        assert got.method == "pivoted-ge"
        assert (got.rank, got.pivots, got.positions) == (ref.rank, ref.pivots, ref.positions)
        assert all(type(x) is float for x in got.pivots)
    with pytest.raises(BackendMismatch):
        real_rank(list(arr[:-1]) + [[Fraction(1)] * 10])


def test_rank_backend_follows_the_scalar_rule():
    # ints follow the other scalars: with floats they are float rows, alone
    # or with Fractions exact rows; other scalar types are refused.
    got = real_rank([[1.0, 0, 0], [0, np.float64(2.0), 0]])
    assert (got.method, got.rank) == ("pivoted-ge", 2)
    assert real_rank([[1, Fraction(1, 2)], [2, 1]]).method == "bareiss"
    with pytest.raises(TypeError):
        real_rank([["1", "0"], ["0", "1"]])


def _assert_bitwise_reference(rows):
    # on the rows as given and as one float64 array, the span kernel's block
    # rows, which the elimination must leave as they are, bit for bit
    ref = numpy_pivoted_rank(rows, 1e-9)
    arr = np.array(rows, dtype=np.float64)
    bits = arr.tobytes()
    for variant in (rows, arr):
        got = real_rank(variant, tol=1e-9)
        assert got.method == ref.method == "pivoted-ge"
        assert got.rank == ref.rank
        assert got.pivots == ref.pivots and got.positions == ref.positions
        assert got.min_rel_pivot == ref.min_rel_pivot
    assert arr.tobytes() == bits


def test_float_rank_is_the_numpy_elimination_on_frames():
    # The list elimination runs the numpy algorithm step for step: equal
    # pivots and positions, bit for bit, on the 13 span rows and the 7 D
    # rows of Haar points.
    for seed in range(200):
        rows = _span_rows(seed)
        _assert_bitwise_reference(rows)
        _assert_bitwise_reference(rows[:7])


def test_float_rank_is_the_numpy_elimination_on_dropped_rows():
    # Every single-label drop, as check_point ranks it under --corrupt-frame:
    # the 12 kept rows and the D rows among them (ranks 9 and 6 when a D
    # row goes).
    for seed in range(40):
        rows = _span_rows(seed)
        for i in range(len(frames.SPAN_LABELS)):
            kept = rows[:i] + rows[i + 1 :]
            _assert_bitwise_reference(kept)
            _assert_bitwise_reference(kept[: 7 - (i < 7)])


def test_float_rank_ties_take_the_first_in_row_major_order():
    rows = _span_rows(11)
    # duplicated rows: equal candidates in two rows
    _assert_bitwise_reference(rows + [rows[4], rows[0]])
    _assert_bitwise_reference([rows[2], rows[2], rows[5]])
    # a row with two equal largest magnitudes, ahead of a row reaching the
    # same magnitude once
    tied = [[0.5, 1.0, -1.0, 0.25], [1.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.5, 1.0]]
    _assert_bitwise_reference(tied)
    assert real_rank(tied).positions[0] == (0, 1)


def test_float_rank_is_the_numpy_elimination_with_zero_rows():
    rows = _span_rows(12)
    zero = (0.0,) * 10
    mixed = [zero] + rows[:5] + [zero, zero] + rows[5:] + [zero]
    _assert_bitwise_reference(mixed)
    _assert_bitwise_reference([zero] + rows[:7])
    assert real_rank(mixed).rank == 10


@pytest.mark.parametrize("shape", [(1, 1), (1, 10), (13, 10), (7, 3)])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_float_rank_of_an_all_zero_block(shape, zero):
    # No row is scaled and no pivot is searched for: rank 0, no pivots, and
    # no min_rel_pivot.
    rows = [[zero] * shape[1] for _ in range(shape[0])]
    _assert_bitwise_reference(rows)
    got = real_rank(rows)
    assert (got.rank, got.pivots, got.positions, got.min_rel_pivot) == (0, [], [], None)


def test_float_rank_is_the_numpy_elimination_with_negative_zeros():
    # -0.0 in nonzero rows, and rows of -0.0 alone, which equilibration
    # leaves as they are.
    rows = _span_rows(14)
    neg = (-0.0,) * 10
    signed = [tuple(-0.0 if x == 0.0 else x for x in r) for r in rows]
    _assert_bitwise_reference([neg] + rows[:4] + [neg] + rows[4:])
    _assert_bitwise_reference(signed)
    neg4 = (-0.0,) * 4
    _assert_bitwise_reference([neg4, (0.0, -0.0, 2.5, -0.0), neg4, (-0.0, 1.0, -0.0, -3.0)])
    assert real_rank([neg] + rows).rank == 10


@pytest.mark.parametrize("at", [0, 3, 6])
def test_float_rank_of_a_single_nonzero_row(at):
    # One row among zero rows: rank 1, its largest entry the pivot, and
    # min_rel_pivot 1.0 (that entry over itself).
    rows = [[0.0, -0.0, 0.0, 0.0] for _ in range(7)]
    rows[at] = [0.0, -3e-200, 7.5, -7.5]
    _assert_bitwise_reference(rows)
    got = real_rank(rows)
    assert (got.rank, got.pivots, got.positions, got.min_rel_pivot) == (1, [1.0], [(at, 2)], 1.0)


@pytest.mark.parametrize("shape", [(1, 10), (3, 7), (10, 1), (13, 10)])
def test_float_rank_is_the_numpy_elimination_on_shapes(shape):
    g = np.random.default_rng(shape[0] * 100 + shape[1])
    for _ in range(20):
        rows = g.standard_normal(shape).tolist()
        _assert_bitwise_reference(rows)
        assert real_rank(rows).rank == min(shape)


def test_float_rank_rejects_a_pivot_on_the_threshold():
    # After the first pivot the second row keeps exactly its last entry, so
    # the second pivot equals tol * max_initial (max_initial is 1.0): a
    # pivot on the threshold is not counted, one ulp above it is.
    on = [[1.0, 0.0], [1.0, 1e-9]]
    _assert_bitwise_reference(on)
    assert real_rank(on, tol=1e-9).rank == 1
    above = [[1.0, 0.0], [1.0, float(np.nextafter(1e-9, 1.0))]]
    _assert_bitwise_reference(above)
    assert real_rank(above, tol=1e-9).rank == 2


@st.composite
def planted_float_rows(draw):
    """Up to 14 rows of width 10: k drawn rows and their combinations, in a
    drawn order.  Hypothesis favours 0, 1 and repeated values, so complete
    pivoting meets many ties."""
    k = draw(st.integers(min_value=0, max_value=10))
    base = draw(st.lists(st.lists(floats, min_size=10, max_size=10), min_size=k, max_size=k))
    coeffs = draw(st.lists(st.lists(floats, min_size=k, max_size=k), min_size=0, max_size=4))
    combos = [[sum((c * b[t] for c, b in zip(cs, base)), 0.0) for t in range(10)] for cs in coeffs]
    return draw(st.permutations(base + combos))


@given(planted_float_rows())
@settings(max_examples=300, deadline=None)
def test_float_rank_is_the_numpy_elimination_on_planted_rows(rows):
    if rows:
        _assert_bitwise_reference(rows)
