"""Quaternion arithmetic against an independent 4x4 real-matrix model and a
Fraction-by-Fraction oracle, plus the storage (integer numerators over one
denominator, in lowest terms), backend discipline, the zero test, and JSON
round-trips."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    big_exact_quats,
    exact_quats,
    float_quats,
    fracs,
    left_mult_matrix,
    mat_vec,
    nonzero_exact_quats,
)
from sp2span.quat import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    BackendMismatch,
    ParseError,
    Quaternion,
    ZeroDivisor,
    add4,
    as_float,
    conj4,
    dot,
    hamilton,
    neg4,
    negligible,
    one,
    qi,
    qj,
    qk,
    quat,
    quat_from_json,
    quat_to_json,
    ratios_over_lcm,
    sub4,
    zero,
)


# -- product model ---------------------------------------------------------------


def test_unit_table():
    i, j, k = qi(EXACT), qj(EXACT), qk(EXACT)
    e = one(EXACT)
    assert i * i == -e and j * j == -e and k * k == -e
    assert i * j == k and j * k == i and k * i == j
    assert j * i == -k and k * j == -i and i * k == -j


@given(exact_quats, exact_quats)
def test_product_matches_matrix_model(q, r):
    got = (q * r).components()
    want = mat_vec(left_mult_matrix(q), list(r.components()))
    assert list(got) == want


@given(big_exact_quats(), big_exact_quats())
@settings(max_examples=300)
def test_product_matches_matrix_model_large_denominators(q, r):
    # The exact product runs on the stored integer numerators, over the
    # product of the two stored denominators; the oracle multiplies the
    # Fractions one by one.
    got = (q * r).components()
    want = mat_vec(left_mult_matrix(q), list(r.components()))
    assert list(got) == want
    assert all(type(x) is Fraction for x in got)


@given(exact_quats, exact_quats, exact_quats)
def test_associative_and_distributive(q, r, s):
    assert (q * r) * s == q * (r * s)
    assert q * (r + s) == q * r + q * s


@given(exact_quats, exact_quats)
def test_conj_antihomomorphism(q, r):
    assert (q * r).conj() == r.conj() * q.conj()


@given(exact_quats, exact_quats)
def test_norm_multiplicative(q, r):
    assert (q * r).norm_sq() == q.norm_sq() * r.norm_sq()


@given(exact_quats)
def test_conj_recovers_norm(q):
    n = q * q.conj()
    assert n == quat(q.norm_sq())


@given(nonzero_exact_quats)
def test_inverse(q):
    assert q * q.inverse() == one(EXACT)
    assert q.inverse() * q == one(EXACT)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisor):
        zero(EXACT).inverse()
    with pytest.raises(ZeroDivisor):
        zero(FLOAT).inverse()


@given(big_exact_quats())
@settings(max_examples=300)
def test_exact_norm_and_inverse_large_denominators(q):
    # norm_sq and inverse run on the stored integer numerators over the
    # stored denominator; the oracle takes the Fractions one by one.
    n = sum(x * x for x in q.components())
    assert q.norm_sq() == n and type(q.norm_sq()) is Fraction
    if n == 0:
        with pytest.raises(ZeroDivisor):
            q.inverse()
        return
    inv = q.inverse()
    assert inv.components() == tuple(x / n for x in q.conj().components())
    assert all(type(x) is Fraction for x in inv.components())
    assert q * inv == quat(1)


magnitudes = st.floats(min_value=1e-150, max_value=1e150)
signed = st.builds(lambda m, neg: -m if neg else m, magnitudes, st.booleans())
wide_floats = st.one_of(st.just(0.0), signed)


@given(wide_floats, wide_floats, wide_floats, wide_floats)
@settings(max_examples=300)
def test_float_norm_and_inverse_are_the_plain_expressions(a, b, c, d):
    # The float branches are the componentwise expressions, bit for bit.
    q = quat(a, b, c, d)
    n = a * a + b * b + c * c + d * d
    assert type(q.norm_sq()) is float and q.norm_sq().hex() == n.hex()
    assume(n != 0)
    want = (a / n, -b / n, -c / n, -d / n)
    assert [x.hex() for x in q.inverse().components()] == [x.hex() for x in want]


@given(float_quats, float_quats)
def test_float_product_matches_matrix_model(q, r):
    got = (q * r).components()
    want = mat_vec(left_mult_matrix(q), list(r.components()))
    assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))


# -- storage: integer numerators over one denominator ------------------------------


def assert_lowest_terms(q: Quaternion):
    """An exact quaternion stored as ints over an int d > 0 with
    gcd(d, *n) == 1."""
    assert type(q.d) is int and q.d > 0
    assert all(type(c) is int for c in q.n)
    assert math.gcd(q.d, *q.n) == 1


@given(big_exact_quats(), big_exact_quats(), fracs)
@settings(max_examples=300)
def test_exact_results_match_the_fraction_oracle_in_lowest_terms(q, r, s):
    # Each operation against the same operation on the Fractions one by
    # one; every result, products and inverses included, is stored in
    # lowest terms and read back as Fractions.
    a, b = q.components(), r.components()
    results = [
        (q + r, [x + y for x, y in zip(a, b)]),
        (q - r, [x - y for x, y in zip(a, b)]),
        (-q, [-x for x in a]),
        (q.conj(), [a[0], -a[1], -a[2], -a[3]]),
        (q.scale(s), [x * s for x in a]),
        (q * r, None),
    ]
    if not q.is_zero():
        results.append((q.inverse(), None))
    for got, want in results:
        assert_lowest_terms(got)
        assert all(type(x) is Fraction for x in got.components())
        if want is not None:
            assert list(got.components()) == want
    assert_lowest_terms(q)


@given(big_exact_quats(), st.integers(min_value=1, max_value=10**12))
@settings(max_examples=300)
def test_equal_values_have_equal_storage(q, k):
    # Fractions, numerators over a non-reduced denominator, and arithmetic
    # results of the same value: equal, with equal hashes and storage.
    routes = [
        quat(*q.components()),
        Quaternion(*(c * k for c in q.n), q.d * k),
        (q + q) - q,
        q * one(EXACT),
        q.scale(Fraction(k, 1)).scale(Fraction(1, k)),
        -(-q),
        q.conj().conj(),
    ]
    for other in routes:
        assert other == q and hash(other) == hash(q)
        assert (other.n, other.d) == (q.n, q.d)


@given(big_exact_quats(), big_exact_quats())
def test_equality_is_equality_of_the_components(q, r):
    assert (q == r) is (q.components() == r.components())
    # equal numerators over different denominators are different values
    assert Quaternion(*q.n, q.d + 1) != q or q.is_zero()


def test_integers_and_fractions_give_the_same_storage():
    q = quat(Fraction(1, 2), Fraction(-1, 3), 0, 2)
    assert (q.n, q.d) == ((3, -2, 0, 12), 6)
    assert q == Quaternion(6, -4, 0, 24, 12)
    assert q == quat(Fraction(3, 6), Fraction(-2, 6), 0, 2)
    assert (quat(2).n, quat(2).d) == ((2, 0, 0, 0), 1)
    assert q.components() == (Fraction(1, 2), Fraction(-1, 3), Fraction(0), Fraction(2))
    assert (q.h0, q.h1, q.h2, q.h3) == q.components()


@pytest.mark.parametrize("d", [0, -1, -6])
def test_numerators_need_a_positive_denominator(d):
    with pytest.raises(ValueError):
        Quaternion(1, 2, 3, 4, d)


@given(
    st.tuples(wide_floats, wide_floats, wide_floats, wide_floats),
    st.tuples(wide_floats, wide_floats, wide_floats, wide_floats),
)
@settings(max_examples=300)
def test_float_results_are_the_tuple_formulas_bit_for_bit(a, b):
    # Float quaternions store their four floats over 1, and each operation
    # is the quat tuple formula on them, in its IEEE order.
    q, r = quat(*a), quat(*b)
    assert q.n == a and q.d == 1
    for got, want in [
        (q * r, hamilton(a, b)),
        (q + r, add4(a, b)),
        (q - r, sub4(a, b)),
        (-q, neg4(a)),
        (q.conj(), conj4(a)),
        (q.scale(b[0]), tuple(x * b[0] for x in a)),
    ]:
        assert got.d == 1 and got.backend == FLOAT
        assert [x.hex() for x in got.components()] == [x.hex() for x in want]


def test_backend_mismatch_on_equal_numerators():
    # Exact 1 over 1 and float 1.0 over 1 store equal-comparing tuples, yet
    # every mixed operation raises and the two are unequal.
    qe, qf = Quaternion(1, 0, 0, 0, 1), quat(1.0)
    assert qe.backend == EXACT and qf.backend == FLOAT
    for op in (operator.add, operator.sub, operator.mul, dot):
        with pytest.raises(BackendMismatch):
            op(qe, qf)
        with pytest.raises(BackendMismatch):
            op(qf, qe)
    assert qe != qf and qf != qe


# -- backend discipline ----------------------------------------------------------


def test_backend_mixing_raises():
    qe = quat(Fraction(1))
    for qf in (quat(1.0), quat(np.float64(1.0))):
        with pytest.raises(BackendMismatch):
            qe * qf
        with pytest.raises(BackendMismatch):
            qf * qe
        with pytest.raises(BackendMismatch):
            qe + qf
        with pytest.raises(BackendMismatch):
            dot(qe, qf)


def test_numpy_float_components_are_float():
    # numpy floats are float scalars, stored as Python floats, so the
    # backend test on the stored components holds.
    for q in (quat(np.float64(1.0), 0.0, 0.0, 0.0), quat(np.float32(0.5), 0, 2.0)):
        assert q.backend == FLOAT
        assert all(type(x) is float for x in q.components())
    assert quat(np.float64(1.0), 0, 0, 0) == quat(1.0, 0.0, 0.0, 0.0)


def test_scale_by_numpy_float():
    qf = quat(1.0, -2.0, 0.5, 3.0)
    doubled = qf.scale(np.float64(2.0))
    assert doubled == qf.scale(2.0) == quat(2.0, -4.0, 1.0, 6.0)
    assert all(type(x) is float for x in doubled.components())
    qe = quat(Fraction(1), Fraction(1, 3))
    for s in (np.float64(2.0), 2.0):
        with pytest.raises(BackendMismatch):
            qe.scale(s)
    with pytest.raises(BackendMismatch):
        qf.scale(Fraction(2))
    assert qe.scale(2) == quat(Fraction(2), Fraction(2, 3))
    assert qf.scale(2) == qf.scale(2.0)


@pytest.mark.parametrize(
    "h0, backend",
    [(np.float64(0.5), EXACT), (0.5, EXACT), (Fraction(1, 2), FLOAT)],
    ids=["numpy-float-on-exact", "float-on-exact", "fraction-on-float"],
)
def test_scalar_on_the_other_backend_raises(h0, backend):
    # Quaternion.scale is the one call that requests a backend, its own.
    with pytest.raises(BackendMismatch):
        one(backend).scale(h0)


@pytest.mark.parametrize("h0", ["1", None, 1j], ids=["str", "none", "complex"])
def test_unsupported_scalar_type_raises(h0):
    with pytest.raises(TypeError):
        quat(h0)
    for backend in (EXACT, FLOAT):
        with pytest.raises(TypeError):
            one(backend).scale(h0)
    with pytest.raises(TypeError):
        negligible(h0)


@given(st.lists(st.tuples(st.integers(-(10**30), 10**30), st.integers(1, 10**30)), min_size=1, max_size=12))
def test_ratios_over_lcm(pairs):
    nums, d = ratios_over_lcm(pairs)
    assert d == math.lcm(*(den for _, den in pairs))
    assert [Fraction(n, d) for n in nums] == [Fraction(n, den) for n, den in pairs]


def test_quaternion_takes_numerators_and_quat_components():
    # Quaternion reads numerators over a required denominator; quat reads
    # components, whose types alone decide the backend.
    assert Quaternion(1, 2, 3, 4, 2) == quat(Fraction(1, 2), 1, Fraction(3, 2), 2)
    assert Quaternion(0.5, 1.0, 1.5, 2.0, 1) == quat(0.5, 1, 1.5, 2)
    with pytest.raises(TypeError):
        Quaternion(1, 2, 3, 4)
    with pytest.raises(TypeError):
        quat(1, backend=EXACT)


CONSTANT_COMPONENTS = {zero: (0, 0, 0, 0), one: (1, 0, 0, 0), qi: (0, 1, 0, 0), qj: (0, 0, 1, 0), qk: (0, 0, 0, 1)}


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_constants_are_built_once_and_never_change(backend):
    # zero, one, qi, qj and qk return one shared object per backend, so no
    # operation may change the object it reads.
    exact = backend == EXACT
    other = quat(Fraction(2, 3), Fraction(-1, 2), 3, 5) if exact else quat(2 / 3, -0.5, 3.0, 5.0)
    s = Fraction(3, 7) if exact else 3 / 7
    for make, components in CONSTANT_COMPONENTS.items():
        c = make(backend)
        assert make(backend) is c
        want = quat(*(components if exact else map(float, components)))
        assert c == want and c.backend == backend
        for use in (
            operator.neg,
            Quaternion.conj,
            lambda q: q.scale(s),
            lambda q: q * other,
            lambda q: other * q,
            lambda q: q + other,
            lambda q: q * q,
        ):
            use(c)
            assert (c.n, c.d) == (want.n, want.d)


ABOVE_TOL = math.nextafter(DEFAULT_TOL, 1.0)


@pytest.mark.parametrize(
    "x, tol, want",
    [
        (DEFAULT_TOL, DEFAULT_TOL, True),
        (-DEFAULT_TOL, DEFAULT_TOL, True),
        (ABOVE_TOL, DEFAULT_TOL, False),
        (np.float64(DEFAULT_TOL), DEFAULT_TOL, True),
        (np.float64(-ABOVE_TOL), DEFAULT_TOL, False),
        (0.0, 0.0, True),
        (math.inf, 1.0, False),
        (-math.inf, 1.0, False),
        (math.nan, math.inf, False),
        (np.float64(math.nan), 1.0, False),
        (Fraction(1, 10**30), 1.0, False),
        (1, 1.0, False),
        (True, 1.0, False),
        (Fraction(0), DEFAULT_TOL, True),
        (0, 0.0, True),
    ],
    ids=[
        "float-at-tol",
        "float-at-minus-tol",
        "float-next-above-tol",
        "numpy-at-tol",
        "numpy-next-above-tol",
        "float-zero-at-tol-0",
        "inf",
        "minus-inf",
        "nan",
        "numpy-nan",
        "tiny-fraction",
        "int-one",
        "bool-true",
        "fraction-zero",
        "int-zero",
    ],
)
def test_negligible(x, tol, want):
    # Floats within tol (never NaN or an infinity), exact scalars only at 0,
    # whatever tol is.
    assert negligible(x, tol) is want


@pytest.mark.parametrize("slot", range(4))
def test_float_zero_test_reads_every_component(slot):
    # A NaN or a value past tol in any one component is not zero; exactly
    # tol is.  is_imaginary reads the real part alone.
    def q(value):
        return quat(*(value if n == slot else 0.0 for n in range(4)))

    assert q(DEFAULT_TOL).is_zero(DEFAULT_TOL) and q(-DEFAULT_TOL).is_zero(DEFAULT_TOL)
    for value in (math.nan, ABOVE_TOL, math.inf):
        assert not q(value).is_zero(DEFAULT_TOL)
        assert q(value).is_imaginary(DEFAULT_TOL) is (slot != 0)
    tiny = quat(*(Fraction(int(n == slot), 10**30) for n in range(4)))
    assert not tiny.is_zero(1.0)


@pytest.mark.parametrize("slot", range(4))
def test_max_abs_keeps_nan(slot):
    # max() alone drops a NaN that is not its first argument.
    q = quat(*(math.nan if n == slot else float(n) for n in range(4)))
    assert math.isnan(q.max_abs())
    assert quat(-4.0, 1.0, -0.5, 3.0).max_abs() == 4.0
    assert quat(Fraction(-7, 3), 2, 0, 1).max_abs() == Fraction(7, 3)


def test_predicates():
    assert quat(Fraction(0), Fraction(1), Fraction(0), Fraction(0)).is_imaginary()
    assert not quat(Fraction(1), Fraction(1)).is_imaginary()
    assert quat(1e-15, 2.0, 0.0, 0.0).is_imaginary(tol=1e-12)
    assert quat(Fraction(0)).is_zero()
    assert quat(0.0, 1e-15, 0.0, 0.0).is_zero(tol=1e-12)


def test_as_float_saturates_instead_of_overflowing():
    assert as_float(Fraction(1, 3)) == 1 / 3 and as_float(0.5) == 0.5
    assert as_float(Fraction(10**400)) == math.inf
    assert as_float(Fraction(-(10**400), 7)) == -math.inf
    assert as_float(Fraction(1, 10**400)) == 0.0


# -- dot and scale ---------------------------------------------------------------


@given(exact_quats, exact_quats)
def test_dot_is_real_part_of_q_rbar(q, r):
    assert dot(q, r) == (q * r.conj()).h0


@given(exact_quats)
def test_scale(q):
    assert q.scale(Fraction(3, 2)) + q.scale(Fraction(-3, 2)) == zero(EXACT)


# -- serialization ---------------------------------------------------------------


@given(exact_quats)
def test_json_round_trip_exact(q):
    blob = quat_to_json(q)
    assert all(isinstance(s, str) for s in blob)
    assert quat_from_json(blob, EXACT) == q


@given(float_quats)
def test_json_round_trip_float(q):
    blob = quat_to_json(q)
    assert quat_from_json(blob, FLOAT) == q


def test_json_rejects_garbage():
    with pytest.raises(ParseError):
        quat_from_json(["1", "0", "0"], EXACT)
    with pytest.raises(ParseError):
        quat_from_json(["1", "0", "0", "x/y/z"], EXACT)
    with pytest.raises(ParseError):
        quat_from_json({"not": "a list"}, FLOAT)


def test_repr_round_trips_through_eval_shape():
    q = quat(Fraction(1, 2), Fraction(0), Fraction(3), Fraction(0))
    assert repr(q).startswith("quat(") and "Fraction(1, 2)" in repr(q)
    for r in (q, quat(0.5, -0.0, 3.0, 1e-300)):
        assert eval(repr(r), {"quat": quat, "Fraction": Fraction}) == r
