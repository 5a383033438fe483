"""Bundle layer: the sphere projection and its equivariance, the dual
constructions of the fundamental fields, membership conditions, point
generators (random, Cayley, deterministic grids), and fiber normalization.
The right dressing, the vertical delta basis and the variant-A residual
are defined here, as the references these tests check the library with."""

import hashlib
import itertools
import json
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ad_reference,
    cayley_sp2,
    ell_direct_reference,
    ell_from_projector_reference,
    fiber_point_reference,
    identity,
    ir_w0_reference,
    sp1_cayley_reference,
)
from sp2span import bundle, frames
from sp2span.bundle import (
    DegenerateDraw,
    NonImaginaryRho,
    e_action,
    ell,
    ell_direct,
    ell_from_projector,
    exact_random_point,
    fiber_point,
    horizontal_space_rank,
    ib_float_point,
    in_ad_h_p,
    ir_w0,
    normalize_fiber,
    project_s4_gm,
    random_sp2,
    sp1_cayley,
    two_squares,
    _sanity_zero_real,
)
from sp2span.qmat import InvariantViolation, QMat2, ShapeMismatch, Sp2Alg, Sp2Point, ad, diag, scalar_mat
from sp2span.quat import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    BackendMismatch,
    NotRepresentable,
    Quaternion,
    one,
    qi,
    qj,
    qk,
    quat,
    quat_to_json,
    zero,
)

def rng_frac(g: random.Random) -> Fraction:
    return Fraction(g.randint(-6, 6), g.randint(1, 8))


def rng_alg(g: random.Random) -> Sp2Alg:
    za = quat(Fraction(0), rng_frac(g), rng_frac(g), rng_frac(g), backend=EXACT)
    zc = quat(Fraction(0), rng_frac(g), rng_frac(g), rng_frac(g), backend=EXACT)
    b = quat(rng_frac(g), rng_frac(g), rng_frac(g), rng_frac(g), backend=EXACT)
    return Sp2Alg(QMat2(za, b, -b.conj(), zc))


def r_action(p: Sp2Point, lam: Quaternion, mu: Quaternion) -> Sp2Point:
    """p -> p @ diag(conj(lam), conj(mu)) for unit lam, mu."""
    return Sp2Point(p.m @ diag(lam.conj(), mu.conj()), validate=False)


def vertical_delta_basis(p: Sp2Point):
    """Left-trivialized generators of the diagonal structure-group orbit:
    Ad_{p^-1}(lam Id) - diag(lam, 0) for lam in (i, j, k).

    Pushing each forward with ad(p, .) recovers ell(p, lam).
    """
    out = []
    pinv = p.inverse()
    for lam in (qi(p.backend), qj(p.backend), qk(p.backend)):
        m = ad(pinv, Sp2Alg(scalar_mat(lam))).m - diag(lam, zero(p.backend))
        out.append(Sp2Alg(m, validate=False))
    return tuple(out)


def h_p_residual(p: Sp2Point, u: Sp2Alg) -> Quaternion:
    """Variant A residual for u = [[0, beta], [-conj(beta), gamma]].

    Zero exactly when the left-translated u is horizontal at p.  The real
    component vanishes identically and is asserted, so the residual carries 3
    real constraints.
    """
    if not u.m.a.is_zero(DEFAULT_TOL):
        raise ShapeMismatch("variant A needs a vanishing (1,1) entry")
    beta, gamma = u.m.b, u.m.d
    x, y, w, z = p.x, p.y, p.w, p.z
    res = (
        x * beta * y.conj()
        - y * beta.conj() * x.conj()
        + w * beta * z.conj()
        - z * beta.conj() * w.conj()
        + y * gamma * y.conj()
        + z * gamma * z.conj()
    )
    _sanity_zero_real(res, u.m.max_abs())
    return res


def u_rows(p, tol: float = 1e-9):
    """The four u of the span frame at p, for its case label."""
    return [e.m for e in frames.d_entries(p, frames.classify(p, tol))[3:]]


def rng_unit(g: random.Random):
    while True:
        s = quat(Fraction(0), rng_frac(g), rng_frac(g), rng_frac(g), backend=EXACT)
        if not (one(EXACT) + s).is_zero():
            return sp1_cayley(s)


# -- projections -------------------------------------------------------------------


def test_projections_land_on_spheres():
    g = random.Random(1)
    for _ in range(10):
        p = cayley_sp2(rng_alg(g))
        assert p.y.norm_sq() + p.z.norm_sq() == 1
        q, t = project_s4_gm(p)
        assert q.norm_sq() + t * t == 1


def test_gm_projection_invariant_under_diagonal_e_action():
    g = random.Random(3)
    for _ in range(10):
        p = cayley_sp2(rng_alg(g))
        lam = rng_unit(g)
        assert project_s4_gm(e_action(p, lam, lam)) == project_s4_gm(p)


def test_actions_preserve_sp2():
    g = random.Random(4)
    p = cayley_sp2(rng_alg(g))
    lam, mu = rng_unit(g), rng_unit(g)
    for moved in (e_action(p, lam, mu), r_action(p, lam, mu)):
        assert moved.m @ moved.m.adjoint() == identity(EXACT)


# -- fundamental fields --------------------------------------------------------------


def test_ell_dual_paths_agree_exactly():
    g = random.Random(5)
    for _ in range(15):
        p = cayley_sp2(rng_alg(g))
        for rho in (qi(EXACT), qj(EXACT), qk(EXACT)):
            direct = ell_direct(p, rho)
            proj = ell_from_projector(p, rho)
            assert direct == proj
            # The front door returns the entrywise matrix as a valid algebra element.
            assert Sp2Alg(ell(p, rho).m).m == direct
    # Float points agree to a relative 1e-12.
    for s in range(40):
        p = random_sp2(500 + s)
        for rho in (qi(FLOAT), qj(FLOAT), qk(FLOAT)):
            direct = ell_direct(p, rho)
            err = (direct - ell_from_projector(p, rho)).max_abs()
            assert err <= 1e-12 * max(1.0, direct.max_abs())


def _numerator_rewrite_points():
    """Exact points of every EXACT_CASE_KINDS case and every grid family."""
    points = [exact_random_point(seed, case) for case in bundle.EXACT_CASE_KINDS for seed in range(8)]
    for grid in (bundle.grid_ia, bundle.grid_ib, bundle.grid_ir, bundle.grid_ii):
        points += grid(8)
    return points


def test_numerator_code_equals_the_object_expressions_exactly():
    # ell_direct, ell_from_projector and ad run on numerators; each equals
    # the object expression it replaced, also where x and w are stored over
    # different denominators.
    g = random.Random(24)
    points = _numerator_rewrite_points()
    assert sum(p.x.d != p.w.d for p in points) >= 10
    for p in points:
        for rho in (qi(EXACT), qj(EXACT), qk(EXACT), quat(0, Fraction(2, 3), Fraction(-1, 5), 1)):
            assert ell_direct(p, rho) == ell_direct_reference(p, rho)
            assert ell_from_projector(p, rho) == ell_from_projector_reference(p, rho)
        u = rng_alg(g)
        for q in (p, p.inverse()):
            assert ad(q, u) == ad_reference(q, u)
            assert ad(q, ell(p, qi(EXACT))) == ad_reference(q, ell(p, qi(EXACT)))


def _bits(m: QMat2) -> bytes:
    return struct.pack("<16d", *(c for e in m.entries() for c in e.n))


def test_numerator_code_keeps_the_float_bits():
    g = random.Random(25)
    for s in range(200):
        p = random_sp2(700 + s)
        rho = quat(0.0, g.uniform(-1, 1), g.uniform(-1, 1), g.uniform(-1, 1))
        for r in (qi(FLOAT), qj(FLOAT), qk(FLOAT), rho):
            assert _bits(ell_direct(p, r)) == _bits(ell_direct_reference(p, r))
            assert _bits(ell_from_projector(p, r)) == _bits(ell_from_projector_reference(p, r))
        b = quat(*(g.uniform(-1, 1) for _ in range(4)))
        u = Sp2Alg(QMat2(rho, b, -b.conj(), quat(0.0, *(g.uniform(-1, 1) for _ in range(3)))))
        for q in (p, p.inverse()):
            assert _bits(ad(q, u).m) == _bits(ad_reference(q, u).m)


def test_numerator_code_rejects_mixed_backends():
    p, fp = exact_random_point(3), random_sp2(3)
    for f in (ell_direct, ell_from_projector):
        with pytest.raises(BackendMismatch):
            f(p, qi(FLOAT))
        with pytest.raises(BackendMismatch):
            f(fp, qi(EXACT))
    with pytest.raises(BackendMismatch):
        ad(fp, ell(p, qi(EXACT)))
    with pytest.raises(BackendMismatch):
        ad(p, ell(fp, qi(FLOAT)))


def test_ell_rejects_non_imaginary_rho():
    g = random.Random(6)
    p = cayley_sp2(rng_alg(g))
    with pytest.raises(NonImaginaryRho):
        ell(p, one(EXACT))
    # On floats the real part is compared at DEFAULT_TOL.
    fp = random_sp2(6)
    ell(fp, quat(DEFAULT_TOL, 1.0, 0.0, 0.0))
    with pytest.raises(NonImaginaryRho):
        ell(fp, quat(2 * DEFAULT_TOL, 1.0, 0.0, 0.0))


def test_ell_is_pushforward_of_vertical_deltas():
    # The same orbit direction in both trivializations: ad(p, delta_lam)
    # must reproduce ell(p, lam) entry for entry.
    g = random.Random(7)
    for _ in range(10):
        p = cayley_sp2(rng_alg(g))
        deltas = vertical_delta_basis(p)
        for lam, delta in zip((qi(EXACT), qj(EXACT), qk(EXACT)), deltas):
            assert (ad(p, delta).m - ell(p, lam).m).max_abs() == 0


def test_membership_rejects_generic_tracefree_elements():
    # diag(i, -i) sits outside the 4-dimensional member space at generic
    # points, so the predicate must say no there.
    g = random.Random(8)
    probe = Sp2Alg(QMat2(qi(EXACT), zero(EXACT), zero(EXACT), -qi(EXACT)))
    rejected = 0
    for _ in range(10):
        p = cayley_sp2(rng_alg(g))
        if not in_ad_h_p(p, probe):
            rejected += 1
    assert rejected == 10


def test_membership_variants_bridge():
    # Variant B certifies u; pulling back by Ad_{p^-1} kills the (1,1)
    # corner, which is exactly the shape variant A wants, and variant A then
    # reports zero residual for the same tangent direction.
    g = random.Random(9)
    for _ in range(10):
        p = cayley_sp2(rng_alg(g))
        for u in u_rows(p):
            assert in_ad_h_p(p, u)
            back = ad(p.inverse(), u)
            assert back.m.a.is_zero()
            assert h_p_residual(p, Sp2Alg(back.m, validate=False)).is_zero()


def test_corner_of_pullback_is_the_membership_residual():
    # The (1,1) entry of Ad_{p^-1}(u) and the variant-B residual are the same
    # polynomial in (p, u) for any trace-free u, members or not; this is why
    # the frame check tests membership and not the corner as well.
    g = random.Random(16)
    nonzero = 0
    for idx in range(200):
        p = exact_random_point(6000 + idx, case=bundle.EXACT_CASE_KINDS[idx % 5])
        a = quat(Fraction(0), rng_frac(g), rng_frac(g), rng_frac(g), backend=EXACT)
        b = quat(rng_frac(g), rng_frac(g), rng_frac(g), rng_frac(g), backend=EXACT)
        u = Sp2Alg(QMat2(a, b, -b.conj(), -a))
        residual = bundle.ad_h_p_residual(p, u)
        assert ad(p.inverse(), u).m.a == residual
        nonzero += not residual.is_zero()
    assert nonzero >= 150


def test_residual_sanity_check_fails_a_nan_scale():
    # max(1.0, nan) is 1.0, which would test a NaN-scaled residual at
    # DEFAULT_TOL alone.
    bundle._sanity_zero_real(zero(FLOAT), 1.0)
    with pytest.raises(InvariantViolation):
        bundle._sanity_zero_real(zero(FLOAT), math.nan)


def test_case_ii_cut_scales_with_tol():
    # x or w counts as vanished at norm tol/4 or below on floats, and only
    # at exactly 0 on the exact backend; either way the basis in use is
    # horizontal within tol.  v = c r puts |x| near r, v = c/r puts |w| there.
    c = quat(0.6, 0.0, 0.8, 0.0, backend=FLOAT)
    for tol in (1e-9, 1e-6):
        for r, below in ((0.9 * tol / 4, True), (1.1 * tol / 4, False)):
            for v, entry in ((c.scale(r), "x"), (c.scale(1 / r), "w")):
                w0 = quat(1.0 / (1.0 + v.norm_sq()) ** 0.5, backend=FLOAT)
                p = fiber_point(v, w0, one(FLOAT), one(FLOAT))
                assert bundle.case_ii_corner(p, tol) == (entry if below else None)
                assert all(in_ad_h_p(p, u, tol) for u in u_rows(p, tol))
    # the cut itself is below: |x|^2 == (tol/4)^2 exactly, then one ulp more
    for tol in (1e-9, 1e-6):
        for t, entry in ((tol / 4, "x"), (math.nextafter(tol / 4, 1.0), None)):
            p = Sp2Point(QMat2(*(quat(c, backend=FLOAT) for c in (t, -1.0, 1.0, t))))
            assert (p.x.norm_sq() == (tol / 4) ** 2) is (entry == "x")
            assert bundle.case_ii_corner(p, tol) == entry
    assert bundle.case_ii_corner(exact_random_point(3, case="II-w0")) == "w"
    assert bundle.case_ii_corner(exact_random_point(3, case="II-x0")) == "x"
    assert bundle.case_ii_corner(exact_random_point(3)) is None


def test_h_p_basis_spans_members():
    g = random.Random(10)
    for _ in range(10):
        p = cayley_sp2(rng_alg(g))
        basis = u_rows(p)
        assert len(basis) == 4
        for u in basis:
            assert in_ad_h_p(p, u)


def test_horizontal_space_dimensions():
    g = random.Random(11)
    for _ in range(10):
        p = cayley_sp2(rng_alg(g))
        assert horizontal_space_rank(p) == (3, 4)


# -- point generators ----------------------------------------------------------------


def test_cayley_exactness():
    g = random.Random(12)
    for _ in range(20):
        p = cayley_sp2(rng_alg(g))
        assert p.backend == EXACT
        assert p.m @ p.m.adjoint() == identity(EXACT)


def test_random_sp2_deterministic_and_valid():
    p = random_sp2(123)
    q = random_sp2(123)
    assert (p.m - q.m).max_abs() == 0
    r = (p.m @ p.m.adjoint() - identity(FLOAT)).max_abs()
    assert r <= 1e-12


def test_random_sp2_draws_are_frozen():
    # The draws of keys 0-999, as serialized: a change to sampling or to its
    # validation must not move a single bit.
    digest = hashlib.sha256()
    for key in range(1000):
        digest.update(json.dumps(random_sp2(key).to_json(), sort_keys=True).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == "e80a83b02b395db5daf7e0ecf0328900efd13a03b03f66f6733fd3b712dd7abf"


def test_exact_draws_are_frozen():
    # The exact draws as serialized: keys 0-199 of every case, the keys and
    # cases of exact `verify --samples 48 --seed 1..3` (cli._verify_one's
    # formula), the deterministic grids and the unit menu.  A change to exact
    # sampling must not move a single Fraction.
    digest = hashlib.sha256()

    def add(p):
        digest.update(json.dumps(p.to_json(), sort_keys=True).encode())
        digest.update(b"\n")

    for case in bundle.EXACT_CASE_KINDS:
        for key in range(200):
            add(exact_random_point(key, case))
    for seed in (1, 2, 3):
        for index in range(48):
            key = ((seed % (1 << 64)) << 64) + index
            add(exact_random_point(key, bundle.EXACT_CYCLE[index % len(bundle.EXACT_CYCLE)]))
    for grid in (bundle.grid_ia, bundle.grid_ib, bundle.grid_ir, bundle.grid_ii):
        for p in grid(8):
            add(p)
    for u in bundle.UNIT_MENU:
        digest.update(json.dumps(quat_to_json(u)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == "e387ef7995f2697dcf9af028066a0ffc614ab2763edd4d7cb65b882ee2fba602"


@pytest.mark.parametrize(
    "enumeration,expected",
    [
        (
            lambda: frames.rational_v_grid(200),
            "fbfc55f385e1d96fedaccec094a196a9ea8e8fdbee8e8e98d44d593e8aa67888",
        ),
        (
            lambda: frames.rational_v_grid(200, admissible=False),
            "1a8067242220734879bf47e12c898073b17616da854b959bed0324d1a4aadbc8",
        ),
        (
            lambda: itertools.chain.from_iterable(itertools.islice(bundle.admissible_v_stream(), 200)),
            "4205df068db0ed9b7ffb0b0f8bff93c916ab3fe6758c61c7c2bfdb0cc5294a62",
        ),
    ],
    ids=["grid-admissible", "grid-all", "stream"],
)
def test_v_enumerations_are_frozen(enumeration, expected):
    # The identity suite's v grids (both flag pairs in use) and the first
    # 200 (v, w0) pairs of the stream behind grid_ia, in order: a change to
    # the enumeration must not move or reorder a single v.
    digest = hashlib.sha256()
    for q in enumeration():
        digest.update(json.dumps(quat_to_json(q)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == expected


def test_random_sp2_column_mass_is_balanced():
    # |x|^2 averages to 1/2 under the invariant measure.
    n = 4000
    acc = 0.0
    for s in range(n):
        acc += random_sp2(10_000 + s).x.norm_sq()
    assert abs(acc / n - 0.5) < 0.02


def test_fiber_point_families():
    it = bundle.admissible_v_stream()
    g = random.Random(13)
    for _ in range(12):
        v, w0 = next(it)
        u1, u2 = rng_unit(g), rng_unit(g)
        p = fiber_point(v, w0, u1, u2)
        assert p.m @ p.m.adjoint() == identity(EXACT)
        # x w^-1 reproduces v.
        assert p.x * p.w.inverse() == v


def test_ir_w0_closes_the_norm_condition():
    for v0 in (Fraction(1, 2), Fraction(-3), Fraction(7, 5)):
        v = quat(v0, backend=EXACT)
        w0 = ir_w0(v)
        assert w0.norm_sq() * (1 + v.norm_sq()) == 1


def test_ir_w0_rejects_a_float_v():
    # A float v has no exact w0; it is not read as a binary rational.
    with pytest.raises(BackendMismatch):
        ir_w0(quat(0.1, backend=FLOAT))


def test_sp1_cayley_rejects_a_float_or_real_s():
    with pytest.raises(BackendMismatch):
        sp1_cayley(quat(0.0, 0.5, 0.0, 0.0, backend=FLOAT))
    with pytest.raises(ValueError):
        sp1_cayley(quat(Fraction(1, 2), 1))


def _float_unit(g: random.Random) -> Quaternion:
    q = [g.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(c * c for c in q))
    return quat(*(c / n for c in q))


def test_float_fiber_points_keep_the_object_bits():
    # On floats fiber_point runs the IEEE operations of the object
    # expression in the same order: every component keeps its bits.
    g = random.Random(27)
    for _ in range(300):
        v = quat(*(g.uniform(-2, 2) for _ in range(4)))
        w0 = quat(1.0 / math.sqrt(1.0 + v.norm_sq()), backend=FLOAT)
        args = (v, w0, _float_unit(g), _float_unit(g))
        assert _bits(fiber_point(*args).m) == _bits(fiber_point_reference(*args).m)


def test_fiber_point_rejects_mixed_backends():
    # Without its own check the tuple formulas would build a float point
    # from an exact v, or fail with a bare TypeError.
    v = quat(2)
    float_w0 = quat(1.0 / math.sqrt(5.0), backend=FLOAT)
    with pytest.raises(BackendMismatch):
        fiber_point(v, float_w0, one(FLOAT), one(FLOAT))
    with pytest.raises(BackendMismatch):
        fiber_point(v, ir_w0(v), one(FLOAT), one(FLOAT))
    exact = [v, ir_w0(v), one(EXACT), one(EXACT)]
    for k in range(4):
        mixed = list(exact)
        mixed[k] = quat(*map(float, mixed[k].components()), backend=FLOAT)
        with pytest.raises(BackendMismatch):
            fiber_point(*mixed)


def test_exact_random_point_cases():
    for seed in range(4):
        assert frames.classify(normalize_fiber(exact_random_point(seed)).point).kind in (
            frames.CASE_IA,
            frames.CASE_IR,
        )
    assert frames.classify(exact_random_point(5, case="I-b")).kind == frames.CASE_IB_NONQUARTER
    assert frames.classify(exact_random_point(6, case="I-r")).kind == frames.CASE_IR
    assert frames.classify(exact_random_point(7, case="II-x0")).kind == frames.CASE_II
    assert frames.classify(exact_random_point(8, case="II-w0")).kind == frames.CASE_II
    with pytest.raises(ValueError):
        exact_random_point(9, case="no-such-case")


def test_exact_random_point_deterministic():
    a = exact_random_point(77)
    b = exact_random_point(77)
    assert a.m == b.m


def object_draw(seed, case):
    """exact_random_point built from Quaternion/QMat2 objects: the same Philox
    calls in the same order, then the object expressions of sp1_cayley,
    fiber_point and ir_w0 (tests/conftest.py), cayley_sp2 and r_action."""
    g = np.random.Generator(np.random.Philox(key=seed % (1 << 128)))

    def frac():
        return Fraction(int(g.integers(-8, 9)), int(g.integers(1, 9)))

    def unit():
        return sp1_cayley_reference(quat(0, frac(), frac(), frac()))

    if case is None:
        alpha = quat(0, frac(), 0, 0)
        beta = quat(frac(), frac(), 0, 0)
        gamma = quat(0, frac(), 0, 0)
        core = cayley_sp2(Sp2Alg(QMat2(alpha, beta, -beta.conj(), gamma)))
        return r_action(core, unit(), unit())
    if case == "I-b":
        return fiber_point_reference(qi(EXACT), bundle.IB_W0, unit(), unit())
    if case == "I-r":
        v = quat(0)
        while v.h0 == 0:
            v = quat(frac())
        return fiber_point_reference(v, ir_w0_reference(v), unit(), unit())
    if case == "II-x0":
        y, w = unit(), unit()
        return Sp2Point(QMat2(zero(EXACT), y, w, zero(EXACT)))
    x, z = unit(), unit()
    return Sp2Point(QMat2(x, zero(EXACT), zero(EXACT), z))


@pytest.mark.parametrize("case", bundle.EXACT_CASE_KINDS)
def test_exact_random_point_matches_object_construction(case):
    # The sampler against the object construction, Fraction for Fraction,
    # on 600 keys per case (300 small keys, 300 of 128 bits).
    for k in range(300):
        for key in (k, (k << 64) + 977 * k + 5):
            assert exact_random_point(key, case).m == object_draw(key, case).m


big_ratios = st.tuples(st.integers(-(10**40), 10**40), st.integers(1, 10**40))


@given(st.lists(big_ratios, min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_closed_form_unit_is_sp1_cayley(ratios):
    # ((D^2 - |S|^2) - 2 D S)/(D^2 + |S|^2) for s = S/D is (1 - s)(1 + s)^-1
    # exactly, over large and unreduced denominators.
    s = quat(0, *(Fraction(n, d) for n, d in ratios))
    assert sp1_cayley(s) == sp1_cayley_reference(s)


@given(big_ratios)
@settings(max_examples=200, deadline=None)
def test_ir_w0_is_its_object_expression(ratio):
    v = quat(Fraction(*ratio))
    assert ir_w0(v) == ir_w0_reference(v)


def test_factories_equal_the_object_expressions(monkeypatch):
    # sp1_cayley, fiber_point and ir_w0 run on numerators; each equals the
    # object expression it replaced: on the unit menu, on every grid, and on
    # random units over admissible, conjugated, real and quaternionic v.
    assert bundle.UNIT_MENU == [sp1_cayley_reference(s) for s in bundle.UNIT_SEEDS]
    g = random.Random(26)
    it = bundle.admissible_v_stream()
    for _ in range(40):
        s1, s2 = (quat(0, rng_frac(g), rng_frac(g), rng_frac(g)) for _ in range(2))
        u1, u2 = sp1_cayley(s1), sp1_cayley(s2)
        assert (u1, u2) == (sp1_cayley_reference(s1), sp1_cayley_reference(s2))
        v, w0 = next(it)
        for vv, ww in ((v, w0), (v.conj(), w0), (qj(EXACT), bundle.IB_W0)):
            assert fiber_point(vv, ww, u1, u2) == fiber_point_reference(vv, ww, u1, u2)
        r = quat(rng_frac(g))
        assert fiber_point(r, ir_w0(r), u1, u2) == fiber_point_reference(r, ir_w0_reference(r), u1, u2)
    grids = (bundle.grid_ia, bundle.grid_ib, bundle.grid_ir, bundle.grid_ii)
    built = [grid(12) for grid in grids]
    monkeypatch.setattr(bundle, "fiber_point", fiber_point_reference)
    monkeypatch.setattr(bundle, "ir_w0", ir_w0_reference)
    assert [grid(12) for grid in grids] == built


def test_grids_classify_and_are_distinct():
    for builder, kind in (
        (bundle.grid_ia, frames.CASE_IA),
        (bundle.grid_ib, frames.CASE_IB_NONQUARTER),
        (bundle.grid_ir, frames.CASE_IR),
        (bundle.grid_ii, frames.CASE_II),
    ):
        points = builder(8)
        assert len(points) == 8
        seen = set()
        for p in points:
            assert frames.classify(p).kind == kind
            seen.add(tuple(str(c) for e in p.m.entries() for c in e.components()))
        assert len(seen) == 8


def test_ib_float_point_splits():
    p = ib_float_point(0.25)
    tag = frames.classify(p)
    assert tag.kind == frames.CASE_IB_QUARTER
    w = p.w  # the split |a|^2 - |b|^2 of w = a + b j
    assert abs(w.h0 * w.h0 + w.h1 * w.h1 - w.h2 * w.h2 - w.h3 * w.h3 - 0.25) <= 1e-12
    q = ib_float_point(0.1)
    assert frames.classify(q).kind == frames.CASE_IB_NONQUARTER
    with pytest.raises(ValueError):
        ib_float_point(0.75)


def test_two_squares_values():
    assert two_squares(1) == (0, 1) or two_squares(1) == (1, 0)
    for n in (2, 5, 8, 13, 25):
        pair = two_squares(n)
        assert pair is not None and pair[0] ** 2 + pair[1] ** 2 == n
    for n in (3, 7, 12, 21):
        assert two_squares(n) is None


# -- fiber normalization ---------------------------------------------------------------


def test_normalize_fiber_exact_flip():
    # A point whose v has negative i-part gets the exact j-conjugation; the
    # stream only emits h1 >= 0, so conjugate v by hand to hit the branch.
    it = bundle.admissible_v_stream()
    g = random.Random(14)
    flipped = 0
    for _ in range(20):
        v, w0 = next(it)
        if v.h1 > 0:
            v = v.conj()
        p = fiber_point(v, w0, rng_unit(g), rng_unit(g))
        norm = normalize_fiber(p)
        vv = norm.point.x * norm.point.w.inverse()
        assert vv.h2 == 0 and vv.h3 == 0 and vv.h1 >= 0
        if v.h1 < 0:
            flipped += 1
            assert vv == quat(v.h0, -v.h1, backend=EXACT)
    assert flipped > 0


def test_normalize_fiber_preserves_gm_projection():
    g = random.Random(15)
    for _ in range(10):
        p = exact_random_point(g.randint(0, 10**6))
        assert project_s4_gm(normalize_fiber(p).point) == project_s4_gm(p)


def _on_backend(p: Sp2Point, backend: str) -> Sp2Point:
    """The exact point p, or its components rounded to floats."""
    if backend == EXACT:
        return p
    return Sp2Point(QMat2(*(quat(*map(float, q.components()), backend=FLOAT) for q in p.m.entries())))


def _complex_line_point(i_sign: int) -> Sp2Point:
    """The exact point with v = 3/4 + i_sign i and w = w0 u1, w0 and the
    unit u1 complex: x and w are complex, so v = x w^-1 has no j- or k-part
    in float arithmetic either."""
    v = quat(Fraction(3, 4), i_sign, backend=EXACT)
    w0 = quat(Fraction(20, 41), Fraction(16, 41), backend=EXACT)  # |w0|^2 (1 + |v|^2) = 1
    u1 = quat(Fraction(3, 5), Fraction(4, 5), backend=EXACT)
    u2 = quat(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), backend=EXACT)
    return fiber_point(v, w0, u1, u2)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_normalize_fiber_j_flip(backend):
    # One rule on both backends: a nonnegative i-part is left alone, and a
    # negative one is flipped by lam = j, which only permutes and negates
    # the components of each entry, so the moved point is exact on floats.
    want = quat(Fraction(3, 4), 1) if backend == EXACT else quat(0.75, 1.0)
    kept = _on_backend(_complex_line_point(1), backend)
    norm = normalize_fiber(kept)
    assert norm.point is kept and norm.lam == one(backend)
    assert (norm.v - want).is_zero(1e-15)
    p = _on_backend(_complex_line_point(-1), backend)
    norm = normalize_fiber(p)
    assert norm.lam == qj(backend) and (norm.v - want).is_zero(1e-15)
    for moved, entry in zip(norm.point.m.entries(), p.m.entries()):
        assert sorted(map(abs, moved.components())) == sorted(map(abs, entry.components()))
    vv = norm.point.x * norm.point.w.inverse()
    assert vv.h2 == 0 and vv.h3 == 0 and (vv - want).is_zero(1e-15)
    assert frames.classify(norm.point).kind == frames.classify(p).kind == frames.CASE_IA
    Sp2Point(norm.point.m)  # still valid, unrounded


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_normalize_fiber_quaternionic_v_raises(backend):
    # Moving a v with a j- or k-part into span{1, i} needs square roots, on
    # either backend: v = j, a Haar point, a Cayley point.
    unit = one(EXACT)
    points = [_on_backend(fiber_point(qj(EXACT), bundle.IB_W0, unit, unit), backend)]
    points.append(random_sp2(777) if backend == FLOAT else cayley_sp2(rng_alg(random.Random(18))))
    for p in points:
        with pytest.raises(NotRepresentable):
            normalize_fiber(p)


def test_normalize_fiber_case_ii_untouched():
    for backend in (EXACT, FLOAT):
        p = _on_backend(exact_random_point(21, case="II-x0"), backend)
        norm = normalize_fiber(p)
        assert norm.lam is None and norm.v is None
        assert norm.point.m == p.m


def test_degenerate_draw_is_signaled(monkeypatch):
    # Draws whose Gram-Schmidt step collapses must raise, not return junk.
    monkeypatch.setattr(bundle, "RANDOM_SP2_ATTEMPTS", 0)
    with pytest.raises(DegenerateDraw):
        bundle.random_sp2(0)
