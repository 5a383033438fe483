"""Acceptance gate.

One test per acceptance criterion, at the stated tolerances; run with -v to
get one pass/fail line each.  Every test must pass.  The quarter stratum
(v = i, |a|^2 - |b|^2 = 1/4) has no rational points, which
test_criterion_3_quarter_stratum_obstruction proves; its exact rank-10
certificate is therefore computed over Q(sqrt(3)) by
test_criterion_3_exact_quarter_points.
"""

import json
import math
import time
from fractions import Fraction

import sympy
from sympy.algebras import Quaternion as SymQuat
from sympy.polys.matrices import DomainMatrix

from sp2span import bundle, frames
from conftest import canonical_json
from sp2span.cli import main
from sp2span.qmat import ad, real_rank, to_vec10
from sp2span.quat import EXACT, FLOAT, qi, qj, qk, quat


def _announce(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- 1: standard sphere ------------------------------------------------------------


def test_criterion_1_standard_sphere_exact_rank():
    """Exact backend: u0..u3 plus the six brackets span all of sp(2);
    runtime under a second, zero tolerance."""
    start = time.monotonic()
    frame = frames.standard_sphere_frame()
    vecs = [to_vec10(e.m) for e in frame.entries]
    res = real_rank(vecs)
    u_rank = real_rank(vecs[:4]).rank
    br_rank = real_rank(vecs[4:]).rank
    elapsed = time.monotonic() - start
    _announce(
        1,
        res.rank == 10 and u_rank == 4 and br_rank == 6 and res.method == "bareiss" and elapsed < 1.0,
        f"standard sphere rank {res.rank} (u {u_rank}, brackets {br_rank}) in {elapsed:.3f}s",
    )


# -- 2: main randomized sweeps -------------------------------------------------------


def test_criterion_2_float_sweep_10k(tmp_path):
    """Float backend, 10,000 random points: every frame rank 10 with minimum
    relative pivot above 1e-6, under 60 s."""
    out = tmp_path / "float.json"
    start = time.monotonic()
    code = main(
        ["verify", "--samples", "10000", "--seed", "42", "--jobs", "4", "--emit", "json", "--out", str(out)]
    )
    elapsed = time.monotonic() - start
    rep = json.loads(out.read_text())
    _announce(
        2,
        code == 0
        and rep["pass"]
        and rep["min_rel_pivot"] > 1e-6
        and sum(rep["case_tally"].values()) == 10000
        and elapsed < 60.0,
        f"10k float sweep in {elapsed:.1f}s, min rel pivot {rep['min_rel_pivot']:.3e}",
    )


def test_criterion_2_exact_sweep_200(tmp_path):
    """Exact backend, at least 200 rational points across every reachable
    case class, each with a certified (Bareiss) rank of exactly 10."""
    out = tmp_path / "exact.json"
    code = main(
        ["verify", "--samples", "200", "--seed", "42", "--backend", "exact", "--emit", "json", "--out", str(out)]
    )
    rep = json.loads(out.read_text())
    reachable = {"I-a", "I-b-nonquarter", "I-r", "II"}
    _announce(
        2,
        code == 0 and rep["exact_certified"] >= 200 and reachable <= set(rep["case_tally"]),
        f"exact sweep certified {rep['exact_certified']}/200 over cases {sorted(rep['case_tally'])}",
    )


# -- 3: case-boundary grids -----------------------------------------------------------


def test_criterion_3_deterministic_case_grids(tmp_path):
    """Deterministic exact grids through I-a, I-b (non-quarter), I-r, and II
    (both x=0 and w=0), all rank 10 with exact certificates; the quarter
    stratum is covered by float points on the threshold."""
    out = tmp_path / "sweep.json"
    code = main(["special-sweep", "--samples", "20", "--emit", "json", "--out", str(out)])
    rep = json.loads(out.read_text())
    by_name = {f["name"]: f for f in rep["families"]}
    ii = by_name["II"]["cases"].get("II", 0)
    _announce(
        3,
        code == 0
        and rep["pass"]
        and by_name["I-a"]["pass"]
        and by_name["I-b-nonquarter"]["pass"]
        and by_name["I-b-quarter-float"]["pass"]
        and by_name["I-r"]["pass"]
        and ii == 20,
        "grids green: " + ", ".join(f"{k}={v['count']}" for k, v in sorted(by_name.items())),
    )


def quarter_stratum_search(max_denominator: int):
    """All rational w on the v = i quarter stratum with common denominator up
    to the bound: |w|^2 = 1/2 and w0^2 + w1^2 - w2^2 - w3^2 = 1/4 force
    w0^2 + w1^2 = 3/8 and w2^2 + w3^2 = 1/8."""
    found = []
    for d in range(1, max_denominator + 1):
        eight_a = 3 * d * d  # 8 (A^2 + B^2) = 3 d^2
        if eight_a % 8:
            continue
        target_a = eight_a // 8
        target_b = d * d // 8
        for a_num in range(int(math.isqrt(target_a)) + 1):
            rest = target_a - a_num * a_num
            b_num = math.isqrt(rest)
            if b_num * b_num != rest:
                continue
            pair_b = bundle.two_squares(target_b)
            if pair_b is None:
                continue
            w = quat(
                Fraction(a_num, d), Fraction(b_num, d), Fraction(pair_b[0], d), Fraction(pair_b[1], d),
                backend=EXACT,
            )
            split = w.h0 * w.h0 + w.h1 * w.h1 - w.h2 * w.h2 - w.h3 * w.h3  # |a|^2 - |b|^2
            if w.norm_sq() == Fraction(1, 2) and split == Fraction(1, 4):
                found.append(w)
    return found


# The quarter-stratum point over Q(sqrt(3)): |w|^2 = 1/2 and
# |a|^2 - |b|^2 = 1/4 for w = a + b j, with x = i w so that v = x w^-1 = i.
R3 = sympy.sqrt(3)
QUARTER_W = SymQuat(R3 / 4, R3 / 4, sympy.Rational(1, 4), sympy.Rational(1, 4))
QUARTER_X = SymQuat(0, 1, 0, 0) * QUARTER_W
SYM_RHOS = (SymQuat(0, 1, 0, 0), SymQuat(0, 0, 1, 0), SymQuat(0, 0, 0, 1))


def _sym_quat(q) -> SymQuat:
    return SymQuat(*(sympy.Rational(c) for c in q.components()))


def _sym_ell_vec10(x: SymQuat, w: SymQuat, rho: SymQuat):
    """Coordinates of ell_rho = [[rho - x rho conj(x), -x rho conj(w)],
    [-w rho conj(x), rho - w rho conj(w)]] in the to_vec10 layout, computed
    independently of the package in sympy."""
    a = rho - x * rho * x.conjugate()
    b = -(x * rho * w.conjugate())
    d = rho - w * rho * w.conjugate()
    return [sympy.expand(c) for c in (a.b, a.c, a.d, b.a, b.b, b.c, b.d, d.b, d.c, d.d)]


def _ib_rows(p, kind: str):
    """The seven non-ell rows (u0, u_i, u_j, u_k and the three F entries) of
    the I-b frame recipe `kind` at v = i, as exact sympy rationals."""
    frame = frames.build_frame(p, frames.CaseTag(kind=kind, v=quat(0, 1, backend=EXACT)))
    rows = [e for e in frame.entries if not e.label.startswith("ell_")]
    return [e.label for e in rows], [[sympy.Rational(c) for c in to_vec10(e.m)] for e in rows]


def _rank_over_q_sqrt3(rows):
    """Exact rank (and the matrix) of the rows over the field Q(sqrt(3))."""
    dm = DomainMatrix.from_list_sympy(len(rows), 10, rows, extension=True)
    assert dm.domain == sympy.QQ.algebraic_field(R3)
    return dm.rank(), dm


def test_criterion_3_exact_quarter_points():
    """Exact rank-10 certificate for the I-b-quarter frame on the quarter
    stratum v = i, |a|^2 - |b|^2 = 1/4.

    The stratum has no rational points (test_criterion_3_quarter_stratum_obstruction),
    so the certificate is computed over Q(sqrt(3)) at
    w = (sqrt(3)/4)(1 + i) + (1/4)(j + k), x = i w.  The ell rows are computed
    in sympy and tied to bundle.ell (exactly at rational I-b points, to 1e-12
    at the same point in floats); the u and F rows depend only on v = i and
    are taken from frames.build_frame.  The bracket-free rows must have rank
    exactly 7, and the non-quarter recipe must lose rank there, which is why
    the quarter recipe exists.
    """
    grid = bundle.grid_ib(10)
    labels, quarter_rows = _ib_rows(grid[0], frames.CASE_IB_QUARTER)
    assert labels == ["u0", "u_i", "u_j", "u_k", "F'_i", "F_j", "F_k"]
    _, nonquarter_rows = _ib_rows(grid[0], frames.CASE_IB_NONQUARTER)
    for p in grid:
        assert _ib_rows(p, frames.CASE_IB_QUARTER)[1] == quarter_rows
        x, w = _sym_quat(p.x), _sym_quat(p.w)
        for unit, sym_rho in zip((qi, qj, qk), SYM_RHOS):
            prog = to_vec10(bundle.ell(p, unit(EXACT)))
            assert _sym_ell_vec10(x, w, sym_rho) == [sympy.Rational(c) for c in prog]

    fp = bundle.ib_float_point(0.25, math.pi / 4, math.pi / 4)
    assert max(abs(c - float(s)) for c, s in zip(fp.w.components(), QUARTER_W.to_Matrix())) <= 1e-12
    for unit, sym_rho in zip((qi, qj, qk), SYM_RHOS):
        prog = to_vec10(bundle.ell(fp, unit(FLOAT)))
        sym = _sym_ell_vec10(QUARTER_X, QUARTER_W, sym_rho)
        assert max(abs(c - float(s)) for c, s in zip(prog, sym)) <= 1e-12
    pc = frames.check_point(fp)
    assert pc.ok and pc.case == frames.CASE_IB_QUARTER

    ells = [_sym_ell_vec10(QUARTER_X, QUARTER_W, sym_rho) for sym_rho in SYM_RHOS]
    rank, dm = _rank_over_q_sqrt3(ells + quarter_rows)
    det = dm.domain.to_sympy(dm.det())
    free_rank, _ = _rank_over_q_sqrt3(ells + quarter_rows[:4])
    nonquarter_rank, _ = _rank_over_q_sqrt3(ells + nonquarter_rows)
    _announce(
        3,
        rank == 10 and det != 0 and free_rank == 7 and nonquarter_rank < 10,
        f"quarter stratum certified over Q(sqrt 3): rank {rank}, det {det}, "
        f"bracket-free rank {free_rank}, non-quarter recipe rank {nonquarter_rank}",
    )


def test_criterion_3_quarter_stratum_obstruction():
    """Why the quarter grid is unattainable over the rationals, and that the
    stratum itself is nonempty just one square root away.

    (a) A rational point needs w0^2 + w1^2 = 3/8; clearing denominators
        reduces to A^2 + B^2 = 6 f^2, whose right side has odd 3-adic
        valuation for every f, so the two-squares theorem forbids it.
        The bounded search over denominators up to 64 comes back empty.
    (b) Over Q(sqrt(3)) the point w = (sqrt(3)/4)(1 + i) + (1/4)(j + k)
        satisfies both stratum equations exactly, certified with sympy.
    """
    for f in range(1, 121):
        n = 6 * f * f
        assert bundle.two_squares(n) is None
        assert sympy.factorint(n)[3] % 2 == 1
    assert quarter_stratum_search(64) == []

    w = QUARTER_W
    norm_sq = sympy.simplify(w.norm() ** 2)
    split = sympy.simplify((w.a**2 + w.b**2) - (w.c**2 + w.d**2))
    assert norm_sq == sympy.Rational(1, 2)
    assert split == sympy.Rational(1, 4)
    # The corresponding group point is exactly symplectic: with x = i w,
    # y = (1 + i)/2, z = i y, the two columns are orthonormal.
    i_q = SymQuat(0, 1, 0, 0)
    y = SymQuat(sympy.Rational(1, 2), sympy.Rational(1, 2), 0, 0)
    x = QUARTER_X
    z = i_q * y

    def comps(q):
        return [sympy.simplify(c) for c in (q.a, q.b, q.c, q.d)]

    assert comps(x.conjugate() * x + w.conjugate() * w) == [1, 0, 0, 0]
    assert comps(y.conjugate() * y + z.conjugate() * z) == [1, 0, 0, 0]
    assert comps(x.conjugate() * y + w.conjugate() * z) == [0, 0, 0, 0]
    print("ACCEPTANCE 3: PASS - quarter stratum obstruction certified (empty over Q, point over Q(sqrt 3))")


# -- 4: identity suite -----------------------------------------------------------------


def test_criterion_4_identity_suite(identity_results):
    """(a) Ad-invariance on 200 exact triples, (b) Tr(U_j) = Tr(U_k) = 0 on
    100 rational v, (c) the non-degeneracy factorization as printed and
    nonzero on 100 v, (d) alpha's two forms agree, (e) printed commutator
    forms vs direct brackets, each OK like every other entry.  The suite
    runs once per session (conftest's identity_results)."""
    results = identity_results
    for r in results:
        print(r.line())
    by_name = {r.name: r for r in results}
    required_ok = [
        "Ad-invariance of the inner product",
        "Tr(U_j) = Tr(U_k) = 0",
        "non-degeneracy factor -t11 s12 + t12",
        "alpha(v) two printed forms agree",
        "standard-sphere printed commutators",
        "case-I printed commutator forms (M, B)",
        "u-basis printed S(v) factorizations",
        "v = i displayed Ad_p^-1 images",
    ]
    ok = all(by_name[n].status == frames.OK for n in required_ok)
    ok = ok and by_name["Ad-invariance of the inner product"].n >= 200
    ok = ok and by_name["Tr(U_j) = Tr(U_k) = 0"].n >= 200  # two traces per v, 100 v
    ok = ok and by_name["non-degeneracy factor -t11 s12 + t12"].n >= 100
    ok = ok and not any(r.status == frames.FAIL for r in results)
    _announce(4, ok, f"identity suite: {len(results)} identities, no FAIL")


# -- 5: structural invariants ------------------------------------------------------------


def test_criterion_5_structural_invariants(identity_results):
    """dim Ad_p(h_p) = 4 at 100 exact points; membership and (1,1)-vanishing
    of Ad_p^-1 at every horizontal entry of every built frame; the two ell
    constructions agree exactly at 1000 points.  The three suite entries
    come from the session's one run of the identity suite (conftest's
    identity_results), which makes these calls with these counts."""
    by_name = {r.name: r for r in identity_results}
    h_dim = by_name["dim Ad_p(h_p) = 4"]
    ell_dual = by_name["ell dual construction paths"]
    corner = by_name["(1,1) of Ad_p^-1(u_rho) vanishes"]
    ok = h_dim.status == frames.OK and ell_dual.status == frames.OK and corner.status == frames.OK
    ok = ok and ell_dual.n >= 3000  # three imaginary directions per point

    # Membership at every built frame, across all five exact families; the
    # (1,1) corner of each horizontal entry is computed here, outside the
    # frame check.
    cycle = bundle.EXACT_CYCLE
    checked = 0
    for idx in range(60):
        p = bundle.normalize_fiber(
            bundle.exact_random_point(9000 + idx, case=cycle[idx % len(cycle)])
        ).point
        frame = frames.build_frame(p)
        chk = frames.verify_frame(p, frame)
        pinv = p.inverse()
        corners = [ad(pinv, e.m).m.a for e in frame.entries if e.label in frames.U_LABELS]
        ok = ok and chk.ok and chk.membership_violations == []
        ok = ok and len(corners) == 4 and all(c.is_zero() for c in corners)
        checked += 1
    _announce(5, ok, f"h-dim 4 at {h_dim.n} points, ell dual at {ell_dual.n} checks, membership at {checked} frames")


# -- 6: negative control -------------------------------------------------------------------


def test_criterion_6_negative_control(tmp_path):
    """Without bracket-derived entries the rank is exactly 7, the dimension
    of D, everywhere sampled, and an injected frame corruption drives exit
    code 1."""
    ranks = []
    cycle = bundle.EXACT_CYCLE
    for idx in range(40):
        p = bundle.normalize_fiber(
            bundle.exact_random_point(11000 + idx, case=cycle[idx % len(cycle)])
        ).point
        frame = frames.build_frame(p)
        rows = [to_vec10(e.m) for e in frame.entries if e.label in frames.D_LABELS]
        ranks.append(real_rank(rows).rank)
    out = tmp_path / "c.json"
    code = main(
        ["verify", "--samples", "3", "--seed", "3", "--corrupt-frame", "ell_i", "--emit", "json", "--out", str(out)]
    )
    corrupted = json.loads(out.read_text())
    _announce(
        6,
        min(ranks) == max(ranks) == 7 and code == 1 and corrupted["pass"] is False,
        f"bracket-free rank min {min(ranks)}, max {max(ranks)} (must be 7), corruption hook exit {code}",
    )


# -- 7: determinism ---------------------------------------------------------------------


def test_criterion_7_determinism_across_jobs(tmp_path):
    """verify --samples 1000 --seed 7 with --jobs 1 and --jobs 8 emit
    canonically identical reports."""
    a, b = tmp_path / "j1.json", tmp_path / "j8.json"
    assert main(["verify", "--samples", "1000", "--seed", "7", "--jobs", "1", "--emit", "json", "--out", str(a)]) == 0
    assert main(["verify", "--samples", "1000", "--seed", "7", "--jobs", "8", "--emit", "json", "--out", str(b)]) == 0
    ca = canonical_json(json.loads(a.read_text()))
    cb = canonical_json(json.loads(b.read_text()))
    _announce(7, ca == cb, f"reports identical over {1000} samples ({len(ca)} canonical bytes)")
