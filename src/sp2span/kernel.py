"""The span kernel: the 13 rows of the span check, at one point or a block
of points, with no Quaternion or QMat2 objects in between.

The formulas, for a point with first column (x, w):

* ell_rho = rho Id - p diag(rho, 0) p*, which reads only (x, w);
* u0 = [[0, v], [-conj(v), 0]] and u_rho = [[rho, b_rho], [-conj(b_rho), -rho]]
  with b_rho = (v rho - |v|^2 rho v)/(2 |v|^2), or the constant antidiagonal
  basis at case-II points;
* [u_a, u_b] = u_a u_b - (u_a u_b)*, valid for skew-Hermitian u_a, u_b.

Membership of the four u in Ad_p(h_p) is read off the same rows
(frames.check_rows): a u is horizontal iff its row is trace-free and
orthogonal to the three ell rows in the Ad-invariant metric
(qmat.vec10_weighted_dot; the bundle module docstring derives it).

One set of formulas serves both backends.  (x, w) and v are read from the
numerators and denominators the Quaternions store, x = X/P, w = W/P and
v = V/E, with P the lcm of the stored denominators of x and w: integers on
the exact backend, the float components over 1 on floats.  The formulas run
on these 4-tuples (_span_mats): the u-basis here (u_basis4, its one home),
and ell_rho, the bracket and the Vec10 layout in qmat (ell4, bracket4,
vec10), which bundle.ell_direct, qmat.bracket and qmat.to_vec10 run on too.
With |V|^2 = n, every u is a matrix over Q = 2 E n (b_rho = (E^2 V rho - n
rho V)/Q), so the ell rows are over P^2, the u rows over Q and the brackets
over Q^2.

How rows are built is decided here, on both backends, and nowhere else.
span_row_block is the one way a caller gets the rows of a set of points;
span_rows is the rows of one point.  A float group of two or more points
(the points with a v, or the case-II ones) runs _span_mats once, with every
component a float64 array over the points (qmat.component_arrays); each
row is divided by its denominator into one (points, 13, 10) float64
block, and each point's rows are its C-contiguous 13 x 10 view
(qmat.rows_from_arrays), which real_rank takes as it is and
frames.check_rows slices, never joins.  Exact points, and a float group of
one, run the same formulas point by point on Python scalars (span_rows),
and each row is finished by one scalar rule per backend: an exact row is
returned as integers in lowest terms, the row times the lcm of its
entries' denominators, the input Bareiss takes (qmat.real_rank), so no row
becomes Fractions; a float row is a list of each entry divided by the
row's denominator, Python floats, so a lone float point (check_point,
`frame`, special-sweep) makes no numpy call.  Each array operation is the
IEEE operation the scalar formula makes, in the same order, so the array
rows equal the scalar ones bit for bit, the sign of a zero included.
numpy stays in qmat; the arrays are never wrapped in a Quaternion, which
would read a numpy numerator as exact.

frames.u_basis, frames.case_ii_basis and frames.span_frame wrap the
numerators of u_basis4 and u_matrices, so `frame` prints the matrices this
kernel ranks.  The tests compare the kernel with references that share none
of its formulas: bundle.ell_from_projector (the generic product
p diag(rho, 0) p*), the sympy ell rows of test_acceptance._sym_ell_vec10,
and the object expressions in tests/conftest.py (ell_direct_reference,
bracket_reference, u_basis_reference, case_ii_basis_reference and
span_frame_reference, which conftest.object_check ranks).
"""

from __future__ import annotations

from itertools import combinations

from .qmat import bracket4, component_arrays, ell4, rows_from_arrays, vec10
from .quat import (
    FLOAT,
    I4,
    J4,
    K4,
    ONE4,
    ZERO4,
    conj4,
    hamilton,
    lowest_terms,
    neg4,
    norm_sq4,
    over_lcm,
)

# (a, b) of the six brackets [u_a, u_b], in frames.SPAN_LABELS order.
_PAIRS = tuple(combinations(range(4), 2))


def v_numerators(v):
    """(vn, v_den): the numerators and denominator v stores, or (None, 1)
    for v None (case II), as u_basis4 and u_matrices take them."""
    return (None, 1) if v is None else (v.n, v.d)


def u_basis4(vn, v_den):
    """(us, q_den): the u-basis (u0, u_i, u_j, u_k) for v = vn / v_den =
    x w^-1, any nonzero quaternion, each u as its entries (a, b, c, d) in
    4-tuples over the common q_den = 2 E |V|^2; vn None gives the constant
    antidiagonal basis [[0, b], [-conj(b), 0]], b in (1, i, j, k), over 1.
    The components of vn may be Python ints or floats, or float64 arrays
    over a block of points (then q_den is an array too)."""
    if vn is None:
        return [(ZERO4, b, neg4(conj4(b)), ZERO4) for b in (ONE4, I4, J4, K4)], 1
    n = norm_sq4(vn)
    q_den = 2 * v_den * n
    b0 = tuple(2 * n * c for c in vn)
    us = [(ZERO4, b0, neg4(conj4(b0)), ZERO4)]
    e_sq = v_den * v_den
    for rho in (I4, J4, K4):
        v_rho, rho_v = hamilton(vn, rho), hamilton(rho, vn)
        b = tuple(e_sq * s - n * t for s, t in zip(v_rho, rho_v))
        a = tuple(q_den * r for r in rho)
        us.append((a, b, neg4(conj4(b)), neg4(a)))
    return us, q_den


def u_matrices(vn, v_den):
    """The ten span matrices that depend on v = vn / v_den alone, in
    SPAN_LABELS order from u0 on (the four u, then the six [u_a, u_b]), as
    (entries, den) pairs: the u over q_den (u_basis4), the brackets over
    q_den^2."""
    us, q_den = u_basis4(vn, v_den)
    q_sq = q_den * q_den
    return [(u, q_den) for u in us] + [(bracket4(us[i], us[j]), q_sq) for i, j in _PAIRS]


def _span_mats(xn, wn, p_sq, vn, v_den):
    """The 13 span matrices in SPAN_LABELS order as (entries, den) pairs,
    for a point with first column (xn, wn) / P, p_sq = P^2, and v = vn /
    v_den (vn None at case II): the ell_rho over p_sq, then u_matrices.
    The operands may be Python ints, Python floats or float64 arrays over a
    block of points."""
    return [(ell4(xn, wn, rho, p_sq), p_sq) for rho in (I4, J4, K4)] + u_matrices(vn, v_den)


def span_row_block(points, tags):
    """An iterator over the span rows of points of one backend, in order,
    the 13 rows of each point: the rows span_rows(p.x, p.w, tag.v)
    returns, bit for bit, as a 13 x 10 float64 view for a point of a float
    group of two or more, and as span_rows's lists otherwise.  tags are the
    points' case labels (frames.classify); the points whose tag.v is None
    (case II) take the constant basis.

    The points with a v and those without form two groups.  A float group
    of two or more points runs _span_mats once on float64 arrays of its
    components into one block, handed out point by point; every other
    group runs span_rows point by point.  Float components are numerators
    over 1, so p_sq = v_den = 1."""
    groups = {}
    for has_v in (True, False):
        picked = [(p, tag) for p, tag in zip(points, tags) if (tag.v is not None) == has_v]
        if len(picked) > 1 and picked[0][0].backend == FLOAT:
            xn = component_arrays([p.x.n for p, _ in picked])
            wn = component_arrays([p.w.n for p, _ in picked])
            vn = component_arrays([tag.v.n for _, tag in picked]) if has_v else None
            mats = [(vec10(a, b, d), den) for (a, b, _, d), den in _span_mats(xn, wn, 1, vn, 1)]
            groups[has_v] = rows_from_arrays(mats, len(picked))
        else:
            groups[has_v] = (span_rows(p.x, p.w, tag.v) for p, tag in picked)
    return (next(groups[tag.v is not None]) for tag in tags)


def span_rows(x, w, v):
    """The span check's inputs at a point with first column (x, w), on the
    backend of x.

    v = x w^-1 as frames.classify computes it, or None at case-II points
    (x or w vanishes), which take the constant antidiagonal u-basis.

    Returns the 13 Vec10 rows in frames.SPAN_LABELS order (ell_i, ell_j,
    ell_k, u0, u_i, u_j, u_k, then the six [u_a, u_b]), each finished by
    its backend's scalar rule (the module docstring): on the float backend
    the row itself, Python floats; on the exact one Python ints in lowest
    terms, the row times its denominator, the lcm of its entries'
    denominators.
    """
    (xn, wn), p_den = over_lcm((x, w))
    mats = _span_mats(xn, wn, p_den * p_den, *v_numerators(v))
    if x.backend == FLOAT:
        return [[c / den for c in vec10(a, b, d)] for (a, b, _, d), den in mats]
    return [lowest_terms(vec10(a, b, d), den)[0] for (a, b, _, d), den in mats]
