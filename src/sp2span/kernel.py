"""The span kernel: the 13 rows of the span check at one point, on either
backend, with no Quaternion or QMat2 objects in between.

The formulas, for a point with first column (x, w):

* ell_rho = rho Id - p diag(rho, 0) p*, which reads only (x, w);
* u0 = [[0, v], [-conj(v), 0]] and u_rho = [[rho, b_rho], [-conj(b_rho), -rho]]
  with b_rho = (v rho - |v|^2 rho v)/(2 |v|^2), or the constant antidiagonal
  basis at case-II points;
* [u_a, u_b] = u_a u_b - (u_a u_b)*, valid for skew-Hermitian u_a, u_b.

Membership of the four u in Ad_p(h_p) is read off the same rows
(frames.check_point): a u is horizontal iff its row is trace-free and
orthogonal to the three ell rows in the Ad-invariant metric
(qmat.vec10_weighted_dot; the bundle module docstring derives it).

One set of formulas serves both backends.  (x, w) and v are read from the
numerators and denominators the Quaternions store, x = X/P, w = W/P and
v = V/E, with P the lcm of the stored denominators of x and w: integers on
the exact backend, the float components over 1 on floats.  The formulas run
on these 4-tuples: the u-basis here (u_basis4, its one home), and ell_rho,
the bracket and the Vec10 layout in qmat (ell4, bracket4, vec10), which
bundle.ell_direct, qmat.bracket and qmat.to_vec10 run on too.  With
|V|^2 = n, every u is a matrix over Q = 2 E n (b_rho = (E^2 V rho - n rho
V)/Q), so the ell rows are over P^2, the u rows over Q and the brackets over
Q^2.  An exact row is returned as integers in lowest terms, the row times
the lcm of its entries' denominators, the input Bareiss takes
(qmat.real_rank), so no row becomes Fractions; a float row is divided by
its denominator, so every entry is a Python float, the integer constants of
the case-II basis included.

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

from .qmat import bracket4, ell4, vec10
from .quat import (
    FLOAT,
    I4,
    J4,
    K4,
    ONE4,
    Quaternion,
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


def _finish(nums, den, exact: bool):
    """The row nums / den: integers in lowest terms when exact, else
    Python floats."""
    return lowest_terms(nums, den)[0] if exact else [c / den for c in nums]


def u_basis4(v: Quaternion | None):
    """(us, q_den): the u-basis (u0, u_i, u_j, u_k) for v = x w^-1, any
    nonzero quaternion, each u as its entries (a, b, c, d) in 4-tuples over
    the common q_den = 2 E |V|^2; v None gives the constant antidiagonal
    basis [[0, b], [-conj(b), 0]], b in (1, i, j, k), over 1."""
    if v is None:
        return [(ZERO4, b, neg4(conj4(b)), ZERO4) for b in (ONE4, I4, J4, K4)], 1
    vn, v_den = v.n, v.d
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


def u_matrices(v: Quaternion | None):
    """The ten span matrices that depend on v alone, in SPAN_LABELS order
    from u0 on (the four u, then the six [u_a, u_b]), as (entries, den)
    pairs: the u over q_den (u_basis4), the brackets over q_den^2."""
    us, q_den = u_basis4(v)
    q_sq = q_den * q_den
    return [(u, q_den) for u in us] + [(bracket4(us[i], us[j]), q_sq) for i, j in _PAIRS]


def span_rows(x: Quaternion, w: Quaternion, v: Quaternion | None):
    """The span check's inputs at a point with first column (x, w), on the
    backend of x.

    v = x w^-1 as frames.classify computes it, or None at case-II points
    (x or w vanishes), which take the constant antidiagonal u-basis.

    Returns the 13 Vec10 rows in frames.SPAN_LABELS order (ell_i, ell_j,
    ell_k, u0, u_i, u_j, u_k, then the six [u_a, u_b]): Python floats, the
    row itself, on the float backend; on the exact one Python ints in
    lowest terms, the row times its denominator, the lcm of its entries'
    denominators.
    """
    exact = x.backend != FLOAT
    (xn, wn), p_den = over_lcm((x, w))
    p_sq = p_den * p_den
    mats = [(ell4(xn, wn, rho, p_sq), p_sq) for rho in (I4, J4, K4)] + u_matrices(v)
    return [_finish(vec10(a, b, d), den, exact) for (a, b, _, d), den in mats]
