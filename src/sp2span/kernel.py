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

Float points: a quaternion q = h0 + h1 i + h2 j + h3 k is written as the
complex 2x2 block

    [[h0 + h1 i,  h2 + h3 i],
     [-h2 + h3 i, h0 - h1 i]].

The map is an injective ring homomorphism that sends conj(q) to the
conjugate transpose, so a 2x2 quaternionic matrix becomes a 4x4 complex one,
its quaternionic adjoint becomes the conjugate transpose, and the formulas
become numpy products over stacked (..., 4, 4) arrays.

Exact points: (x, w) and v are cleared to integer numerators, x = X/P,
w = W/P and v = V/E, and the formulas run on integer 4-tuples with the
tuple arithmetic of quat: Hamilton products (quat.hamilton) and
quat.matmul4, the one 2x2 product, which QMat2's @ runs on as well.  With
|V|^2 = n, every u is an integer matrix over Q = 2 E n
(b_rho = (E^2 V rho - n rho V)/Q), so the ell rows are integers over P^2,
the u rows over Q and the brackets over Q^2.  Each row is returned as
integers in lowest terms: the object row times the lcm of its entries'
denominators, the input Bareiss takes (qmat.real_rank), so no row becomes
Fractions.

The object path (frames.span_frame and frames.verify_frame on
Quaternion/QMat2 objects) computes the same rows and membership verdicts;
it is the reference the tests compare this kernel with, exactly on exact
points.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

import numpy as np

from .quat import (
    FLOAT,
    Quaternion,
    conj4,
    denominator,
    hamilton,
    lowest_terms,
    matmul4,
    neg4,
    numerators,
    sub4,
)


def _block(q: Quaternion):
    """The complex 2x2 block of q, as nested lists."""
    h0, h1, h2, h3 = q.h0, q.h1, q.h2, q.h3
    return [[complex(h0, h1), complex(h2, h3)], [complex(-h2, h3), complex(h0, -h1)]]


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return m.conj().swapaxes(-1, -2)


# i, j and k as complex blocks, stacked: shape (3, 2, 2).
_RHO = np.array([[[1j, 0], [0, -1j]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
_ZEROS3 = np.zeros((3, 2, 2), dtype=complex)  # stacks of zero blocks
# rho Id for the three rho: shape (3, 4, 4).
_RHO_ID = np.block([[_RHO, _ZEROS3], [_ZEROS3, _RHO]])
# The diagonal blocks of (u0, u_i, u_j, u_k): 0 for u0, (rho, -rho) for u_rho.
_U_DIAGONAL = np.concatenate(
    (np.zeros((1, 4, 4), dtype=complex), np.block([[_RHO, _ZEROS3], [_ZEROS3, -_RHO]]))
)
# The case-II basis [[0, b], [-conj(b), 0]] for b in (1, i, j, k).
_B_CASE_II = np.concatenate((np.eye(2, dtype=complex)[None], _RHO))
_ZEROS4 = np.zeros((4, 2, 2), dtype=complex)
_U_CASE_II = np.block([[_ZEROS4, _B_CASE_II], [-_adjoint(_B_CASE_II), _ZEROS4]])
# (a, b) of the six brackets [u_a, u_b], in frames.SPAN_LABELS order.
_PAIRS = tuple(combinations(range(4), 2))
_PAIR_A, _PAIR_B = (np.array(side) for side in zip(*_PAIRS))
# 1, i, j, k and 0 as integer 4-tuples.
_ONE, _I, _J, _K = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_ZERO = (0, 0, 0, 0)


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
    if x.backend != FLOAT:
        return _exact_span_rows(x, w, v)
    col = np.array(_block(x) + _block(w))  # (4, 2): the first column of p
    ell = _RHO_ID - col @ _RHO @ _adjoint(col)
    if v is None:
        u = _U_CASE_II
    else:
        n = v.norm_sq()
        vb = np.array(_block(v))
        b = (vb @ _RHO - (_RHO @ vb) * n) * (1 / (2 * n))
        u = _U_DIAGONAL.copy()
        u[0, :2, 2:] = vb
        u[1:, :2, 2:] = b
        u[:, 2:, :2] = -_adjoint(u[:, :2, 2:])
    uv = u[_PAIR_A] @ u[_PAIR_B]
    mats = np.concatenate((ell, u, uv - _adjoint(uv))).view(np.float64)
    # Row 0 of a block holds (h0, h1, h2, h3) of its quaternion as
    # (re, im, re, im); Vec10 is (a1, a2, a3, b0, b1, b2, b3, d1, d2, d3).
    rows = np.concatenate((mats[:, 0, 1:], mats[:, 2, 5:]), axis=1)
    return rows.tolist()


def _vec10(a, b, d):
    """The Vec10 coordinates (a1, a2, a3, b0, b1, b2, b3, d1, d2, d3)."""
    return [a[1], a[2], a[3], b[0], b[1], b[2], b[3], d[1], d[2], d[3]]


def _exact_span_rows(x: Quaternion, w: Quaternion, v: Quaternion | None):
    """span_rows on integer numerators (see the module docstring)."""
    p_den = lcm(denominator(x), denominator(w))
    xn, wn = numerators(x, p_den), numerators(w, p_den)
    xc, wc = conj4(xn), conj4(wn)
    p_sq = p_den * p_den
    rows = []  # integer rows in lowest terms
    for rho in (_I, _J, _K):
        # rho Id - p diag(rho, 0) p*, times P^2
        x_rho, w_rho = hamilton(xn, rho), hamilton(wn, rho)
        rho_p = tuple(r * p_sq for r in rho)
        a = sub4(rho_p, hamilton(x_rho, xc))
        b = neg4(hamilton(x_rho, wc))
        d = sub4(rho_p, hamilton(w_rho, wc))
        rows.append(lowest_terms(_vec10(a, b, d), p_sq)[0])

    # each u as its integer entries (a, b, c, d) over the common q_den
    if v is None:
        q_den = 1
        us = [(_ZERO, b, neg4(conj4(b)), _ZERO) for b in (_ONE, _I, _J, _K)]
    else:
        v_den = denominator(v)
        vn = numerators(v, v_den)
        n = vn[0] * vn[0] + vn[1] * vn[1] + vn[2] * vn[2] + vn[3] * vn[3]
        q_den = 2 * v_den * n
        b0 = tuple(2 * n * c for c in vn)
        us = [(_ZERO, b0, neg4(conj4(b0)), _ZERO)]
        e_sq = v_den * v_den
        for rho in (_I, _J, _K):
            v_rho, rho_v = hamilton(vn, rho), hamilton(rho, vn)
            b = tuple(e_sq * s - n * t for s, t in zip(v_rho, rho_v))
            a = tuple(q_den * r for r in rho)
            us.append((a, b, neg4(conj4(b)), neg4(a)))
    rows += [lowest_terms(_vec10(a, b, d), q_den)[0] for a, b, _, d in us]

    q_sq = q_den * q_den
    for i, j in _PAIRS:
        m11, m12, m21, m22 = matmul4(us[i], us[j])
        # u_a u_b - (u_a u_b)*
        a = sub4(m11, conj4(m11))
        b = sub4(m12, conj4(m21))
        d = sub4(m22, conj4(m22))
        rows.append(lowest_terms(_vec10(a, b, d), q_sq)[0])
    return rows
