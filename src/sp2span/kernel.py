"""The float span kernel: the 13 rows of the span check and the membership
residuals of the four u at one point, from numpy products of complex
matrices.

A quaternion q = h0 + h1 i + h2 j + h3 k is written as the complex 2x2 block

    [[h0 + h1 i,  h2 + h3 i],
     [-h2 + h3 i, h0 - h1 i]].

The map is an injective ring homomorphism that sends conj(q) to the
conjugate transpose, so a 2x2 quaternionic matrix becomes a 4x4 complex one,
its quaternionic adjoint becomes the conjugate transpose, and the formulas
of the span check become matrix products over stacked (..., 4, 4) arrays:

* ell_rho = rho Id - p diag(rho, 0) p*, which reads only the first column
  (x, w) of p;
* u0 = [[0, v], [-conj(v), 0]] and u_rho = [[rho, b_rho], [-conj(b_rho), -rho]]
  with b_rho = (v rho - |v|^2 rho v)/(2 |v|^2), or the constant antidiagonal
  basis at case-II points;
* [u_a, u_b] = u_a u_b - (u_a u_b)*, valid for skew-Hermitian u_a, u_b;
* the membership residual of u is the (1,1) quaternion entry of p* u p.

Only the float backend comes here.  The object path (frames.span_frame and
frames.verify_frame on Quaternion/QMat2 objects) computes the same rows and
residuals, runs the exact backend, and is the reference the tests compare
this kernel with.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .quat import Quaternion


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
_PAIR_A, _PAIR_B = (np.array(side) for side in zip(*combinations(range(4), 2)))


def span_rows(x: Quaternion, w: Quaternion, v: Quaternion | None):
    """The span check's inputs at a float point with first column (x, w).

    v = x w^-1 as frames.classify computes it, or None at case-II points
    (x or w vanishes), which take the constant antidiagonal u-basis.

    Returns four lists of Python floats:

    * rows: the 13 Vec10 rows in frames.SPAN_LABELS order (ell_i, ell_j,
      ell_k, u0, u_i, u_j, u_k, then the six [u_a, u_b]);
    * residuals: for each u, the four components of its membership residual;
    * traces: for each u, the four components of its trace a + d;
    * scales: for each u, its largest entry component in absolute value.
    """
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
    residuals = (col[:, 0].conj() @ u @ col).view(np.float64)
    traces = (u[:, 0, :2] + u[:, 2, 2:]).view(np.float64)
    scales = np.abs(u.view(np.float64)).max(axis=(1, 2))
    return rows.tolist(), residuals.tolist(), traces.tolist(), scales.tolist()
