"""Verification of an explicit bracket-generating distribution on Sp(2).

The library certifies, point by point, that a 7-dimensional sub-bundle of
the tangent bundle of Sp(2) together with first-order brackets spans the
full 10-dimensional tangent space.  Everything runs on two scalar backends:
exact rationals (certificates) and float64 (volume sweeps).
"""

from .bundle import (
    FiberNormalization,
    ell,
    exact_random_point,
    fiber_point,
    horizontal_space_rank,
    ib_float_point,
    in_ad_h_p,
    normalize_fiber,
    random_sp2,
)
from .frames import (
    CASE_IA,
    CASE_IB_NONQUARTER,
    CASE_IB_QUARTER,
    CASE_IR,
    CASE_II,
    CaseTag,
    Frame,
    alpha,
    build_frame,
    check_point,
    classify,
    frame_to_json,
    nondegeneracy_factor,
    run_identity_suite,
    u_basis,
    verify_frame,
)
from .qmat import (
    InvariantViolation,
    NonFiniteRows,
    QMat2,
    RankResult,
    ShapeMismatch,
    Sp2Alg,
    Sp2Point,
    ad,
    bracket,
    inner,
    real_rank,
    to_vec10,
)
# The quat() factory is deliberately not re-exported here: it would shadow
# the sp2span.quat submodule as a package attribute.  Import it from
# sp2span.quat directly.
from .quat import (
    EXACT,
    FLOAT,
    BackendMismatch,
    NotRepresentable,
    ParseError,
    Quaternion,
    Sp2Error,
    ZeroDivisor,
)

__version__ = "0.1.0"

__all__ = [
    "BackendMismatch",
    "CASE_IA",
    "CASE_IB_NONQUARTER",
    "CASE_IB_QUARTER",
    "CASE_II",
    "CASE_IR",
    "CaseTag",
    "EXACT",
    "FLOAT",
    "FiberNormalization",
    "Frame",
    "InvariantViolation",
    "NonFiniteRows",
    "NotRepresentable",
    "ParseError",
    "QMat2",
    "Quaternion",
    "RankResult",
    "ShapeMismatch",
    "Sp2Alg",
    "Sp2Error",
    "Sp2Point",
    "ZeroDivisor",
    "ad",
    "alpha",
    "bracket",
    "build_frame",
    "check_point",
    "classify",
    "ell",
    "exact_random_point",
    "fiber_point",
    "frame_to_json",
    "horizontal_space_rank",
    "ib_float_point",
    "in_ad_h_p",
    "inner",
    "nondegeneracy_factor",
    "normalize_fiber",
    "random_sp2",
    "real_rank",
    "run_identity_suite",
    "to_vec10",
    "u_basis",
    "verify_frame",
    "__version__",
]
