"""Correctness gate applied to every command the benchmark runs.

A unit is one sampled point of `verify`, or one entry of the identity suite.
Each check returns the number of units it could not vouch for, never fewer
than the misses the report itself lists.  A run-level violation (non-zero
exit, `pass` false, the negative control not exactly 7) makes every unit of
that command a miss, since the report can no longer be trusted point by
point.
"""

from __future__ import annotations

from collections import Counter

# Case of sample index i in `verify --backend exact` is EXACT_CYCLE[i % 8]
# for the named slots: one v = i point, one real-v point and the two
# vanishing corners.  The four generic slots (None) draw rational points
# that land in I-a unless the draw happens to fall on a stratum, which
# rational draws do now and then (for example v = -1/8, a genuine I-r point).
EXACT_CYCLE = (None, "I-b-nonquarter", None, "I-r", "II", None, "II", None)
CASES = ("I-a", "I-b-nonquarter", "I-b-quarter", "I-r", "II")
NEGATIVE_CONTROL_RANK = 7
ORACLE_FRAMES = 6


def check_cases(cases_by_index: dict, backend: str, samples: int):
    """Misses and problem strings for the case each sample index landed in:
    named exact slots must land in their stratum, float points (Haar random,
    so generic with probability 1) in I-a, generic exact slots in any case."""
    misses = 0
    problems = []
    for index in range(samples):
        case = cases_by_index.get(index)
        expected = "I-a" if backend == "float" else EXACT_CYCLE[index % len(EXACT_CYCLE)]
        if case not in CASES or (expected is not None and case != expected):
            misses += 1
            problems.append(f"sample {index} classified {case!r}, expected {expected or 'a case'}")
    return misses, problems[:5]


def check_verify(rc: int, report: dict | None, samples: int, tally: dict | None):
    """Misses and problem strings for one `verify --emit json` run.  `tally`
    is the case tally an earlier run of the same command produced, which
    this one must repeat, or None to skip that comparison."""
    if report is None:
        return samples, [f"no JSON report (exit {rc})"]
    problems = []
    misses = len(report["failures"])
    if misses:
        problems.append(f"{misses} failing samples, first: {report['failures'][0]['problems']}")
    if tally is not None:
        moved = sum((Counter(tally) - Counter(report["case_tally"])).values())
        if moved:
            problems.append(f"case tally {report['case_tally']} differs from the earlier {tally}")
        misses = max(misses, moved)
    if report["backend"] == "exact":
        uncertified = samples - (report["exact_certified"] or 0)
        if uncertified:
            problems.append(f"{uncertified} points without an exact certificate")
        misses = max(misses, uncertified)
    run_level = {
        "exit code": (rc, 0),
        "pass": (report["pass"], True),
        "samples": (report["samples"], samples),
        "negative_control_max_rank": (report["negative_control_max_rank"], NEGATIVE_CONTROL_RANK),
    }
    for name, (got, want) in run_level.items():
        if got != want:
            problems.append(f"{name} is {got!r}, expected {want!r}")
            misses = samples
    return min(misses, samples), problems


def check_identities(rc: int, report: dict | None):
    """Units, misses and problem strings for one `identities --emit json`
    run.  Without a report the run counts as one unit, missed."""
    if report is None:
        return 1, 1, [f"no JSON report (exit {rc})"]
    units = len(report["results"])
    failing = [r["name"] for r in report["results"] if r["status"] == "FAIL"]
    problems = [f"FAIL {name}" for name in failing]
    misses = len(failing)
    if rc != 0 or report["pass"] is not True or not units:
        problems.append(f"exit {rc}, pass {report['pass']!r}, {units} entries")
        units = max(units, 1)
        misses = units
    return units, misses, problems


def oracle_rerank(captured, backend: str):
    """Re-rank the captured (rows, rank) pairs (the 10-entry frames and the
    7-entry negative controls of the first samples) with numpy's SVD rank
    for floats and sympy's exact rank for rationals.  Returns (frames
    checked, disagreements, problems)."""
    if not captured:
        return 0, 0, ["oracle captured no rank computations"]
    if backend == "float":
        import numpy as np

        def oracle(rows):
            return int(np.linalg.matrix_rank(np.array(rows, dtype=float)))

    else:
        from fractions import Fraction

        import sympy

        def oracle(rows):
            fracs = [[Fraction(x) for x in row] for row in rows]
            return sympy.Matrix(
                [[sympy.Rational(f.numerator, f.denominator) for f in row] for row in fracs]
            ).rank()

    problems = []
    for rows, rank in captured:
        independent = oracle(rows)
        if independent != rank:
            problems.append(f"{len(rows)}-row frame: program rank {rank}, oracle rank {independent}")
    return len(captured), len(problems), problems
