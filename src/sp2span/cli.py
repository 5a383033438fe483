"""Command-line front end.

Subcommands:

* verify          randomized rank-10 sweep (float or exact backend)
* special-sweep   deterministic grids through every case stratum
* identities      the closed-form identity suite (OK / FAIL per identity)
* standard-sphere the constant frame on the round 7-sphere, exact rank
* frame           check one point from a JSON file and emit its span frame

Each ``cmd_*`` returns ``(ok, report, lines)``: its verdict, the report
keys of its own, and the text lines ending in its verdict line.  ``main``
adds the keys every report shares (schema, command, pass, elapsed_s) and
writes the report.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 bad usage
or malformed input, including an ``--out`` path that cannot be opened (it
is opened before the command runs) or that is ``frame``'s point file.
Reports are deterministic for a fixed (seed, samples, backend, tol): sample
index n draws from its own Philox stream, keyed by the pair (seed, n) as
(seed mod 2^64) * 2^64 + n, so different seeds draw different points and
--jobs never changes the result, only the wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from . import bundle, frames
from .qmat import InvariantViolation, Sp2Point, real_rank, to_vec10
from .quat import DEFAULT_TOL, EXACT, FLOAT, ParseError, Sp2Error

SCHEMA = 1


# -- verify -------------------------------------------------------------------------


def _check(draw, tol, drop=None):
    """(p, case, FrameCheck or None, problems) for the point p = draw():
    case "error", no check and the error as the one problem when drawing or
    checking raises, and p None when the draw did."""
    p = None
    try:
        p = draw()
        res = frames.check_point(p, tol, drop_label=drop)
    except Sp2Error as exc:
        return p, "error", None, [f"{type(exc).__name__}: {exc}"]
    return p, res.case, res, res.failures()


def _verify_one(args):
    """One sample of the randomized sweep; top-level so worker processes can
    import it."""
    index, seed, backend, tol, drop = args
    key = ((seed % (1 << 64)) << 64) + index
    if backend == FLOAT:
        draw = partial(bundle.random_sp2, key)
    else:
        case = bundle.EXACT_CYCLE[index % len(bundle.EXACT_CYCLE)]
        draw = partial(bundle.exact_random_point, key, case=case)
    p, case, res, problems = _check(draw, tol, drop)
    rec = {
        "index": index,
        "case": case,
        "ok": not problems,
        "rank": res.rank.rank if res else None,
        "neg_rank": res.negative_rank.rank if res else None,
        "min_rel_pivot": res.rank.min_rel_pivot if res else None,
        "problems": problems,
    }
    if problems:
        # the failure replay: `sp2span frame` reads this point back
        rec["point"] = p.to_json() if p is not None else None
    return rec


def _run_indexed(worker, arg_list, jobs: int):
    """worker over arg_list in order, on at most one process per item and per
    CPU; in this process when that is one."""
    workers = min(jobs, len(arg_list), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(a) for a in arg_list]
    chunk = max(1, len(arg_list) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, arg_list, chunksize=chunk))


def cmd_verify(ns):
    args = [(i, ns.seed, ns.backend, ns.tol, ns.corrupt_frame) for i in range(ns.samples)]
    records = _run_indexed(_verify_one, args, ns.jobs)
    tally: dict = {}
    failures = []
    pivots = []
    neg_max = 0
    certified = 0
    for rec in records:
        tally[rec["case"]] = tally.get(rec["case"], 0) + 1
        if rec["min_rel_pivot"] is not None:
            pivots.append(rec["min_rel_pivot"])
        if rec["neg_rank"] is not None:
            neg_max = max(neg_max, rec["neg_rank"])
        if rec["ok"] and ns.backend == EXACT:
            certified += 1
        if not rec["ok"]:
            failures.append(rec)
    report = {
        "backend": ns.backend,
        "seed": ns.seed,
        "samples": ns.samples,
        "tol": ns.tol,
        "case_tally": tally,
        "failures": failures,
        "min_rel_pivot": min(pivots) if pivots else None,
        "exact_certified": certified if ns.backend == EXACT else None,
        "negative_control_max_rank": neg_max,
    }
    lines = [
        f"verify: backend={ns.backend} samples={ns.samples} seed={ns.seed}",
        "case tally: " + ", ".join(f"{k}={v}" for k, v in sorted(tally.items())),
    ]
    if report["min_rel_pivot"] is not None:
        lines.append(f"min relative pivot: {report['min_rel_pivot']:.3e}")
    if ns.backend == EXACT:
        lines.append(f"exact rank certificates: {certified}/{ns.samples}")
    lines.append(f"negative-control max rank: {neg_max} (must be 7)")
    for rec in failures[:20]:
        lines.append(f"FAIL sample {rec['index']} [{rec['case']}]: " + "; ".join(rec["problems"]))
    if len(failures) > 20:
        lines.append(f"... and {len(failures) - 20} more failures")
    lines.append("FAIL" if failures else "PASS")
    return not failures, report, lines


# -- special-sweep -------------------------------------------------------------------


def _sweep_family(name, points, expected_cases, tol):
    failures = []
    tally: dict = {}
    for idx, p in enumerate(points):
        _, case, res, problems = _check(lambda: p, tol)
        if res:
            tally[case] = tally.get(case, 0) + 1
            if case not in expected_cases:
                problems.append(f"classified {case}, expected one of {sorted(expected_cases)}")
        if problems:
            failures.append({"index": idx, "problems": problems, "point": p.to_json()})
    return {
        "name": name,
        "count": len(points),
        "cases": tally,
        "failures": failures,
        "pass": not failures,
    }


QUARTER_SKIP_REASON = (
    "the stratum v = i, |a|^2 - |b|^2 = 1/4 contains no points with rational "
    "coordinates (|a|^2 = 3/8 forces 8(A^2 + B^2) = 3 d^2 over the integers, "
    "impossible mod 3), so exact coverage is unattainable; float points on "
    "the stratum are swept instead"
)


def cmd_special_sweep(ns):
    n = ns.samples
    families = [
        _sweep_family("I-a", bundle.grid_ia(n), {frames.CASE_IA}, ns.tol),
        _sweep_family("I-b-nonquarter", bundle.grid_ib(n), {frames.CASE_IB_NONQUARTER}, ns.tol),
        {
            "name": "I-b-quarter-exact",
            "count": 0,
            "cases": {},
            "failures": [],
            "pass": True,
            "skipped": True,
            "reason": QUARTER_SKIP_REASON,
        },
        _sweep_family(
            "I-b-quarter-float",
            [bundle.ib_float_point(0.25, 0.1 + 0.2 * k, 0.7 + 0.3 * k) for k in range(max(4, n // 4))],
            {frames.CASE_IB_QUARTER},
            ns.tol,
        ),
        _sweep_family("I-r", bundle.grid_ir(n), {frames.CASE_IR}, ns.tol),
        _sweep_family("II", bundle.grid_ii(n), {frames.CASE_II}, ns.tol),
    ]
    ok = all(f["pass"] for f in families)
    lines = [f"special-sweep: {n} points per family"]
    for f in families:
        if f.get("skipped"):
            lines.append(f"SKIP {f['name']}: {f['reason']}")
            continue
        status = "ok" if f["pass"] else "FAIL"
        lines.append(f"{status:4s} {f['name']}: {f['count']} points, cases {f['cases']}")
        for rec in f["failures"][:5]:
            lines.append(f"     sample {rec['index']}: " + "; ".join(rec["problems"]))
    lines.append("PASS" if ok else "FAIL")
    return ok, {"tol": ns.tol, "families": families}, lines


# -- identities ----------------------------------------------------------------------


def cmd_identities(ns):
    results = frames.run_identity_suite()
    ok = all(r.status != frames.FAIL for r in results)
    report = {
        "results": [
            {"name": r.name, "status": r.status, "worst": r.worst, "n": r.n, "note": r.note}
            for r in results
        ],
    }
    return ok, report, [r.line() for r in results] + ["PASS" if ok else "FAIL"]


# -- standard-sphere -----------------------------------------------------------------


def cmd_standard_sphere(ns):
    frame = frames.standard_sphere_frame()
    vecs = [to_vec10(e.m) for e in frame.entries]
    rank = real_rank(vecs)
    u_rank = real_rank(vecs[:4])
    br_rank = real_rank(vecs[4:])
    ok = rank.rank == 10 and u_rank.rank == 4 and br_rank.rank == 6
    report = {
        "backend": EXACT,
        "rank": rank.rank,
        "u_rank": u_rank.rank,
        "bracket_rank": br_rank.rank,
        "pivots": rank.to_json()["pivots"],
        "rows": [[str(x) for x in v] for v in vecs],
        "labels": [e.label for e in frame.entries],
    }
    lines = [f"standard-sphere frame on backend {EXACT}"]
    for e, v in zip(frame.entries, vecs):
        lines.append(f"  {e.label:8s} {[str(x) for x in v]}")
    lines.append(f"rank: {rank.rank} (u-basis alone {u_rank.rank}, brackets alone {br_rank.rank})")
    lines.append(f"pivots: {report['pivots']}")
    lines.append("PASS" if ok else "FAIL")
    return ok, report, lines


# -- frame ---------------------------------------------------------------------------


def _load_point(path: str, tol: float) -> Sp2Point:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, over-long integers
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("point file must be a JSON object")
    backend = obj.get("backend")
    if backend not in (EXACT, FLOAT):
        raise ParseError(f"point file needs \"backend\": \"exact\"|\"float\", got {backend!r}")
    if "p" not in obj:
        raise ParseError('point file needs a "p" entry')
    return Sp2Point.from_json(obj["p"], backend, tol=tol)


def cmd_frame(ns):
    p = _load_point(ns.point_file, ns.tol)
    res = frames.check_point(p, ns.tol)
    report = frames.frame_to_json(frames.span_frame(p, ns.tol), res)
    report["backend"] = p.backend
    lines = [f"case: {report['case']}"]
    for m in report["matrices"]:
        lines.append(f"  {m['label']:10s} {m['paper_eq']}")
    lines.append(f"rank: {report['rank']}")
    lines.append(f"pivots: {report['pivots']}")
    lines.append("PASS" if res.ok else "FAIL: " + "; ".join(res.failures()))
    return res.ok, report, lines


# -- argument parsing and the report envelope ----------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# The range of --tol (README, "Backends, tolerance, environment"): below
# MIN_TOL rounding alone fails valid float points; above MAX_TOL the case
# cuts label Haar points off I-a, and larger values fail them at rank 9.
MIN_TOL = 1e-14
MAX_TOL = 1e-3


def _tolerance(text: str) -> float:
    value = float(text)
    if not MIN_TOL <= value <= MAX_TOL:  # also false for NaN
        raise argparse.ArgumentTypeError(f"must be between {MIN_TOL:g} and {MAX_TOL:g}, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sp2span",
        description="Machine verification of bracket-generating horizontal frames on Sp(2)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="randomized rank-10 sweep")
    verify.add_argument("--samples", type=_positive_int, default=1000, help="number of points")
    verify.add_argument("--seed", type=int, default=0, help="base RNG seed")
    verify.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes, at most one per sample and per CPU"
    )
    verify.add_argument("--backend", choices=(EXACT, FLOAT), default=FLOAT, help="scalar backend")
    verify.add_argument("--corrupt-frame", choices=frames.SPAN_LABELS, default=None, help=argparse.SUPPRESS)

    sweep = sub.add_parser("special-sweep", help="deterministic per-case grids")
    sweep.add_argument("--samples", type=_positive_int, default=25, help="points per family")

    sub.add_parser("identities", help="closed-form identity suite")
    sub.add_parser("standard-sphere", help="constant frame on the round 7-sphere, exact rank")

    frame = sub.add_parser("frame", help="frame report for one point file")
    frame.add_argument("point_file", help='JSON file {"backend": ..., "p": {...}}; it names the backend')

    for sp in (verify, sweep, frame):
        sp.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="float comparison tolerance")
    for sp in sub.choices.values():
        sp.add_argument("--emit", choices=("json", "text"), default="text", help="output format")
        sp.add_argument("--out", default=None, help="write the report to this path")
    return ap


def _same_file(a: str, b: str) -> bool:
    """Whether the paths a and b name one file: os.path.samefile when both
    exist, so relative paths and links are caught, else equal real paths."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    # built per call, so a cmd_* replaced on this module (a profiler's wrapper) is the one that runs
    commands = {
        "verify": cmd_verify,
        "special-sweep": cmd_special_sweep,
        "identities": cmd_identities,
        "standard-sphere": cmd_standard_sphere,
        "frame": cmd_frame,
    }
    try:
        if ns.command == "frame" and ns.out and _same_file(ns.out, ns.point_file):
            # opening it for the report would truncate the point before it is read
            raise ParseError(f"--out {ns.out} is the point file {ns.point_file}")
        # opened first, as a shell redirection is: a bad path fails before any work
        with open(ns.out, "w", encoding="utf-8") if ns.out else contextlib.nullcontext(sys.stdout) as fh:
            start = time.monotonic()
            ok, report, lines = commands[ns.command](ns)
            report = {
                "schema": SCHEMA,
                "command": ns.command,
                **report,
                "pass": ok,
                "elapsed_s": round(time.monotonic() - start, 3),
            }
            if ns.emit == "json":
                fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
            else:
                fh.write("\n".join(lines) + "\n")
    except (ParseError, InvariantViolation, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
