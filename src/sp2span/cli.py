"""Command-line front end.

Subcommands:

* verify          randomized rank-10 sweep (float or exact backend)
* special-sweep   deterministic grids through every case stratum
* identities      the closed-form identity suite (OK / WARN / FAIL)
* standard-sphere the constant frame on the round 7-sphere, exact rank
* frame           check one point from a JSON file and emit its span frame

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 bad usage
or malformed input.  Reports are deterministic for a fixed (seed, samples,
backend, tol): sample index n draws from its own Philox stream, keyed by the
pair (seed, n) as (seed mod 2^64) * 2^64 + n, so different seeds draw
different points and --jobs never changes the result, only the wall time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import bundle, frames
from .qmat import InvariantViolation, Sp2Point, real_rank, to_vec10
from .quat import EXACT, FLOAT, ParseError, Sp2Error

SCHEMA = 1

_EXACT_CYCLE = (None, "I-b", None, "I-r", "II-x0", None, "II-w0", None)


@dataclass
class RunConfig:
    seed: int = 0
    samples: int = 1000
    backend: str = FLOAT
    tol: float = 1e-9
    jobs: int = 1
    emit: str = "text"
    out: str | None = None
    corrupt_frame: str | None = None


# -- shared plumbing ---------------------------------------------------------------


def canonical_json(report: dict) -> str:
    """The canonical serialized form: everything except wall time."""
    trimmed = {k: v for k, v in report.items() if k != "elapsed_s"}
    return json.dumps(trimmed, sort_keys=True, indent=2)


def _emit(report: dict, lines, cfg_emit: str, out_path: str | None) -> None:
    if cfg_emit == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- verify -------------------------------------------------------------------------


def _verify_one(args):
    """One sample of the randomized sweep; top-level so worker processes can
    import it."""
    index, seed, backend, tol, drop = args
    key = ((seed % (1 << 64)) << 64) + index
    p = None
    try:
        if backend == FLOAT:
            p = bundle.random_sp2(key)
        else:
            p = bundle.exact_random_point(key, case=_EXACT_CYCLE[index % len(_EXACT_CYCLE)])
        res = frames.check_point(p, tol, drop_label=drop)
        rec = {
            "index": index,
            "case": res.case,
            "ok": res.ok,
            "rank": res.rank.rank,
            "neg_rank": res.negative_rank.rank,
            "min_rel_pivot": res.rank.min_rel_pivot,
            "problems": res.failures(),
        }
    except Sp2Error as exc:
        rec = {
            "index": index,
            "case": "error",
            "ok": False,
            "rank": None,
            "neg_rank": None,
            "min_rel_pivot": None,
            "problems": [f"{type(exc).__name__}: {exc}"],
        }
    if not rec["ok"]:
        # the failure replay: `sp2span frame` reads this point back
        rec["point"] = p.to_json() if p is not None else None
    return rec


def _run_indexed(worker, arg_list, jobs: int):
    if jobs <= 1:
        return [worker(a) for a in arg_list]
    chunk = max(1, len(arg_list) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, arg_list, chunksize=chunk))


def cmd_verify(cfg: RunConfig) -> int:
    start = time.monotonic()
    args = [(i, cfg.seed, cfg.backend, cfg.tol, cfg.corrupt_frame) for i in range(cfg.samples)]
    records = _run_indexed(_verify_one, args, cfg.jobs)
    records.sort(key=lambda r: r["index"])
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
        if rec["ok"] and cfg.backend == EXACT:
            certified += 1
        if not rec["ok"]:
            failures.append(rec)
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "backend": cfg.backend,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "tol": cfg.tol,
        "case_tally": tally,
        "failures": failures,
        "min_rel_pivot": min(pivots) if pivots else None,
        "exact_certified": certified if cfg.backend == EXACT else None,
        "negative_control_max_rank": neg_max,
        "pass": not failures,
        "elapsed_s": round(time.monotonic() - start, 3),
    }
    lines = [
        f"verify: backend={cfg.backend} samples={cfg.samples} seed={cfg.seed}",
        "case tally: " + ", ".join(f"{k}={v}" for k, v in sorted(tally.items())),
    ]
    if report["min_rel_pivot"] is not None:
        lines.append(f"min relative pivot: {report['min_rel_pivot']:.3e}")
    if cfg.backend == EXACT:
        lines.append(f"exact rank certificates: {certified}/{cfg.samples}")
    lines.append(f"negative-control max rank: {neg_max} (must be 7)")
    for rec in failures[:20]:
        lines.append(f"FAIL sample {rec['index']} [{rec['case']}]: " + "; ".join(rec["problems"]))
    if len(failures) > 20:
        lines.append(f"... and {len(failures) - 20} more failures")
    lines.append("PASS" if report["pass"] else "FAIL")
    _emit(report, lines, cfg.emit, cfg.out)
    return 0 if report["pass"] else 1


# -- special-sweep -------------------------------------------------------------------


def _sweep_family(name, points, expected_cases, tol):
    failures = []
    tally: dict = {}
    for idx, p in enumerate(points):
        try:
            res = frames.check_point(p, tol)
            tally[res.case] = tally.get(res.case, 0) + 1
            problems = res.failures()
            if res.case not in expected_cases:
                problems.append(f"classified {res.case}, expected one of {sorted(expected_cases)}")
            if problems:
                failures.append({"index": idx, "problems": problems, "point": p.to_json()})
        except Sp2Error as exc:
            failures.append(
                {"index": idx, "problems": [f"{type(exc).__name__}: {exc}"], "point": p.to_json()}
            )
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


def cmd_special_sweep(cfg: RunConfig) -> int:
    start = time.monotonic()
    n = cfg.samples
    families = [
        _sweep_family("I-a", bundle.grid_ia(n), {frames.CASE_IA}, cfg.tol),
        _sweep_family("I-b-nonquarter", bundle.grid_ib(n), {frames.CASE_IB_NONQUARTER}, cfg.tol),
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
            cfg.tol,
        ),
        _sweep_family("I-r", bundle.grid_ir(n), {frames.CASE_IR}, cfg.tol),
        _sweep_family("II", bundle.grid_ii(n), {frames.CASE_II}, cfg.tol),
    ]
    ok = all(f["pass"] for f in families)
    report = {
        "schema": SCHEMA,
        "command": "special-sweep",
        "tol": cfg.tol,
        "families": families,
        "pass": ok,
        "elapsed_s": round(time.monotonic() - start, 3),
    }
    lines = [f"special-sweep: {cfg.samples} points per family"]
    for f in families:
        if f.get("skipped"):
            lines.append(f"SKIP {f['name']}: {f['reason']}")
            continue
        status = "ok" if f["pass"] else "FAIL"
        lines.append(f"{status:4s} {f['name']}: {f['count']} points, cases {f['cases']}")
        for rec in f["failures"][:5]:
            lines.append(f"     sample {rec['index']}: " + "; ".join(rec["problems"]))
    lines.append("PASS" if ok else "FAIL")
    _emit(report, lines, cfg.emit, cfg.out)
    return 0 if ok else 1


# -- identities ----------------------------------------------------------------------


def cmd_identities(cfg: RunConfig) -> int:
    start = time.monotonic()
    results = frames.run_identity_suite()
    any_fail = any(r.status == frames.FAIL for r in results)
    report = {
        "schema": SCHEMA,
        "command": "identities",
        "results": [
            {"name": r.name, "status": r.status, "worst": r.worst, "n": r.n, "note": r.note}
            for r in results
        ],
        "pass": not any_fail,
        "elapsed_s": round(time.monotonic() - start, 3),
    }
    lines = [r.line() for r in results]
    lines.append("PASS" if not any_fail else "FAIL")
    _emit(report, lines, cfg.emit, cfg.out)
    return 0 if not any_fail else 1


# -- standard-sphere -----------------------------------------------------------------


def cmd_standard_sphere(cfg: RunConfig) -> int:
    start = time.monotonic()
    frame = frames.standard_sphere_frame(cfg.backend)
    vecs = [to_vec10(e.m) for e in frame.entries]
    rank = real_rank(vecs, cfg.tol)
    u_rank = real_rank(vecs[:4], cfg.tol)
    br_rank = real_rank(vecs[4:], cfg.tol)
    ok = rank.rank == 10 and u_rank.rank == 4 and br_rank.rank == 6
    report = {
        "schema": SCHEMA,
        "command": "standard-sphere",
        "backend": cfg.backend,
        "rank": rank.rank,
        "u_rank": u_rank.rank,
        "bracket_rank": br_rank.rank,
        "pivots": rank.to_json()["pivots"],
        "rows": [[str(x) for x in v] for v in vecs] if cfg.backend == EXACT else [list(v) for v in vecs],
        "labels": [e.label for e in frame.entries],
        "pass": ok,
        "elapsed_s": round(time.monotonic() - start, 3),
    }
    lines = [f"standard-sphere frame on backend {cfg.backend}"]
    for e, v in zip(frame.entries, vecs):
        lines.append(f"  {e.label:8s} {[str(x) for x in v]}")
    lines.append(f"rank: {rank.rank} (u-basis alone {u_rank.rank}, brackets alone {br_rank.rank})")
    lines.append(f"pivots: {report['pivots']}")
    lines.append("PASS" if ok else "FAIL")
    _emit(report, lines, cfg.emit, cfg.out)
    return 0 if ok else 1


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


def cmd_frame(cfg: RunConfig, path: str) -> int:
    start = time.monotonic()
    p = _load_point(path, cfg.tol)
    res = frames.check_point(p, cfg.tol)
    report = frames.frame_to_json(frames.span_frame(p, cfg.tol), res)
    report["schema"] = SCHEMA
    report["command"] = "frame"
    report["backend"] = p.backend
    report["pass"] = res.ok
    report["elapsed_s"] = round(time.monotonic() - start, 3)
    lines = [f"case: {report['case']}"]
    for m in report["matrices"]:
        lines.append(f"  {m['label']:10s} {m['paper_eq']}")
    lines.append(f"rank: {report['rank']}")
    lines.append(f"pivots: {report['pivots']}")
    lines.append("PASS" if res.ok else "FAIL: " + "; ".join(res.failures()))
    _emit(report, lines, cfg.emit, cfg.out)
    return 0 if res.ok else 1


# -- argument parsing ----------------------------------------------------------------


def _add_common(sp, with_sampling: bool = True, with_backend: bool = True):
    if with_sampling:
        sp.add_argument("--samples", type=int, default=1000, help="number of points")
        sp.add_argument("--seed", type=int, default=0, help="base RNG seed")
        sp.add_argument("--jobs", type=int, default=1, help="worker processes")
    if with_backend:
        sp.add_argument("--backend", default=FLOAT, help="scalar backend: exact or float")
    sp.add_argument("--tol", type=float, default=1e-9, help="float comparison tolerance")
    sp.add_argument("--emit", choices=("json", "text"), default="text", help="output format")
    sp.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sp2span",
        description="Machine verification of bracket-generating horizontal frames on Sp(2)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="randomized rank-10 sweep")
    _add_common(sp)
    sp.add_argument("--corrupt-frame", default=None, help=argparse.SUPPRESS)

    sp = sub.add_parser("special-sweep", help="deterministic per-case grids")
    sp.add_argument("--samples", type=int, default=25, help="points per family")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--emit", choices=("json", "text"), default="text")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("identities", help="closed-form identity suite")
    sp.add_argument("--emit", choices=("json", "text"), default="text")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("standard-sphere", help="constant frame on the round 7-sphere")
    _add_common(sp, with_sampling=False)

    sp = sub.add_parser("frame", help="frame report for one point file")
    sp.add_argument("point_file", help='JSON file {"backend": ..., "p": {...}}; it names the backend')
    _add_common(sp, with_sampling=False, with_backend=False)

    return ap


def _config_from(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    cfg = RunConfig()
    if hasattr(ns, "samples"):
        if ns.samples < 1:
            parser.error("--samples must be >= 1")
        cfg.samples = ns.samples
    if hasattr(ns, "seed"):
        cfg.seed = ns.seed
    if hasattr(ns, "jobs"):
        if ns.jobs < 1:
            parser.error("--jobs must be >= 1")
        cfg.jobs = ns.jobs
    if hasattr(ns, "backend"):
        if ns.backend not in (EXACT, FLOAT):
            parser.error(f"--backend must be 'exact' or 'float', got {ns.backend!r}")
        cfg.backend = ns.backend
    if hasattr(ns, "tol"):
        if not ns.tol > 0:
            parser.error("--tol must be positive")
        cfg.tol = ns.tol
    if hasattr(ns, "emit"):
        cfg.emit = ns.emit
    if hasattr(ns, "out"):
        cfg.out = ns.out
    if getattr(ns, "corrupt_frame", None):
        if ns.corrupt_frame not in frames.SPAN_LABELS:
            parser.error(f"--corrupt-frame must name a frame row, one of {', '.join(frames.SPAN_LABELS)}")
        cfg.corrupt_frame = ns.corrupt_frame
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    cfg = _config_from(ns, parser)
    try:
        if ns.command == "verify":
            return cmd_verify(cfg)
        if ns.command == "special-sweep":
            return cmd_special_sweep(cfg)
        if ns.command == "identities":
            return cmd_identities(cfg)
        if ns.command == "standard-sphere":
            return cmd_standard_sphere(cfg)
        if ns.command == "frame":
            return cmd_frame(cfg, ns.point_file)
    except (ParseError, InvariantViolation, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    parser.error(f"unknown command {ns.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
