"""sp2span benchmark: run one workload through `sp2span.cli.main` and print
every metric by name, with its unit, after checking every verdict.

    python3 perfbench/run.py --workload float-haar --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the details
(seeds, environment stamp, per-command times, self-tests, problems).
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import gate
from calibrate import REFERENCE_SLICE_S, HostClock, Segmenter
from tracing import Tracer, counting, observing, patched

PROCESS_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 15
# A run stops starting new commands once this much time has passed, so that
# it ends well inside the 180 s a single run may take.
HARD_LIMIT_S = 120.0
POOL_JOBS = 2
POINT_MS_CASES = ("I-a", "I-b-nonquarter", "I-r", "II")
IDENTITY_ENTRIES = (
    "standard_commutators",
    "case_commutators",
    "u_displays",
    "alpha_forms",
    "trace_ujk",
    "t_closed_forms",
    "nondegeneracy_factor",
    "ad_invariance",
    "ell_dual",
    "corner_vanishing",
    "h_dim",
    "s2_solution",
    "ib_adjoints",
)
# (layer, module, attribute): each probe wraps the attribute its caller looks
# up at call time, so several names can feed one layer.
PROBES = (
    ("cli.cmd_verify", "cli", "cmd_verify"),
    ("bundle.sample", "bundle", "random_sp2"),
    ("bundle.sample", "bundle", "exact_random_point"),
    ("bundle.normalize_fiber", "bundle", "normalize_fiber"),
    ("frames.check_point", "frames", "check_point"),
    ("frames.classify", "frames", "classify"),
    ("frames.build_frame", "frames", "build_frame"),
    ("bundle.ell", "frames", "ell"),
    ("bundle.ell", "bundle", "ell"),
    ("bundle.ell_direct", "bundle", "ell_direct"),
    ("bundle.ell_from_projector", "bundle", "ell_from_projector"),
    ("frames.verify_frame", "frames", "verify_frame"),
    ("bundle.in_ad_h_p", "frames", "in_ad_h_p"),
    ("bundle.in_ad_h_p", "bundle", "in_ad_h_p"),
)
SELF_TIME_LAYERS = (
    "bundle.sample",
    "bundle.normalize_fiber",
    "frames.classify",
    "frames.build_frame",
    "bundle.ell",
    "bundle.ell_direct",
    "bundle.ell_from_projector",
    "frames.verify_frame",
    "bundle.in_ad_h_p",
    "qmat.real_rank",
    "frames.check_point",
    "cli.verify_one",
    "cli.cmd_verify",
)
RANK_SITES = ("frames", "bundle", "cli", "qmat")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    backend: str | None = None
    samples: int = 0
    # fewest timed commands per end-to-end run, however short --seconds is
    min_commands: int = 5

    def argv(self, seed: int, jobs: int = 1):
        if self.command == "identities":
            return ["identities", "--emit", "json"]
        return [
            "verify", "--backend", self.backend, "--samples", str(self.samples),
            "--seed", str(seed), "--jobs", str(jobs), "--emit", "json",
        ]  # fmt: skip


# Why each workload: see perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("float-haar", "verify", "float", samples=250),
        Workload("exact-cycle", "verify", "exact", samples=48),
        Workload("identities", "identities", min_commands=1),
    )
}


def derive_seed(workload_seed: int) -> int:
    """The program seed for a workload seed.  The program keys sample n by
    seed XOR n, so nearby program seeds share points; hashing the workload
    seed first keeps the point sets of different workload seeds apart."""
    import numpy as np

    state = np.random.SeedSequence(workload_seed).generate_state(1, dtype=np.uint64)
    return int(state[0]) >> 1


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# -- environment -------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_stamp() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "load_avg_start": list(os.getloadavg()),
    }


# -- running the CLI ---------------------------------------------------------------


class Runner:
    """Runs CLI commands in this process and keeps the gate's tally."""

    def __init__(self, cli, workload: Workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.points_per_command = workload.samples
        # the case tally every later run of the workload command must repeat,
        # and the sample indices whose case the first run found wrong
        self.reference_tally = None
        self.case_misses = 0

    def call(self, argv):
        """(seconds, exit code, parsed JSON report or None) of cli.main(argv)."""
        buf = io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed command, recorded, not fatal
            self.problems.append(traceback.format_exc(limit=4))
        seconds = time.perf_counter() - t0
        try:
            report = json.loads(buf.getvalue())
        except ValueError:
            report = None
        return seconds, rc, report

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def record(self, units: int, misses: int, problems) -> None:
        self.attempted += units
        self.failed += misses
        self.problems += problems

    def run(self, argv) -> float:
        """Run one workload command through the gate; returns its seconds."""
        seconds, rc, report = self.call(argv)
        wl = self.workload
        if wl.command == "verify":
            misses, problems = gate.check_verify(rc, report, wl.samples, self.reference_tally)
            self.record(wl.samples, max(misses, self.case_misses), problems)
        else:
            self.record(*gate.check_identities(rc, report))
            if report is not None:
                self.points_per_command = sum(r["n"] for r in report["results"])
        return seconds


def capture_ranks(store: list, fn):
    """Wrap real_rank so the first ORACLE_FRAMES (rows, rank) pairs of each
    row count are kept for the oracle; keeping every pair would put the
    benchmark's own memory into peak_rss_mb."""
    kept = Counter()

    @functools.wraps(fn)
    def wrapper(vectors, *args, **kwargs):
        rows = [tuple(v) for v in vectors]
        result = fn(rows, *args, **kwargs)
        if kept[len(rows)] < gate.ORACLE_FRAMES:
            kept[len(rows)] += 1
            store.append((rows, result.rank))
        return result

    return wrapper


def rank_sites(modules, wrap):
    """Every module attribute named real_rank, each wrapped."""
    return [
        (modules[name], "real_rank", wrap(modules[name].real_rank))
        for name in RANK_SITES
        if hasattr(modules[name], "real_rank")
    ]


def warm_up(runner: Runner, modules, argv):
    """One untimed verify command.  It fills lazy state, checks the case of
    every sample index, sets the tally later commands must repeat (they draw
    the same points), and keeps what the program ranked, for the oracle.
    Returns (misses, captured rank inputs)."""
    wl = runner.workload
    captured: list = []
    cases: dict = {}
    cli = modules["cli"]

    def keep_case(record):
        cases[record["index"]] = record["case"]

    probes = rank_sites(modules, lambda fn: capture_ranks(captured, fn))
    probes.append((cli, "_verify_one", observing(cli._verify_one, keep_case)))
    with patched(probes):
        _, rc, report = runner.call(argv)
    misses, problems = gate.check_verify(rc, report, wl.samples, None)
    case_misses, case_problems = gate.check_cases(cases, wl.backend, wl.samples)
    runner.record(wl.samples, max(misses, case_misses), problems + case_problems)
    runner.reference_tally = report["case_tally"] if report else None
    runner.case_misses = case_misses
    return max(misses, case_misses), captured


def apply_oracle(runner: Runner, warm_misses: int, captured) -> dict:
    """Re-rank part of the warm-up's frames; a disagreement is a miss of a
    warm-up point that the gate had not already counted."""
    checked, bad, problems = gate.oracle_rerank(captured, runner.workload.backend)
    unclaimed = runner.workload.samples - warm_misses
    runner.record(0, min(unclaimed, bad if checked else unclaimed), problems)
    return {"frames_checked": checked, "disagreements": bad}


# -- self-tests --------------------------------------------------------------------


class ClaimsPassRunner(Runner):
    """A Runner whose program claims a clean run (exit 0, `pass` true, the
    negative control at rank 7) whatever its points say, so only the gate's
    point-by-point counting can catch the failures."""

    def call(self, argv):
        seconds, rc, report = super().call(argv)
        if report is not None:
            report["pass"] = True
            report["negative_control_max_rank"] = gate.NEGATIVE_CONTROL_RANK
        return seconds, 0, report


def gate_self_test(cli, program_seed: int) -> dict:
    """`verify --corrupt-frame ell_i` drops ell_i from every frame, so every
    point has rank 9.  Each corrupted command goes through a fresh Runner,
    the same accounting that makes the result line, which must report
    failed_share 1.0: once as the program reports it, and once with the
    run-level verdict forced to pass, so the per-point count is tested on
    its own."""
    shares = {}
    for backend, samples in (("float", 16), ("exact", 8)):
        wl = Workload(f"gate-self-test-{backend}", "verify", backend, samples=samples)
        argv = wl.argv(program_seed) + ["--corrupt-frame", "ell_i"]
        for runner_cls in (Runner, ClaimsPassRunner):
            runner = runner_cls(cli, wl)
            runner.run(argv)
            shares[f"{backend}.{runner_cls.__name__}"] = runner.failed_share
    return {"ok": all(s == 1.0 for s in shares.values()), "failed_share": shares}


def seed_self_test(runner: Runner, bundle, workload_seed: int) -> dict:
    """Two workload seeds must draw disjoint point sets.  The raw program
    seeds are compared too, for the record: adjacent ones share points."""

    def points(program_seed):
        drawn = set()

        def keep(point):
            drawn.add(json.dumps(point.to_json(), sort_keys=True))

        with patched([(bundle, "random_sp2", observing(bundle.random_sp2, keep))]):
            runner.call(["verify", "--backend", "float", "--samples", "16", "--seed", str(program_seed)])
        return drawn

    a, b = workload_seed, workload_seed + 1
    derived = (points(derive_seed(a)), points(derive_seed(b)))
    raw = (points(a), points(b))
    return {
        "ok": bool(derived[0]) and not derived[0] & derived[1],
        "derived_shared_points": len(derived[0] & derived[1]),
        "raw_adjacent_shared_points": len(raw[0] & raw[1]),
        "points_per_seed": len(derived[0]),
    }


# -- set-up time -------------------------------------------------------------------

SETUP_CHILD = "from sp2span import cli; cli.build_parser(); print('ready', flush=True)"


def setup_seconds() -> float:
    """Process start until the package is imported and the parser is built,
    seen from the parent: spawn to the child's 'ready' line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    ) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - t0
        child.stdout.read()
        rc = child.wait(timeout=60)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up child printed {line!r} and exited {rc}")
    return seconds


# -- the two kinds of run ----------------------------------------------------------


def keep_going(count: int, minimum: int, t_start: float, seconds: float, last: float) -> bool:
    """Whether to start another command (or round of commands) that takes
    about `last` seconds: at least `minimum`, then while it would end within
    `seconds`, never past HARD_LIMIT_S from process start."""
    now = time.perf_counter()
    if now - PROCESS_T0 + last > HARD_LIMIT_S:
        return False
    return count < minimum or now - t_start + last <= seconds


def identity_entries(frames):
    """(attribute, function) of every identity entry the suite looks up."""
    return [
        (f"identity_{name}", getattr(frames, f"identity_{name}"))
        for name in IDENTITY_ENTRIES
        if hasattr(frames, f"identity_{name}")
    ]


# Sampling calls of verify and identity entries, where a segment may end.
SEGMENT_HOOKS = (("bundle", "random_sp2"), ("bundle", "exact_random_point"))
SEGMENT_MIN_S = 0.5


def end_to_end(runner: Runner, modules, argv, seconds: float, detail: dict) -> dict:
    """Commands repeat while the next one would end within `seconds` (at
    least `min_commands`, never past HARD_LIMIT_S from process start).
    Each command is cut into segments of at least SEGMENT_MIN_S, at a
    sampling call or an identity entry, and every segment is scaled to
    reference host speed by the calibration slices on either side of it
    (calibrate.py); run_s is the median of the scaled command times.
    Set-up time is the median of SETUP_SPAWNS scaled spawns of a fresh
    process, started at cuts on a schedule spread over `seconds`, after one
    discarded spawn that warms the file cache."""
    wl = runner.workload
    clock = HostClock()
    setup_raw: list[float] = []
    setup: list[float] = []

    def spawn(due: int) -> None:
        while len(setup) < due:
            setup_raw.append(setup_seconds())
            setup.append(clock.scaled(setup_raw[-1]))

    def spawn_on_schedule() -> None:
        spawn(min(SETUP_SPAWNS, 1 + int((time.perf_counter() - t_start) / seconds * SETUP_SPAWNS)))

    cutter = Segmenter(clock, SEGMENT_MIN_S, between=spawn_on_schedule)
    frames = modules["frames"]
    hooks = [(modules[mod], attr, cutter.hook(getattr(modules[mod], attr))) for mod, attr in SEGMENT_HOOKS]
    hooks += [(frames, attr, cutter.hook(fn)) for attr, fn in identity_entries(frames)]
    setup_seconds()
    clock.tick()
    t_start = time.perf_counter()
    raw: list[float] = []
    scaled: list[float] = []
    segments = 0
    last = 0.0
    with patched(hooks):
        while keep_going(len(raw), wl.min_commands, t_start, seconds, last):
            t0 = time.perf_counter()
            cutter.start()
            runner.run(argv)
            command_raw, command_scaled = cutter.finish()
            last = time.perf_counter() - t0
            raw.append(command_raw)
            scaled.append(command_scaled)
            segments += len(cutter.segments)
    spawn(SETUP_SPAWNS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = median(scaled)
    detail.update(
        run_s_raw_each=raw,
        run_s_scaled_each=scaled,
        setup_s_raw_each=setup_raw,
        setup_s_scaled_each=setup,
        calibration={
            "reference_slice_s": REFERENCE_SLICE_S,
            "slices": len(clock.slices),
            "median_slice_s": median(clock.slices),
            "segments": segments,
        },
        points_per_command=runner.points_per_command,
    )
    return {
        "setup_s": {"value": median(setup), "unit": "s"},
        "run_s": {"value": run_s, "unit": "s"},
        "points_per_s": {"value": runner.points_per_command / run_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def traced(runner: Runner, modules, argv, seed: int, seconds: float, detail: dict) -> dict:
    wl = runner.workload
    tracer = Tracer()
    pivots: list[float] = []
    point_ms: dict = defaultdict(list)

    def keep_pivot(result, _seconds):
        if result.min_rel_pivot is not None:
            pivots.append(result.min_rel_pivot)

    def keep_point(record, sec):
        point_ms[record["case"]].append(sec * 1000.0)

    probes = [(modules[mod], attr, tracer.wrap(layer, getattr(modules[mod], attr))) for layer, mod, attr in PROBES]
    probes += rank_sites(modules, lambda fn: tracer.wrap("qmat.real_rank", fn, keep_pivot))
    cli, frames = modules["cli"], modules["frames"]
    probes.append((cli, "_verify_one", tracer.wrap("cli.verify_one", cli._verify_one, keep_point)))
    probes += [
        (frames, attr, tracer.wrap(f"frames.identity.{attr[len('identity_'):]}", fn))
        for attr, fn in identity_entries(frames)
    ]

    plain, with_trace, pooled = [], [], []
    t_start = time.perf_counter()
    last = 0.0
    while keep_going(len(with_trace), 1, t_start, seconds, last):
        t0 = time.perf_counter()
        plain.append(runner.run(argv))
        with patched(probes):
            with_trace.append(runner.run(argv))
        if wl.command == "verify":
            pooled.append(runner.run(wl.argv(seed, jobs=POOL_JOBS)))
        last = time.perf_counter() - t0

    n = len(with_trace)
    layers = tracer.layers
    metrics = {f"{layer}.self_s": (layers[layer].self_s / n, "s") for layer in SELF_TIME_LAYERS}
    metrics["qmat.real_rank.calls"] = (layers["qmat.real_rank"].calls / n, "count")
    metrics["qmat.real_rank.min_rel_pivot"] = (min(pivots) if pivots else 0.0, "ratio")
    for case in POINT_MS_CASES:
        metrics[f"frames.point_ms.{case}.p50"] = (percentile(point_ms[case], 50), "ms")
        metrics[f"frames.point_ms.{case}.p99"] = (percentile(point_ms[case], 99), "ms")
    for name in IDENTITY_ENTRIES:
        metrics[f"frames.identity.{name}.s"] = (layers[f"frames.identity.{name}"].total_s / n, "s")
    metrics["trace.overhead_share"] = (min(with_trace) / min(plain) - 1.0, "ratio")

    products = Counter()
    if wl.command == "verify":
        quat_cls = modules["quat"].Quaternion
        counters = [
            (quat_cls, "__mul__", counting(products, "mul", quat_cls.__mul__)),
            (quat_cls, "__init__", counting(products, "new", quat_cls.__init__)),
        ]
        with patched(counters):
            runner.run(argv)
    per_point = wl.samples or 1
    metrics["quat.mul.per_point"] = (products["mul"] / per_point, "count")
    metrics["quat.new.per_point"] = (products["new"] / per_point, "count")

    spawn = [pool_spawn_seconds(cli) for _ in range(3)] if wl.command == "verify" else []
    metrics["cli.pool.speedup_j2"] = (min(plain) / min(pooled) if pooled else 0.0, "ratio")
    metrics["cli.pool.spawn_s"] = (median(spawn), "s")
    detail.update(
        plain_s_each=plain, traced_s_each=with_trace, jobs2_s_each=pooled, pool_spawn_s_each=spawn
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def pool_spawn_seconds(cli) -> float:
    """Start the worker pool `verify --jobs 2` uses, give each worker a
    trivial task, and shut it down."""
    t0 = time.perf_counter()
    with cli.ProcessPoolExecutor(max_workers=POOL_JOBS) as pool:
        for future in [pool.submit(os.getpid) for _ in range(POOL_JOBS)]:
            future.result()
    return time.perf_counter() - t0


# -- entry point -------------------------------------------------------------------


def import_package():
    if not (SRC / "sp2span" / "__init__.py").is_file():
        raise ImportError(f"no sp2span package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sp2span
    from sp2span import bundle, cli, frames, qmat, quat

    if Path(sp2span.__file__).resolve().parent != SRC / "sp2span":
        raise ImportError(f"sp2span imported from {sp2span.__file__}, not from {SRC}")
    return {"bundle": bundle, "cli": cli, "frames": frames, "qmat": qmat, "quat": quat}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    ap.add_argument("--seconds", type=float, required=True, help="how long to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        modules = import_package()
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import sp2span from the source tree: {exc}\n")
        return 2

    wl = WORKLOADS[args.workload]
    program_seed = derive_seed(args.seed)
    detail = {
        "workload": wl.name,
        "workload_seed": args.seed,
        "program_seed": program_seed if wl.command == "verify" else None,
        "trace": args.trace,
        "environment": environment_stamp(),
    }
    runner = Runner(modules["cli"], wl)
    argv_main = wl.argv(program_seed)
    detail["argv"] = argv_main
    warm = warm_up(runner, modules, argv_main) if wl.command == "verify" else None
    if args.trace:
        metrics = traced(runner, modules, argv_main, program_seed, args.seconds, detail)
    else:
        metrics = end_to_end(runner, modules, argv_main, args.seconds, detail)
    if warm is not None:
        detail["oracle"] = apply_oracle(runner, *warm)
        detail["case_tally"] = runner.reference_tally
    self_tests = {
        "gate": gate_self_test(modules["cli"], program_seed),
        "seed": seed_self_test(runner, modules["bundle"], args.seed),
    }
    detail["self_tests"] = self_tests
    detail["environment"]["load_avg_end"] = list(os.getloadavg())
    detail["failed_share"] = runner.failed_share
    detail["problems"] = runner.problems[:20]
    correct = runner.failed == 0 and not runner.problems and all(t["ok"] for t in self_tests.values())
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
