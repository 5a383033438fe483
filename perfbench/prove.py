"""Steadiness check for the benchmark: run every workload once per seed and
report, for each metric, the median and the spread (third quartile minus
first quartile, as a share of the median) against the bound that
BENCHMARK.json fixes.  Seeds run from 1, and every run measures for
BENCHMARK.json's run_seconds.

    python3 perfbench/prove.py --seeds 10                 # end-to-end metrics
    python3 perfbench/prove.py --seeds 5 --workloads exact-cycle
    python3 perfbench/prove.py --seeds 3 --trace 1        # per-layer metrics

Run from the repository root.  Runs go one at a time, seed by seed across
the workloads.  Exits 1 if a run fails, reports incorrect results, prints
other metrics than BENCHMARK.json declares, or a spread exceeds its bound.
`--out FILE` also writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / abs(mid) if mid else 0.0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    if args.seeds < 2:
        ap.error("--seeds must be at least 2")

    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    values = {w: {name: [] for name in declared} for w in args.workloads}
    ok = True
    stamp = None
    for seed in range(1, args.seeds + 1):
        for workload in args.workloads:
            detail, result = run_once(workload, seed, bench["run_seconds"], args.trace)
            stamp = stamp or detail["environment"]
            if not result["correct"] or result["failed"]:
                print(f"INCORRECT {workload} seed {seed}: {detail['problems'][:3]}")
                ok = False
            if set(result["metrics"]) != set(declared):
                print(f"METRIC NAMES differ on {workload}: {set(result['metrics']) ^ set(declared)}")
                ok = False
            for name, metric in result["metrics"].items():
                if name in declared and metric["unit"] != declared[name]["unit"]:
                    print(f"UNIT of {name} is {metric['unit']}, declared {declared[name]['unit']}")
                    ok = False
                values[workload].setdefault(name, []).append(metric["value"])
            shown = {name: round(m["value"], 4) for name, m in result["metrics"].items() if name in declared}
            print(f"{workload} seed {seed}: {shown}", flush=True)

    summary = {"environment": stamp, "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload, metrics in values.items():
        print(f"\n{workload}")
        rows = summary["workloads"][workload] = {}
        for name, vals in metrics.items():
            mid, q1, q3, share = spread(vals)
            bound = declared.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if share < bound / 3 else ("WIDE" if share <= bound else "OVER")
                ok &= share <= bound
            rows[name] = {"median": mid, "q1": q1, "q3": q3, "spread": share, "bound": bound}
            print(f"  {name:42s} median {mid:12.6g}  spread {share:7.3%}  bound {bound}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
