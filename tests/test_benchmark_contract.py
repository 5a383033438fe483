"""The names perfbench/run.py looks up in the package must keep resolving.

The benchmark wraps package attributes by name from outside src/ (tracing
probes, segment cuts, identity entries, the worker pool).  A missing name
fails its traced run at patch time, so a refactor that renames one would
break `perfbench/run.py --trace 1` without any other test noticing.  The
benchmark module is loaded as it is, without running its entry point.
The names its correctness gate observes must also still be called, once
per sample or per rank, as the gate expects.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sp2span import bundle, cli, frames, qmat, quat

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"bundle": bundle, "cli": cli, "frames": frames, "qmat": qmat, "quat": quat}


@pytest.fixture(scope="module")
def run_module():
    # run.py imports its sibling modules by plain name, and its dataclasses
    # look their module up in sys.modules while it loads.
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return module


def test_probe_targets_resolve(run_module):
    assert run_module.PROBES
    for layer, mod, attr in run_module.PROBES:
        assert callable(getattr(MODULES[mod], attr, None)), f"{layer}: {mod}.{attr} is gone"


def test_segment_hooks_resolve(run_module):
    assert run_module.SEGMENT_HOOKS
    for mod, attr in run_module.SEGMENT_HOOKS:
        assert callable(getattr(MODULES[mod], attr, None)), f"{mod}.{attr} is gone"


def test_identity_entries_resolve(run_module):
    assert run_module.IDENTITY_ENTRIES
    for name in run_module.IDENTITY_ENTRIES:
        assert callable(getattr(frames, f"identity_{name}", None)), f"frames.identity_{name} is gone"


def test_worker_and_pool_resolve():
    assert callable(cli._verify_one)
    assert callable(cli.ProcessPoolExecutor)


def test_counted_quaternion_methods_are_own():
    # run.py wraps Quaternion.__mul__ and __init__ to count quat.mul.per_point
    # and quat.new.per_point; both must stay defined on the class itself.
    assert "__mul__" in quat.Quaternion.__dict__
    assert "__init__" in quat.Quaternion.__dict__


@pytest.mark.parametrize("backend,samples", [("float", 4), ("exact", 8)])
def test_gate_observes_every_point(monkeypatch, backend, samples):
    # The gate wraps these names to count a case per sample (cli._verify_one),
    # to collect the seed self-test's points (bundle.random_sp2) and to take
    # the oracle's rank inputs (frames.real_rank); the trace probe
    # bundle.sample and the segment hooks wrap the two samplers by name.  A
    # refactor that stopped calling them through the module attribute would
    # leave the oracle nothing to check and the trace blind.
    indices, draws, exact_draws, ranks = [], [], [], []
    verify_one, random_sp2, real_rank = cli._verify_one, bundle.random_sp2, frames.real_rank
    exact_random_point = bundle.exact_random_point

    def seen_verify_one(args):
        indices.append(args[0])
        return verify_one(args)

    def seen_random_sp2(*args, **kwargs):
        p = random_sp2(*args, **kwargs)
        draws.append(p)
        return p

    def seen_exact_random_point(*args, **kwargs):
        p = exact_random_point(*args, **kwargs)
        exact_draws.append(p)
        return p

    def seen_real_rank(vectors, *args, **kwargs):
        rows = [list(v) for v in vectors]
        ranks.append(rows)
        return real_rank(rows, *args, **kwargs)

    monkeypatch.setattr(cli, "_verify_one", seen_verify_one)
    monkeypatch.setattr(bundle, "random_sp2", seen_random_sp2)
    monkeypatch.setattr(bundle, "exact_random_point", seen_exact_random_point)
    monkeypatch.setattr(frames, "real_rank", seen_real_rank)
    argv = ["verify", "--backend", backend, "--samples", str(samples), "--seed", "5"]
    assert cli.main(argv + ["--emit", "json"]) == 0
    assert indices == list(range(samples))
    assert len(draws) == (samples if backend == "float" else 0)
    assert len(exact_draws) == (samples if backend == "exact" else 0)
    assert all(isinstance(p, qmat.Sp2Point) for p in draws + exact_draws)
    assert [len(rows) for rows in ranks] == [13, 7] * samples
    scalar = float if backend == "float" else Fraction
    assert all(type(x) is scalar for rows in ranks for row in rows for x in row)
