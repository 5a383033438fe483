"""The names perfbench/run.py looks up in the package must keep resolving.

The benchmark wraps package attributes by name from outside src/ (tracing
probes, segment cuts, identity entries, the worker pool).  A missing name
fails its traced run at patch time, so a refactor that renames one would
break `perfbench/run.py --trace 1` without any other test noticing.  The
benchmark modules (run.py, gate.py) are loaded as they are, without
running an entry point.  The names its correctness gate observes must also
still be called, once per sample or per rank, as the gate expects, with
rank inputs its oracle re-ranks.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sp2span import bundle, cli, frames, qmat, quat

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"bundle": bundle, "cli": cli, "frames": frames, "qmat": qmat, "quat": quat}


def _load(name):
    # run.py imports its sibling modules by plain name, and its dataclasses
    # look their module up in sys.modules while it loads.
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def run_module():
    return _load("run")


@pytest.fixture(scope="module")
def gate_module():
    return _load("gate")


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
def test_gate_observes_every_point(monkeypatch, gate_module, backend, samples):
    # The gate wraps these names to count a case per sample (cli._verify_one),
    # to collect the seed self-test's points (bundle.random_sp2) and to take
    # the oracle's rank inputs (frames.real_rank); the trace probe
    # bundle.sample and the segment hooks wrap the two samplers by name.  A
    # refactor that stopped calling them through the module attribute would
    # leave the oracle nothing to check and the trace blind.  The rank
    # inputs are one scalar type per backend (the float64 entries of the
    # kernel's block rows, or the exact kernel's integer rows), and the
    # gate's own oracle re-ranks every one of them.
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
        result = real_rank(rows, *args, **kwargs)
        ranks.append((rows, result.rank))
        return result

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
    assert [(len(rows), rank) for rows, rank in ranks] == [(13, 10), (7, 7)] * samples
    scalar = np.float64 if backend == "float" else int
    assert all(type(x) is scalar for rows, _ in ranks for row in rows for x in row)
    assert gate_module.oracle_rerank(ranks, backend) == (2 * samples, 0, [])
    # the oracle ranks the rows itself: a wrong program rank is caught
    (rows, rank), *_ = ranks
    assert gate_module.oracle_rerank([(rows, rank - 1)], backend)[1] == 1
