"""Golden reports: exact commands whose text output and canonical JSON are
frozen under tests/golden/, so a change to the CLI that alters a report
fails here instead of in a manual diff.  Only exact commands are frozen:
float pivots move in their last bits whenever the order of the float
arithmetic changes.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import canonical_json
from sp2span import bundle, frames
from sp2span.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, the exact_random_point (key, case) that `frame` reads, or None)
COMMANDS = {
    "standard-sphere-exact": (["standard-sphere"], None),
    "verify-exact-16-seed5": (["verify", "--backend", "exact", "--samples", "16", "--seed", "5"], None),
    "verify-exact-16-seed5-corrupt-u0": (
        ["verify", "--backend", "exact", "--samples", "16", "--seed", "5", "--corrupt-frame", "u0"],
        None,
    ),
    "verify-exact-16-seed5-corrupt-ell_i": (
        ["verify", "--backend", "exact", "--samples", "16", "--seed", "5", "--corrupt-frame", "ell_i"],
        None,
    ),
    "verify-exact-16-seed5-corrupt-u_j-u_k": (
        ["verify", "--backend", "exact", "--samples", "16", "--seed", "5", "--corrupt-frame", "[u_j,u_k]"],
        None,
    ),
    "frame-exact-I-a": (["frame"], (101, None)),
    "frame-exact-I-b": (["frame"], (102, "I-b")),
    "frame-exact-I-r": (["frame"], (103, "I-r")),
    "frame-exact-II-x0": (["frame"], (104, "II-x0")),
    "frame-exact-II-w0": (["frame"], (105, "II-w0")),
    "identities": (["identities"], None),
}


def run(name: str, workdir: Path):
    """(exit code, text output, canonical JSON) of the named command."""
    argv, point = COMMANDS[name]
    argv = list(argv)
    if point is not None:
        p = bundle.exact_random_point(*point)
        point_file = workdir / f"{name}.point.json"
        point_file.write_text(json.dumps({"backend": "exact", "p": p.m.to_json()}))
        argv.append(str(point_file))
    text_out, json_out = workdir / f"{name}.txt", workdir / f"{name}.json"
    code = main(argv + ["--out", str(text_out)])
    assert main(argv + ["--emit", "json", "--out", str(json_out)]) == code
    return code, text_out.read_text(), canonical_json(json.loads(json_out.read_text())) + "\n"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(name, tmp_path, monkeypatch, request):
    if name == "identities":
        # the suite runs once per test session (conftest's identity_results)
        results = request.getfixturevalue("identity_results")
        monkeypatch.setattr(frames, "run_identity_suite", lambda: results)
    code, text, canonical = run(name, tmp_path)
    assert text == (GOLDEN / f"{name}.txt").read_text()
    assert canonical == (GOLDEN / f"{name}.json").read_text()
    assert code == (0 if json.loads(canonical)["pass"] else 1)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in COMMANDS:
            _, text, canonical = run(name, Path(tmp))
            (GOLDEN / f"{name}.txt").write_text(text)
            (GOLDEN / f"{name}.json").write_text(canonical)
            sys.stdout.write(f"wrote {name}\n")
