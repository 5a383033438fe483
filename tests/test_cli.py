"""CLI behavior: exit codes, report schema, determinism across worker
counts, the corruption hook, the ignored environment, and input rejection."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fractions import Fraction

import sp2span
from sp2span import bundle, cli, frames
from sp2span.cli import build_parser, main
from sp2span.qmat import QMat2, Sp2Alg, Sp2Point
from sp2span.quat import EXACT, FLOAT, one, quat

from conftest import cayley_sp2, canonical_json
from test_golden import GOLDEN
from test_kernel import FAMILIES


def test_verify_float_small(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["verify", "--samples", "40", "--seed", "11", "--emit", "json", "--out", str(out)]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == 1
    assert rep["pass"] is True
    assert rep["samples"] == 40
    assert sum(rep["case_tally"].values()) == 40
    assert rep["failures"] == []
    assert rep["min_rel_pivot"] > 0
    assert rep["negative_control_max_rank"] == 7


def test_verify_exact_small(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [
            "verify",
            "--samples",
            "16",
            "--seed",
            "5",
            "--backend",
            "exact",
            "--emit",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["exact_certified"] == 16
    assert rep["min_rel_pivot"] is None
    assert sum(rep["case_tally"].values()) == 16


def test_verify_deterministic_across_jobs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--samples", "120", "--seed", "7", "--jobs", "1", "--emit", "json", "--out", str(a)]) == 0
    assert main(["verify", "--samples", "120", "--seed", "7", "--jobs", "2", "--emit", "json", "--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert canonical_json(ra) == canonical_json(rb)


def test_seeds_draw_disjoint_points(tmp_path, monkeypatch):
    # Each sample is keyed by the pair (seed, index), so two seeds share no
    # point.  Seeds 3 and 7 because a key such as seed XOR index would give
    # them the same 1000 points.
    draw = bundle.random_sp2
    drawn = {3: set(), 7: set()}
    for seed, seen in drawn.items():

        def keep(key, *args, seen=seen):
            p = draw(key, *args)
            seen.add(json.dumps(p.to_json(), sort_keys=True))
            return p

        monkeypatch.setattr(bundle, "random_sp2", keep)
        out = tmp_path / f"s{seed}.json"
        assert main(["verify", "--samples", "1000", "--seed", str(seed), "--emit", "json", "--out", str(out)]) == 0
    assert len(drawn[3]) == len(drawn[7]) == 1000
    assert not drawn[3] & drawn[7]


def test_corrupt_frame_hook_exits_1(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [
            "verify",
            "--samples",
            "3",
            "--seed",
            "3",
            "--corrupt-frame",
            "ell_i",
            "--emit",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["pass"] is False
    assert rep["failures"]
    assert all("point" in f for f in rep["failures"])


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_verify_serializes_only_failing_points(tmp_path, monkeypatch, backend):
    # A passing record keeps no point, so verify serializes none; each failure
    # record carries its point, which replays through `frame` (the full,
    # uncorrupted frame) to the case the record names.
    calls = []
    to_json = Sp2Point.to_json

    def counted(self):
        calls.append(self)
        return to_json(self)

    monkeypatch.setattr(Sp2Point, "to_json", counted)
    common = ["verify", "--backend", backend, "--seed", "4", "--emit", "json", "--out"]
    assert main(common + [str(tmp_path / "ok.json"), "--samples", "8"]) == 0
    assert calls == []
    bad = tmp_path / "bad.json"
    assert main(common + [str(bad), "--samples", "3", "--corrupt-frame", "ell_i"]) == 1
    assert len(calls) == 3
    for rec in json.loads(bad.read_text())["failures"]:
        point_file = tmp_path / f"p{rec['index']}.json"
        point_file.write_text(json.dumps({"backend": backend, "p": rec["point"]}))
        frame_out = tmp_path / f"f{rec['index']}.json"
        assert main(["frame", str(point_file), "--emit", "json", "--out", str(frame_out)]) == 0
        replay = json.loads(frame_out.read_text())
        assert replay["case"] == rec["case"] and replay["rank"] == 10 and replay["pass"] is True


def test_error_records(tmp_path, monkeypatch):
    # A point whose draw or check raises becomes an error record: in verify
    # a failure with case "error", no ranks and no point (the draw never
    # returned one), counted as "error" in the tally; in special-sweep a
    # failure with its point, left out of the family's case tally.
    random_sp2, check_point = bundle.random_sp2, frames.check_point

    def draw(key):
        if key % (1 << 64) == 2:
            raise bundle.DegenerateDraw("no usable draw (test)")
        return random_sp2(key)

    monkeypatch.setattr(bundle, "random_sp2", draw)
    out = tmp_path / "v.json"
    assert main(["verify", "--samples", "4", "--seed", "1", "--emit", "json", "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["case_tally"] == {"I-a": 3, "error": 1}
    assert rep["failures"] == [
        {
            "index": 2,
            "case": "error",
            "ok": False,
            "rank": None,
            "neg_rank": None,
            "min_rel_pivot": None,
            "problems": ["DegenerateDraw: no usable draw (test)"],
            "point": None,
        }
    ]
    assert rep["negative_control_max_rank"] == 7 and rep["min_rel_pivot"] > 0

    broken = bundle.grid_ir(3)[1]

    def check(p, tol=1e-9, drop_label=None):
        if p == broken:
            raise bundle.DegenerateDraw("check failed (test)")
        return check_point(p, tol, drop_label)

    monkeypatch.setattr(frames, "check_point", check)
    out = tmp_path / "s.json"
    assert main(["special-sweep", "--samples", "3", "--emit", "json", "--out", str(out)]) == 1
    families = {f["name"]: f for f in json.loads(out.read_text())["families"]}
    assert all(f["pass"] for name, f in families.items() if name != "I-r")
    ir = families["I-r"]
    assert ir["pass"] is False and ir["count"] == 3 and ir["cases"] == {"I-r": 2}
    assert ir["failures"] == [
        {"index": 1, "problems": ["DegenerateDraw: check failed (test)"], "point": broken.to_json()}
    ]


def test_corrupt_frame_unknown_label_exits_2():
    # A label that names no frame row would corrupt nothing and pass.
    for label in ("no_such_row", "U_j"):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--samples", "3", "--corrupt-frame", label])
        assert err.value.code == 2


def test_special_sweep(tmp_path):
    out = tmp_path / "s.json"
    code = main(["special-sweep", "--samples", "6", "--emit", "json", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    names = [f["name"] for f in rep["families"]]
    assert names == ["I-a", "I-b-nonquarter", "I-b-quarter-exact", "I-b-quarter-float", "I-r", "II"]
    skipped = [f for f in rep["families"] if f.get("skipped")]
    assert len(skipped) == 1 and skipped[0]["name"] == "I-b-quarter-exact"
    assert "impossible" in skipped[0]["reason"]


def test_special_sweep_case_check_can_fail(tmp_path, monkeypatch):
    # I-a points in the I-r family: each is checked, classified I-a and
    # reported against the family's expected case, and the command exits 1.
    monkeypatch.setattr(bundle, "grid_ir", bundle.grid_ia)
    out = tmp_path / "s.json"
    assert main(["special-sweep", "--samples", "3", "--emit", "json", "--out", str(out)]) == 1
    families = {f["name"]: f for f in json.loads(out.read_text())["families"]}
    ir = families.pop("I-r")
    assert ir["pass"] is False and ir["cases"] == {"I-a": 3}
    assert [f["problems"] for f in ir["failures"]] == [["classified I-a, expected one of ['I-r']"]] * 3
    assert all(f["pass"] for f in families.values())


def test_standard_sphere_exact(tmp_path, capsys):
    code = main(["standard-sphere"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rank: 10" in out
    assert "PASS" in out


def test_module_entry_point():
    # `python -m sp2span` runs main: the exact standard-sphere report equals
    # its golden text, and standard-sphere takes no --tol (its rows are the
    # integers 0, +-1 and +-2).
    env = dict(os.environ, PYTHONPATH=str(Path(sp2span.__file__).resolve().parent.parent))
    argv = [sys.executable, "-m", "sp2span", "standard-sphere"]
    run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / "standard-sphere-exact.txt").read_text()
    run = subprocess.run(argv + ["--tol", "1e-9"], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2 and "--tol" in run.stderr


def test_frame_subcommand(tmp_path):
    p = bundle.exact_random_point(55, case="I-b")
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps({"backend": "exact", "p": p.m.to_json()}))
    out = tmp_path / "f.json"
    code = main(["frame", str(pt), "--emit", "json", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["case"] == "I-b-nonquarter"
    assert rep["backend"] == "exact"
    assert rep["rank"] == 10
    assert len(rep["matrices"]) == 13
    assert all(set(m) == {"label", "paper_eq", "m"} for m in rep["matrices"])
    # the point file names the backend; frame takes no --backend
    with pytest.raises(SystemExit) as err:
        main(["frame", str(pt), "--backend", "exact"])
    assert err.value.code == 2


def test_frame_accepts_raw_exact_point(tmp_path):
    # A rational Cayley point whose v = x w^-1 leaves span{1, i}: no
    # rational fiber rotation normalizes it, and none is needed.
    third = Fraction(1, 3)
    b = quat(1, third, 2, -1, backend=EXACT)
    s = Sp2Alg(QMat2(quat(0, third, 0, 1, backend=EXACT), b, -b.conj(), quat(0, 0, third, -1, backend=EXACT)))
    p = cayley_sp2(s)
    v = p.x * p.w.inverse()
    assert v.h2 != 0 or v.h3 != 0
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps({"backend": "exact", "p": p.m.to_json()}))
    out = tmp_path / "f.json"
    code = main(["frame", str(pt), "--emit", "json", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True and rep["rank"] == 10 and rep["case"] == "I-a"


def test_frame_rejects_malformed_json(tmp_path):
    pt = tmp_path / "bad.json"
    pt.write_text("{ not json")
    assert main(["frame", str(pt)]) == 2


def test_frame_rejects_missing_file(tmp_path):
    assert main(["frame", str(tmp_path / "absent.json")]) == 2


def test_frame_rejects_non_finite_floats(tmp_path, capsys):
    # json reads NaN and Infinity; the parser refuses them with its own
    # message, before the p p* = Id check would.
    blob = bundle.random_sp2(7).to_json()
    slots = [(entry, c) for entry in "abcd" for c in range(4)]
    bad = [float("nan"), float("inf"), float("-inf"), 10**400]
    pt = tmp_path / "pt.json"
    for entry, c in slots:
        for value in bad:
            doctored = {**blob, entry: list(blob[entry])}
            doctored[entry][c] = value
            pt.write_text(json.dumps({"backend": "float", "p": doctored}))
            assert main(["frame", str(pt)]) == 2, (entry, c, value)
            assert "must be finite" in capsys.readouterr().err
    pt.write_text('{"backend": "float", "p": {"a": [' + "1" * 5000 + ", 0, 0, 0]}}")
    assert main(["frame", str(pt)]) == 2


def test_frame_rejects_an_exact_point_too_large_for_a_float(tmp_path, capsys):
    # The deviation from Sp(2) is reported as inf instead of crashing on
    # float(Fraction) with OverflowError.
    blob = bundle.exact_random_point(7).to_json()
    blob["a"] = ["1" + "0" * 400] + blob["a"][1:]
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps({"backend": "exact", "p": blob}))
    assert main(["frame", str(pt)]) == 2
    assert "p p* deviates from Id by inf" in capsys.readouterr().err


def test_unwritable_out_fails_before_sampling(tmp_path, monkeypatch):
    # The --out file is opened before the command runs, as a shell
    # redirection is, so a bad path costs no sweep.
    draws = []
    draw = bundle.random_sp2

    def counted(key, *args):
        draws.append(key)
        return draw(key, *args)

    monkeypatch.setattr(bundle, "random_sp2", counted)
    assert main(["verify", "--samples", "50", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    assert draws == []


def test_jobs_start_at_most_one_worker_per_sample_and_cpu(tmp_path, monkeypatch):
    # Each worker of a fork pool starts at the first submit, so --jobs is
    # capped by the sample count and the CPU count; one worker runs in process.
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    reports = {}
    for samples, jobs in ((2, 500), (6, 500), (6, 3), (1, 500), (6, 1)):
        out = tmp_path / f"r{samples}-{jobs}.json"
        argv = ["verify", "--samples", str(samples), "--seed", "9", "--jobs", str(jobs), "--emit", "json"]
        assert main(argv + ["--out", str(out)]) == 0
        reports[samples, jobs] = canonical_json(json.loads(out.read_text()))
    assert started == [2, 4, 3]
    assert reports[6, 500] == reports[6, 3] == reports[6, 1]


ENVELOPE_ARGV = {
    "verify": ["verify", "--samples", "2", "--seed", "1"],
    "special-sweep": ["special-sweep", "--samples", "1"],
    "identities": ["identities"],
    "standard-sphere": ["standard-sphere"],
    "frame": ["frame"],
}


@pytest.mark.parametrize("command", sorted(ENVELOPE_ARGV))
def test_report_envelope(command, tmp_path, monkeypatch, identity_results):
    # main adds the shared keys to every report, and the exit code and the
    # last text line both follow `pass`.
    monkeypatch.setattr(frames, "run_identity_suite", lambda: identity_results)
    argv = list(ENVELOPE_ARGV[command])
    if command == "frame":
        point = tmp_path / "pt.json"
        point.write_text(json.dumps({"backend": "exact", "p": bundle.exact_random_point(3).m.to_json()}))
        argv.append(str(point))
    js, text = tmp_path / "r.json", tmp_path / "r.txt"
    code = main(argv + ["--emit", "json", "--out", str(js)])
    assert main(argv + ["--out", str(text)]) == code
    rep = json.loads(js.read_text())
    assert rep["schema"] == 1 and rep["command"] == command
    assert isinstance(rep["pass"], bool) and isinstance(rep["elapsed_s"], float)
    assert code == (0 if rep["pass"] else 1)
    last = text.read_text().splitlines()[-1]
    assert last.startswith("PASS" if rep["pass"] else "FAIL")


def test_frame_refuses_out_that_is_the_point_file(tmp_path, monkeypatch, capsys):
    # Opening --out for the report would truncate the point before it is
    # read; the same file is refused however it is named, and left as it was.
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps({"backend": "exact", "p": bundle.exact_random_point(7).m.to_json()}))
    before = pt.read_bytes()
    (tmp_path / "link.json").symlink_to(pt)
    monkeypatch.chdir(tmp_path)
    for out in (str(pt), "pt.json", "./pt.json", "link.json"):
        assert main(["frame", "pt.json", "--out", out]) == 2
        assert pt.read_bytes() == before
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --out ")
    # a missing point file named as --out too is not created
    assert main(["frame", "absent.json", "--out", "absent.json"]) == 2
    assert not (tmp_path / "absent.json").exists()
    assert main(["frame", "pt.json", "--out", "report.txt"]) == 0
    assert pt.read_bytes() == before


def test_unwritable_out_exits_2(tmp_path, capsys):
    # A report that cannot be written is bad usage (2), not a failed check (1).
    out = tmp_path / "missing" / "r.json"
    assert main(["standard-sphere", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["verify", "--samples", "2", "--out", str(out)]) == 2
    assert not out.exists()


def test_frame_rejects_non_symplectic(tmp_path):
    pt = tmp_path / "pt.json"
    pt.write_text(
        json.dumps(
            {
                "backend": "exact",
                "p": {
                    "a": ["1", "0", "0", "0"],
                    "b": ["0", "0", "0", "0"],
                    "c": ["0", "0", "0", "0"],
                    "d": ["2", "0", "0", "0"],
                },
            }
        )
    )
    assert main(["frame", str(pt)]) == 2


def test_frame_rejects_missing_backend_key(tmp_path):
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps({"p": {}}))
    assert main(["frame", str(pt)]) == 2


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--backend", "bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "--samples", "0"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    for argv in (
        ["verify", "--tol", "0"],
        ["verify", "--tol", "nan"],
        ["verify", "--tol", "1e-15"],
        ["verify", "--jobs", "0"],
        ["special-sweep", "--samples", "0"],
        ["standard-sphere", "--backend", "bogus"],
        ["standard-sphere", "--backend", "exact"],
        ["identities", "--tol", "1e-9"],
        ["standard-sphere", "--tol", "1e-9"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


@pytest.mark.parametrize("tol", ["1e300", "inf", "0.5", "2e-3"])
def test_tol_above_ceiling_exits_2(capsys, tol):
    # Before the ceiling: 1e300 overflowed in the case-II cut (a traceback),
    # inf labeled every Haar point II, and 0.5 failed valid I-a points.
    for command in ("verify", "special-sweep"):
        with pytest.raises(SystemExit) as err:
            main([command, "--tol", tol])
        assert err.value.code == 2, (command, tol)
        assert f"must be between {cli.MIN_TOL:g} and {cli.MAX_TOL:g}, got {tol}" in capsys.readouterr().err


def test_float_families_pass_at_the_tol_ceiling(tmp_path):
    # At MAX_TOL the span check passes on the Haar, boundary and quarter
    # families and next to the case-II cut, and Haar points keep their I-a
    # label (at 1e-2 five of 20000 were labeled I-b).
    out = tmp_path / "r.json"
    argv = ["verify", "--samples", "300", "--seed", "3", "--tol", str(cli.MAX_TOL)]
    assert main(argv + ["--emit", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["case_tally"] == {"I-a": 300}
    for family in FAMILIES.values():
        for p in family():
            assert frames.check_point(p, cli.MAX_TOL).ok
    c = quat(0.6, 0.0, 0.8, 0.0, backend=FLOAT)
    for r, below in ((0.9 * cli.MAX_TOL / 4, True), (1.1 * cli.MAX_TOL / 4, False)):
        for v in (c.scale(r), c.scale(1 / r)):
            w0 = quat(1.0 / (1.0 + v.norm_sq()) ** 0.5, backend=FLOAT)
            res = frames.check_point(bundle.fiber_point(v, w0, one(FLOAT), one(FLOAT)), cli.MAX_TOL)
            assert res.ok and (res.case == frames.CASE_II) == below


def test_env_backend_default(tmp_path, monkeypatch):
    # --backend alone sets the backend; the environment is not read.
    monkeypatch.setenv("SP2_BACKEND", EXACT)
    out = tmp_path / "r.json"
    code = main(["verify", "--samples", "4", "--seed", "1", "--emit", "json", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["backend"] == "float"
    assert build_parser().parse_args(["verify"]).backend == "float"


def test_text_emit_prints_summary(capsys):
    code = main(["verify", "--samples", "5", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "case tally" in out


def test_run_config_defaults():
    ns = build_parser().parse_args(["verify"])
    assert ns.samples == 1000 and ns.jobs == 1 and ns.emit == "text"


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("verify", "special-sweep", "identities", "standard-sphere", "frame"):
        assert name in text


def test_identities_json(tmp_path, monkeypatch, identity_results):
    # The suite runs once per test session (the identity_results fixture,
    # also read by acceptance criterion 4); here only the report the CLI
    # builds from it.
    monkeypatch.setattr(frames, "run_identity_suite", lambda: identity_results)
    out = tmp_path / "i.json"
    code = main(["identities", "--emit", "json", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert code == 0
    assert rep["pass"] is True
    names = [r["name"] for r in rep["results"]]
    assert len(names) == len(set(names)) >= 13
    assert all(r["status"] == "OK" for r in rep["results"])


def _doubled_basis(right):
    return lambda arg: tuple(Sp2Alg(u.m.scale(2), validate=False) for u in right(arg))


# an input that an entry compares with direct algebra -> (a wrong version
# of it, made from the right one, and that entry)
WRONG_INPUTS = {
    "c0i_matrix": (lambda right: lambda v: right(v).scale(2), frames.identity_case_commutators),
    "ui_display": (lambda right: lambda v: right(v).scale(2), frames.identity_u_displays),
    "t11_closed": (lambda right: lambda v: right(v).scale(3), frames.identity_t_closed_forms),
    "case_ii_basis": (_doubled_basis, frames.identity_standard_commutators),
    "u_basis": (_doubled_basis, frames.identity_ib_adjoints),
}


@pytest.mark.parametrize("name", sorted(WRONG_INPUTS))
def test_every_printed_form_entry_can_fail(monkeypatch, identity_results, name):
    # An entry that compares direct brackets with a printed form fails when
    # that form is wrong, and `identities` then exits 1.  The CLI reports
    # the session's suite with this one entry rerun on the wrong input.
    wrong, entry = WRONG_INPUTS[name]
    monkeypatch.setattr(frames, name, wrong(getattr(frames, name)))
    res = entry()
    assert res.status == frames.FAIL and res.worst > 0
    suite = [res if r.name == res.name else r for r in identity_results]
    assert suite.count(res) == 1
    monkeypatch.setattr(frames, "run_identity_suite", lambda: suite)
    assert main(["identities"]) == 1
