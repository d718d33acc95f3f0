"""End-to-end tests for the ``stablepairs`` command line interface.

Every invocation goes through :func:`stablepairs.cli.main` in process, so the
exit codes, stdout payloads, and stderr diagnostics asserted here are exactly
what a shell user sees.  Exit code contract: 0 success, 1 mismatch against a
golden file or a failed identity, 2 usage/input error, 3 internal error.
"""

import io
import json
import random
import sys
import time
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import pytest

from stablepairs import series
from stablepairs.cli import main
from stablepairs.equivariant import TrivialWeightError
from stablepairs.localcurve import _POOL_MIN_FIXED_POINTS

FIXTURES = Path(__file__).parent / "fixtures"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_local_p2(path):
    path.write_text(json.dumps({
        "rank": 1, "omega": [1],
        "n0": {"[1]": "1", "[4]": "2"},
        "p0": {"[0]": "1", "[3]": "1"},
        "nmin": {"[1]": "1", "[2]": "1", "[3]": "0"},
    }))
    return path


# -- js: pinned values and validation ------------------------------------------------


def test_js_pinned_values():
    assert run(["js", "--n", "1", "--d", "1"])[:2] == (0, "(1)/(l3)\n")
    assert run(["js", "--n", "3", "--d", "3"])[:2] == (0, "(1/6)/(l3^3)\n")
    assert run(["js", "--n", "5", "--d", "2"])[:2] == (0, "0\n")


def test_js_geometry_flags():
    code, out, _ = run(["js", "--n", "1", "--d", "1",
                        "--l1", "0", "--l2", "-1", "--l3", "-1"])
    assert (code, out) == (0, "(1)/(l1)\n")


def test_js_rejects_non_calabi_yau_degrees():
    code, _, err = run(["js", "--n", "1", "--d", "1",
                        "--l1", "1", "--l2", "1", "--l3", "1"])
    assert code == 2
    assert "Calabi-Yau" in err


def test_js_higher_degree_needs_standard_geometry():
    code, _, _ = run(["js", "--n", "2", "--d", "2",
                      "--l1", "0", "--l2", "-1", "--l3", "-1"])
    assert code == 2


def test_js_closed_method():
    code, out, _ = run(["js", "--n", "2", "--d", "2", "--method", "closed"])
    assert (code, out) == (0, "(1/2)/(l3^2)\n")
    # only defined on the standard geometry ...
    assert run(["js", "--n", "2", "--d", "2", "--method", "closed",
                "--l1", "0", "--l2", "-1", "--l3", "-1"])[0] == 2
    # ... and only when d divides n
    assert run(["js", "--n", "3", "--d", "2", "--method", "closed"])[0] == 2


def test_js_rejects_bad_jobs():
    assert run(["js", "--n", "1", "--d", "1", "--jobs", "0"])[0] == 2


def test_js_audit_text_lists_fixed_points():
    code, out, _ = run(["js", "--n", "1", "--d", "1", "--audit"])
    assert code == 0
    assert out == "(a=0,b=0): (1)/(l3)\n(1)/(l3)\n"


def test_js_json_report():
    code, out, _ = run(["js", "--n", "4", "--d", "2", "--format", "json", "--audit"])
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == "0"
    assert rep["n"] == 4 and rep["d"] == 2
    assert rep["geometry"] == [-1, -1, 0]
    assert rep["fixed_point_count"] == 3
    assert rep["elapsed_ms"] == 0
    assert rep["conjecture_status"] == "match"
    labels = [c["fixed_point"] for c in rep["contributions"]]
    assert labels == ["(2,0)", "(1,1)", "(0,2)"]


def test_js_json_without_audit_has_no_contributions():
    code, out, _ = run(["js", "--n", "1", "--d", "1", "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert "contributions" not in rep
    assert rep["value"] == "(1)/(l3)"


def test_js_timings_flag_reports_measured_time():
    code, out, _ = run(["js", "--n", "1", "--d", "1", "--format", "json",
                        "--timings"])
    assert code == 0
    elapsed = json.loads(out)["elapsed_ms"]
    assert isinstance(elapsed, int) and elapsed >= 0


def test_js_output_is_identical_across_job_counts():
    runs = [run(["js", "--n", "4", "--d", "2", "--format", "json", "--audit",
                 "--jobs", str(j)]) for j in (1, 4)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_js_above_the_pool_gate_starts_no_pool(pool_starts):
    argv = ["js", "--n", "76", "--d", "4", "--format", "json", "--audit"]
    runs = [run(argv + ["--jobs", str(j)]) for j in (1, 2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert json.loads(runs[0][1])["fixed_point_count"] >= _POOL_MIN_FIXED_POINTS
    assert pool_starts == []


def test_verify_above_the_pool_gate_is_identical_across_job_counts(pool_starts):
    runs = [run(["verify", "--d-max", "7", "--ratio-max", "7", "--format", "json",
                 "--jobs", str(j)]) for j in (1, 2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    rows = json.loads(runs[0][1])["rows"]
    assert sum(row["fixed_point_count"] for row in rows) >= _POOL_MIN_FIXED_POINTS
    assert pool_starts == [2]


def test_internal_errors_exit_3(monkeypatch):
    def boom(*args, **kwargs):
        raise TrivialWeightError("synthetic zero weight")

    monkeypatch.setattr("stablepairs.cli.js_invariant_enumerated", boom)
    code, _, err = run(["js", "--n", "1", "--d", "1"])
    assert code == 3
    assert "internal" in err


def test_unexpected_exceptions_exit_3_with_one_line(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic\nfailure")

    monkeypatch.setattr("stablepairs.cli.pt_series_from_gv", boom)
    p2 = write_local_p2(tmp_path / "p2.json")
    code, out, err = run(["series", "pt", "--gv-file", str(p2),
                          "--n-max", "1", "--t", "inf"])
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: synthetic failure\n"


def test_js_pinned_json_text():
    """Canonical JSON reports, audit trail included, as the commit before the
    packed sum printed them."""
    with open(FIXTURES / "pinned_js.json", encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert len(pinned) == 5
    for case in pinned:
        assert run(case["argv"])[:2] == (0, case["stdout"]), case["argv"]


# -- argparse plumbing ---------------------------------------------------------------


def test_missing_required_argument_exits_2():
    assert run(["js", "--n", "1"])[0] == 2


def test_help_exits_0():
    code, out, _ = run(["--help"])
    assert code == 0
    assert "stablepairs" in out


def test_unknown_subcommand_exits_2():
    assert run(["nonsense"])[0] == 2


def test_jobs_default_comes_from_environment(monkeypatch):
    monkeypatch.setenv("STABLEPAIRS_JOBS", "4")
    code, out, _ = run(["js", "--n", "2", "--d", "1"])
    assert (code, out) == (0, "0\n")
    # a bad value is a usage error for the commands that read it, not 1 worker
    for bad in ("not a number", "abc", "0", "-3", "1.5"):
        monkeypatch.setenv("STABLEPAIRS_JOBS", bad)
        for argv in (["js", "--n", "1", "--d", "1"],
                     ["verify", "--d-max", "1", "--ratio-max", "1"]):
            code, out, err = run(argv)
            assert (code, out) == (2, ""), (bad, argv)
            assert "STABLEPAIRS_JOBS" in err and repr(bad) in err
    # an explicit --jobs wins, and other commands ignore the variable
    assert run(["js", "--n", "1", "--d", "1", "--jobs", "1"])[:2] == (0, "(1)/(l3)\n")
    assert run(["residues", "--d", "1"])[0] == 0


# -- golden files --------------------------------------------------------------------


def test_golden_file_bless_then_compare(tmp_path):
    golden = tmp_path / "g.txt"
    code, _, err = run(["js", "--n", "1", "--d", "1", "--golden", str(golden)])
    assert code == 0
    assert "created" in err
    assert golden.read_text() == "(1)/(l3)\n"

    code, _, err = run(["js", "--n", "1", "--d", "1", "--golden", str(golden)])
    assert code == 0
    assert "golden" not in err


def test_golden_comparison_is_semantic_not_textual(tmp_path):
    golden = tmp_path / "g.txt"
    for text in ("(  1 ) / ( l3 )\n", "(2*l0*l3 + 2*l3)/(2*l0*l3^2 + 2*l3^2)\n"):
        golden.write_text(text)
        assert run(["js", "--n", "1", "--d", "1", "--golden", str(golden)])[0] == 0


def test_golden_mismatch_exits_1(tmp_path):
    golden = tmp_path / "g.txt"
    golden.write_text("(1)/(l3)\n")
    code, _, err = run(["js", "--n", "2", "--d", "1", "--golden", str(golden)])
    assert code == 1
    assert "golden" in err


def test_unparseable_golden_exits_2(tmp_path):
    golden = tmp_path / "g.txt"
    golden.write_text("three over ell\n")
    assert run(["js", "--n", "1", "--d", "1", "--golden", str(golden)])[0] == 2
    golden.write_bytes(b"\xff\xfe(1)/(l3)\n")  # not UTF-8
    assert run(["js", "--n", "1", "--d", "1", "--golden", str(golden)])[0] == 2
    golden.write_text("(1)/(0)\n")
    assert run(["js", "--n", "1", "--d", "1", "--golden", str(golden)])[0] == 2


def test_golden_file_is_blessed_whole_or_not_at_all(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("stablepairs.cli.os.replace", fail)
    code, _, err = run(["js", "--n", "1", "--d", "1", "--golden",
                        str(tmp_path / "g.txt")])
    assert code == 3 and "disk full" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["absent/g.txt", "."])
def test_unusable_golden_path_exits_2(tmp_path, where):
    """A golden path in a missing directory, or one naming a directory."""
    golden = tmp_path / where
    code, out, err = run(["js", "--n", "1", "--d", "1", "--golden", str(golden)])
    assert (code, out) == (2, "(1)/(l3)\n")
    assert f"golden file {golden} cannot be used" in err
    assert list(tmp_path.iterdir()) == []


# -- verify --------------------------------------------------------------------------


def test_verify_text_summary():
    code, out, _ = run(["verify", "--d-max", "2", "--ratio-max", "10"])
    assert code == 0
    assert out.endswith("checked 20 invariants: OK\n")


def test_verify_json_report():
    code, out, _ = run(["verify", "--d-max", "1", "--ratio-max", "3",
                        "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["counterexamples"] == []
    assert rep["rows"][0] == {
        "n": 1, "d": 1, "geometry": [-1, -1, 0], "value": "(1)/(l3)",
        "conjecture_status": "match", "fixed_point_count": 1, "elapsed_ms": 0,
    }


def test_verify_checkpoint_resume(tmp_path):
    ck = tmp_path / "rows.jsonl"
    code, out, _ = run(["verify", "--d-max", "2", "--ratio-max", "3",
                        "--checkpoint", str(ck), "--format", "json"])
    assert code == 0
    lines = ck.read_text().strip().splitlines()
    assert len(lines) == 6
    first_report = json.loads(out)

    # complete checkpoint: nothing recomputed or appended, identical report
    code, out, _ = run(["verify", "--d-max", "2", "--ratio-max", "3",
                        "--checkpoint", str(ck), "--format", "json"])
    assert code == 0
    assert json.loads(out) == first_report
    assert ck.read_text().strip().splitlines() == lines

    # partial checkpoint: only the missing rows are appended
    ck.write_text("\n".join(lines[:4]) + "\n")
    code, _, _ = run(["verify", "--d-max", "2", "--ratio-max", "3",
                      "--checkpoint", str(ck)])
    assert code == 0
    resumed = ck.read_text().strip().splitlines()
    assert len(resumed) == 6
    assert resumed[:4] == lines[:4]


FRESH_ROW_1_1 = {"n": 1, "d": 1, "geometry": [-1, -1, 0], "value": "(1)/(l3)",
                 "fixed_point_count": 1, "elapsed_ms": 0, "conjecture_status": "match"}
DROP = "<drop this key>"


@pytest.mark.parametrize("row", [
    {"value": "garbage"},
    {"value": "(2/2)/(l3)"},
    {"value": "(1)/(l3^2)"},
    {"conjecture_status": "counterexample"},
    {"value": "(1)/(0)"},
    {"value": 7},
    {"conjecture_status": DROP},
    {"n": True, "d": True},
    {"n": 1.0},
    {"d": "1"},
    {"n": 0, "d": 0},
    {"n": 3, "d": 2},
    {"fixed_point_count": 999},
    {"fixed_point_count": 1.0},
    {"elapsed_ms": 12345},
    {"elapsed_ms": False},
    {"geometry": [7, 7, 7]},
    {"geometry": [-1.0, -1, 0]},
    {"extra": "x"},
    {"fixed_point_count": 999, "elapsed_ms": 12345, "geometry": [7, 7, 7], "extra": "x"},
    {"value": "(2)/(l3)", "conjecture_status": "counterexample"},
])
def test_verify_checkpoint_rechecks_loaded_rows(tmp_path, row):
    ck = tmp_path / "rows.jsonl"
    good = {**FRESH_ROW_1_1, "n": 2, "value": "0", "fixed_point_count": 2}
    bad = {key: value for key, value in {**FRESH_ROW_1_1, **row}.items() if value != DROP}
    ck.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    before = ck.read_text()
    code, out, err = run(["verify", "--d-max", "1", "--ratio-max", "2",
                          "--checkpoint", str(ck)])
    assert (code, out) == (2, "")
    assert "line 2" in err
    assert ck.read_text() == before


def test_verify_checkpoint_refuses_forged_huge_rows_quickly(tmp_path):
    """A row outside the sweep is refused before anything is built for it:
    neither C(1999999, 10^6), some 40 s to build, nor (10^8)!."""
    ck = tmp_path / "rows.jsonl"
    for n, d, count in ((10**12, 10**6, 1), (10**12, 10**6, 10**4000), (10**8, 10**8, 1)):
        ck.write_text(json.dumps({**FRESH_ROW_1_1, "n": n, "d": d, "value": "0",
                                  "fixed_point_count": count}) + "\n")
        start = time.monotonic()
        code, out, err = run(["verify", "--d-max", "1", "--ratio-max", "1",
                              "--checkpoint", str(ck)])
        assert (code, out) == (2, "") and "line 1" in err
        assert time.monotonic() - start < 2


def test_verify_checkpoint_accepts_a_fresh_row(tmp_path):
    """The base of the rejected rows above is itself accepted, so each of
    them is rejected for the field it changes."""
    ck = tmp_path / "rows.jsonl"
    ck.write_text(json.dumps(FRESH_ROW_1_1) + "\n")
    argv = ["verify", "--d-max", "1", "--ratio-max", "1", "--format", "json"]
    assert run(argv + ["--checkpoint", str(ck)]) == run(argv)
    assert ck.read_text() == json.dumps(FRESH_ROW_1_1) + "\n"


def test_verify_checkpoint_resumes_after_torn_last_line(tmp_path):
    argv = ["verify", "--d-max", "3", "--ratio-max", "3", "--format", "json"]
    fresh = tmp_path / "fresh.jsonl"
    fresh_run = run(argv + ["--checkpoint", str(fresh)])
    assert fresh_run[0] == 0
    lines = fresh.read_text().splitlines(keepends=True)

    torn = tmp_path / "torn.jsonl"
    torn.write_text("".join(lines[:2]) + '{"n": 3, "d": 1, "val')
    assert run(argv + ["--checkpoint", str(torn)]) == fresh_run
    assert torn.read_text() == fresh.read_text()

    # a malformed line that was written whole is still an error
    for line in ('{"n": 3, "d": 1, "val\n', "[" * 100000 + "\n"):
        torn.write_text("".join(lines[:2]) + line)
        code, _, err = run(argv + ["--checkpoint", str(torn)])
        assert code == 2 and "line 3" in err


@pytest.mark.parametrize("where", ["absent/rows.jsonl", "."])
def test_unusable_checkpoint_path_exits_2(tmp_path, where):
    """A checkpoint path in a missing directory, or one naming a directory."""
    ck = tmp_path / where
    code, out, err = run(["verify", "--d-max", "1", "--ratio-max", "1",
                          "--checkpoint", str(ck)])
    assert (code, out) == (2, "")
    assert f"checkpoint {ck} cannot be used" in err
    assert list(tmp_path.iterdir()) == []


# -- residues ------------------------------------------------------------------------


def test_residues_text_summary():
    code, out, _ = run(["residues", "--d", "2"])
    assert code == 0
    assert out.endswith("residue check for n=4, d=2: OK\n")


def test_residues_json_report():
    code, out, _ = run(["residues", "--d", "1", "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 2 and rep["d"] == 1
    assert rep["ok"] is True and rep["phi_is_zero"] is True
    assert [row["m"] for row in rep["poles"]] == [-1, 0, 1]
    assert all(row["residue"] == "0" and row["ok"] for row in rep["poles"])


def test_residues_pinned_text_and_json():
    """Text and JSON reports for d = 1..12, as the commit before the
    gcd-free certificate printed them."""
    with open(FIXTURES / "pinned_residues.json", encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert len(pinned) == 24
    for case in pinned:
        assert run(case["argv"])[:2] == (0, case["stdout"]), case["argv"]


def test_residues_rejects_nonpositive_degree():
    for d in ("0", "-1"):
        code, out, err = run(["residues", "--d", d])
        assert (code, out) == (2, "") and "--d must be at least 1" in err, d


# -- series pt -----------------------------------------------------------------------


def test_series_pt_empty_table_gives_unit_series(tmp_path):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"rank": 1, "omega": [1], "n0": {}}))
    code, out, _ = run(["series", "pt", "--gv-file", str(f),
                        "--n-max", "3", "--t", "inf"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["coefficients"] == [
        {"n": 0, "beta": [0], "invariant": "1", "series_product": "1", "ok": True}
    ]


def test_series_pt_chamber_values(tmp_path):
    p2 = write_local_p2(tmp_path / "p2.json")

    code, out, _ = run(["series", "pt", "--gv-file", str(p2),
                        "--n-max", "2", "--t", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True and rep["t"] == "2"
    by = {(r["n"], tuple(r["beta"])): r["invariant"] for r in rep["coefficients"]}
    assert by[(1, (4,))] == "3"

    code, out, _ = run(["series", "pt", "--gv-file", str(p2),
                        "--n-max", "2", "--t", "1/2"])
    assert code == 0
    by = {(r["n"], tuple(r["beta"])): r["invariant"]
          for r in json.loads(out)["coefficients"]}
    assert by[(1, (4,))] == "2"


def test_series_pt_zero_plus_chamber_keeps_only_pair_classes(tmp_path):
    p2 = write_local_p2(tmp_path / "p2.json")
    code, out, _ = run(["series", "pt", "--gv-file", str(p2),
                        "--n-max", "2", "--t", "0+"])
    assert code == 0
    rep = json.loads(out)
    assert rep["t"] == "0+" and rep["ok"] is True
    rows = {(r["n"], tuple(r["beta"])): r["invariant"] for r in rep["coefficients"]}
    assert rows == {(0, (0,)): "1", (0, (3,)): "1"}


def test_series_pt_on_a_wall_needs_a_side(tmp_path):
    p2 = write_local_p2(tmp_path / "p2.json")
    code, _, err = run(["series", "pt", "--gv-file", str(p2),
                        "--n-max", "2", "--t", "1"])
    assert code == 2
    assert "--side" in err
    code, _, _ = run(["series", "pt", "--gv-file", str(p2),
                      "--n-max", "2", "--t", "1", "--side", "plus"])
    assert code == 0


def test_series_pt_rejects_a_nonpositive_t(tmp_path):
    p2 = write_local_p2(tmp_path / "p2.json")
    for t in ("0", "-1"):
        code, out, err = run(["series", "pt", "--gv-file", str(p2), "--n-max", "2", "--t", t])
        assert (code, out) == (2, ""), t
        assert err == f"error: cannot read inputs: stability parameter must be positive, got {t}\n"


def test_series_pt_builds_one_pair_count_table(tmp_path, monkeypatch):
    """A command answers every row from one chamber table, not one per query."""
    rng = random.Random(316)
    lattice = series.ClassLattice(2, (1, 2), 8)
    n0 = {beta: rng.randint(-3, 3) for beta in lattice.positive_classes() if rng.random() < 0.3}
    table = tmp_path / "rank2.json"
    table.write_text(json.dumps(series.GVTable(lattice, n0=n0, n1={(1, 0): 1}).to_json()))
    built = []
    build = series._pair_counts
    monkeypatch.setattr(series, "_pair_counts", lambda t, gv: built.append(t) or build(t, gv))
    for path in (FIXTURES / "local_p2.json", table):
        for t in ("inf", "0+", "1/3"):
            built.clear()
            code, out, _ = run(["series", "pt", "--gv-file", str(path),
                                "--n-max", "4", "--t", t, "--side", "plus"])
            assert code == 0 and len(json.loads(out)["coefficients"]) > 1
            assert len(built) == 1, (path, t)


def test_series_pt_prints_values_of_any_size(tmp_path):
    """A 3,001-digit n0 value is accepted, so its square, beyond the
    4,300-digit limit of str(int), must print too; a value beyond the limit
    is still refused where the interpreter has one."""
    f = tmp_path / "big.json"
    argv = ["series", "pt", "--gv-file", str(f), "--n-max", "2", "--deg-max", "2",
            "--t", "inf"]
    f.write_text(json.dumps({"rank": 1, "omega": [1], "n0": {"[1]": "1" + "0" * 3000}}))
    code, out, _ = run(argv)
    assert code == 0
    rows = {(r["n"], tuple(r["beta"])): r["invariant"]
            for r in json.loads(out)["coefficients"]}
    assert rows[(2, (2,))] == "1" + "0" * 6000
    if hasattr(sys, "get_int_max_str_digits"):
        f.write_text(json.dumps({"rank": 1, "omega": [1], "n0": {"[1]": "1" + "0" * 5000}}))
        assert run(argv)[:2] == (2, "")


# -- series wallcheck ----------------------------------------------------------------


def test_series_wallcheck_local_p2_wall(tmp_path):
    p2 = write_local_p2(tmp_path / "p2.json")
    code, out, _ = run(["series", "wallcheck", "--gv-file", str(p2),
                        "--t0", "1", "--n-max", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True and rep["series_identity_ok"] is True
    assert rep["t0"] == "1"
    assert rep["wall_classes"] == [[1]]
    row = [r for r in rep["coefficients"] if r["n"] == 1 and r["beta"] == [4]][0]
    assert row["jump"] == "1"
    assert row["simple_wall"] is True
    assert row["mspace"] == "1"
    assert row["ok"] is True


def test_series_wallcheck_rejects_nonpositive_t0(tmp_path):
    p2 = write_local_p2(tmp_path / "p2.json")
    assert run(["series", "wallcheck", "--gv-file", str(p2),
                "--t0", "-1", "--n-max", "2"])[0] == 2


def test_series_commands_refuse_negative_n_max(tmp_path):
    p2 = write_local_p2(tmp_path / "p2.json")
    for command in (["pt", "--t", "inf"], ["wallcheck", "--t0", "1"]):
        code, out, err = run(["series", command[0], "--gv-file", str(p2), *command[1:],
                              "--n-max", "-1"])
        assert (code, out, err) == (2, "", "error: --n-max must be nonnegative\n"), command


def test_series_huge_n_max_stops_at_the_top_y_degree():
    """No pair count is nonzero past n = dmax // (smallest stored degree), so
    at --n-max 10**9 pt and wallcheck finish at once: wallcheck prints what
    --n-max 10 prints, and pt differs from it only in the echoed n_max."""
    p2 = str(FIXTURES / "local_p2.json")
    for command, *flags in (["pt", "--t", "inf"], ["pt", "--t", "1", "--side", "minus"],
                            ["wallcheck", "--t0", "1"]):
        argv = ["series", command, "--gv-file", p2, *flags, "--n-max"]
        start = time.monotonic()
        huge = run(argv + [str(10**9)])
        assert time.monotonic() - start < 5, command
        small = run(argv + ["10"])
        assert huge[0] == small[0] == 0 and huge[2] == small[2] == ""
        if command == "wallcheck":
            assert huge == small
        else:
            huge_report, small_report = json.loads(huge[1]), json.loads(small[1])
            assert (huge_report.pop("n_max"), small_report.pop("n_max")) == (10**9, 10)
            assert huge_report == small_report and huge_report["coefficients"]


# -- series gvinvert -----------------------------------------------------------------


def test_series_gvinvert_pinned_inversion(tmp_path):
    gw = tmp_path / "gw.json"
    gw.write_text(json.dumps({"rank": 1, "omega": [1],
                              "gw0": {"[1]": "1", "[2]": "1"}}))
    code, out, _ = run(["series", "gvinvert", "--gv-file", str(gw)])
    assert code == 0
    rep = json.loads(out)
    assert rep["round_trip_ok"] is True
    assert rep["n0"] == {"[1]": "1", "[2]": "3/4"}


def test_series_gvinvert_genus_one_path(tmp_path):
    gw = tmp_path / "gw.json"
    gw.write_text(json.dumps({
        "rank": 1, "omega": [1],
        "gw1": {"[1]": "1", "[2]": "3/2"},
        "n0_c2": {"[1]": "3"},
        "meeting": {"[1]|[1]": "1"},
    }))
    code, out, _ = run(["series", "gvinvert", "--gv-file", str(gw)])
    assert code == 0
    assert json.loads(out)["round_trip_ok"] is True


def test_series_gvinvert_deg_max_below_the_table_round_trips(tmp_path):
    """A truncated inversion is compared only with the classes it covers."""
    gw = tmp_path / "gw.json"
    gw.write_text(json.dumps({
        "rank": 1, "omega": [1],
        "gw0": {"[1]": "1", "[2]": "1", "[4]": "1/3"},
        "gw1": {"[1]": "1", "[3]": "2"},
        "n0_c2": {"[1]": "3"},
        "meeting": {"[1]|[2]": "1"},
    }))
    code, out, _ = run(["series", "gvinvert", "--gv-file", str(gw)])
    assert code == 0
    full = json.loads(out)
    assert full["deg_max"] == 4
    for deg_max in (1, 2, 3):
        code, out, err = run(["series", "gvinvert", "--gv-file", str(gw),
                              "--deg-max", str(deg_max)])
        assert (code, err) == (0, ""), deg_max
        rep = json.loads(out)
        assert rep["round_trip_ok"] is True
        for name in ("n0", "n1"):
            assert rep[name] == {key: value for key, value in full[name].items()
                                 if json.loads(key)[0] <= deg_max}, (deg_max, name)


# -- malformed input files -----------------------------------------------------------


@pytest.mark.parametrize("argv_tail", [
    ["pt", "--n-max", "1", "--t", "inf"],
    ["wallcheck", "--t0", "1", "--n-max", "1"],
    ["gvinvert"],
])
def test_series_malformed_gv_file_exits_2(tmp_path, argv_tail):
    bad = tmp_path / "bad.json"
    argv = ["series", argv_tail[0], "--gv-file", str(bad)] + argv_tail[1:]
    for text in ("{not json", '{"rank": 1, "omega": [1], "n0": {"[1]": ' + "[" * 100000):
        bad.write_text(text)
        code, _, err = run(argv)
        assert code == 2
    assert f"{bad} nests JSON too deeply" in err


@pytest.mark.parametrize("table, named", [
    ({"n0": {"[0]": "1"}}, "'[0]'"),
    ({"n0": {"[1, 2]": "1"}}, "'[1, 2]'"),
    ({"n0": {"[-1]": "1"}}, "'[-1]'"),
    ({"n0": {"[1]": "1"}, "nmin": {"[1]": "1/2"}}, "'[1]'"),
])
def test_series_rejects_bad_class_tables(tmp_path, table, named):
    f = tmp_path / "table.json"
    f.write_text(json.dumps({"rank": 1, "omega": [1], **table}))
    for argv_tail in (["pt", "--n-max", "1", "--t", "inf"],
                      ["wallcheck", "--t0", "1", "--n-max", "1"]):
        code, out, err = run(["series", argv_tail[0], "--gv-file", str(f)]
                             + argv_tail[1:])
        assert (code, out) == (2, ""), (table, argv_tail)
        assert named in err


@pytest.mark.parametrize("value", ["1e5000", "1e999999999", "2.5E-3", "1/0"])
@pytest.mark.parametrize("command, table, key", [
    (["pt", "--n-max", "1", "--t", "inf"], "n0", "'[1]'"),
    (["wallcheck", "--t0", "1", "--n-max", "1"], "p0", "'[1]'"),
    (["gvinvert"], "gw1", "'[1]'"),
    (["gvinvert"], "meeting", "'[1]|[1]'"),
])
def test_series_rejects_exponents_and_zero_denominators(tmp_path, command, table, key, value):
    """Exponent notation is refused before Fraction builds the number (which
    hung on 1e999999999 and overflowed the printer on 1e5000)."""
    f = tmp_path / "table.json"
    f.write_text(json.dumps({"rank": 1, "omega": [1], table: {key.strip("'"): value}}))
    start = time.monotonic()
    code, out, err = run(["series", command[0], "--gv-file", str(f)] + command[1:])
    assert (code, out) == (2, "")
    assert f"{table} value for key {key}" in err and repr(value) in err
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("argv_tail", [
    ["pt", "--n-max", "1", "--t", "1e999999999"],
    ["pt", "--n-max", "1", "--t", "1/0"],
    ["wallcheck", "--n-max", "1", "--t0", "1e5000"],
    ["wallcheck", "--n-max", "1", "--t0", "1/0"],
])
def test_series_rejects_exponent_and_zero_denominator_parameters(tmp_path, argv_tail):
    p2 = write_local_p2(tmp_path / "p2.json")
    start = time.monotonic()
    code, out, err = run(["series", argv_tail[0], "--gv-file", str(p2)] + argv_tail[1:])
    assert (code, out) == (2, "")
    assert repr(argv_tail[-1]) in err
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("shape, named", [
    ({"rank": 1.7, "omega": [1]}, "rank"),
    ({"rank": True, "omega": [1]}, "rank"),
    ({"rank": "1", "omega": [1]}, "rank"),
    ({"rank": 1, "omega": [1.9]}, "omega"),
    ({"rank": 1, "omega": [True]}, "omega"),
    ({"rank": 1, "omega": "1"}, "omega"),
])
def test_series_rejects_rank_and_omega_that_are_not_integers(tmp_path, shape, named):
    f = tmp_path / "table.json"
    f.write_text(json.dumps({**shape, "n0": {"[1]": "1"}}))
    for argv_tail in (["pt", "--n-max", "1", "--t", "inf"],
                      ["wallcheck", "--t0", "1", "--n-max", "1"],
                      ["gvinvert"]):
        code, out, err = run(["series", argv_tail[0], "--gv-file", str(f)]
                             + argv_tail[1:])
        assert (code, out) == (2, ""), (shape, argv_tail)
        assert f"{named} must be" in err


@pytest.mark.parametrize("command, name", [
    (["pt", "--n-max", "1", "--t", "inf"], "n0"),
    (["pt", "--n-max", "1", "--t", "inf"], "p0"),
    (["wallcheck", "--t0", "1", "--n-max", "1"], "meeting"),
    (["gvinvert"], "gw0"),
    (["gvinvert"], "meeting"),
])
def test_series_rejects_tables_that_are_not_objects(tmp_path, command, name):
    f = tmp_path / "table.json"
    f.write_text(json.dumps({"rank": 1, "omega": [1], name: []}))
    code, out, err = run(["series", command[0], "--gv-file", str(f)] + command[1:])
    assert (code, out) == (2, "")
    assert f"table {name} must be a JSON object" in err


def test_series_gvinvert_rejects_bad_class_keys(tmp_path):
    for table in ({"gw0": {"[0]": "1"}}, {"gw0": {"[1, 1]": "1"}},
                  {"gw1": {"[-2]": "1"}}, {"meeting": {"[1]|[0]": "1"}}):
        f = tmp_path / "gw.json"
        f.write_text(json.dumps({"rank": 1, "omega": [1], **table}))
        code, _, err = run(["series", "gvinvert", "--gv-file", str(f)])
        assert code == 2 and "key" in err, table


def test_series_pinned_output(tmp_path):
    """Every output of series pt, wallcheck and gvinvert on the local plane
    and seeded rank-2 tables, as the commit before the single-exponential
    series printed it; the two ``gvinvert --deg-max 5`` cases exit 0 since
    the round trip is compared only on the classes the lattice holds."""
    with open(FIXTURES / "pinned_series.json", encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert len(pinned["cases"]) == 38
    for name, table in pinned["tables"].items():
        (tmp_path / f"{name}.json").write_text(json.dumps(table))
    for case in pinned["cases"]:
        argv = case["argv"][:2] + ["--gv-file", str(tmp_path / f"{case['table']}.json")]
        result = run(argv + case["argv"][2:])
        assert result == (case["code"], case["stdout"], case["stderr"]), case["argv"]


def test_series_missing_gv_file_exits_2(tmp_path):
    missing = tmp_path / "absent.json"
    assert run(["series", "pt", "--gv-file", str(missing),
                "--n-max", "1", "--t", "inf"])[0] == 2


# -- no command reaches the generic gcd ----------------------------------------------


def test_no_command_reaches_the_generic_gcd(tmp_path, monkeypatch):
    """Every command gives the same exit code and output with
    ratfun.poly_gcd, ratfun.residue_at, Poly.__pow__ and RatFun.__pow__
    made to raise: the sums, golden files, checkpoints and the residue
    certificate are all reduced without the generic gcd, and no command
    takes a residue or a power of a Poly or a RatFun."""
    p2 = str(FIXTURES / "local_p2.json")
    golden = tmp_path / "g.txt"
    js = ["js", "--n", "6", "--d", "3"]
    bless = compare = ["js", "--n", "3", "--d", "3", "--golden", str(golden)]
    commands = [
        js, js + ["--format", "json"], js + ["--audit"], bless, compare,
        ["residues", "--d", "4"],
        ["series", "pt", "--gv-file", p2, "--n-max", "2", "--t", "2"],
        ["series", "wallcheck", "--gv-file", p2, "--t0", "1", "--n-max", "2"],
        ["series", "gvinvert", "--gv-file", p2],
    ]
    checkpoints = [tmp_path / f"rows{jobs}.jsonl" for jobs in (1, 2)]
    for jobs, ck in enumerate(checkpoints, 1):
        verify = ["verify", "--d-max", "3", "--ratio-max", "3", "--jobs", str(jobs),
                  "--checkpoint", str(ck)]
        commands += [verify, verify]  # fresh, then resumed

    def run_all():
        for path in (golden, *checkpoints):
            path.unlink(missing_ok=True)
        return [run(argv) for argv in commands]

    def tripwire(*args, **kwargs):
        raise AssertionError("the generic gcd, residue_at or a power was reached")

    expected = run_all()
    assert [code for code, _, _ in expected] == [0] * len(commands)
    for name in ("poly_gcd", "residue_at", "Poly.__pow__", "RatFun.__pow__"):
        monkeypatch.setattr(f"stablepairs.ratfun.{name}", tripwire)
    assert run_all() == expected
