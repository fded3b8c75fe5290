"""CLI subcommands, exit codes, and report determinism."""

import ast
import contextlib
import csv
import importlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import htype
from htype.catalog import MAX_GRID_DIM, table_rows
from htype.cli import main
from htype.nilpotent import random_two_step
from htype.serialization import save_algebra, to_json_dict

ARTIFACT_VERSION = htype.__version__


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def h1r(tmp_path):
    path = tmp_path / "h1R.json"
    assert main(["construct", "--family", "hn", "--algebra", "R", "--n", "1",
                 "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def h1c(tmp_path):
    path = tmp_path / "h1C.json"
    assert main(["construct", "--family", "hn", "--algebra", "C", "--n", "1",
                 "--out", str(path)]) == 0
    return str(path)


# ---------------------------------------------------------------------------
# construct


def test_construct_h2_quaternionic(tmp_path, capsys):
    out = tmp_path / "h2H.json"
    code, stdout, _ = run(capsys, "construct", "--family", "hn", "--algebra", "H",
                          "--n", "2", "--out", str(out))
    assert code == 0
    data = read_json(out)
    assert (data["dim_v"], data["dim_z"]) == (16, 4)
    assert "dim_v=16 dim_z=4" in stdout


def test_construct_octonion_hprime(tmp_path):
    out = tmp_path / "hp.json"
    assert main(["construct", "--family", "hprime", "--algebra", "O",
                 "--p", "1", "--q", "0", "--out", str(out)]) == 0
    data = read_json(out)
    assert (data["dim_v"], data["dim_z"]) == (8, 7)


def test_construct_refuses_an_oversized_tensor(tmp_path, capsys):
    out = tmp_path / "h250R.json"
    code, stdout, err = run(capsys, "construct", "--family", "hn", "--algebra", "R",
                            "--n", "250", "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err == ("error: system size 250000 entries exceeds budget 200000 "
                   "(structure tensor)\n")
    assert not out.exists()


def test_construct_negative_n_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--family", "hn", "--algebra", "R",
                       "--n", "-1", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error" in err


def test_construct_missing_family_is_usage_error(tmp_path):
    assert main(["construct", "--out", str(tmp_path / "x.json")]) == 2


def test_construct_is_idempotent(tmp_path):
    out = tmp_path / "a.json"
    main(["construct", "--family", "hn", "--algebra", "C", "--n", "1",
          "--out", str(out)])
    first = out.read_bytes()
    main(["construct", "--family", "hn", "--algebra", "C", "--n", "1",
          "--out", str(out)])
    assert out.read_bytes() == first


# ---------------------------------------------------------------------------
# check


def test_check_structural_suite_passes(h1r, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "--in", h1r, "--tests", "jacobi,typeh,nonsingular",
                 "--out", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["all_pass"] is True
    assert set(rep["tests"]) == {"jacobi", "typeh", "nonsingular"}


def test_check_jacobi_report_is_pinned(h1r, tmp_path):
    out = tmp_path / "jacobi.json"
    assert main(["check", "--in", h1r, "--tests", "jacobi", "--out", str(out)]) == 0
    expected = {
        "algebra": "h1(R)",
        "operation": "check",
        "tests": {"jacobi": {"verdict": "pass"}},
        "all_pass": True,
        "seed": None,
        "manifest": {
            "command": "check",
            "inputs": {"in": h1r, "samples": 200, "tests": "jacobi"},
            "seed": None,
            "tolerances": {"j2_residual": 1e-8},
            "artifact_version": ARTIFACT_VERSION,
            "outputs": [str(out)],
        },
    }
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_check_j2_fail_is_exit_one_without_expect(h1c):
    assert main(["check", "--in", h1c, "--tests", "j2", "--seed", "11"]) == 1


def test_check_j2_fail_matches_expectation(h1c):
    assert main(["check", "--in", h1c, "--tests", "j2", "--seed", "11",
                 "--expect", "fail"]) == 0


def test_check_j2_needs_seed(h1c):
    assert main(["check", "--in", h1c, "--tests", "j2"]) == 2


def test_check_empty_test_set(h1c):
    assert main(["check", "--in", h1c, "--tests", ""]) == 2


def test_check_unknown_test_name(h1c):
    assert main(["check", "--in", h1c, "--tests", "typeh,frobnicate"]) == 2


def test_check_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--in", str(bad), "--tests", "typeh"]) == 2


def test_check_malformed_structure_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim_v":2,"dim_z":1,"structure":[["a",1,0,"1"]]}')
    code, _, err = run(capsys, "check", "--in", str(bad), "--tests", "typeh")
    assert code == 2
    assert err.startswith("error: ") and "integers" in err


def test_check_oversized_structure_is_budget_refusal(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text('{"dim_v":1000000,"dim_z":1000000,"structure":[]}')
    code, out, err = run(capsys, "check", "--in", str(huge), "--tests", "jacobi")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "structure tensor" in err


def test_check_flat_oversized_structure_is_budget_refusal(tmp_path, capsys):
    flat = tmp_path / "flat.json"
    flat.write_text('{"dim_v":600,"dim_z":0,"structure":[]}')
    code, out, err = run(capsys, "check", "--in", str(flat), "--tests", "jacobi")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "structure tensor" in err


def test_check_nonsingular_undetermined(tmp_path):
    path = tmp_path / "r63.json"
    save_algebra(random_two_step(6, 3, random.Random(0)), path)
    out = tmp_path / "report.json"
    code = main(["check", "--in", str(path), "--tests", "nonsingular", "--out", str(out)])
    rep = read_json(out)
    assert rep["tests"]["nonsingular"]["verdict"] == "undetermined"
    assert rep["all_pass"] is False and code == 1


# ---------------------------------------------------------------------------
# prolong


def test_prolong_h1r_report(h1r, tmp_path):
    out = tmp_path / "p.json"
    code = main(["prolong", "--in", h1r, "--expect", "nontrivial",
                 "--out", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["verdict"] == "nontrivial"
    assert rep["g0_dim"] == 4
    assert rep["component_dims"] == [6, 9, 12]
    assert rep["manifest"]["inputs"]["budget"] == 200_000


def test_prolong_expect_mismatch(h1r):
    assert main(["prolong", "--in", h1r, "--expect", "trivial"]) == 1


def test_prolong_clifford_trivial(tmp_path):
    alg = tmp_path / "cl51.json"
    main(["construct", "--family", "clifford", "--m", "5", "--k", "1",
          "--out", str(alg)])
    assert main(["prolong", "--in", str(alg), "--expect", "trivial"]) == 0


def test_prolong_budget_refusal_is_exit_three(tmp_path, capsys):
    alg = tmp_path / "h28R.json"
    main(["construct", "--family", "hn", "--algebra", "R", "--n", "28",
          "--out", str(alg)])
    code, _, err = run(capsys, "prolong", "--in", str(alg))
    assert code == 3
    assert "budget" in err


def test_prolong_budget_flag_and_env(tmp_path, monkeypatch):
    alg = tmp_path / "h1C.json"
    main(["construct", "--family", "hn", "--algebra", "C", "--n", "1",
          "--out", str(alg)])
    # tiny explicit budget refuses even a small algebra
    assert main(["prolong", "--in", str(alg), "--budget", "10"]) == 3
    monkeypatch.setenv("DIVH_BUDGET", "10")
    assert main(["prolong", "--in", str(alg)]) == 3
    monkeypatch.delenv("DIVH_BUDGET")
    assert main(["prolong", "--in", str(alg)]) == 0


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_prolong_non_positive_budget_is_input_error(h1c, capsys, budget):
    code, out, err = run(capsys, "prolong", "--in", h1c, "--budget", budget)
    assert (code, out) == (2, "")
    assert err == f"error: budget must be a positive entry count, got {budget}\n"


@pytest.mark.parametrize("command", [["prolong"], ["check", "--tests", "jacobi"]])
def test_non_positive_budget_env_is_input_error(h1c, capsys, monkeypatch, command):
    # refused when the budget is read, before the structure tensor is checked
    monkeypatch.setenv("DIVH_BUDGET", "-1")
    code, out, err = run(capsys, command[0], "--in", h1c, *command[1:])
    assert (code, out) == (2, "")
    assert err == "error: DIVH_BUDGET must be a positive entry count, got '-1'\n"


def test_prolong_determinism_modulo_elapsed(h1c, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["prolong", "--in", h1c, "--out", str(a)])
    main(["prolong", "--in", h1c, "--out", str(b)])
    ra, rb = read_json(a), read_json(b)
    ra.pop("elapsed_ms")
    rb.pop("elapsed_ms")
    ra["manifest"]["outputs"] = rb["manifest"]["outputs"] = []
    assert ra == rb


# ---------------------------------------------------------------------------
# table


def test_table_verify(tmp_path):
    out = tmp_path / "t.json"
    assert main(["table", "--verify", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["all_pass"] is True
    assert rep["counts"]["exceptional"] == 17
    assert rep["counts"]["total"] >= 60


def test_table_verify_csv(capsys):
    code, stdout, _ = run(capsys, "table", "--verify", "--format", "csv")
    assert code == 0
    header, *rows = stdout.strip().splitlines()
    assert header == "row,params,dim_g,dim_m,dim_a,dim_n,pass"
    assert len(rows) >= 60


def test_table_dump_formats(capsys):
    code, stdout, _ = run(capsys, "table", "--dump")
    assert code == 0
    rows = json.loads(stdout)["rows"]
    assert len(rows) == 27
    code, stdout, _ = run(capsys, "table", "--dump", "--format", "csv")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 28  # header + rows
    assert lines[0].startswith("name,")


def test_table_dump_csv_quotes_fields(capsys):
    code, stdout, _ = run(capsys, "table", "--dump", "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(stdout))
    assert all(len(row) == len(header) for row in rows)
    assert [row[0] for row in rows] == [r.name for r in table_rows()]
    assert len(rows) == 27 and "sl(n,R)" in [row[0] for row in rows]


def test_table_verify_max_dim_at_the_cap(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["table", "--verify", "--format", "csv", "--max-dim", str(MAX_GRID_DIM),
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 17 + 9047


@pytest.mark.parametrize("max_dim", ["10001", "99999999999999999999999"])
def test_table_verify_max_dim_above_the_cap_is_usage_error(max_dim, tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, err = run(capsys, "table", "--verify", "--max-dim", max_dim, "--out", str(out))
    assert code == 2
    assert "exceeds the grid cap 10000" in err
    assert not out.exists()


def test_table_corrupted_dataset(capsys, monkeypatch):
    # dataset corruption detection itself is covered by the catalog tests;
    # here: the CLI surfaces it as exit 2 with the checksum message
    import htype.catalog
    from htype.catalog import compute_checksum, load_table

    _, rows = load_table()
    rows = json.loads(json.dumps(rows))
    rows[0]["dim_a"] = 99

    def corrupted_load():
        from htype.errors import DatasetError
        if compute_checksum(rows) != compute_checksum(load_table()[1]):
            raise DatasetError("dataset checksum mismatch: parabolic_table.json")
        return "1.0", rows  # pragma: no cover

    monkeypatch.setattr(htype.catalog, "load_table", corrupted_load)
    code, _, err = run(capsys, "table", "--verify")
    assert code == 2
    assert "checksum" in err


# ---------------------------------------------------------------------------
# boundary


def test_boundary_cayley_probe(h1r, tmp_path):
    out = tmp_path / "probe.json"
    code = main(["boundary", "--in", h1r, "--experiment", "cayley-probe",
                 "--seed", "5", "--samples", "10000", "--out", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["verdict"] == "pass"
    assert rep["max_boundary_residual"] <= 1e-12
    assert rep["max_round_trip_error"] <= 1e-8


def test_cayley_probe_over_the_draw_cap_is_refused(h1r, capsys):
    from htype.boundary import MAX_PROBE_DRAWS

    samples = MAX_PROBE_DRAWS // 3 + 1  # h1(R): dim v + dim z = 3
    code, out, err = run(capsys, "boundary", "--in", h1r, "--experiment", "cayley-probe",
                         "--seed", "0", "--samples", str(samples))
    assert code == 2 and out == ""
    assert err == f"error: {samples} samples draw over the cap of {MAX_PROBE_DRAWS} normals\n"


def test_boundary_seed_is_mandatory(h1c):
    assert main(["boundary", "--in", h1c, "--experiment", "j2"]) == 2


def test_boundary_j2_expect(h1c, capsys):
    assert main(["boundary", "--in", h1c, "--experiment", "j2",
                 "--seed", "11", "--expect", "fails"]) == 0
    assert main(["boundary", "--in", h1c, "--experiment", "j2",
                 "--seed", "11", "--expect", "holds"]) == 1
    # a verdict j2 can never report is malformed input, not a mismatch
    for verdict in ("holdz", "pass"):
        assert main(["boundary", "--in", h1c, "--experiment", "j2",
                     "--seed", "11", "--expect", verdict]) == 2
    # refused before the algebra file is read
    assert main(["boundary", "--in", "missing.json", "--experiment", "j2",
                 "--seed", "11", "--expect", "holdz"]) == 2
    assert "--expect for j2 must be one of holds, fails" in capsys.readouterr().err


def test_boundary_expect_refusal_loads_no_numpy(tmp_path):
    src = str(Path(htype.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["boundary", "--in", "missing.json", "--experiment", "distribution",
            "--seed", "1", "--expect", "fail"]
    proc = subprocess.run([sys.executable, "-c", _COMMAND_SURFACE, *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True, check=True)
    code, loaded = json.loads(proc.stdout)
    assert code == 2
    assert not {"numpy", "htype.boundary", "htype.nilpotent"} & set(loaded)


def test_boundary_limiting_plane_emits_convergence_table(h1c, tmp_path):
    out = tmp_path / "lp.json"
    code = main(["boundary", "--in", h1c, "--experiment", "limiting-plane",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    rep = read_json(out)
    table = rep["convergence_table"]
    assert [row["radius"] for row in table] == [10.0, 100.0, 1000.0, 10000.0]
    assert table[-1]["grassmann_distance"] <= 1e-3
    assert rep["seed"] == 3


def test_boundary_limiting_plane_no_witness(tmp_path):
    alg = tmp_path / "hp20H.json"
    main(["construct", "--family", "hprime", "--algebra", "H",
          "--p", "2", "--q", "0", "--out", str(alg)])
    out = tmp_path / "lp.json"
    code = main(["boundary", "--in", str(alg), "--experiment", "limiting-plane",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    assert read_json(out)["verdict"] == "no_witness_found"


def test_boundary_distribution(h1c, tmp_path):
    out = tmp_path / "d.json"
    code = main(["boundary", "--in", h1c, "--experiment", "distribution",
                 "--seed", "4", "--samples", "10", "--out", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["max_tangency_residual"] <= 1e-8
    assert rep["max_invariance_distance"] <= 1e-6


@pytest.mark.parametrize("argv", [
    ["boundary", "--experiment", "distribution", "--seed", "0", "--samples", "-3"],
    ["boundary", "--experiment", "j2", "--seed", "0", "--samples", "-1"],
    ["check", "--tests", "j2", "--seed", "0", "--samples", "-1"],
], ids=["distribution", "boundary-j2", "check-j2"])
def test_negative_samples_are_refused_at_parse_time(h1c, capsys, argv):
    code, out, err = run(capsys, *argv, "--in", h1c)
    assert code == 2 and out == ""
    assert "argument --samples: must be non-negative, got -" in err


@pytest.mark.parametrize("experiment", ["cayley-probe", "distribution"])
def test_zero_samples_are_refused_where_they_make_the_check_vacuous(h1c, capsys,
                                                                    experiment):
    code, out, err = run(capsys, "boundary", "--in", h1c, "--experiment", experiment,
                         "--seed", "0", "--samples", "0")
    assert code == 2 and out == ""
    assert err == f"error: --samples must be at least 1 for {experiment}\n"


def test_j2_with_zero_samples_runs_the_structured_sweep(h1c, capsys):
    code, out, _ = run(capsys, "boundary", "--in", h1c, "--experiment", "j2",
                       "--seed", "0", "--samples", "0")
    rep = json.loads(out)
    assert code == 0 and rep["verdict"] == "fails"
    assert rep["samples"] == 16  # the n^2 structured candidates of h1(C), n = 4


def test_boundary_rerun_is_byte_identical(h1c, tmp_path):
    out = tmp_path / "r.json"
    main(["boundary", "--in", h1c, "--experiment", "limiting-plane",
          "--seed", "3", "--out", str(out)])
    first = out.read_bytes()
    main(["boundary", "--in", h1c, "--experiment", "limiting-plane",
          "--seed", "3", "--out", str(out)])
    assert out.read_bytes() == first


def test_report_schema_keys(h1c, tmp_path):
    out = tmp_path / "j2.json"
    main(["boundary", "--in", h1c, "--experiment", "j2", "--seed", "2",
          "--out", str(out)])
    rep = read_json(out)
    for key in ("algebra", "operation", "samples", "tolerances", "verdict",
                "witnesses", "convergence_table", "seed", "manifest"):
        assert key in rep
    man = rep["manifest"]
    assert man["command"] == "boundary"
    assert man["seed"] == 2
    assert man["artifact_version"]


# ---------------------------------------------------------------------------
# malformed algebra files


_FUZZ_BASES = [to_json_dict(alg) for alg in (
    htype.build_hn(htype.DivisionAlgebra.R, 1), htype.build_hn(htype.DivisionAlgebra.C, 1),
    htype.build_hprime(htype.DivisionAlgebra.H, 1, 0))]
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.just(10 ** 9),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="019ab/-. ", max_size=2),
    st.lists(st.integers(-1, 3), max_size=5),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


@st.composite
def _mutated_algebra(draw):
    """A small algebra's JSON with one fault: a wrong type or value in a
    field or a structure entry, a removed field, or a one-sided partner."""
    data = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_BASES))))
    kind = draw(st.sampled_from(["field", "removed", "entry", "one-sided"]))
    if kind == "field":
        data[draw(st.sampled_from(sorted(data)))] = draw(_JUNK)
    elif kind == "removed":
        del data[draw(st.sampled_from(sorted(data)))]
    else:
        entries = data["structure"]
        at = draw(st.integers(0, len(entries) - 1))
        if kind == "one-sided":
            del entries[at]
        elif draw(st.booleans()):
            entries[at] = draw(_JUNK)
        else:
            entries[at][draw(st.integers(0, 3))] = draw(_JUNK)
    return data


@settings(max_examples=60, deadline=None)
@given(_mutated_algebra())
@example({**_FUZZ_BASES[1], "dim_v": float("inf")})
def test_malformed_algebra_files_give_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "alg.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        for argv in (["check", "--in", path, "--tests", "jacobi,typeh,nonsingular"],
                     ["prolong", "--in", path, "--max-degree", "1"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv[0], code)


def test_version_is_the_pyproject_version():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert f'version = "{htype.__version__}"' in pyproject.read_text().splitlines()


def test_every_report_carries_the_package_version(h1c, tmp_path):
    reports = {
        "check": ["check", "--in", h1c, "--tests", "typeh,j2", "--seed", "1",
                  "--samples", "5"],
        "prolong": ["prolong", "--in", h1c, "--max-degree", "1"],
        "table-verify": ["table", "--verify", "--max-dim", "20"],
        "table-dump": ["table", "--dump"],
        "boundary": ["boundary", "--in", h1c, "--experiment", "distribution",
                     "--seed", "1", "--samples", "5"],
    }
    for name, argv in reports.items():
        out = tmp_path / f"{name}.json"
        main(argv + ["--out", str(out)])
        assert read_json(out)["manifest"]["artifact_version"] == htype.__version__, name


# ---------------------------------------------------------------------------
# import surface


def test_cli_import_loads_neither_sympy_nor_scipy():
    src = str(Path(htype.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, htype.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'sympy', 'scipy'}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_exactly_its_modules_and_no_table():
    # a cold `htype` invocation pays for these imports before any work
    src = str(Path(htype.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, htype.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'htype')); "
            "import htype.catalog; "
            "print(htype.catalog.table_rows.cache_info().currsize == 0)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split("\n")[:2] == [
        "['htype', 'htype.cli', 'htype.errors', 'htype.serialization']", "True"]


_COMMAND_SURFACE = """
import contextlib, io, json, sys
import htype.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = htype.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

# command -> (argv, modules it must not load); the input files are built first
_SURFACE_CASES = {
    "construct-hn": (["construct", "--family", "hn", "--algebra", "H", "--n", "1",
                      "--out", "h1H.json"], {"htype.catalog"}),
    "construct-clifford": (["construct", "--family", "clifford", "--m", "5",
                            "--out", "c51.json"], {"htype.catalog"}),
    "check": (["check", "--in", "h1H.json", "--tests", "typeh,nonsingular"],
              {"htype.catalog", "htype.division"}),
    "prolong": (["prolong", "--in", "h1H.json"], {"htype.catalog", "htype.division"}),
    "table-verify": (["table", "--verify"], {"htype.nilpotent", "htype.division"}),
    "table-dump": (["table", "--dump", "--format", "csv"], {"htype.nilpotent", "htype.division"}),
    "boundary": (["boundary", "--in", "h1C.json", "--experiment", "cayley-probe",
                  "--seed", "1", "--samples", "10"], {"htype.catalog", "htype.division"}),
}


@pytest.mark.parametrize("argv,unused", _SURFACE_CASES.values(), ids=_SURFACE_CASES)
def test_each_command_loads_only_what_it_runs(argv, unused, tmp_path):
    src = str(Path(htype.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    save_algebra(htype.build_hn(htype.DivisionAlgebra.H, 1), tmp_path / "h1H.json")
    save_algebra(htype.build_hn(htype.DivisionAlgebra.C, 1), tmp_path / "h1C.json")
    proc = subprocess.run([sys.executable, "-c", _COMMAND_SURFACE, *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True, check=True)
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert not (unused | {"importlib.metadata", "logging"}) & set(loaded)


_IMPORT_SURFACE = """
import sys
from pathlib import Path

import htype
loaded = sorted(m for m in sys.modules if m.startswith(("htype.", "numpy")))
assert not loaded, f"import htype loaded {loaded}"

import htype.cli
tmp = Path(sys.argv[1])
for argv in (
        ["construct", "--family", "hn", "--algebra", "O", "--n", "1",
         "--out", str(tmp / "h1O.json")],
        ["check", "--in", str(tmp / "h1O.json"), "--tests", "jacobi,typeh,nonsingular",
         "--out", str(tmp / "check.json")],
        ["table", "--verify", "--out", str(tmp / "verify.json")],
        ["table", "--dump", "--out", str(tmp / "dump.json")]):
    assert htype.cli.main(argv) == 0, argv
    unused = {"numpy", "htype.boundary", "htype.symmetry"} & set(sys.modules)
    assert not unused, f"{argv[0]} loaded {unused}"

# exact and float64 prolongation, modular path included, and the Clifford
# construction run without numpy
import htype.linalg
modular = []
solve_modp = htype.linalg._nullspace_modp
htype.linalg._nullspace_modp = lambda *a, **k: modular.append(a) or solve_modp(*a, **k)
for argv in (
        ["construct", "--family", "hn", "--algebra", "H", "--n", "1",
         "--out", str(tmp / "h1H.json")],
        ["prolong", "--in", str(tmp / "h1H.json"), "--out", str(tmp / "prolong.json")],
        ["construct", "--family", "clifford", "--m", "8", "--k", "1",
         "--out", str(tmp / "cl81.json")]):
    assert htype.cli.main(argv) == 0, argv
    unused = {"numpy", "htype.boundary"} & set(sys.modules)
    assert not unused, f"{argv[0]} loaded {unused}"
assert modular, "prolong h1(H) never reached the modular path"
assert htype.cli.main(["prolong", "--in", str(tmp / "h1H.json"), "--arithmetic", "float64",
                       "--out", str(tmp / "prolong64.json")]) == 0
unused = {"numpy", "htype.boundary"} & set(sys.modules)
assert not unused, f"float64 prolong loaded {unused}"

for name in htype.__all__:
    obj = getattr(htype, name)
    assert obj.__module__.startswith("htype."), name
    assert getattr(sys.modules[obj.__module__], name) is obj, name
for path in Path(htype.__file__).parent.glob("[!_]*.py"):
    assert getattr(htype, path.stem) is sys.modules["htype." + path.stem], path.stem
assert set(htype.__all__) <= set(dir(htype))
"""


def test_commands_load_only_what_they_run(tmp_path):
    src = str(Path(htype.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SURFACE, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_lazy_exports_are_in_their_module_all():
    for module, names in htype._EXPORTS.items():
        declared = importlib.import_module(f"htype.{module}").__all__
        assert [n for n in names.split() if n not in declared] == [], module


def test_budget_refusal_log_stays_off_stderr(h1c):
    src = str(Path(htype.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "htype.cli", "prolong", "--in", h1c,
                           "--budget", "10"], env=env, capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("error: system size 240 entries exceeds budget 10 "
                           "(degree-0 derivation system)\n")


def test_no_package_module_imports_sympy():
    # sympy is a test-only oracle; the exact solver modules use no numpy either
    for path in Path(htype.__file__).resolve().parent.rglob("*.py"):
        banned = {"sympy", "numpy"} if path.stem in ("symmetry", "linalg") else {"sympy"}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not banned & {n.split(".")[0] for n in names}, path.name


def test_no_package_module_uses_assert():
    # `python -O` strips assert statements, so a check made with one vanishes
    for path in Path(htype.__file__).resolve().parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert on lines {lines}"


def test_only_nilpotent_reads_the_dense_structure_tensor():
    # every other reader goes through the sparse view GradedNilpotent.nonzeros;
    # symmetry.verify_graded_derivation is the direct-substitution reference
    for path in Path(htype.__file__).resolve().parent.rglob("*.py"):
        if path.name == "nilpotent.py":
            continue
        tree = ast.parse(path.read_text())
        exempt = {id(node) for f in tree.body if path.name == "symmetry.py"
                  and isinstance(f, ast.FunctionDef) and f.name == "verify_graded_derivation"
                  for node in ast.walk(f)}
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "structure"
                 and isinstance(node.ctx, ast.Load) and id(node) not in exempt]
        assert lines == [], f"{path.name}: .structure read on lines {lines}"
