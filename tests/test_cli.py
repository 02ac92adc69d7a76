"""CLI contract: flags, exit codes, JSON schema, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import skewrank
from skewrank.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_tc_small_instance(capsys):
    code, out, err = run_cli(capsys, "verify", "--theorem", "TC", "--p", "3", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["theorem"] == "TC1"
    assert {c["label"] for c in doc["components"]} == {"E1", "V1", "V2"}
    assert doc["pass"] is True
    assert doc["instance"] == {"p": 3, "n": 4, "a": 2, "l": 1, "alpha": 2, "k": 1}
    assert set(doc["config"]) >= {"command", "theorem", "p", "n", "seed", "sample_cap"}


def test_verify_hypothesis_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorem", "TA", "--p", "3", "--n", "4")
    assert code == 1 and "n/2 must be odd" in err
    code, _, err = run_cli(capsys, "verify", "--theorem", "TC", "--p", "5", "--n", "4")
    assert code == 1 and "-1 is a square in GF(5)" in err
    code, _, err = run_cli(capsys, "verify", "--theorem", "T1", "--p", "3", "--n", "4")
    assert code == 1 and "odd" in err


def test_usage_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorem", "TC", "--p", "4", "--n", "4")
    assert code == 1 and "odd prime" in err
    code, _, err = run_cli(capsys, "verify", "--theorem", "TC", "--p", "3", "--n", "1")
    assert code == 1
    code, _, err = run_cli(capsys, "oracle", "--p", "2", "--n", "4")
    assert code == 1
    code, _, err = run_cli(capsys, "oracle", "--p", "3", "--n", "4", "--sample-cap", "0")
    assert code == 1 and "sample-cap" in err


def test_negative_seed_exits_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--theorem", "direct-sum", "--p", "5", "--n", "6",
                             "--seed", "-1")
    assert code == 1 and out == ""
    assert "seed must be >= 0" in err and "Traceback" not in err


def test_section6_rejects_empty_grid_and_samples(capsys):
    for argv, condition in (
        (("--grid", "-1", "--samples", "0"), "grid must be >= 1"),
        (("--grid", "0"), "grid must be >= 1"),
        (("--samples", "0"), "samples must be >= 1"),
    ):
        code, out, err = run_cli(capsys, "section6", *argv)
        assert code == 1 and out == "" and condition in err
    code, _, err = run_cli(capsys, "report-all", "--p", "3", "--n", "4", "--samples", "0")
    assert code == 1 and "samples must be >= 1" in err


def test_largest_accepted_prime_runs(capsys):
    # the modulus search used to scan all p residues per candidate
    for theorem, n in (("TC", "4"), ("direct-sum", "3")):
        code, out, err = run_cli(capsys, "verify", "--theorem", theorem, "--p", "2147483647",
                                 "--n", n, "--sample-cap", "50")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["pass"] is True and doc["instance"]["p"] == 2147483647


def test_oracle_report(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--p", "3", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exhaustive"
    assert doc["degenerate_counts"] == {"1": 20, "2": 8, "3": 20}
    assert doc["predicate_disagreements"] == 0
    assert doc["histograms"]["1"] == {"2": 20, "4": 60}


def test_section6_command(capsys):
    code, out, _ = run_cli(capsys, "section6", "--grid", "2", "--samples", "25")
    assert code == 0
    doc = json.loads(out)
    assert doc["anisotropic"] is True
    assert doc["legendre"]["residue_mod_c"] is False
    assert doc["squarefree_form"] == [1, 1, -6]


def test_section6_tampered_form_exits_two(capsys):
    code, out, _ = run_cli(capsys, "section6", "--grid", "2", "--samples", "5",
                           "--form", "1,1,-2")
    assert code == 2
    doc = json.loads(out)
    assert doc["anisotropic"] is False


def test_remark_c_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "RemarkC",
                           "--p", "11", "--n", "16", "--i", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["theorem"] == "RemarkC"
    degenerate = next(c for c in doc["components"] if c["expected_rank"] == 14)
    assert degenerate["checked"] == 40


def test_reports_are_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "verify", "--theorem", "direct-sum", "--p", "3", "--n", "4",
                          "--seed", "7")
    _, second, _ = run_cli(capsys, "verify", "--theorem", "direct-sum", "--p", "3", "--n", "4",
                           "--seed", "7")
    assert first == second


def test_output_file_and_text_format(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--theorem", "TC", "--p", "3", "--n", "4",
                           "--output", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["pass"] is True
    code, out, _ = run_cli(capsys, "verify", "--theorem", "TC", "--p", "3", "--n", "4",
                           "--format", "text")
    assert code == 0
    assert "PASS" in out and "E1" in out


def test_report_all_small_instance(capsys):
    code, out, _ = run_cli(capsys, "report-all", "--p", "3", "--n", "4",
                           "--grid", "2", "--samples", "10")
    assert code == 0
    doc = json.loads(out)
    names = [r["check"] for r in doc["runs"]]
    assert "direct-sum" in names and "TC" in names and "oracle" in names and "section6" in names
    assert any(s["check"] == "TA" for s in doc["skipped"])  # n/2 even here
    assert doc["pass"] is True


def test_module_entry_point_runs():
    # the child finds the package where this process found it, whatever PYTHONPATH says
    src = str(Path(skewrank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "skewrank", "verify", "--theorem", "TC", "--p", "3", "--n", "4"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
