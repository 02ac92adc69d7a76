"""CLI contract: flags, exit codes, JSON schema, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from skewrank import cli, cyclotomic, decomposition
from skewrank.cli import main

from conftest import child_env, rescale_to


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


# argv -> the message argparse names it with
ARGPARSE_ERRORS = {
    "oracle --p x --n 4": "argument --p: invalid int value: 'x'",
    "oracle --p 3": "the following arguments are required: --n",
    "frobnicate": "argument command: invalid choice: 'frobnicate'",
    "section6 --bogus 1": "unrecognized arguments: --bogus 1",
    "oracle --p 3 --n 4 --format yaml": "argument --format: invalid choice: 'yaml'",
    # flags are matched by their full names only: no prefix stands for a flag
    "section6 --form 1,1,-2": "unrecognized arguments: --form 1,1,-2",
    "section6 --g 3": "unrecognized arguments: --g 3",
    "verify --theorem TC --p 3 --n 4 --out x": "unrecognized arguments: --out x",
}


@pytest.mark.parametrize("argv", sorted(ARGPARSE_ERRORS))
def test_argparse_errors_exit_one_after_the_usage_line(capsys, argv):
    # argparse ends its own errors with exit 2, which means a failed check here
    message = ARGPARSE_ERRORS[argv]
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    assert captured.err.startswith("usage: skewrank") and message in captured.err


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["section6", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: skewrank")


def test_module_entry_exits_one_on_an_argparse_error():
    proc = subprocess.run([sys.executable, "-m", "skewrank", "oracle", "--p", "3"],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "the following arguments are required: --n" in proc.stderr


def test_negative_seed_exits_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--theorem", "direct-sum", "--p", "5", "--n", "6",
                             "--seed", "-1")
    assert code == 1 and out == ""
    assert "seed must be >= 0" in err and "Traceback" not in err


def test_sample_cap_above_the_exhaustive_ceiling_exits_one(capsys):
    # the sampled rows were allocated at once: 10**11 of them ended in a numpy MemoryError
    for argv in (("verify", "--theorem", "direct-sum"), ("oracle",)):
        code, out, err = run_cli(capsys, *argv, "--p", "1000003", "--n", "3",
                                 "--sample-cap", "100000000000")
        assert code == 1 and out == ""
        assert "sample-cap must be in [1, 1048576]" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, "verify", "--theorem", "direct-sum", "--p", "3", "--n", "4",
                           "--sample-cap", str(2**20))
    assert code == 0 and json.loads(out)["pass"] is True


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


def test_oversized_grid_and_samples_exit_one_at_once():
    # --grid 100000 walked 8e15 grid points; report-all built its field first
    runs = (("section6 --grid 100000 --samples 1", "grid must be <= 50"),
            ("section6 --grid 51", "grid must be <= 50"),
            ("section6 --samples 1048577", "samples must be <= 1048576"),
            ("report-all --p 1000003 --n 64 --grid 100000", "grid must be <= 50"),
            ("report-all --p 3 --n 4 --samples 10000000000", "samples must be <= 1048576"))
    for argv, condition in runs:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "skewrank", *argv.split()], capture_output=True,
                              text=True, env=child_env(), timeout=10)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 1 and proc.stdout == "", argv
        assert condition in proc.stderr and "Traceback" not in proc.stderr, argv
        assert elapsed < 1.0, (argv, elapsed)


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


def test_section6_fails_when_every_random_combination_is_zero(capsys, monkeypatch):
    # the zero draws are dropped, so a check of none of them must not pass
    monkeypatch.setattr(cyclotomic, "NUMERATORS", (0, 0))
    code, out, _ = run_cli(capsys, "section6", "--grid", "1", "--samples", "3", "--format", "text")
    assert (code, out.splitlines()[-1]) == (2, "FAIL: random")
    report = cyclotomic.verify_section6(grid=1, samples=3)
    assert report.random == {"checked": 0, "rank4": 0} and report.failed == ["random"]


def test_section6_with_an_isotropic_form_exits_two(capsys, monkeypatch):
    # X^2 + Y^2 - 2Z^2 has the zero (1, 1, 1): the certificate must fail, in both formats
    rescale_to(monkeypatch, (1, 1, -2))
    code, out, _ = run_cli(capsys, "section6", "--grid", "2", "--samples", "5")
    assert code == 2
    doc = json.loads(out)
    assert doc["pass"] is False and doc["anisotropic"] is False
    assert doc["squarefree_form"] == [1, 1, -2] and doc["legendre"]["residue_mod_c"] is True
    code, out, _ = run_cli(capsys, "section6", "--grid", "2", "--samples", "30", "--format", "text")
    assert (code, out) == (2, """\
skewrank 0.1.0  check=Section6
anisotropic: false
FAIL: anisotropic
""")


def test_remark_c_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "RemarkC",
                           "--p", "11", "--n", "16", "--i", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["theorem"] == "RemarkC"
    degenerate = next(c for c in doc["components"] if c["expected_rank"] == 14)
    assert degenerate["checked"] == 40


@pytest.mark.parametrize("theorem,n", [("TA", "6"), ("TC", "4"), ("direct-sum", "4"), ("T2", "4")])
def test_eigenspace_index_with_another_theorem_exits_one_naming_it(capsys, theorem, n):
    # --i selects the RemarkC slice; any other verifier would ignore it
    code, out, err = run_cli(capsys, "verify", "--theorem", theorem, "--p", "3", "--n", n, "--i", "7")
    assert code == 1 and out == ""
    assert "--i applies only to --theorem RemarkC" in err and "Traceback" not in err


def test_reports_match_the_recorded_benchmark_references(capsys):
    # the benchmark's reference reports, by SHA-256 of stdout at seed 0
    references = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
    for key, ref in json.loads(references.read_text(encoding="utf-8")).items():
        code, out, _ = run_cli(capsys, *key.split(), "--seed", "0")
        assert code == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == ref["sha256"], key


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


def test_unwritable_output_exits_one_naming_the_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, "verify", "--theorem", "TC", "--p", "3", "--n", "4",
                             "--output", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


def test_report_all_small_instance(capsys):
    code, out, _ = run_cli(capsys, "report-all", "--p", "3", "--n", "4",
                           "--grid", "2", "--samples", "10")
    assert code == 0
    doc = json.loads(out)
    names = [r["check"] for r in doc["runs"]]
    assert "direct-sum" in names and "TC" in names and "oracle" in names and "section6" in names
    assert any(s["check"] == "TA" for s in doc["skipped"])  # n/2 even here
    assert doc["pass"] is True


def test_report_all_runs_the_census_exactly_when_it_is_exhaustive(capsys, monkeypatch):
    # GF(81) has 80 units: at a ceiling of 80 the census is exhaustive, at 79 it would sample
    for ceiling, included in ((80, True), (79, False)):
        monkeypatch.setattr(decomposition, "FULL_FIELD_CEILING", ceiling)
        code, out, _ = run_cli(capsys, "report-all", "--p", "3", "--n", "4", "--grid", "1",
                               "--samples", "5")
        runs = {r["check"]: r for r in json.loads(out)["runs"]}
        assert code == 0 and ("oracle" in runs) == included, ceiling
        if included:
            assert runs["oracle"]["mode"] == "exhaustive"


def test_module_entry_point_runs():
    # the child finds the package where this process found it, whatever PYTHONPATH says
    proc = subprocess.run(
        [sys.executable, "-m", "skewrank", "verify", "--theorem", "TC", "--p", "3", "--n", "4"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def buffered_env() -> dict:
    """child_env with block-buffered standard streams, so that a report
    still sits in the buffer when main returns."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def entry_results(argv: str, tmp_path, capsys, child: list[str]) -> dict:
    """Exit code, stdout, stderr and --output file of main in this process
    and of a child started as `child` + argv, each writing its own file."""
    results = {}
    for where in ("inproc", "child"):
        out = tmp_path / f"{where}.txt"
        args = argv.format(out=out).split()
        if where == "inproc":
            result = (main(args), *capsys.readouterr())
        else:
            proc = subprocess.run([sys.executable, *child, *args], capture_output=True,
                                  text=True, env=buffered_env(), timeout=60)
            result = (proc.returncode, proc.stdout, proc.stderr)
        results[where] = (*result, out.read_text() if out.exists() else None)
    return results


@pytest.mark.parametrize("argv,code", [
    ("verify --theorem TC --p 3 --n 4", 0),
    ("oracle --p 3 --n 4 --format text", 0),
    ("verify --theorem TC --p 3 --n 4 --output {out}", 0),
    ("oracle --p 9 --n 4", 1),  # not a prime
])
def test_module_entry_matches_in_process_main(argv, code, tmp_path, capsys):
    # python -m skewrank ends by os._exit after flushing: nothing may be lost or added
    results = entry_results(argv, tmp_path, capsys, ["-m", "skewrank"])
    assert results["child"] == results["inproc"]
    assert results["child"][0] == code


# the entry of python -m skewrank, after the patch of rescale_to
ISOTROPIC_ENTRY = """
import dataclasses
from skewrank import cli, cyclotomic
real = cyclotomic.diagonalize_ternary
cyclotomic.diagonalize_ternary = lambda q: dataclasses.replace(real(q), squarefree_form=(1, 1, -2))
cli.run()
"""


@pytest.mark.parametrize("argv", [
    "section6 --grid 2 --samples 5",
    "section6 --grid 2 --samples 5 --format text --output {out}",
])
def test_entry_exits_two_like_in_process_main_on_a_failing_certificate(argv, tmp_path, capsys,
                                                                         monkeypatch):
    # no input makes a check fail, so the child patches the certified form itself
    rescale_to(monkeypatch, (1, 1, -2))
    results = entry_results(argv, tmp_path, capsys, ["-c", ISOTROPIC_ENTRY])
    assert results["child"] == results["inproc"]
    assert results["child"][0] == 2


@pytest.mark.parametrize("argv", ["verify --theorem TC --p 3 --n 4", "oracle --p 3 --n 4 --format text"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_one_with_one_line(argv, unbuffered):
    # buffered, the report reaches the pipe only at the final flush; unbuffered, at the write
    env = buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "skewrank", *argv.split()], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write the report: standard output is closed\n"


def test_an_exhaustive_run_never_imports_numpy_random():
    # nor does a sampled one: both draw from skewrank.stream
    script = """
import sys
from skewrank.cli import main
assert main("verify --theorem TA --p 7 --n 6 --output /dev/null".split()) == 0
assert "numpy.random" not in sys.modules
assert main("verify --theorem TA --p 7 --n 6 --sample-cap 100 --output /dev/null".split()) == 0
assert "numpy.random" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


SAMPLED_RUNS = (
    # the sampled invocations of the benchmark's verify-sweep workload
    "verify --theorem TC --p 3 --n 16 --sample-cap 2000",
    "verify --theorem direct-sum --p 5 --n 6 --sample-cap 2000",
    "verify --theorem TC --p 1000003 --n 4 --sample-cap 500",
    "verify --theorem direct-sum --p 1000003 --n 3 --sample-cap 500",
    "section6 --grid 10 --samples 1000",
    # a whole-field census too large to enumerate, and every check at once
    "oracle --p 1000003 --n 3 --sample-cap 200",
    "report-all --p 7 --n 12 --sample-cap 200 --grid 2 --samples 100",
)


def test_sampled_runs_import_neither_numpy_random_nor_openssl(tmp_path):
    # numpy.random imports secrets, and through it hashlib's OpenSSL binding
    script = f"""
import sys
from skewrank.cli import main
out = {str(tmp_path / "report.json")!r}
for argv in {SAMPLED_RUNS!r}:
    assert main([*argv.split(), "--output", out]) == 0, argv
    text = open(out).read()
    assert '"sampled"' in text or '"random": {{' in text, argv  # each run drew from the stream
print(sorted(name for name in ("numpy.random", "_hashlib") if name in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_prime_at_or_above_2_31_exits_one_naming_the_bound(capsys):
    # the primality test is exact only below 3.2e9, so the bound is checked first
    for p in ("2147483659", "2147483648", str(10**30 + 57)):  # 2**31 + 11 is prime
        code, out, err = run_cli(capsys, "oracle", "--p", p, "--n", "4")
        assert code == 1 and out == ""
        assert "below 2**31" in err and "Traceback" not in err


def test_no_verb_imports_sympy():
    script = """
import sys
from skewrank.cli import main
runs = [
    "oracle --p 3 --n 4",
    "verify --theorem T1 --p 3 --n 3",
    "verify --theorem T2 --p 3 --n 4",
    "verify --theorem TA --p 3 --n 6",
    "verify --theorem TC --p 3 --n 4",
    "verify --theorem RemarkC --p 11 --n 16 --i 3",
    "verify --theorem direct-sum --p 3 --n 4",
    "section6 --grid 1 --samples 5",
    "report-all --p 3 --n 4 --grid 1 --samples 5",
]
codes = [main(argv.split() + ["--output", "/dev/null"]) for argv in runs]
assert codes == [0] * len(runs), codes
assert "sympy" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_theorem_a_at_a_large_prime_never_factors_the_unit_group():
    # factoring p^30 - 1 here used to hang; the scan for j accepts theta at once
    proc = subprocess.run(
        [sys.executable, "-m", "skewrank", "verify", "--theorem", "TA", "--p", "1000003", "--n", "30"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_report_all_text_prints_every_run_and_every_skipped_check(capsys):
    code, out, _ = run_cli(capsys, "report-all", "--p", "3", "--n", "6", "--grid", "2",
                           "--samples", "30", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "skewrank 0.1.0  check=report-all" and lines[-1] == "PASS"
    # each run prints the block it prints on its own, under its check name
    for check, argv in (
        ("direct-sum", ("verify", "--theorem", "direct-sum", "--p", "3", "--n", "6")),
        ("TA", ("verify", "--theorem", "TA", "--p", "3", "--n", "6")),
        ("oracle", ("oracle", "--p", "3", "--n", "6")),
        ("section6", ("section6", "--grid", "2", "--samples", "30")),
    ):
        _, alone, _ = run_cli(capsys, *argv, "--format", "text")
        header, *block = alone.splitlines()
        run = f"run {check}  check={header.split('check=')[1]}"
        start = lines.index(run) + 1
        assert lines[start : start + len(block)] == ["  " + line for line in block], check
    assert "skipped TC: n must be divisible by 4" in lines


def test_report_all_text_names_the_failed_conditions_of_each_run(capsys, monkeypatch):
    rescale_to(monkeypatch, (1, 1, -2))
    code, out, _ = run_cli(capsys, "report-all", "--p", "3", "--n", "4", "--grid", "1",
                           "--samples", "5", "--format", "text")
    assert code == 2
    lines = out.splitlines()
    section6 = lines.index("run section6  check=Section6")
    assert lines[section6 + 1 : section6 + 3] == ["  anisotropic: false", "  FAIL: anisotropic"]
    assert lines[-1] == "FAIL: runs"


def test_report_all_exits_one_on_an_internal_check_error(capsys, monkeypatch):
    # a failed cross-check is a fault of the program, not a reason to skip a run
    monkeypatch.setattr(decomposition, "rank_mod_batch", lambda stack, p: np.zeros(len(stack), dtype=int))
    code, out, err = run_cli(capsys, "report-all", "--p", "3", "--n", "6", "--grid", "1",
                             "--samples", "5")
    assert (code, out) == (1, "")
    assert "error: stacked Gram rank disagrees with the scalar path" in err
    assert run_cli(capsys, "verify", "--theorem", "direct-sum", "--p", "3", "--n", "6") == (1, "", err)


def test_sampled_oracle_text_says_so(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--p", "5", "--n", "12", "--sample-cap", "100",
                           "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[1:4] == [
        "instance: p=5 n=12",
        "mode: sampled",
        "warning: field size 244140625 exceeds 16777216; sampled 100",
    ]


# the E3 slice has p^t - 1 odd exponents, t = n/8
@pytest.mark.parametrize("p, n, odd", [("11", "64", 11**8 - 1), ("1000003", "16", 1000003**2 - 1)])
def test_remark_c_beyond_the_sample_cap_exits_one_naming_it(p, n, odd):
    # the walk covered the whole slice, 2(p^t - 1) elements, with no bound;
    # then the cap was checked only after the modulus search (3 s at (11, 64))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "skewrank", "verify", "--theorem", "RemarkC", "--p", p, "--n", n],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert f"{odd} odd exponents, more than the sample cap 10000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_report_all_skips_a_remark_c_run_beyond_the_sample_cap(capsys):
    code, out, _ = run_cli(capsys, "report-all", "--p", "11", "--n", "16", "--sample-cap", "100",
                           "--grid", "1", "--samples", "5")
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    assert "RemarkC[i=3]" not in [r["check"] for r in doc["runs"]]
    reasons = {s["check"]: s["reason"] for s in doc["skipped"]}
    assert "120 odd exponents, more than the sample cap 100" in reasons["RemarkC[i=3]"]


def test_ta_at_the_largest_prime_and_degree_62_within_its_budget():
    # every GF(p) contraction of more than two terms takes the two int64 limb passes at this p
    proc = subprocess.run(
        [sys.executable, "-m", "skewrank", "verify", "--theorem", "TA", "--p", "2147483647",
         "--n", "62", "--sample-cap", "200"],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True and doc["instance"] == {"a": 31, "alpha": 1, "k": 31, "l": 1,
                                                       "n": 62, "p": 2147483647}
