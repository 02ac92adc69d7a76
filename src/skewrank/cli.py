"""Command-line front end emitting machine-readable verification reports.

Commands:
    verify     run one theorem verifier at an instance (p, n)
    oracle     whole-field rank census with predicate cross-validation
    section6   certificate chain for the rational 3-dimensional subspace
    report-all every check applicable to an instance, in one document

Exit codes: 0 pass, 1 usage, hypothesis or internal-check error,
2 verification failure.
JSON is the stable contract; the text format is a readable summary.
Only section6 and report-all import the Section-6 layer (cyclotomic, and
with it fractions and decimal); the other commands never load it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import NoReturn

from . import __version__
from .arith import is_prime
from .decomposition import (
    EXHAUSTIVE_CEILING,
    FULL_FIELD_CEILING,
    oracle_survey,
    remark_C_check,
    remark_C_slice,
    verify_direct_sum,
    verify_theorem_A,
    verify_theorem_C,
)
from .errors import HypothesisViolation, InvalidArgument, SkewrankError, WrongShape
from .fields import MAX_PRIME, ExtensionContext
from .galois import two_adic_shape
from .report import Report

THEOREMS = ("T1", "T2", "TA", "TC", "RemarkC", "direct-sum")

# verifier(ctx, seed=, sample_cap=) per theorem id; report-all runs
# direct-sum, TA and TC, and RemarkC takes an eigenspace index instead
VERIFIERS = {
    "T1": verify_direct_sum,
    "T2": verify_direct_sum,
    "direct-sum": verify_direct_sum,
    "TA": verify_theorem_A,
    "TC": verify_theorem_C,
}

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAILED = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewrank",
        description="Exact verification of constant-rank decompositions of skew-forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_instance=True):
        if with_instance:
            sp.add_argument("--p", type=int, required=True, help="odd prime base field size, below 2**31")
            sp.add_argument("--n", type=int, required=True, help="extension degree, 2..64")
        sp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        sp.add_argument("--sample-cap", type=int, default=10_000,
                        help="max elements checked per subspace before sampling")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--output", default=None, help="write the report here instead of stdout")

    sp = sub.add_parser("verify", help="verify one theorem at an instance")
    sp.add_argument("--theorem", choices=THEOREMS, required=True)
    sp.add_argument("--i", type=int, default=None,
                    help="eigenspace index for RemarkC (default: smallest valid)")
    add_common(sp)

    sp = sub.add_parser("oracle", help="whole-field rank census")
    add_common(sp)

    sp = sub.add_parser("section6", help="rational 3-dimensional subspace certificate")
    sp.add_argument("--grid", type=int, default=10, help="integer grid bound")
    sp.add_argument("--samples", type=int, default=1000, help="random rational tuples")
    sp.add_argument("--form", default=None,
                    help="a,b,c override of the certified ternary form (testing hook)")
    add_common(sp, with_instance=False)

    sp = sub.add_parser("report-all", help="every applicable check for an instance")
    sp.add_argument("--grid", type=int, default=10)
    sp.add_argument("--samples", type=int, default=1000)
    add_common(sp)
    return parser


def _validate_instance(p: int, n: int) -> None:
    # the bound first: the primality test is exact only below it
    if not (2 < p < MAX_PRIME and is_prime(p)):
        raise SkewrankError(f"p must be an odd prime below 2**31, got {p}")
    if not 2 <= n <= 64:
        raise SkewrankError(f"n must be in [2, 64], got {n}")


def _validate_common(args) -> None:
    if args.seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {args.seed}")
    if not 1 <= args.sample_cap <= EXHAUSTIVE_CEILING:
        raise InvalidArgument(f"sample-cap must be in [1, {EXHAUSTIVE_CEILING}], got {args.sample_cap}")
    if hasattr(args, "grid"):  # section6 and report-all, before any field is built
        from . import cyclotomic

        cyclotomic.check_section6_size(args.grid, args.samples)


def _config_dict(args) -> dict:
    keys = ("command", "theorem", "p", "n", "i", "seed", "sample_cap", "format", "grid", "samples")
    return {key: getattr(args, key, None) for key in keys}


def _format_text(report: Report) -> str:
    """A header line, then each run of report-all (its check name and the
    block it prints on its own, indented) and each skipped check with
    its reason, then the report's own block."""
    lines = [f"skewrank {__version__}  check={report.theorem}"]
    for run in getattr(report, "runs", ()):
        lines.append(f"run {run.check}  check={run.theorem}")
        lines += ["  " + line for line in _text_block(run)]
    for skip in getattr(report, "skipped", ()):
        lines.append(f"skipped {skip['check']}: {skip['reason']}")
    return "\n".join(lines + _text_block(report)) + "\n"


def _text_block(report: Report) -> list[str]:
    """Every line of one report's text below its header; a failing report
    ends with the names of the conditions that do not hold."""
    doc = report.to_json_dict()
    lines = []
    instance = doc.get("instance")
    if instance:
        lines.append("instance: " + " ".join(f"{k}={v}" for k, v in instance.items()))
    comps = doc.get("components")
    if comps:
        lines.append(f"{'label':<42} {'dim':>4} {'expected':>8} {'mode':>10} {'checked':>8}  spectrum")
        for c in comps:
            spec = ",".join(f"{r}:{k}" for r, k in c["rank_spectrum"].items())
            exp = c["expected_rank"] if c["expected_rank"] is not None else "-"
            mark = "ok" if c["pass"] else "FAIL"
            lines.append(
                f"{c['label']:<42} {c['dimension']:>4} {exp:>8} {c['mode']:>10} "
                f"{c['checked']:>8}  {{{spec}}} {mark}"
            )
    if "mode" in doc:
        lines.append(f"mode: {doc['mode']}")
    if "warning" in doc:
        lines.append(f"warning: {doc['warning']}")
    if "histograms" in doc:
        for i, h in doc["histograms"].items():
            spec = ",".join(f"{r}:{k}" for r, k in h.items())
            lines.append(f"i={i}: {{{spec}}}")
    if "direct_sum_ok" in doc:  # for RemarkC, the membership of u^s in E_i exactly for odd s
        label = "slice membership" if doc["theorem"] == "RemarkC" else "direct sum certificate"
        lines.append(f"{label}: {'ok' if doc['direct_sum_ok'] else 'FAIL'}")
    if "anisotropic" in doc:
        lines.append(f"anisotropic: {str(doc['anisotropic']).lower()}")
    lines.append("PASS" if report.passed else "FAIL: " + ", ".join(report.failed))
    return lines


def _emit(args, report: Report) -> int:
    if args.format == "json":
        doc = {"tool_version": __version__, "config": _config_dict(args), **report.to_json_dict()}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = _format_text(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SkewrankError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_PASS if report.passed else EXIT_FAILED


def _run_verify(args) -> Report:
    theorem = args.theorem
    if args.i is not None and theorem != "RemarkC":
        raise SkewrankError(f"--i applies only to --theorem RemarkC, not {theorem}")
    _validate_instance(args.p, args.n)
    if theorem == "T1" and args.n % 2 == 0:
        raise SkewrankError("n must be odd for T1")
    if theorem == "T2" and args.n % 2 == 1:
        raise SkewrankError("n must be even for T2")
    common = {"seed": args.seed, "sample_cap": args.sample_cap}
    if theorem != "RemarkC":
        return VERIFIERS[theorem](ExtensionContext(args.p, args.n), **common)
    i_index = args.i
    if i_index is None:
        a, _ = two_adic_shape(args.p + 1)
        i_index = a + 1
    remark_C_slice(args.p, args.n, i_index, args.sample_cap)  # before the context build
    return remark_C_check(ExtensionContext(args.p, args.n), i_index, **common)


def _run_oracle(args) -> Report:
    _validate_instance(args.p, args.n)
    return oracle_survey(ExtensionContext(args.p, args.n), seed=args.seed, sample_cap=args.sample_cap)


def _run_section6(args) -> Report:
    from . import cyclotomic

    override = None
    if args.form is not None:
        parts = args.form.split(",")
        try:
            override = tuple(int(x) for x in parts)
        except ValueError:
            override = ()
        if len(override) != 3:
            raise SkewrankError("--form needs three comma-separated integers")
    return cyclotomic.verify_section6(grid=args.grid, samples=args.samples, seed=args.seed,
                                      form_override=override)


def _run_report_all(args) -> Report:
    """Every check applicable at (p, n), each run tagged with its check
    name; passes when there is at least one run and every run passes.
    A check whose instance has the wrong shape or violates its
    hypotheses is listed as skipped; any other error ends the run."""
    from . import cyclotomic

    _validate_instance(args.p, args.n)
    ctx = ExtensionContext(args.p, args.n)
    runs: list[Report] = []
    skipped: list[dict] = []

    def attempt(name, fn):
        try:
            report = fn()
        except (WrongShape, HypothesisViolation) as exc:
            skipped.append({"check": name, "reason": str(exc)})
            return
        report.check = name
        runs.append(report)

    common = {"seed": args.seed, "sample_cap": args.sample_cap}
    for name in ("direct-sum", "TA", "TC"):
        attempt(name, lambda fn=VERIFIERS[name]: fn(ctx, **common))
    alpha, _ = two_adic_shape(args.n)
    a, l = two_adic_shape(args.p + 1)
    if l > 1 and alpha > a + 1:
        for idx in range(a + 1, alpha):
            attempt(f"RemarkC[i={idx}]", lambda idx=idx: remark_C_check(ctx, idx, **common))
    if ctx.order <= FULL_FIELD_CEILING:
        attempt("oracle", lambda: oracle_survey(ctx, **common))
    attempt("section6", lambda: cyclotomic.verify_section6(grid=args.grid, samples=args.samples,
                                                           seed=args.seed))
    return Report(conditions={"runs": runs}, theorem="report-all", runs=runs, skipped=skipped)


RUNNERS = {
    "verify": _run_verify,
    "oracle": _run_oracle,
    "section6": _run_section6,
    "report-all": _run_report_all,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_common(args)
        return _emit(args, RUNNERS[args.command](args))
    except SkewrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> NoReturn:
    """Entry point of `python -m skewrank` and of the installed command.

    Runs main, flushes both streams and ends the process with os._exit,
    skipping interpreter teardown: the report is already written, and
    neither skewrank nor numpy registers an atexit handler.  A closed
    standard output ends the run with one line on stderr and exit 1.
    An exception, argparse's SystemExit among them, leaves by the
    normal path.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_USAGE
        with contextlib.suppress(OSError):
            sys.stderr.write("error: cannot write the report: standard output is closed\n")
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
