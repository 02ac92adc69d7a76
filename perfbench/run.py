"""skewrank benchmark: time to a verified report.

    python3 perfbench/run.py --workload oracle-census --seed 0 --seconds 56 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed. The workloads are in ``workloads.py``.

--trace 0 (end-to-end). One client runs a closed loop: each CLI invocation
of the workload runs in a fresh interpreter (``python3 -m skewrank``) after
the previous one has finished, and its JSON report is captured and checked
before the next starts. Whole passes over the workload repeat until the pass
boundary nearest to --seconds. Reported, as medians over passes: ``wall_s``
per pass, ``ranks_per_s`` (Gram ranks the reports account for, per second)
and ``peak_rss_mb`` (largest resident set of one invocation in a pass, from
that child's own rusage). Also reported: ``setup_s``, the median of several
fresh interpreters that only import ``skewrank.cli``, and
``verified_share``, the share of everything run that was verified.

--trace 1 (per layer). Two fresh interpreters each run one pass in-process
through ``skewrank.cli.main`` (see ``inproc.py``): one plain, one with the
spans of ``tracer.py`` installed; --seconds does not apply. Reported: every
layer's calls and self time, the counters, and ``trace.overhead_s``, the
traced pass's wall time minus the plain one's. The traced reports must be
byte-identical to the plain ones and pass the same checks.

The last line of standard output is the result object; the lines before it
hold the machine facts and the per-pass detail. ``--record-references``
rewrites ``references.json`` from the current program at the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    REFERENCES,
    WORKLOADS,
    argv,
    check,
    key,
    load_references,
    ranks,
    reference_entry,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # after one warm-up probe that fills the bytecode caches
RUN_LIMIT_S = 170.0  # every child is killed once the run has lasted this long
SETUP_ARGV = ("-c", "import skewrank.cli")


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    rss_mb: float


def spawn(args: list[str], env: dict, deadline: float) -> Child:
    """Run python3 with args to completion; memory from this child's own rusage."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return Child(-1, "", "run time limit reached", 0.0, 0.0)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer.start()
    reader.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out.decode(), b"".join(err).decode(errors="replace"),
                 wall, usage.ru_maxrss / 1024)


def child_env() -> dict:
    """Children import the package from src/ and keep bytecode caches, as an installed package does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine_facts() -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def run_pass(workload, seed: int, references: dict, env: dict, deadline: float) -> dict:
    """One closed-loop pass: every invocation in a fresh interpreter, checked."""
    start = time.perf_counter()
    peak = 0.0
    rank_count = 0
    failed = 0
    walls = {}
    for invocation in workload.invocations:
        child = spawn(["-m", "skewrank", *argv(invocation, seed)], env, deadline)
        reason = check(invocation, seed, child.code, child.out, references)
        if reason is None:
            rank_count += ranks(json.loads(child.out))
        else:
            failed += 1
            print(f"FAILED {key(invocation)} --seed {seed}: {reason}\n{child.err}", file=sys.stderr)
        peak = max(peak, child.rss_mb)
        walls[key(invocation)] = child.wall_s
    wall = time.perf_counter() - start
    return {"wall_s": wall, "ranks": rank_count, "peak_rss_mb": peak,
            "attempted": len(workload.invocations), "failed": failed, "invocations": walls}


def timed_run(workload, seed: int, seconds: float, references: dict, env: dict, deadline: float):
    probes = [spawn(list(SETUP_ARGV), env, deadline) for _ in range(SETUP_PROBES + 1)][1:]
    failed = sum(p.code != 0 for p in probes)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed, references, env, deadline))
        now = time.perf_counter()
        typical = statistics.median(p["wall_s"] for p in passes)
        # stop at the pass boundary nearest to --seconds, so runs keep their length
        if now - start + typical / 2 >= seconds or now + typical > deadline:
            break
    attempted = len(probes) + sum(p["attempted"] for p in passes)
    failed += sum(p["failed"] for p in passes)
    series = {
        "wall_s": [p["wall_s"] for p in passes],
        "ranks_per_s": [p["ranks"] / p["wall_s"] for p in passes],
        "setup_s": [p.wall_s for p in probes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    values = {name: statistics.median(v) for name, v in series.items()}
    values["verified_share"] = (attempted - failed) / attempted
    detail = {"passes": passes, "setup_s": series["setup_s"]}
    return attempted, failed, values, detail


def traced_run(workload, seed: int, references: dict, env: dict, deadline: float):
    passes = {}
    for mode, extra in (("plain", []), ("traced", ["--trace"])):
        child = spawn([str(HERE / "inproc.py"), "--workload", workload.name, "--seed", str(seed), *extra],
                      env, deadline)
        if child.code != 0:
            raise RuntimeError(f"{mode} in-process pass exited {child.code}:\n{child.err}")
        sys.stderr.write(child.err)
        passes[mode] = json.loads(child.out.splitlines()[-1])
    plain, traced = passes["plain"], passes["traced"]
    failed = 0
    for invocation, ref, got in zip(workload.invocations, plain["reports"], traced["reports"]):
        for mode, report in (("plain", ref), ("traced", got)):
            reason = check(invocation, seed, report["code"], report["text"], references)
            if reason is None and mode == "traced" and report["text"] != ref["text"]:
                reason = "traced report differs from the untraced one"
            if reason is not None:
                failed += 1
                print(f"FAILED {mode} {key(invocation)} --seed {seed}: {reason}", file=sys.stderr)
    if traced["missing_layers"]:
        print(f"layers not found in the package: {traced['missing_layers']}", file=sys.stderr)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    detail = {"plain_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "missing_layers": traced["missing_layers"]}
    return 2 * len(workload.invocations), failed, values, detail


def record_references(env: dict) -> None:
    refs = {}
    for workload in WORKLOADS.values():
        for invocation in workload.invocations:
            child = spawn(["-m", "skewrank", *argv(invocation, DEFAULT_SEED)], env, time.perf_counter() + 3600)
            if child.code != 0 or json.loads(child.out).get("pass") is not True:
                raise SystemExit(f"{key(invocation)} did not pass:\n{child.err}")
            refs[key(invocation)] = reference_entry(child.out)
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # unwinds through spawn
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time measured by --trace 0 (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "skewrank" / "cli.py").is_file():
        print(f"error: no skewrank source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    if args.record_references:
        record_references(env)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    references = load_references()
    deadline = time.perf_counter() + RUN_LIMIT_S
    print(json.dumps({"facts": {**machine_facts(), "workload": workload.name, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace}}), flush=True)
    if args.trace:
        attempted, failed, values, detail = traced_run(workload, args.seed, references, env, deadline)
    else:
        attempted, failed, values, detail = timed_run(workload, args.seed, args.seconds,
                                                      references, env, deadline)
    undeclared = set(values) ^ {m["name"] for m in declared}
    if undeclared:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(undeclared)}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
