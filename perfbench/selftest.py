"""Self-test of the benchmark's tracing: every binding is wrapped, and each
workload reaches the layers it is meant to reach and no others.

    python3 perfbench/selftest.py

A binding the tracer missed would read as zero calls in the per-layer
metrics; here it fails instead. Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from run import HERE, ROOT, child_env, spawn
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, check, load_references, ranks

CYCLOTOMIC = ("cyclotomic.verify_section6", "cyclotomic.gram_rational", "cyclotomic.CycloElement.mul",
              "cyclotomic.cyclo_sigma", "cyclotomic.diagonalize_ternary")

# Layers that must run (calls > 0) and layers that must not (calls == 0).
REACHES = {
    "oracle-census": (
        ("cli.main", "fields.find_irreducible", "fields.ExtensionContext", "fields.mul",
         "fields.inverse", "fields.norm", "fields.frobenius_power", "linalg.rank_mod",
         "linalg.matmul_mod", "forms.gram_entries", "forms.is_degenerate_by_norm",
         "decomposition.oracle_survey"),
        ("galois.eigenspace", "decomposition.rank_spectrum_check", "decomposition.build_component",
         "decomposition.remark_C_check", *CYCLOTOMIC),
    ),
    "verify-sweep": (
        ("cli.main", "fields.find_irreducible", "fields.ExtensionContext",
         "fields.multiplicative_generator", "fields.element_order", "linalg.rank_mod",
         "linalg.nullspace_mod", "linalg.rref_mod", "galois.eigenspace", "forms.gram_entries",
         "decomposition.rank_spectrum_check", "decomposition.build_component",
         "decomposition.find_nondegenerate_b", "decomposition.remark_C_check", *CYCLOTOMIC),
        ("decomposition.oracle_survey",),
    ),
}

# The Section-6 chain on its own: rational arithmetic only, so a GF(p)
# kernel change cannot move the share of verify-sweep it takes.
SECTION6 = ("section6", "--grid", "2", "--samples", "20", "--seed", str(DEFAULT_SEED))
SECTION6_REACHES = (
    ("cli.main", *CYCLOTOMIC),
    ("fields.find_irreducible", "fields.ExtensionContext", "fields.mul", "linalg.rank_mod",
     "linalg.matmul_mod", "forms.gram_entries", "decomposition.rank_spectrum_check",
     "decomposition.oracle_survey"),
)

# Names bound in more than one place; each must hold the wrapper.
BINDINGS = (
    ("skewrank.linalg", "rank_mod"),
    ("skewrank.forms", "rank_mod"),
    ("skewrank.galois", "rank_mod"),
    ("skewrank.decomposition", "rank_mod"),
    ("skewrank.forms", "gram_entries"),
    ("skewrank.decomposition", "gram_entries"),
    ("skewrank.forms", "is_degenerate_by_norm"),
    ("skewrank.decomposition", "is_degenerate_by_norm"),
    ("skewrank.linalg", "matmul_mod"),
    ("skewrank.fields", "matmul_mod"),
    ("skewrank.forms", "matmul_mod"),
    ("skewrank.fields", "find_irreducible"),
    ("skewrank", "find_irreducible"),
    ("skewrank.fields", "FieldElement.__mul__"),
    ("skewrank.cyclotomic", "CycloElement.__mul__"),
    ("skewrank.cyclotomic", "CycloElement.__rmul__"),
)


def check_reaches(label: str, layers: dict, must_run, must_not, failures: list[str]) -> None:
    for layer in must_run:
        if layers[f"{layer}.calls"] == 0:
            failures.append(f"{label}: {layer} never called")
    for layer in must_not:
        if layers[f"{layer}.calls"] != 0:
            failures.append(f"{label}: {layer} called {layers[f'{layer}.calls']} times")


def check_bindings(failures: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    missing = tracer.install()
    if missing:
        failures.append(f"layers found nowhere: {missing}")
    for module, path in BINDINGS:
        owner = sys.modules[module]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        if not hasattr(vars(owner).get(attr), "__wrapped__"):
            failures.append(f"{module}.{path} is not wrapped")
    import skewrank.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = skewrank.cli.main(list(SECTION6))
    if code != 0:
        failures.append(f"{' '.join(SECTION6)} exited {code}")
    check_reaches("section6", tracer.metrics(), *SECTION6_REACHES, failures)


def check_workload(name: str, references: dict, failures: list[str]) -> None:
    child = spawn([str(HERE / "inproc.py"), "--workload", name, "--seed", str(DEFAULT_SEED), "--trace"],
                  child_env(), time.perf_counter() + 600)
    if child.code != 0:
        failures.append(f"{name}: traced pass exited {child.code}\n{child.err}")
        return
    traced = json.loads(child.out.splitlines()[-1])
    layers = traced["layers"]
    report_ranks = 0
    for invocation, report in zip(WORKLOADS[name].invocations, traced["reports"]):
        reason = check(invocation, DEFAULT_SEED, report["code"], report["text"], references)
        if reason is not None:
            failures.append(f"{name}: {report['key']}: {reason}")
        else:
            report_ranks += ranks(json.loads(report["text"]))
    check_reaches(name, layers, *REACHES[name], failures)
    if name == "oracle-census" and layers["linalg.rank_mod.calls"] != report_ranks:
        failures.append(f"{name}: rank_mod calls {layers['linalg.rank_mod.calls']} != "
                        f"{report_ranks} ranks in the reports")
    sampled = layers["decomposition.sampled_share"]
    if (sampled > 0) != (name == "verify-sweep"):
        failures.append(f"{name}: sampled_share {sampled}")
    print(f"{name}: traced pass {traced['wall_s']:.2f} s, {report_ranks} ranks", flush=True)


def main() -> int:
    failures: list[str] = []
    check_bindings(failures)
    references = load_references()
    for name in WORKLOADS:
        check_workload(name, references, failures)
    for failure in failures:
        print("FAIL", failure)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
