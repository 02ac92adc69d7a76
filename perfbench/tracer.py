"""Per-layer spans recorded from outside the skewrank package.

``Tracer.install`` replaces each public function listed in ``LAYERS`` by a
timing wrapper, at every place the function is bound: module globals
(including names imported into another module, such as ``rank_mod`` in
``forms``, ``galois`` and ``decomposition``), package re-exports, and class
attributes with their aliases (``CycloElement.__rmul__`` is
``CycloElement.__mul__``). Nothing under ``src/`` changes.

Spans are aggregated in memory per layer: calls and self time, where self
time is the span's duration minus the durations of the spans it encloses.
The wrappers' own cost and the counting hooks land in the caller's self time;
the traced run reports the wall time they add as ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# (layer name, module, attribute path inside the module)
LAYERS = (
    ("fields.find_irreducible", "skewrank.fields", "find_irreducible"),
    ("fields.ExtensionContext", "skewrank.fields", "ExtensionContext.__init__"),
    ("fields.mul", "skewrank.fields", "FieldElement.__mul__"),
    ("fields.inverse", "skewrank.fields", "FieldElement.inverse"),
    ("fields.pow", "skewrank.fields", "FieldElement.__pow__"),
    ("fields.norm", "skewrank.fields", "ExtensionContext.norm"),
    ("fields.frobenius_power", "skewrank.fields", "ExtensionContext.frobenius_power"),
    ("fields.multiplicative_generator", "skewrank.fields", "ExtensionContext.multiplicative_generator"),
    ("fields.element_order", "skewrank.fields", "ExtensionContext.element_order"),
    ("linalg.rank_mod", "skewrank.linalg", "rank_mod"),
    ("linalg.matmul_mod", "skewrank.linalg", "matmul_mod"),
    ("linalg.nullspace_mod", "skewrank.linalg", "nullspace_mod"),
    ("linalg.rref_mod", "skewrank.linalg", "rref_mod"),
    ("galois.eigenspace", "skewrank.galois", "eigenspace"),
    ("forms.gram_entries", "skewrank.forms", "gram_entries"),
    ("forms.is_degenerate_by_norm", "skewrank.forms", "is_degenerate_by_norm"),
    ("decomposition.rank_spectrum_check", "skewrank.decomposition", "rank_spectrum_check"),
    ("decomposition.build_component", "skewrank.decomposition", "build_component"),
    ("decomposition.find_nondegenerate_b", "skewrank.decomposition", "find_nondegenerate_b"),
    ("decomposition.remark_C_check", "skewrank.decomposition", "remark_C_check"),
    ("decomposition.oracle_survey", "skewrank.decomposition", "oracle_survey"),
    ("cyclotomic.verify_section6", "skewrank.cyclotomic", "verify_section6"),
    ("cyclotomic.gram_rational", "skewrank.cyclotomic", "gram_rational"),
    ("cyclotomic.CycloElement.mul", "skewrank.cyclotomic", "CycloElement.__mul__"),
    ("cyclotomic.cyclo_sigma", "skewrank.cyclotomic", "cyclo_sigma"),
    ("cyclotomic.diagonalize_ternary", "skewrank.cyclotomic", "diagonalize_ternary"),
    ("cli.main", "skewrank.cli", "main"),
)


def _count_rank(tracer: "Tracer", args, result) -> None:
    rows, cols = np.shape(args[0])
    tracer.counts["linalg.rank_mod.cells"] += rows * cols


def _count_gram(tracer: "Tracer", args, result) -> None:
    ctx, bvec, i = args
    tracer.distinct_grams.add((ctx.p, ctx.n, ctx.modulus, np.asarray(bvec, dtype=np.int64).tobytes(), i))


def _count_elements(tracer: "Tracer", mode: str, checked: int) -> None:
    tracer.counts["elements"] += checked
    if mode == "sampled":
        tracer.counts["elements.sampled"] += checked


def _count_spectrum(tracer: "Tracer", args, result) -> None:
    tracer.counts["decomposition.rank_spectrum_check.elements"] += result.checked
    _count_elements(tracer, result.mode, result.checked)


def _count_oracle(tracer: "Tracer", args, result) -> None:
    _count_elements(tracer, result.mode, result.checked)


def _count_remark(tracer: "Tracer", args, result) -> None:
    for component in result.components:
        _count_elements(tracer, component.mode, component.checked)


HOOKS = {
    "linalg.rank_mod": _count_rank,
    "forms.gram_entries": _count_gram,
    "decomposition.rank_spectrum_check": _count_spectrum,
    "decomposition.oracle_survey": _count_oracle,
    "decomposition.remark_C_check": _count_remark,
}


def _namespaces():
    """Every skewrank module and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if name != "skewrank" and not name.startswith("skewrank."):
            continue
        yield module
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == name:
                yield value


class Tracer:
    """Aggregated spans of one traced process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct_grams: set = set()
        self._open: list[int] = []  # time taken by the children of each open span

    def _wrap(self, name: str, fn):
        open_spans, calls, self_ns = self._open, self.calls, self.self_ns
        clock = time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[name] += elapsed - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        return span

    def install(self) -> list[str]:
        """Wrap every layer at every binding; return the layers found nowhere.

        A missing layer reads as zero calls; the self-test fails on it.
        """
        import skewrank.cli  # noqa: F401  (loads every module of the package)

        wrappers = {}
        for name, module, path in LAYERS:
            owner = sys.modules.get(module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(name, fn), name)
        rebound = set()
        for namespace in _namespaces():
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])
                    rebound.add(hit[2])
        return sorted({name for name, _, _ in LAYERS} - rebound)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls and self seconds of every layer, and the counters."""
        out: dict[str, float] = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        out["linalg.rank_mod.cells"] = self.counts["linalg.rank_mod.cells"]
        grams = self.calls["forms.gram_entries"]
        out["forms.gram_entries.distinct_ratio"] = len(self.distinct_grams) / grams if grams else 0.0
        out["decomposition.rank_spectrum_check.elements"] = \
            self.counts["decomposition.rank_spectrum_check.elements"]
        elements = self.counts["elements"]
        out["decomposition.sampled_share"] = \
            self.counts["elements.sampled"] / elements if elements else 0.0
        return out
