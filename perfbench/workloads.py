"""The benchmark's workloads and the checks applied to every report.

A workload is a fixed list of CLI invocations. The workload seed is passed
down to each of them as ``--seed``; everything else about the inputs is fixed
here, so the same seed gives the same reports.

A report is correct when the CLI exits 0, the report says ``"pass": true``
and carries the seed it was given, and its per-component ``checked`` counts
equal the reference ones. At the default seed the report must also be byte
for byte the recorded reference (compared by SHA-256).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
REFERENCES = Path(__file__).with_name("references.json")

# section6 counts a random rational triple only when it is nonzero; a zero
# triple has probability 1/199**3 per sample, so the count may fall a little
# short of --samples on some seed. More than this many zero draws in one run
# has a probability of about 1e-17.
SECTION6_ZERO_DRAWS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[tuple[str, ...], ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        "oracle-census",
        "exhaustive whole-field census at small p: GF(p) rank and the norm predicate do nearly all the work",
        (
            ("oracle", "--p", "3", "--n", "7"),
            ("oracle", "--p", "7", "--n", "4"),
        ),
    ),
    Workload(
        "verify-sweep",
        "every verifier id: eigenspaces, sampled checks, the large-p modulus search and the rational Section-6 chain",
        (
            ("verify", "--theorem", "TC", "--p", "3", "--n", "16", "--sample-cap", "2000"),
            ("verify", "--theorem", "direct-sum", "--p", "5", "--n", "6", "--sample-cap", "2000"),
            ("verify", "--theorem", "RemarkC", "--p", "11", "--n", "16"),
            ("verify", "--theorem", "TA", "--p", "3", "--n", "10"),
            ("verify", "--theorem", "TA", "--p", "7", "--n", "6"),
            ("verify", "--theorem", "TC", "--p", "1000003", "--n", "4", "--sample-cap", "500"),
            ("verify", "--theorem", "direct-sum", "--p", "1000003", "--n", "3", "--sample-cap", "500"),
            ("section6", "--grid", "10", "--samples", "1000"),
        ),
    ),
)}


def argv(invocation: tuple[str, ...], seed: int) -> list[str]:
    """CLI arguments of one invocation at the workload seed."""
    return [*invocation, "--seed", str(seed)]


def key(invocation: tuple[str, ...]) -> str:
    return " ".join(invocation)


def instance(invocation: tuple[str, ...]) -> tuple[int, int] | None:
    """(p, n) of an invocation that builds a field context, else None."""
    if "--p" not in invocation:
        return None
    return int(invocation[invocation.index("--p") + 1]), int(invocation[invocation.index("--n") + 1])


def ranks(doc: dict) -> int:
    """Gram-rank evaluations a report accounts for."""
    if doc["theorem"] == "oracle":
        return doc["checked"] * (doc["instance"]["n"] - 1)
    if doc["theorem"] == "Section6":
        return doc["grid"]["checked"] + doc["random"]["checked"]
    return sum(c["checked"] for c in doc["components"])


def counts(doc: dict) -> dict:
    """The seed-independent element counts of a report."""
    if doc["theorem"] == "oracle":
        return {"checked": doc["checked"], "predicate_checked": doc["predicate_checked"]}
    if doc["theorem"] == "Section6":
        return {"coefficient_identity": doc["coefficient_identity"]["checked"],
                "grid": doc["grid"]["checked"]}
    return {c["label"]: c["checked"] for c in doc["components"]}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def reference_entry(text: str) -> dict:
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "counts": counts(json.loads(text))}


def check(invocation: tuple[str, ...], seed: int, code: int, text: str, references: dict) -> str | None:
    """Why the report of one invocation is wrong, or None if it is correct."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if doc.get("pass") is not True:
        return "report does not pass"
    if doc.get("seed") != seed:
        return f"report seed {doc.get('seed')} != {seed}"
    ref = references[key(invocation)]
    if seed == DEFAULT_SEED and hashlib.sha256(text.encode()).hexdigest() != ref["sha256"]:
        return "report differs from the reference bytes"
    if counts(doc) != ref["counts"]:
        return f"checked counts {counts(doc)} != reference {ref['counts']}"
    if doc["theorem"] == "Section6":
        samples = doc["config"]["samples"]
        if not samples - SECTION6_ZERO_DRAWS <= doc["random"]["checked"] <= samples:
            return f"random.checked {doc['random']['checked']} out of range for {samples} samples"
    return None
