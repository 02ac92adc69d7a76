"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --workload verify-sweep --seeds 1 2 3 4 5
    python3 perfbench/steady.py --workload oracle-census --seeds 0 1 2 3 4 5 6 7 8 9 --out perfbench/baseline.json

Runs ``run.py --trace 0`` once per seed, one after another, for the
``run_seconds`` of BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread, the distance between the quartiles as a share of the median, beside
the metric's bound. A spread below a third of the bound is steady; setup_s is
not held to its bound, only reported. With --out, the workload's record
(machine facts, every run's values and the spreads) is merged into that JSON
file under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=200,
    )
    lines = done.stdout.splitlines()
    return json.loads(lines[0])["facts"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    facts = None
    all_correct = True
    for seed in args.seeds:
        facts, result = run_once(args.workload, seed, spec["run_seconds"])
        all_correct &= result["correct"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{name}={values[name][-1]:.4g}" for name in values), flush=True)
    steady = all_correct
    spreads = {}
    for m in metrics:
        q1, median, q3 = statistics.quantiles(values[m["name"]], n=4)
        spread = (q3 - q1) / median
        gated = m["name"] != "setup_s"
        ok = spread < m["bound"] / 3 or not gated
        steady &= ok
        spreads[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                              "bound": m["bound"], "values": values[m["name"]]}
        print(f"{m['name']:>15}: median {median:.6g} {m['unit']}  spread {spread:.4f}  "
              f"bound {m['bound']}  {'ok' if ok else 'TOO WIDE'}{'' if gated else ' (not gated)'}")
    if args.out is not None:
        record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        record[args.workload] = {"facts": facts, "seeds": args.seeds,
                                 "run_seconds": spec["run_seconds"], "correct": all_correct,
                                 "metrics": spreads}
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
