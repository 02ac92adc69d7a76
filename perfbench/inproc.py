"""One pass over a workload inside this interpreter, through skewrank.cli.main.

Run it as a script in a fresh interpreter, so that the package's per-process
caches (modulus search, Frobenius powers, generator) start cold, as they do
for a CLI user:

    PYTHONPATH=src python3 perfbench/inproc.py --workload verify-sweep --seed 0 [--trace]

Before each invocation that builds a field context, the pass calls the public
find_irreducible(p, n). ExtensionContext then finds the modulus in the
package's cache, so a traced pass shows the modulus search and the table
build as separate spans. The untraced pass makes the same calls, so both
passes do the same work.

Prints one JSON line: the wall time of the pass, the exit code and report
text of every invocation and, with --trace, the per-layer metrics and the
layers the tracer found nowhere in the package.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback

from workloads import WORKLOADS, argv, instance, key


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
    import skewrank.cli
    from skewrank import fields

    reports = []
    start = time.perf_counter()
    for invocation in WORKLOADS[args.workload].invocations:
        inst = instance(invocation)
        buf = io.StringIO()
        try:
            if inst is not None:
                fields.find_irreducible(*inst)
            with contextlib.redirect_stdout(buf):
                code = skewrank.cli.main(argv(invocation, args.seed))
        except Exception:  # one broken invocation must not hide the others
            traceback.print_exc()
            code = -1
        reports.append({"key": key(invocation), "code": code, "text": buf.getvalue()})
    wall = time.perf_counter() - start
    out = {"wall_s": wall, "reports": reports}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["missing_layers"] = missing
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
