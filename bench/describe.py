"""List a workload's inputs for one seed: sizes, the resultant engine each
operation takes, and its time in ref.

    python3 bench/describe.py --workload transfer --seed 1

Runs each operation once, traced, so the times carry the tracing overhead;
use them to see where a round's time goes, not as measurements.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

import checks
import run
import tracing
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    gd = run.load_galedisc()
    inputs = run.prepare(gd, args.workload, args.seed)
    tracer = tracing.Tracer()
    tracer.install()
    total = 0.0
    with run.RefClock(tracer.charge_to_none) as ref:
        rows = [describe_one(gd, tracer, op, call_args) for op, call_args in inputs]
    for op, shape, size, used, t0, t1 in rows:
        cost = ref.to_ref(t0, t1)
        total += cost
        print(
            "%-24s %-26s sylvester=%-3s engine=%-28s %10.1f ref"
            % (op.label, shape, size or "-", ", ".join(used) or "-", cost)
        )
    print("total %.1f ref (traced)" % total, file=sys.stderr)


def describe_one(gd, tracer, op, call_args):
    """Run one operation; its sizes, the engines it used and its span."""
    before = {name: tracer.calls("mpoly." + name) for name in tracing.ENGINES.values()}
    size_before, tracer.size_max = tracer.size_max, 0
    t0 = perf_counter()
    run.call(gd, op, call_args)
    t1 = perf_counter()
    used = [
        "%s x%d" % (name.split("_")[1], tracer.calls("mpoly." + name) - n)
        for name, n in before.items()
        if tracer.calls("mpoly." + name) > n
    ]
    size, tracer.size_max = tracer.size_max, max(size_before, tracer.size_max)
    rows = op.check_matrix
    shape = "n=%d d=%d" % (len(rows), checks.pencil_exponents(rows)[1])
    if op.kind == "transfer":
        shape += " |det M|=%d" % abs(gd.intmat.IntMatrix(op.matrix).det())
    return op, shape, size, used, t0, t1


if __name__ == "__main__":
    main()
