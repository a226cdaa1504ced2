"""The galedisc benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload curves --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports galedisc from its
`src/`.  One process, one operation in flight, no threads: the workload's
fixed operation list is solved in order, round after round, until
--seconds have passed, and always in whole rounds.  Every output is checked
(bench/checks.py) the first time it is made and compared with that checked
output afterwards.  Compute times are reported in ref, multiples of the
reference kernel (bench/refkernel.py), which a timer signal runs every
10 ms during and between operations.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics, the end-to-end ones with --trace 0 and the
per-layer ones with --trace 1 (a separate run that wraps galedisc's
functions, see bench/tracing.py).  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

import checks
import refkernel
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None

SETUP_STARTS = 15  # fresh interpreter starts per run for setup_s, spread over the run
COLD_STARTS = 3  # fresh starts per cold-start layer metric in the traced run
REF_PERIOD_S = 0.01  # one reference sample per this much wall time
# setup_s is reported in seconds at this many seconds per ref, the median
# on the machine the bounds were set on (see bench/README.md).
REF_SECONDS = 1.6e-3
TAIL_BEYOND = 10  # per-operation medians above the tail value

# One small fixed input per workload for the cold CLI call: the command and
# the JSON files it reads, in order.
CLI_INPUTS = {
    "curves": ("implicitize", [{"rows": workloads.B}]),
    "transfer": (
        "transfer",
        [
            {"vars": ["y1", "y2"], "terms": [{"c": str(c), "e": e} for e, c in workloads.DELTA_B.items()]},
            {"rows": workloads.M35},
        ],
    ),
    "surfaces": ("degree", [{"rows": workloads.C42}]),
}


class BenchError(Exception):
    """The benchmark cannot run here; exits non-zero without a result."""


def load_galedisc():
    """Import galedisc from this checkout's src/, never from elsewhere."""
    if not (SRC / "galedisc" / "__init__.py").is_file():
        raise BenchError("no galedisc sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import galedisc  # noqa: F401  (sympy comes in with it)
    import galedisc.degree
    import galedisc.discriminant
    import galedisc.parametrization

    if Path(galedisc.__file__).resolve().parent != (SRC / "galedisc").resolve():
        raise BenchError("galedisc imported from %s, not from %s" % (galedisc.__file__, SRC))
    return galedisc


def prepare(gd, workload, seed):
    """The workload's operations with their galedisc arguments ready."""
    ops, sources = workloads.make_inputs(workload, seed)
    IntMatrix, MPoly = gd.intmat.IntMatrix, gd.mpoly.MPoly
    polys = {"C42": MPoly(3, workloads.QUARTIC42)}
    for key, rows in sources.items():
        polys[key] = gd.discriminant.implicitize(gd.parametrization.build(IntMatrix(rows)))
    out = []
    for op in ops:
        if op.kind == "transfer":
            out.append((op, (polys[op.poly_key], IntMatrix(op.matrix))))
        else:
            out.append((op, (IntMatrix(op.matrix),)))
    return out


def call(gd, op, args):
    # Looked up at call time, so that the traced run sees its wrappers.
    if op.kind == "curve":
        return gd.discriminant.implicitize(gd.parametrization.build(*args))
    if op.kind == "transfer":
        return gd.discriminant.transfer(*args)
    return gd.degree.degree_uniform(*args)


def check(op, args, out, seed):
    """Raise checks.CheckFailed on a wrong output; else its fingerprint."""
    if op.kind == "curve":
        checks.check_curve(op.check_matrix, out.terms)
    elif op.kind == "surface":
        checks.check_surface(op.check_matrix, out)
    else:
        if len(op.matrix) == 2:
            checks.check_curve(op.check_matrix, out[0].terms)
        else:
            checks.check_surface_poly(op.check_matrix, out[0].terms, seed)
        checks.check_transfer_exponent(op.matrix, args[0].terms, out[0].terms, out[1])
    return fingerprint(op, out)


def fingerprint(op, out):
    if op.kind == "curve":
        return tuple(sorted(out.terms.items()))
    if op.kind == "transfer":
        return tuple(sorted(out[0].terms.items())), tuple(out[1])
    return out.d, out.degree, tuple((bp.coords, e) for bp, e in out.points)


class RefClock:
    """The machine's current seconds per ref, sampled on a wall-clock timer.

    While active, a SIGALRM every REF_PERIOD_S runs the reference kernel
    once, in the middle of whatever operation is running, so that a long
    operation is divided by the speed the machine had during it, not just
    at its ends.  The handler's own time is taken out of the operation's
    time, and the collector is off while the kernel runs, so that a
    collection of the operation's heap is charged to the operation, not
    to the ref.  (A signal handler runs between bytecodes of the main thread: no
    thread is started and only one operation is ever in flight.)
    """

    def __init__(self, on_sample=None):
        self.starts, self.ends = [], []
        self.on_sample = on_sample  # called with the time each sample took

    def _sample(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        refkernel.kernel()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        if self.on_sample is not None:
            self.on_sample(perf_counter() - t0)

    def __enter__(self):
        refkernel.kernel()  # warm
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        self.resume()
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def seconds_per_ref(self):
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def to_ref(self, t0, t1):
        """The operation [t0, t1] in ref: its time less the samples taken
        inside it, divided by their mean; an operation too short to hold a
        sample is divided by the mean of the samples on either side."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.ends, t1)
        if j > i:
            busy = sum(self.ends[k] - self.starts[k] for k in range(i, j))
            return (t1 - t0 - busy) / (busy / (j - i))
        before = self.ends[i - 1] - self.starts[i - 1]
        after = self.ends[min(i, len(self.ends) - 1)] - self.starts[min(i, len(self.ends) - 1)]
        return (t1 - t0) / ((before + after) / 2)


def run_loop(gd, inputs, seconds, seed, ref, setup=None):
    """Whole rounds until `seconds` have passed.  Returns per-operation
    lists of (round, t0, t1), the number of rounds, attempted, failed and
    correct.

    With a SetupProbe, its fresh starts are spread evenly over the run, one
    between two operations whenever its share of the run has passed, with
    the reference timer paused; their time does not count to `seconds`."""
    spans = [[] for _ in inputs]
    verified = [None] * len(inputs)
    attempted = failed = 0
    correct = True
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        gc.collect()
        for i, (op, args) in enumerate(inputs):
            if setup is not None and setup.due(perf_counter() - start, seconds):
                start += setup.start_once(ref)
            attempted += 1
            t0 = perf_counter()
            try:
                out = call(gd, op, args)
            except Exception as e:  # an operation that fails is counted, not fatal
                failed += 1
                print("FAILED %s: %s: %s" % (op.label, type(e).__name__, e), file=sys.stderr)
                continue
            t1 = perf_counter()
            spans[i].append((rounds, t0, t1))
            if verified[i] is None:
                try:
                    verified[i] = check(op, args, out, seed)
                except checks.CheckFailed as e:
                    correct = False
                    print("WRONG %s: %s" % (op.label, e), file=sys.stderr)
            elif fingerprint(op, out) != verified[i]:
                correct = False
                print("WRONG %s: output changed between rounds" % op.label, file=sys.stderr)
        rounds += 1
    while setup is not None and setup.due(seconds, seconds):
        setup.start_once(ref)
    return spans, rounds, attempted, failed, correct


def summarize(spans, ref, rounds):
    """total_ref (median round), per-operation medians, and the tail."""
    per_round = [0.0] * rounds
    per_op = []
    for op_spans in spans:
        vals = []
        for r, t0, t1 in op_spans:
            vals.append(ref.to_ref(t0, t1))
            per_round[r] += vals[-1]
        if vals:
            per_op.append(statistics.median(vals))
    per_op.sort()
    tail = per_op[max(0, len(per_op) - TAIL_BEYOND - 1)]
    return statistics.median(per_round), statistics.median(per_op), tail


def _python(args, env_path=False):
    """Run a fresh interpreter in the checkout and wait for it."""
    env = dict(os.environ)
    if env_path:
        env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable] + args, cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=120
    )


class SetupProbe:
    """setup_s: the median, over SETUP_STARTS fresh interpreters, of the
    time from process start until the inputs are ready (galedisc and sympy
    imported, inputs made), in seconds at REF_SECONDS per ref.

    The starts are spread over the run, so that their median is not that
    of one of the machine's speed phases, which last seconds.  The speed
    also drifts by up to 30% over minutes, and with it the plain median
    of run after run; dividing by the run's median seconds per ref takes
    that out."""

    def __init__(self, workload, seed):
        self.args = [str(BENCH / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
        self.times = []

    def due(self, elapsed, seconds):
        return len(self.times) < min(SETUP_STARTS, int(elapsed * SETUP_STARTS / seconds) + 1)

    def start_once(self, ref):
        """One fresh start, with the reference timer paused; returns the
        wall time it took."""
        ref.pause()
        t0 = time.time()
        proc = _python(self.args)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed:\n" + proc.stderr)
        self.times.append(float(proc.stdout.split()[-1]) - t0)
        ref.resume()
        return time.time() - t0

    def seconds(self, ref):
        """setup_s, and the median in plain seconds."""
        wall = statistics.median(self.times)
        return wall * REF_SECONDS / ref.seconds_per_ref(), wall


def cold_seconds(code):
    """Median over fresh interpreters of the time a snippet takes inside."""
    times = []
    for _ in range(COLD_STARTS):
        proc = _python(["-c", "import time; t = time.perf_counter(); %s; print(time.perf_counter() - t)" % code],
                       env_path=True)
        if proc.returncode != 0:
            raise BenchError("cold start failed:\n" + proc.stderr)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def cli_seconds(workload):
    """Median wall time of a fresh `python -m galedisc` on one input."""
    command, files = CLI_INPUTS[workload]
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=str(BENCH / "out")) as tmp:
        args = ["-m", "galedisc", command]
        for k, obj in enumerate(files):
            path = Path(tmp) / ("input%d.json" % k)
            path.write_text(json.dumps(obj))
            args.append(str(path))
        times = []
        for _ in range(COLD_STARTS):
            t0 = perf_counter()
            proc = _python(args, env_path=True)
            times.append(perf_counter() - t0)
            if proc.returncode != 0:
                raise BenchError("CLI call failed:\n" + proc.stderr)
    return statistics.median(times)


def layer_metrics(tracer, workload, rounds, total_ref):
    """Per-layer values, per round of the workload where they count work."""
    values = {
        "import.galedisc_s": cold_seconds("import galedisc"),
        "import.sympy_s": cold_seconds("import sympy"),
        "cli.cold_call_s": cli_seconds(workload),
        "mpoly.sylvester_resultant.size_max": tracer.size_max,
        "mpoly.out_coeff_bits_max": tracer.coeff_bits_max,
        "basepoints.base_points.count": tracer.base_point_count / rounds,
        "trace.total_ref": total_ref,
    }
    out = {}
    for m in CONFIG["per_layer"]:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = tracer.calls(name[: -len(".calls")]) / rounds
        elif name.endswith(".self_s"):
            value = tracer.self_s(name[: -len(".self_s")]) / rounds
        else:
            raise BenchError("no measurement for per-layer metric %s" % name)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        gd = load_galedisc()
        if args.probe:
            prepare(gd, args.workload, args.seed)
            print(repr(time.time()))
            return 0
        if CONFIG is None:
            raise BenchError("BENCHMARK.json not found at %s" % ROOT)
        seconds = args.seconds if args.seconds is not None else CONFIG["run_seconds"]
        setup = SetupProbe(args.workload, args.seed) if not args.trace else None
        inputs = prepare(gd, args.workload, args.seed)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        with RefClock(tracer.charge_to_none if tracer else None) as ref:
            spans, rounds, attempted, failed, correct = run_loop(gd, inputs, seconds, args.seed, ref, setup)
        total_ref, p50, tail = summarize(spans, ref, rounds)
        print(
            "%s seed %d: %d rounds of %d operations, %.3f ms per ref (median of %d samples)"
            % (args.workload, args.seed, rounds, len(inputs), 1e3 * ref.seconds_per_ref(), len(ref.starts)),
            file=sys.stderr,
        )
        if setup is not None:
            setup_s, setup_wall_s = setup.seconds(ref)
            print("set-up: %.4f s at %.1f ms per ref, %.4f s wall" % (setup_s, 1e3 * REF_SECONDS, setup_wall_s),
                  file=sys.stderr)
        if tracer is not None:
            metrics = layer_metrics(tracer, args.workload, rounds, total_ref)
        else:
            values = {
                "setup_s": setup_s,
                "total_ref": total_ref,
                "solve_ref_p50": p50,
                "solve_ref_tail": tail,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in CONFIG["end_to_end"]}
    except BenchError as e:
        print("bench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
