"""Do two sets of runs of the same commit agree?

    python3 bench/steadiness.py

Runs bench/run.py once per seed and workload, set A on seeds 1 to 10 and
set B on seeds 11 to 20, each run for BENCHMARK.json's run_seconds.  Then
prints, for every end-to-end metric on every workload, each set's median
and quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median,
the shift of B's median from A's, and whether the sets agree within the
metric's bound in BENCHMARK.json: both spreads within the bound, the shift
within the bound in either direction, and the same share of failed
operations.  Raw results go to bench/out/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10  # seeds per set
SETS = "AB"


def one_run(workload, seed):
    cmd = CONFIG["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(CONFIG["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit("run failed (%s seed %d):\n%s" % (workload, seed, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("wrong output (%s seed %d):\n%s" % (workload, seed, proc.stderr))
    return result


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    names = [w["name"] for w in CONFIG["workloads"]]
    results = {}  # set -> workload -> list of run results
    for s, set_name in enumerate(SETS):
        results[set_name] = {w: [] for w in names}
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in names:
                t0 = time.time()
                results[set_name][w].append(one_run(w, seed))
                print("set %s %-8s seed %3d  %.0f s" % (set_name, w, seed, time.time() - t0), file=sys.stderr)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steadiness.json").write_text(json.dumps(results, indent=1))

    all_ok = True
    header = "%-9s %-15s %-7s" % ("workload", "metric", "bound")
    for set_name in SETS:
        header += " | %s: %10s %10s %10s %6s" % (set_name, "median", "q1", "q3", "spread")
    print(header + " | shift  agree")
    for w in names:
        shares = {r["failed"] / r["attempted"] for runs in results.values() for r in runs[w]}
        for m in CONFIG["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line = "%-9s %-15s %-7.3f" % (w, name, bound)
            st = []
            for set_name in SETS:
                st.append(stats([r["metrics"][name]["value"] for r in results[set_name][w]]))
                line += " | %s: %10.4g %10.4g %10.4g %6.3f" % (
                    set_name, st[-1]["median"], st[-1]["q1"], st[-1]["q3"], st[-1]["spread"])
            shift = (st[1]["median"] - st[0]["median"]) / st[0]["median"]
            ok = all(x["spread"] <= bound for x in st) and abs(shift) <= bound and len(shares) == 1
            line += " | %+.3f  %s" % (shift, "yes" if ok else "NO")
            all_ok = all_ok and ok
            print(line)
        print("%-9s failed share %s" % (w, sorted(shares)))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
