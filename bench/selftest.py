"""Self-test: the deterministic counters repeat exactly for one seed.

    python3 bench/selftest.py

Runs the traced benchmark twice with seed 11 on each library workload and
fails unless every counter below reads the same both times.  Timings are
not compared.
Takes about two minutes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 11
COUNTERS = (
    "solver.leaves_verified",
    "solver.solutions",
    "zmatrix.orbit_scans",
    "zmatrix.poly_calls",
    "restrict.subset_yield",
)
WORKLOADS = ("solve-ladder", "iso-orbit", "structure-mix")


def traced_counters(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=os.path.dirname(HERE), check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTERS}


def main():
    bad = 0
    for workload in WORKLOADS:
        first, second = traced_counters(workload), traced_counters(workload)
        for name in COUNTERS:
            same = first[name] == second[name]
            bad += not same
            print(f"{'ok  ' if same else 'DIFF'} {workload:14s} {name:24s} "
                  f"{first[name]} {second[name]}")
    if bad:
        print(f"{bad} counter(s) differ between two runs with seed {SEED}")
        return 1
    print("all deterministic counters repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
