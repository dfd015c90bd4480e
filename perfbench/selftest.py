#!/usr/bin/env python3
"""Self-test of the Moonwalk benchmark.  Run from the checkout root:

    python3 perfbench/selftest.py

1. Two serial per-layer passes with the same seed must give identical
   work counts: these are the numbers a change is judged on exactly.
2. Every workload, run for SECONDS with --check at each of SEEDS, must
   verify every output (exit 0, correct: true, failed: 0).

Exits 0 when all pass, 1 otherwise.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXACT = ["dse.evaluates_per_op", "dse.feasible_per_op",
         "thermal.solves_per_op", "dse.pareto_in", "dse.pareto_out",
         "dse.codec_bytes", "serve.response_bytes",
         "exec.diskcache_inserts_per_op", "exec.diskcache_hits_per_op"]
SEEDS = (1, 2)
SECONDS = 2


def main():
    run.build()
    os.makedirs(run.OUT, exist_ok=True)
    ok = True

    first, second = (run.harness_layers(SEEDS[0]) for _ in range(2))
    for name in EXACT:
        same = first[name] == second[name]
        ok &= same
        print(f"{'ok  ' if same else 'FAIL'} {name}: {first[name]!r} "
              f"{'==' if same else '!='} {second[name]!r}")

    for workload in sorted(run.WORKLOADS):
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SECONDS), "--trace", "0", "--check"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            good = (proc.returncode == 0 and result.get("correct") is True
                    and result.get("failed") == 0)
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {workload} seed {seed}: "
                  f"{result.get('attempted', 0)} ops verified"
                  + ("" if good else "\n" + proc.stderr.strip()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
