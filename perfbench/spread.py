"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10]

For every workload in BENCHMARK.json it runs ``run.py --trace 0`` once per
seed for the file's run_seconds, one run at a time, prints each run's
metrics and error rate by name and unit, then (given two seeds or more) each end-to-end metric's median, quartiles and
(Q3 - Q1) / median next to its bound from BENCHMARK.json.
Exits 1 if a run fails, an output is wrong, or a spread exceeds its bound.
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


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=str(ROOT), capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            row = " ".join(f"{k} {m['value']:.4f} {m['unit']};"
                           for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {row} error_rate"
                  f" {result['failed'] / result['attempted']:.4f} ratio"
                  f" ({result['failed']} of {result['attempted']} items failed)", flush=True)
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        if len(values["pass_s"]) < 2:
            continue
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            within = share <= m["bound"]
            ok = ok and within
            print(f"  {workload:<12} {m['name']:<13} median {med:.5g} {m['unit']:<5}"
                  f" q1 {q1:.5g} q3 {q3:.5g} spread {share:.4f}"
                  f" bound {m['bound']} ({share / m['bound']:.2f} of bound)"
                  f"{'' if within else '  OVER BOUND'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
