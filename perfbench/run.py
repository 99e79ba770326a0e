"""The weylpbw benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; weylpbw is imported from ``src/`` there.
A run first times the workload's set-ups, then passes over the drawn items
for about S seconds (at least two passes), one fresh child interpreter at a
time (see child.py). It prints each metric by name and unit, an environment
stamp, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones:
  pass_s        median wall time of the library calls of one pass
  setup_s       median over set-ups of interpreter start + import weylpbw +
                the workload's set-up (sweep-warm: filling its PayloadStore)
  max_rss_mb    median peak resident memory of a pass process
  success_rate  items whose exit code and output digest match reference.json,
                over items attempted (1 - error rate)
With --trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics BENCHMARK.json declares, from the traced ones.

All stores and outputs live in a temporary directory under perfbench/.tmp,
removed at the end; children run without WEYLPBW_CACHE_DIR, with a fixed
hash seed, and write their bytecode caches there too.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
MIN_PASSES = 2
DEADLINE_S = 170.0          # a run must end well inside 180 s


class BenchError(Exception):
    """The run cannot produce a result (as opposed to a wrong output)."""


def _monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's reading compares with ours
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _stamp() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "weylpbw").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


class Runner:
    """Launches the children of one run, one at a time, inside one temp dir."""

    def __init__(self, workload: workloads.Workload, draw: workloads.Draw, tmp: Path,
                 deadline: float):
        self.workload = workload
        self.draw = draw
        self.tmp = tmp
        self.deadline = deadline
        self.serial = 0
        self.pass_store = None      # sweep-warm: the store the last set-up filled
        self.env = {k: v for k, v in os.environ.items() if k != "WEYLPBW_CACHE_DIR"}
        self.env.update(PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(tmp / "pycache"))

    def _child(self, phase: str, store, trace: bool = False) -> dict:
        self.serial += 1
        spec_path = self.tmp / f"{self.serial}-{phase}.spec.json"
        result_path = self.tmp / f"{self.serial}-{phase}.result.json"
        spec = {"phase": phase, "src": str(SRC), "systems": self.draw.systems,
                "fill": self.draw.fill, "items": self.draw.items,
                "store": None if store is None else str(store),
                "cli_cache": self.workload.store == "setup", "trace": trace,
                "result": str(result_path)}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.deadline - _monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run could finish")
        spawned = _monotonic()
        try:
            done = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                  env=self.env, cwd=str(ROOT), stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{phase} child killed after {timeout:.0f} s") from None
        if done.returncode != 0:
            raise BenchError(f"{phase} child exited {done.returncode}:\n{done.stderr[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["spawned"] = spawned
        return result

    def _store(self):
        return Path(tempfile.mkdtemp(prefix="store-", dir=self.tmp))

    def setup(self) -> float:
        store = self._store() if self.workload.store else None
        result = self._child("setup", store)
        if self.workload.store == "setup":
            self.pass_store = store
        return result["ready"] - result["spawned"]

    def run_pass(self, trace: bool) -> dict:
        if self.workload.store == "fresh":
            store = self._store()
        elif self.workload.store == "setup":
            store = self.pass_store
        else:
            store = None
        return self._child("pass", store, trace)


def _failures(passes, reference: dict):
    attempted = failed = 0
    reasons = []
    for result in passes:
        for row in result["items"]:
            attempted += 1
            ref = reference.get(row["id"])
            if ref is None:
                reason = "no reference entry"
            elif "error" in row:
                reason = row["error"]
            elif row["exit"] != ref["exit"]:
                reason = f"exit {row['exit']}, expected {ref['exit']}"
            elif row["sha256"] != ref["sha256"]:
                reason = "output digest differs from reference"
            else:
                continue
            failed += 1
            reasons.append(f"{row['id']}: {reason}")
    return attempted, failed, reasons


def _measure(runner: Runner, seconds: float, trace: bool):
    """Passes until the next would overrun ``seconds`` (at least MIN_PASSES
    untraced ones, or one untraced and one traced pass when tracing)."""
    plain, traced = [], []
    start = _monotonic()
    while True:
        plain.append(runner.run_pass(trace=False))
        if trace:
            traced.append(runner.run_pass(trace=True))
        elapsed = _monotonic() - start
        step = elapsed / len(plain)
        enough = trace or len(plain) >= MIN_PASSES
        if enough and elapsed + step > seconds:
            break
        if _monotonic() + step > runner.deadline:
            break
    return plain, traced


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = _monotonic()
    if not (SRC / "weylpbw" / "__init__.py").is_file():
        raise BenchError(f"no weylpbw package under {SRC}; run from a checkout's root")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[name]
    draw = workloads.draw(name, seed)
    stamp = _stamp()
    (HERE / ".tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / ".tmp"))
    try:
        runner = Runner(workload, draw, tmp, started + DEADLINE_S)
        setups = [runner.setup() for _ in range(1 if trace else workload.setups)]
        plain, traced = _measure(runner, seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed, reasons = _failures(plain + traced, reference)
    pass_s = statistics.median(r["pass_s"] for r in plain)
    if trace:
        snapshots = [r["trace"] for r in traced]
        silent = [s for s in workload.active
                  if not snapshots[0]["counts"].get(s + ".calls")]
        if silent:
            raise BenchError(f"declared spans never fired on {name}: {', '.join(silent)}")
        overhead = statistics.median(r["pass_s"] for r in traced) - pass_s
        metrics = tracing.layer_metrics(snapshots, overhead)
    else:
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "max_rss_mb": {"value": statistics.median(r["rss_mb"] for r in plain),
                           "unit": "MB"},
            "success_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }

    print(f"# workload {name} seed {seed}: {len(draw.items)} items per pass")
    print("# set-ups (s): " + " ".join(f"{s:.4f}" for s in setups))
    print("# passes (s): " + " ".join(f"{r['pass_s']:.4f}" for r in plain))
    if traced:
        print("# traced passes (s): " + " ".join(f"{r['pass_s']:.4f}" for r in traced))
    for key, metric in metrics.items():
        print(f"{key:<34} {metric['value']:.6g} {metric['unit']}")
    print(f"{'error_rate':<34} {failed / attempted:.6g} ratio"
          f" ({failed} failed of {attempted} attempted)")
    for reason in reasons[:20]:
        print(f"# FAILED {reason}")
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
