"""The benchmark's own tests (about 3 minutes; not part of the package suite).

    python3 -m pytest perfbench -q        # from a checkout's root
"""
from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def _traced(workload: str, attempt: int) -> dict:
    """The per-layer metrics of one traced run (seed 7); ``attempt`` tells
    repeated runs apart in the cache."""
    done = _run(workload, 7, trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_reference_covers_every_pool_entry():
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        assert {it["id"] for it in workloads.pool(name)} <= set(reference), name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_draw_depends_only_on_the_seed(name):
    first, again = workloads.draw(name, 11), workloads.draw(name, 11)
    assert first == again
    pool = {it["id"] for it in workloads.pool(name)}
    assert {it["id"] for it in first.items} <= pool
    assert any(workloads.draw(name, s).items != first.items for s in range(12, 20))


def test_fails_without_the_package():
    (HERE / ".tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / ".tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".tmp", "__pycache__"))
        done = _run("verify", 1, trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name):
    first, second = _traced(name, 0), _traced(name, 1)
    counted = [n for n, unit in tracing.per_layer() if unit in ("count", "bytes")]
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}


def test_each_workload_exercises_its_layers():
    cold = _traced("lattice-cold", 0)
    own = {n: v for n, v in cold.items() if n.endswith(".self_s")}
    q_side = sum(v for n, v in own.items()
                 if n.startswith("charzero.")
                 or n in ("linalg.rank_dense.self_s", "linalg.solve_dense.self_s",
                          "linalg.hnf.self_s"))
    assert q_side >= 0.9 * sum(own.values())
    assert cold["cache.hit_ratio"] == 0.0

    warm = _traced("sweep-warm", 0)
    assert warm["charzero.hwmodule.calls"] == 0
    assert warm["cache.hit_ratio"] == 1.0

    assert _traced("verify", 0)["tensorfilt.induced.calls"] > 0
    assert cold["tensorfilt.induced.calls"] == warm["tensorfilt.induced.calls"] == 0
