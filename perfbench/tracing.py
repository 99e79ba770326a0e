"""Spans and counters around the public functions of each weylpbw layer.

The wrappers live in the benchmark, not in the package: ``install`` replaces
each target in place after ``import weylpbw``, so the package runs unchanged
when tracing is off.

* A method is wrapped on its class (a classmethod stays a classmethod).
* A module function is wrapped in every ``weylpbw`` namespace that binds it,
  because ``from .linalg import solve_dense`` copies the binding into
  ``charzero`` and ``pbw``; wrapping only the home module would miss those
  callers.
* A span records its call count and its self time: its duration minus the
  time covered by the spans it encloses.
* Generators are counted (calls and items yielded) but not timed: their
  body runs interleaved with the consumer, whose span takes that time.
* Hot leaves (``leg_apply``, ``f_root``, ``e_root`` and the like) are
  counted only, so the clock reads do not swamp their cost.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

SPAN, COUNT, GENERATOR = "span", "count", "generator"


# -- hooks: counts read from a traced call's arguments or result ---------------

def _hwmodule_blocks(counts: Counter, result, args) -> None:
    blocks = args[0].blocks
    counts["charzero.blocks"] += len(blocks)
    counts["charzero.gram_entries"] += sum(len(b.candidates) ** 2
                                           for b in blocks.values())


def _gf_useful(counts: Counter, result, args) -> None:
    if result:
        counts["linalg.gf_insert.useful"] += 1


def _enumerated(counts: Counter, result, args) -> None:
    counts["pbw.enumerate.yielded"] += len(result)


def _swept(counts: Counter, result, args) -> None:
    for sweep in result.by_block.values():
        counts["pbw.monomials_swept"] += len(sweep.all_indices)
        counts["pbw.essentials"] += len(sweep.essential)


def _kept(counts: Counter, result, args) -> None:
    counts["tensorfilt.kept_vectors"] += len(args[0].kept)


def _cache_hit(counts: Counter, result, args) -> None:
    if result is not None:
        counts["cache.load.hits"] += 1


def _stored_bytes(counts: Counter, result, args) -> None:
    counts["cache.store.bytes"] += result.stat().st_size


@dataclass(frozen=True)
class Target:
    metric: str                 # metric prefix, e.g. "linalg.solve_dense"
    module: str                 # the weylpbw module that defines it
    attr: str                   # "function" or "Class.method"
    kind: str = SPAN
    hook: Optional[Callable] = None


TARGETS = (
    Target("rootsys.build", "weylpbw.rootsys", "build_root_system"),
    Target("charzero.hwmodule", "weylpbw.charzero", "HWModuleQ.__init__",
           hook=_hwmodule_blocks),
    Target("charzero.lattice", "weylpbw.charzero", "AdmissibleLattice.build"),
    Target("charzero.from_payload", "weylpbw.charzero", "AdmissibleLattice.from_payload"),
    Target("charzero.f_root", "weylpbw.charzero", "HWModuleQ.f_root", COUNT),
    Target("charzero.e_root", "weylpbw.charzero", "HWModuleQ.e_root", COUNT),
    Target("linalg.rank_dense", "weylpbw.linalg", "rank_dense"),
    Target("linalg.solve_dense", "weylpbw.linalg", "solve_dense"),
    Target("linalg.hnf", "weylpbw.linalg", "ScaledLattice.finalize"),
    Target("linalg.scaled_insert", "weylpbw.linalg", "ScaledLattice.insert", COUNT),
    Target("linalg.gf_insert", "weylpbw.linalg", "RowSpaceGF.insert", hook=_gf_useful),
    Target("linalg.gf_contains", "weylpbw.linalg", "RowSpaceGF.contains", COUNT),
    Target("weylmod.act", "weylpbw.weylmod", "WeylModuleP.act"),
    Target("weylmod.leg_apply", "weylpbw.weylmod", "WeylModuleP.leg_apply", COUNT),
    Target("weylmod.divided", "weylpbw.weylmod", "WeylModuleP.divided"),
    Target("weylmod.tensor_act", "weylpbw.weylmod", "tensor_act"),
    Target("weylmod.tensor_leg_act", "weylpbw.weylmod", "tensor_leg_act"),
    Target("weylmod.dual_act", "weylpbw.weylmod", "DualModuleP.act"),
    Target("pbw.enumerate", "weylpbw.pbw", "monomials_with_depth", hook=_enumerated),
    Target("pbw.enumerate", "weylpbw.pbw", "monomials_of_degree", GENERATOR),
    Target("pbw.essential_set", "weylpbw.pbw", "essential_set", hook=_swept),
    Target("pbw.filtration", "weylpbw.pbw", "pbw_filtration"),
    Target("pbw.j_map", "weylpbw.pbw", "j_map"),
    Target("pbw.section_product", "weylpbw.pbw", "section_product"),
    Target("pbw.dual_functional", "weylpbw.pbw", "EssentialSet.dual_functional", COUNT),
    Target("tensorfilt.induced", "weylpbw.tensorfilt", "InducedFiltration.__init__",
           hook=_kept),
    Target("tensorfilt.contains_at", "weylpbw.tensorfilt", "InducedFiltration.contains_at"),
    Target("criterion.condition2", "weylpbw.criterion", "check_condition2"),
    Target("criterion.v0", "weylpbw.criterion", "check_v0"),
    Target("criterion.g2_verify", "weylpbw.criterion", "g2_verify"),
    Target("cache.load", "weylpbw.cache", "PayloadStore.load", hook=_cache_hit),
    Target("cache.store", "weylpbw.cache", "PayloadStore.store", hook=_stored_bytes),
    Target("cli.main", "weylpbw.cli", "main"),
)

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# ratio metric -> (numerator count, denominator count); 0.0 when nothing was tried
RATIOS = {
    "linalg.gf_insert.useful_ratio": ("linalg.gf_insert.useful", "linalg.gf_insert.calls"),
    "pbw.essential_ratio": ("pbw.essentials", "pbw.monomials_swept"),
    "cache.hit_ratio": ("cache.load.hits", "cache.load.calls"),
}


class Tracer:
    """Call counts, derived counts and span self times of one process."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self._covered: List[float] = []   # child-span time, one entry per open span

    def span(self, metric: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        counts, self_s, covered = self.counts, self.self_s, self._covered
        calls, own = metric + ".calls", metric + ".self_s"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            covered.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[own] += elapsed - covered.pop()
                if covered:
                    covered[-1] += elapsed
            if hook is not None:
                hook(counts, result, args)
            return result
        return wrapper

    def count(self, metric: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        counts, calls = self.counts, metric + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)
        return wrapper

    def generator(self, metric: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        counts, calls, yielded = self.counts, metric + ".calls", metric + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            for item in fn(*args, **kwargs):
                counts[yielded] += 1
                yield item
        return wrapper

    def snapshot(self) -> dict:
        return {"counts": dict(self.counts), "self_s": dict(self.self_s)}


def install(tracer: Tracer) -> None:
    """Wrap every target; LookupError names a target the package no longer has."""
    for t in TARGETS:
        importlib.import_module(t.module)
    package = [m for name, m in sys.modules.items()
               if name == "weylpbw" or name.startswith("weylpbw.")]
    for t in TARGETS:
        module = sys.modules[t.module]
        make = getattr(tracer, t.kind)
        owner_name, _, name = t.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(name) if owner is not None else None
            if raw is None:
                raise LookupError(f"{t.module}.{t.attr} is gone; update {__name__}.TARGETS")
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(make(t.metric, raw.__func__, t.hook)))
            else:
                setattr(owner, name, make(t.metric, raw, t.hook))
            continue
        original = getattr(module, name, None)
        if original is None:
            raise LookupError(f"{t.module}.{t.attr} is gone; update {__name__}.TARGETS")
        wrapper = make(t.metric, original, t.hook)
        for mod in package:
            for attr in [a for a, v in vars(mod).items() if v is original]:
                setattr(mod, attr, wrapper)


def per_layer() -> List[tuple]:
    """(name, unit) of every per-layer metric BENCHMARK.json declares, in order."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def layer_metrics(snapshots: List[dict], overhead_s: float) -> Dict[str, dict]:
    """Every per-layer metric from the snapshots of the traced passes.

    Counts are taken from the first pass (they repeat exactly); self times
    are the median over the passes.
    """
    counts = snapshots[0]["counts"]
    out = {}
    for name, unit in per_layer():
        if name == "trace.overhead_s":
            value = overhead_s
        elif name in RATIOS:
            num, den = RATIOS[name]
            value = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        elif unit == "s":
            value = statistics.median(s["self_s"].get(name, 0.0) for s in snapshots)
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
