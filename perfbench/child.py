"""One set-up or one timed pass of a workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

``run.py`` writes SPEC (see ``run.py:_child``) and reads the result file it
names. Each pass gets a fresh interpreter so that no process-level state
(``build_root_system``'s lru_cache today, any memo tomorrow) carries from
one pass into the next: every CLI user pays a fresh interpreter too.

A set-up imports weylpbw, builds the workload's root systems and, for
sweep-warm, fills a fresh PayloadStore; it reports the clock when it is
done. A pass times only the library calls, one item at a time, then
digests each output outside the timed region.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def run_item(item: dict, store, cache_dir, out_path: Path):
    """Run one item; returns (seconds, exit code, output bytes).

    ``store`` is the PayloadStore for lattice items; ``cache_dir`` is passed
    to CLI items as --cache-dir when set.
    """
    # imported per call, so that a traced pass sees the wrapped functions
    from weylpbw.cache import load_or_build_lattice, stable_dumps
    from weylpbw.rootsys import build_root_system

    if "lattice" in item:
        label, weight = item["lattice"]
        start = time.perf_counter()
        lattice = load_or_build_lattice(build_root_system(label), weight, None, store)
        elapsed = time.perf_counter() - start
        return elapsed, 0, stable_dumps(lattice.to_payload()).encode("ascii")

    from weylpbw import cli
    argv = list(item["argv"])
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    argv += ["--out", str(out_path), "--quiet"]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:          # argparse rejects a malformed argv this way
        code = exc.code
    elapsed = time.perf_counter() - start
    data = out_path.read_bytes() if out_path.exists() else b""
    out_path.unlink(missing_ok=True)
    return elapsed, code, data


def _setup(spec: dict) -> dict:
    from weylpbw import PayloadStore, build_root_system, load_or_build_lattice

    for label in spec["systems"]:
        build_root_system(label)
    if spec["store"] is not None:
        store = PayloadStore(spec["store"])
        for label, weight, p in spec["fill"]:
            load_or_build_lattice(build_root_system(label), weight, p, store)
    return {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}


def _pass(spec: dict) -> dict:
    from weylpbw import PayloadStore

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    store = PayloadStore(spec["store"]) if spec["store"] is not None else None
    cache_dir = spec["store"] if spec["cli_cache"] else None
    out_path = Path(spec["result"]).with_suffix(".out")
    total = 0.0
    items = []
    for item in spec["items"]:
        row = {"id": item["id"]}
        try:
            elapsed, code, data = run_item(item, store, cache_dir, out_path)
        except Exception as exc:       # an item that raises is a failed item, not a crash
            row["error"] = f"{type(exc).__name__}: {exc}"
        else:
            total += elapsed
            row.update(exit=code, sha256=hashlib.sha256(data).hexdigest())
            if tracer is not None and "argv" in item:
                tracer.counts["cli.report_bytes"] += len(data)
        items.append(row)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"pass_s": total, "rss_mb": rss_kb / 1024.0, "items": items,
            "trace": tracer.snapshot() if tracer is not None else None}


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import weylpbw
    if not os.path.realpath(weylpbw.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported weylpbw from {weylpbw.__file__}, not from {src}")
    result = _setup(spec) if spec["phase"] == "setup" else _pass(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
