"""Write reference.json: the expected output of every pool entry.

    python3 perfbench/make_reference.py      # from a checkout's root, ~3 min

Each entry records the exit code and the sha256 of the output bytes (for a
lattice: ``stable_dumps(to_payload())``; for a CLI item: the ``--out``
report), computed through the same ``child.run_item`` the passes use. The
script refuses to write the file unless every entry passes a cross-check
that does not rest on the digest:

* lattice: the block dimensions add up to the Weyl dimension;
* essential: the count is the Weyl dimension and, on G2, ``--oracle``
  agrees with the inequality table;
* filtration: ``top_dim`` is the Weyl dimension;
* verify --condition2 / --v0: exit 0 with status ``pass``;
* verify --g2: exit 1, and ``coefficient`` is the only failing step. That
  is the documented criteria 6/7 finding (C(2p-2, p-1) = 0 mod p), not a
  benchmark error.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import workloads
from child import run_item

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
# the CLI items pass no --cache-dir, so an inherited cache would be read
os.environ.pop("WEYLPBW_CACHE_DIR", None)

from weylpbw import PayloadStore, build_root_system  # noqa: E402


def _check(item: dict, code: int, data: bytes) -> dict:
    """The cross-check facts of one entry; raises AssertionError on a mismatch."""
    if "lattice" in item:
        label, weight = item["lattice"]
        weyl = build_root_system(label).weyl_dimension(weight)
        total = sum(b["dim"] for b in json.loads(data)["blocks"])
        if total != weyl:
            raise AssertionError(f"{item['id']}: block dims add to {total}, Weyl dim {weyl}")
        return {"weyl_dim": weyl}
    argv = item["argv"]
    report = json.loads(data)
    if argv[0] in ("essential", "filtration"):
        weight = [int(v) for v in argv[argv.index("--weight") + 1].split(",")]
        weyl = build_root_system(argv[argv.index("--type") + 1]).weyl_dimension(weight)
        size = report["count"] if argv[0] == "essential" else report["top_dim"]
        facts = {"weyl_dim": weyl}
        if "--oracle" in argv:
            facts["oracle_agrees"] = report["oracle"]["agrees"]
        if code != 0 or size != weyl or facts.get("oracle_agrees") is False:
            raise AssertionError(f"{item['id']}: exit {code}, size {size}, {facts}")
        return facts
    if "--g2" in argv:
        failing = [s["name"] for s in report["steps"] if not s["ok"]]
        if code != 1 or failing != ["coefficient"]:
            raise AssertionError(f"{item['id']}: exit {code}, failing steps {failing}")
        return {"failing_steps": failing}
    if code != 0 or report["status"] != "pass":
        raise AssertionError(f"{item['id']}: exit {code}, status {report['status']}")
    return {"status": report["status"]}


def main() -> None:
    reference = {}
    (HERE / ".tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=HERE / ".tmp"))
    try:
        store = PayloadStore(tmp / "store")
        for name in workloads.WORKLOADS:
            cache_dir = store.root if workloads.WORKLOADS[name].store == "setup" else None
            for item in workloads.pool(name):
                _, code, data = run_item(item, PayloadStore(tmp / name), cache_dir,
                                         tmp / "out.json")
                reference[item["id"]] = {"exit": code,
                                         "sha256": hashlib.sha256(data).hexdigest(),
                                         "bytes": len(data), **_check(item, code, data)}
                print(f"{item['id']}: ok", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
