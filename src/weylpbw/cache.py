"""Content-addressed storage for computed module payloads.

A cache key hashes everything that could change the stored answer: the
Cartan matrix, the highest weight, the structure-constant sign convention,
and the code version. The admissible Z-lattice does not depend on the
characteristic, so there is one entry per (Cartan matrix, weight), shared by
every prime and by characteristic zero. An entry file is the entry's JSON
line and then that line's sha256. A loaded entry that fails its digest,
whose recorded key fields no longer hash to its own key, whose payload does
not parse or holds anything but what a build of its blocks stores, or
whose lattice has another highest weight or the wrong dimension is discarded
and recomputed — a stale, foreign or damaged file can never poison a run.
Writes go through a temporary file in the same directory followed by an
atomic rename, so a crashed run leaves no half-written entries.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from . import SIGN_CONVENTION_TAG, __version__
from .charzero import DIM_CAP_DEFAULT, AdmissibleLattice
from .rootsys import RootSystem

CACHE_DIR_ENV = "WEYLPBW_CACHE_DIR"


def stable_dumps(payload: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, pure ASCII."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def stable_hash(payload: object) -> str:
    return hashlib.sha256(stable_dumps(payload).encode("ascii")).hexdigest()


def _pinned(cartan: Sequence[Sequence[int]]) -> dict:
    """What every stored or reported answer depends on: the Cartan matrix,
    the structure-constant sign convention and the code version."""
    return {
        "cartan": [list(map(int, row)) for row in cartan],
        "sign_convention": SIGN_CONVENTION_TAG,
        "version": __version__,
    }


def key_fields(cartan: Sequence[Sequence[int]], weight: Sequence[int]) -> dict:
    return dict(_pinned(cartan), weight=list(map(int, weight)))


def input_hash(system: RootSystem, **fields) -> str:
    """The content hash of an analysis's inputs: the pinned fields of its
    root system plus ``fields``."""
    return stable_hash(dict(_pinned(system.cartan.matrix), **fields))


def content_key(cartan: Sequence[Sequence[int]], weight: Sequence[int]) -> str:
    return stable_hash(key_fields(cartan, weight))


class PayloadStore:
    """A directory of digest-checked JSON payloads addressed by content key."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[dict]:
        """The stored entry, or None when absent, unreadable, damaged or foreign."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="ascii") as fh:
                body, _, digest = fh.read().rstrip("\n").rpartition("\n")
            if hashlib.sha256(body.encode("ascii")).hexdigest() != digest:
                return None
            entry = json.loads(body)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        fields = entry.get("key_fields")
        if fields is None or stable_hash(fields) != key:
            return None
        return entry

    def store(self, key: str, entry: dict) -> Path:
        """Write the entry and its digest atomically: temp file, then rename."""
        path = self.path_for(key)
        body = stable_dumps(entry)
        data = f"{body}\n{hashlib.sha256(body.encode('ascii')).hexdigest()}\n"
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path


def load_or_build_lattice(system: RootSystem, weight: Sequence[int],
                          p: Optional[int],
                          store: Optional[PayloadStore] = None,
                          dim_cap: int = DIM_CAP_DEFAULT) -> AdmissibleLattice:
    """The admissible lattice for (system, weight), through the store if given.

    The integral lattice does not depend on p, so p is not part of the key:
    one entry serves every prime. The parameter is unused; it stays only
    because existing callers pass the store positionally after it.
    """
    weight = tuple(int(v) for v in weight)
    if store is None:
        return AdmissibleLattice.build(system, weight, dim_cap)
    key = content_key(system.cartan.matrix, weight)
    hit = store.load(key)
    if hit is not None:
        try:
            lattice = AdmissibleLattice.from_payload(hit["payload"], system)
        except (KeyError, TypeError, ValueError, IndexError):
            lattice = None
        if (lattice is not None
                and lattice.highest_weight == weight
                and lattice.dim == system.weyl_dimension(weight)):
            return lattice
    lattice = AdmissibleLattice.build(system, weight, dim_cap)
    store.store(key, {
        "key_fields": key_fields(system.cartan.matrix, weight),
        "payload": lattice.to_payload(),
    })
    return lattice
