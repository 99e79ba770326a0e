"""The benchmark's workloads: committed input pools and the seeded draw.

Every input a seed can draw is in a pool below, and every pool entry has a
reference digest in ``reference.json``. The seed picks the primes and the
item order; the package sees only the generated arguments.

An item is a dict with an ``id`` (its key in ``reference.json``) and either
``lattice`` ([type, weight], for ``cache.load_or_build_lattice``) or
``argv`` (for ``weylpbw.cli.main``; the pass adds ``--out``, ``--quiet``
and, when the workload has a store, ``--cache-dir``).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

LATTICE_MODULES = (("G2", (2, 1)), ("G2", (0, 3)), ("G2", (1, 2)), ("A3", (2, 1, 2)),
                   ("B2", (2, 3)), ("C3", (0, 1, 1)), ("B3", (1, 0, 1)))
SWEEP_MODULES = (("G2", (0, 3)), ("G2", (1, 2)), ("G2", (2, 1)), ("C3", (0, 1, 1)),
                 ("A3", (2, 1, 2)))
SWEEP_PRIMES = (2, 3, 5, 7, 11, 13)
SWEEP_PRIMES_PER_MODULE = 2
VERIFY_CHECKS = (("condition2", "A2", 3), ("v0", "A2", 3), ("condition2", "B2", 2),
                 ("v0", "B2", 2), ("condition2", "A1", 7))
# The G2 pool, in strata of like cost; a seed draws one prime from each. A
# uniform draw of three of the five made a pass's peak memory 33 or 63 MB
# depending on whether p = 23 was drawn, and its time vary by 0.8 s.
G2_PRIME_STRATA = ((11, 13), (17, 19), (23,))


@dataclass(frozen=True)
class Workload:
    name: str
    # "fresh": each pass starts from an empty PayloadStore; "setup": passes read
    # the store the last set-up filled; None: no store at all
    store: Optional[str]
    # set-ups timed per run; setup_s is their median. sweep-warm fills a store
    # with ten lattice builds (about 20 s) in each, so it takes two; the others
    # take well under a second each.
    setups: int
    # spans whose .calls must be nonzero in a traced pass, else the run fails.
    # No CLI command reaches pbw.section_product or weylmod.dual_act, so no
    # workload declares them.
    active: Tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        "lattice-cold", "fresh", 5,
        ("rootsys.build", "charzero.hwmodule", "charzero.lattice", "charzero.f_root",
         "charzero.e_root", "linalg.rank_dense", "linalg.solve_dense", "linalg.hnf",
         "linalg.scaled_insert", "cache.load", "cache.store")),
    Workload(
        "sweep-warm", "setup", 2,
        ("rootsys.build", "charzero.from_payload", "linalg.gf_insert", "weylmod.act",
         "weylmod.leg_apply", "weylmod.divided", "pbw.enumerate", "pbw.essential_set",
         "pbw.filtration", "cache.load", "cli.main")),
    Workload(
        "verify", None, 5,
        ("rootsys.build", "charzero.hwmodule", "charzero.lattice", "linalg.gf_insert",
         "linalg.gf_contains", "weylmod.act", "weylmod.tensor_act",
         "weylmod.tensor_leg_act", "pbw.j_map", "pbw.dual_functional", "tensorfilt.induced",
         "tensorfilt.contains_at", "criterion.condition2", "criterion.v0",
         "criterion.g2_verify", "cli.main")),
)}


@dataclass
class Draw:
    """One seed's inputs: the pass items, and what a set-up prepares."""
    items: List[dict]
    systems: List[str]                                   # root systems built in set-up
    fill: List[Tuple[str, Tuple[int, ...], int]] = field(default_factory=list)


def _csv(weight: Sequence[int]) -> str:
    return ",".join(str(v) for v in weight)


def lattice_item(label: str, weight: Sequence[int]) -> dict:
    return {"id": f"lattice {label} {_csv(weight)}", "lattice": [label, list(weight)]}


def cli_item(argv: List[str]) -> dict:
    return {"id": " ".join(argv), "argv": argv}


def sweep_items(label: str, weight: Sequence[int], p: int) -> List[dict]:
    common = ["--type", label, "--weight", _csv(weight), "--p", str(p)]
    oracle = ["--oracle"] if label == "G2" else []
    return [cli_item(["essential"] + common + oracle), cli_item(["filtration"] + common)]


def verify_item(mode: str, label: Optional[str], p: int) -> dict:
    system = [] if label is None else ["--type", label]
    return cli_item(["verify", f"--{mode}"] + system + ["--p", str(p)])


def pool(name: str) -> List[dict]:
    """Every item any seed can draw for a workload."""
    if name == "lattice-cold":
        return [lattice_item(label, w) for label, w in LATTICE_MODULES]
    if name == "sweep-warm":
        return [it for label, w in SWEEP_MODULES for p in SWEEP_PRIMES
                for it in sweep_items(label, w, p)]
    return ([verify_item(mode, label, p) for mode, label, p in VERIFY_CHECKS]
            + [verify_item("g2", None, p) for stratum in G2_PRIME_STRATA for p in stratum])


def draw(name: str, seed: int) -> Draw:
    rng = random.Random(seed)
    if name == "lattice-cold":
        out = Draw(pool(name), sorted({label for label, _ in LATTICE_MODULES}))
    elif name == "sweep-warm":
        out = Draw([], sorted({label for label, _ in SWEEP_MODULES}))
        for label, w in SWEEP_MODULES:
            for p in sorted(rng.sample(SWEEP_PRIMES, SWEEP_PRIMES_PER_MODULE)):
                out.items.extend(sweep_items(label, w, p))
                out.fill.append((label, w, p))
    else:
        primes = [rng.choice(stratum) for stratum in G2_PRIME_STRATA]
        out = Draw([verify_item(mode, label, p) for mode, label, p in VERIFY_CHECKS]
                   + [verify_item("g2", None, p) for p in primes],
                   sorted({label for _, label, _ in VERIFY_CHECKS} | {"G2"}))
    rng.shuffle(out.items)
    return out
