"""Run the engine from the shell.

Four subcommands cover the library surface:

  roots       positive roots of a Cartan type in the fixed sweep order
  essential   essential multiindices (monomial basis) of a Weyl module
  filtration  filtration level dimensions, single module or tensor product
  verify      splitting-criterion checks (type-G2 pipeline or small rank)

Every command takes --type or --cartan, --format, --out, --quiet and
--schema. essential, filtration and verify take the dimension cap --cap;
essential and filtration also take --cache-dir and --no-cache (--no-cache
beats --cache-dir, which beats $WEYLPBW_CACHE_DIR). All three build their
modules in one place, _modules; verify goes through it without a store.

Exit codes: 0 success, 1 a verification or oracle check failed, 2 usage or
configuration error, 3 a resource cap was exceeded.

Reports are byte-identical across runs with the same configuration and code
version; timing goes to stderr only.  JSON is the canonical format, CSV is
offered for flat tables only, and the text renderer is lossy (labeled as
such in its header line).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import SCHEMA_VERSION, __version__
from .cache import CACHE_DIR_ENV, PayloadStore, load_or_build_lattice, stable_dumps
from .charzero import DIM_CAP_DEFAULT
from .criterion import check_condition2, check_v0, g2_verify, gamma_weight
from .pbw import essential_set, g2_essential_table, order_key, pbw_filtration
from .rootsys import CartanMatrixError, ResourceCapError, RootSystem, build_root_system
from .tensorfilt import InducedFiltration
from .weylmod import WeylModuleP, is_prime

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class UsageError(Exception):
    """A configuration problem the user can fix; rendered on stderr, exit 2."""


# ---------------------------------------------------------------------------
# reading the arguments


def _read_cartan_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read Cartan file {path}: {exc}") from None
    except ValueError as exc:
        raise UsageError(f"Cartan file {path} is not valid JSON: {exc}") from None
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and all(type(x) is int for x in r) for r in rows)):
        raise UsageError(f"Cartan file {path} must hold a JSON matrix of integers")
    return rows


def _system(args) -> RootSystem:
    """The root system named by --type or read from --cartan."""
    if args.type is not None:
        spec = args.type
    elif args.cartan is not None:
        spec = _read_cartan_file(args.cartan)
    else:
        raise UsageError("a Cartan type is required: --type or --cartan")
    try:
        return build_root_system(spec)
    except CartanMatrixError as exc:
        raise UsageError(f"invalid Cartan data: {exc}") from None


def _weight(args, system: RootSystem, name: str) -> Tuple[int, ...]:
    """The dominant weight given by --weight or --tensor, in fundamental coordinates."""
    text = getattr(args, name)
    flag = f"--{name}"
    if text is None:
        raise UsageError(f"{args.cmd} requires {flag}")
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects comma-joined integers, got {text!r}") from None
    if len(coords) != system.rank:
        raise UsageError(f"{flag} has {len(coords)} coordinates; the system has rank {system.rank}")
    if any(c < 0 for c in coords):
        raise UsageError(f"{flag} must be dominant (nonnegative coordinates), got {text!r}")
    return coords


def _modules(args, system: RootSystem, *weights: Tuple[int, ...]) -> List[WeylModuleP]:
    """V(w) over GF(--p) for each weight, loaded through the payload store;
    equal weights share one module. --no-cache beats --cache-dir, which beats
    the environment; verify, which has no cache options, builds with no store."""
    store = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
        if cache_dir:
            store = PayloadStore(Path(cache_dir))
    built: Dict[Tuple[int, ...], WeylModuleP] = {}
    for w in weights:
        if w not in built:
            lattice = load_or_build_lattice(system, w, args.p, store, args.cap)
            built[w] = WeylModuleP(lattice, args.p)
    return [built[w] for w in weights]


def _header(args, system: RootSystem) -> dict:
    return {"schema_version": SCHEMA_VERSION, "type": args.type,
            "cartan": [list(r) for r in system.cartan.matrix]}


def _join(ints: Sequence[int]) -> str:
    return ",".join(str(x) for x in ints)


# ---------------------------------------------------------------------------
# subcommands
#
# Each returns (exit_code, payload, flat, text_lines) where flat is
# (header, rows) for the CSV renderer or None when the report is not a
# flat table.


def cmd_roots(args):
    system = _system(args)
    rows = []
    for i, beta in enumerate(system.positive_roots):
        rows.append({
            "index": i + 1,
            "name": system.root_name(beta),
            "coords": list(beta),
            "height": system.height(beta),
            "pairings": list(system.root_weight_coords(beta)),
        })
    payload = _header(args, system)
    payload.update(count=len(rows), roots=rows)
    flat = (("index", "name", "coords", "height", "pairings"),
            [(r["index"], r["name"], _join(r["coords"]), r["height"],
              _join(r["pairings"])) for r in rows])
    text = [f"positive roots ({args.type or 'custom Cartan matrix'}): {len(rows)}"]
    for r in rows:
        text.append(f"  {r['index']:>2}  {r['name']:<10} coords {_join(r['coords']):<12}"
                    f" height {r['height']:>2}  pairings {_join(r['pairings'])}")
    return EXIT_OK, payload, flat, text


def cmd_essential(args):
    system = _system(args)
    weight = _weight(args, system, "weight")
    [module] = _modules(args, system, weight)
    es = essential_set(module)
    indices = es.indices
    histogram = es.degree_histogram()
    payload = _header(args, system)
    payload.update(weight=list(weight), p=args.p, count=len(indices),
                   degree_histogram=histogram, indices=[list(s) for s in indices])

    code = EXIT_OK
    if args.oracle:
        if system.cartan.label != "G2":
            raise UsageError("--oracle cross-checks the type-G2 inequality table;"
                             " it needs --type G2")
        table = g2_essential_table(weight[0], weight[1])
        mine = {tuple(s) for s in indices}
        other = set(table)
        agrees = mine == other
        oracle = {"source": "inequality-table", "agrees": agrees,
                  "table_size": len(other)}
        if not agrees:
            oracle["missing"] = [list(s) for s in sorted(other - mine, key=order_key)[:20]]
            oracle["extra"] = [list(s) for s in sorted(mine - other, key=order_key)[:20]]
            code = EXIT_VERIFY
        payload["oracle"] = oracle

    n = system.n_pos
    flat = (tuple(f"s{i+1}" for i in range(n)) + ("degree",),
            [tuple(s) + (sum(s),) for s in indices])
    text = [f"essential multiindices of V({_join(weight)})"
            f" ({args.type or 'custom'}, p={args.p}): {len(indices)}",
            f"degree histogram: {histogram}"]
    text.extend("  " + _join(s) for s in indices)
    if "oracle" in payload:
        text.append(f"oracle agreement: {payload['oracle']['agrees']}")
    return code, payload, flat, text


def cmd_filtration(args):
    system = _system(args)
    weight = _weight(args, system, "weight")
    mu = None if args.tensor is None else _weight(args, system, "tensor")
    if args.levels is not None and args.levels < 0:
        raise UsageError("--levels must be nonnegative")

    payload = _header(args, system)
    if mu is None:
        [module] = _modules(args, system, weight)
        top = args.levels if args.levels is not None else sum(module.box)
        table = pbw_filtration(module, top)
        payload.update(
            weight=list(weight), p=args.p,
            levels=[{"n": i, "dim": d} for i, d in enumerate(table.level_dims)],
            graded=list(table.graded_dims), top_dim=table.top_dim)
        text = [f"filtration of V({_join(weight)}) ({args.type or 'custom'},"
                f" p={args.p}); top dimension {table.top_dim}"]
    else:
        legs = _modules(args, system, weight, mu)
        table = InducedFiltration(legs, args.levels, args.cap).table()
        payload.update(table.to_payload())
        text = [f"induced filtration of V({_join(weight)}) (x)"
                f" V({_join(mu)}) ({args.type or 'custom'}, p={args.p});"
                f" tensor dimension {table.tensor_dim}"]
        if table.level_dims and table.level_dims[0] == table.tensor_dim:
            payload["note"] = "filtration concentrated in degree 0"
            text.append("note: filtration concentrated in degree 0")

    rows = [(i, d, g) for i, (d, g) in
            enumerate(zip(table.level_dims, table.graded_dims))]
    flat = (("n", "dim", "graded_dim"), rows)
    text.extend(f"  n={i:<3} dim {d:<6} graded {g}" for i, d, g in rows)
    return EXIT_OK, payload, flat, text


def cmd_verify(args):
    if not (args.g2 or args.condition2 or args.v0):
        raise UsageError("verify needs a mode: --g2, --condition2, or --v0")
    if args.format == "csv":
        raise UsageError("verification reports are not flat tables; use json or text")
    if args.p is None:
        raise UsageError("verify requires --p")

    if args.g2:
        if args.type or args.cartan:
            raise UsageError("--g2 fixes the type; do not pass --type/--cartan")
        report = g2_verify(*_modules(args, build_root_system("G2"), (1, 0), (0, 1)))
        if report.certified:
            status = "pass-certified"
        elif report.exploration_only:
            status = "exploration-only"
        else:
            status = "fail"
        payload = report.to_payload()
        payload["status"] = status
        # Exploration runs (p < 11) produce data without a certification
        # claim, so they are not verification failures.
        code = EXIT_OK if (report.overall or report.exploration_only) else EXIT_VERIFY
        text = [f"type-G2 splitting verification at p={args.p}: status {status}"]
        if report.exploration_only:
            text.append("EXPLORATION ONLY: p < 11 is outside the certified range;"
                        " no certification claimed")
        for step in report.steps:
            text.append(f"  step {step.name:<16} {'PASS' if step.ok else 'FAIL'}")
        text.append(f"overall: {'PASS' if report.overall else 'FAIL'}")
        return code, payload, None, text

    system = _system(args)
    [v_gamma] = _modules(args, system, gamma_weight(system, args.p))
    report = (check_condition2(v_gamma, args.cap) if args.condition2
              else check_v0(v_gamma))
    payload = report.to_payload()
    payload["status"] = "pass" if report.verdict else "fail"
    code = EXIT_OK if report.verdict else EXIT_VERIFY
    text = [f"{report.condition} for {report.label} at p={args.p}:"
            f" {'PASS' if report.verdict else 'FAIL'}",
            f"  gamma = {_join(report.gamma)}",
            f"  witness: {report.witness}"]
    return code, payload, None, text


# ---------------------------------------------------------------------------
# schemas (static descriptions of the JSON payloads)

SCHEMAS: Dict[str, dict] = {
    "roots": {
        "command": "roots",
        "schema_version": SCHEMA_VERSION,
        "payload": {
            "type": "type label, or null for a custom Cartan matrix",
            "cartan": "Cartan matrix rows",
            "count": "number of positive roots",
            "roots": "list of {index (1-based), name, coords (simple-root"
                     " coordinates), height, pairings (with each simple coroot)}",
        },
    },
    "essential": {
        "command": "essential",
        "schema_version": SCHEMA_VERSION,
        "payload": {
            "type": "type label or null",
            "cartan": "Cartan matrix rows",
            "weight": "fundamental-weight coordinates",
            "p": "prime, or null for characteristic zero",
            "count": "number of essential multiindices (= module dimension)",
            "degree_histogram": "count of essentials per total degree",
            "indices": "essential multiindices, ascending in the degree-then-"
                       "reverse-lex total order, coordinates in root order",
            "oracle": "(with --oracle, type G2 only) {source, agrees,"
                      " table_size[, missing, extra]}",
        },
    },
    "filtration": {
        "command": "filtration",
        "schema_version": SCHEMA_VERSION,
        "payload": {
            "type": "type label or null",
            "cartan": "Cartan matrix rows",
            "weight / highest_weights": "single weight, or the pair [lam, mu]"
                                        " for tensor runs",
            "p": "prime or null",
            "levels": "[{n, dim}] cumulative filtration level dimensions",
            "graded": "successive differences of the level dimensions",
            "top_dim / tensor_dim": "stabilized dimension",
            "weight_group": "(tensor runs) weight-space restriction, or null",
            "input_hash": "(tensor runs) content hash of the inputs",
            "note": "present when the filtration concentrates in degree 0",
        },
    },
    "verify": {
        "command": "verify",
        "schema_version": SCHEMA_VERSION,
        "payload": {
            "--g2": {
                "type": "G2",
                "p": "prime",
                "steps": "[{name, ok, details}] in the fixed pipeline order:"
                         " annihilation, j_images, highest_section,"
                         " coefficient, final_lemma",
                "overall": "conjunction of the step verdicts",
                "exploration_only": "true when p < 11",
                "certified": "overall and not exploration_only",
                "status": "pass-certified | exploration-only | fail",
                "input_hash": "content hash of the inputs",
            },
            "--condition2 / --v0": {
                "label": "type label or Cartan description",
                "p": "prime",
                "gamma": "the tested highest weight 2(p-1)rho",
                "condition": "condition2 | v0",
                "verdict": "boolean",
                "witness": "level dimensions and membership facts",
                "status": "pass | fail",
                "input_hash": "content hash of the inputs",
            },
        },
    },
}


# ---------------------------------------------------------------------------
# rendering and entry point


def _render(fmt: str, cmd: str, payload: dict, flat, text_lines: List[str]) -> str:
    if fmt == "json":
        return stable_dumps(payload) + "\n"
    if fmt == "csv":
        if flat is None:
            raise UsageError(f"{cmd} output is not a flat table; use json or text")
        header, rows = flat
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()
    header = f"# weylpbw {cmd} (text rendering; lossy -- use --format json for the full report)"
    return "\n".join([header] + text_lines) + "\n"


def _add_common(sub, cap: bool = True, cache: bool = True) -> None:
    sub.add_argument("--type", help='Cartan type label, e.g. "G2", "A2", "B3"')
    sub.add_argument("--cartan", metavar="FILE",
                     help="JSON file holding Cartan matrix rows")
    if cap:
        sub.add_argument("--cap", type=int, default=DIM_CAP_DEFAULT,
                         help="dimension cap (resource guard, default %(default)s)")
    if cache:
        sub.add_argument("--cache-dir", metavar="DIR",
                         help=f"payload cache directory (default ${CACHE_DIR_ENV})")
        sub.add_argument("--no-cache", action="store_true",
                         help="ignore any configured cache")
    else:
        sub.set_defaults(cache_dir=None, no_cache=True)
    sub.add_argument("--format", choices=("json", "csv", "text"), default="json",
                     help="output format (default json; csv for flat tables only)")
    sub.add_argument("--out", metavar="FILE", help="write the report to FILE")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress the stderr timing note")
    sub.add_argument("--schema", action="store_true",
                     help="print the JSON report schema and exit")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="weylpbw",
        description="Exact-arithmetic filtrations on Weyl modules and"
                    " Frobenius-splitting checks.")
    parser.add_argument("--version", action="version", version=f"weylpbw {__version__}")
    subs = parser.add_subparsers(dest="cmd", required=True)

    sp = subs.add_parser("roots", help="positive roots in the fixed sweep order")
    _add_common(sp, cap=False, cache=False)

    sp = subs.add_parser("essential", help="essential multiindices of a Weyl module")
    sp.add_argument("--weight", help="fundamental coordinates, comma-joined")
    sp.add_argument("--p", type=int, help="prime (omit for characteristic zero)")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the type-G2 inequality table")
    _add_common(sp)

    sp = subs.add_parser("filtration", help="filtration level dimensions")
    sp.add_argument("--weight", help="fundamental coordinates, comma-joined")
    sp.add_argument("--tensor", metavar="MU",
                    help="second weight; switch to the induced filtration on"
                         " V(weight) (x) V(MU)")
    sp.add_argument("--p", type=int, help="prime (omit for characteristic zero)")
    sp.add_argument("--levels", type=int, help="sweep only levels 0..N")
    _add_common(sp)

    sp = subs.add_parser("verify", help="splitting-criterion checks")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--g2", action="store_true",
                      help="run the full type-G2 verification pipeline")
    mode.add_argument("--condition2", action="store_true",
                      help="tensor-square escape check at gamma = 2(p-1)rho")
    mode.add_argument("--v0", action="store_true",
                      help="single-module escape check at gamma = 2(p-1)rho")
    sp.add_argument("--p", type=int, help="prime")
    _add_common(sp, cache=False)

    return parser


_COMMANDS = {
    "roots": cmd_roots,
    "essential": cmd_essential,
    "filtration": cmd_filtration,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.schema:
        sys.stdout.write(json.dumps(SCHEMAS[args.cmd], indent=2, sort_keys=True) + "\n")
        return EXIT_OK

    started = time.perf_counter_ns()
    try:
        if getattr(args, "cap", 1) < 1:
            raise UsageError("--cap must be at least 1")
        p = getattr(args, "p", None)
        if p is not None and not is_prime(p):
            raise UsageError(f"--p must be prime, got {p}")
        code, payload, flat, text_lines = _COMMANDS[args.cmd](args)
        rendered = _render(args.format, args.cmd, payload, flat, text_lines)
        if args.out:
            Path(args.out).write_text(rendered, encoding="utf-8")
        else:
            sys.stdout.write(rendered)
    except UsageError as exc:
        print(f"weylpbw: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"weylpbw: resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE

    if not args.quiet:
        elapsed = (time.perf_counter_ns() - started) // 1_000_000
        print(f"weylpbw: {args.cmd} finished in {elapsed} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
