"""The benchmark's tracer must find every name it wraps.

``perfbench/tracing.py`` wraps package functions and methods in place and
raises ``LookupError`` for a name that was renamed, moved or is only
inherited. This runs that installation in a fresh interpreter, so a rename
that would break ``perfbench/run.py --trace 1`` fails here in seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that can import weylpbw and the tracer."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_tracer_installs_on_every_target():
    result = _traced_python("import tracing\n"
                            "tracing.install(tracing.Tracer())\n"
                            "print(len(tracing.TARGETS))\n")
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0


# Traced counts of building G2 (2,1), B3 (1,0,1) and C3 (0,1,1). The Gram
# layer picks the same bases from the same candidate Grams as every earlier
# construction (gram entries, blocks, rank_dense, hnf). It inverts each block
# Gram as an integer pair (d, X) in place of a solve, so solve_dense runs
# only in depth_vector, once per module. The lattice build makes one
# f_root/e_root call per (block, simple root) whose operator it uses, and one
# insert per nonzero pushed generator. A refactor of the characteristic-zero
# layer must leave these counts unchanged.
PINNED_BUILD_COUNTS = {
    "charzero.f_root.calls": 255,
    "charzero.e_root.calls": 255,
    "charzero.gram_entries": 4_800,
    "charzero.blocks": 149,
    "linalg.scaled_insert.calls": 1_417,
    "linalg.rank_dense.calls": 522,
    "linalg.solve_dense.calls": 3,
    "linalg.hnf.calls": 149,
}


def test_traced_lattice_builds_keep_their_counts():
    result = _traced_python(
        "import json, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "from weylpbw import AdmissibleLattice\n"
        "for typ, weight in [('G2', (2, 1)), ('B3', (1, 0, 1)), ('C3', (0, 1, 1))]:\n"
        "    AdmissibleLattice.build(typ, weight)\n"
        "print(json.dumps(dict(tracer.counts)))\n")
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    assert {name: counts.get(name, 0) for name in PINNED_BUILD_COUNTS} == PINNED_BUILD_COUNTS


# Traced counts of ``verify --condition2`` at A2 p=3 and B2 p=2. The sweep
# inserts the spanning vectors in a fixed order and keeps the ones that raise
# a rank, so a change to the order of the coproduct orbit, the spanning loop
# or the row space moves these counts.
PINNED_CONDITION2_COUNTS = {
    ("A2", 3): {"linalg.gf_insert.calls": 424, "linalg.gf_insert.useful": 276,
                "tensorfilt.kept_vectors": 276},
    ("B2", 2): {"linalg.gf_insert.calls": 620, "linalg.gf_insert.useful": 218,
                "tensorfilt.kept_vectors": 218},
}


def test_traced_condition2_keeps_its_counts():
    result = _traced_python(
        "import contextlib, io, json, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "from weylpbw import cli\n"
        "out = {}\n"
        f"for typ, p in {list(PINNED_CONDITION2_COUNTS)!r}:\n"
        "    tracer.counts.clear()\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(['verify', '--condition2', '--type', typ, '--p', str(p), '--quiet'])\n"
        "    out[f'{typ} {p}'] = dict(tracer.counts)\n"
        "print(json.dumps(out))\n")
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    for (typ, p), pinned in PINNED_CONDITION2_COUNTS.items():
        got = counts[f"{typ} {p}"]
        assert {name: got.get(name, 0) for name in pinned} == pinned, (typ, p)


# Traced counts of ``essential --oracle`` and ``filtration`` on G2 (1,2) at
# p=3. Both commands run one sweep, the essential sweep of ``pbw``: it
# inserts each monomial vector's coordinates as one row, in a fixed order,
# and stops once a block is spanned. It enumerates a block one degree at a
# time, up to the degree that spans it, so it yields 520 of the 5,782
# multi-indices of the module's blocks. Each F^s v is one single-factor
# ``act`` on its tail F^r v, which the module keeps, so ``act`` runs once
# for each multi-index reached (a swept one or a tail of one) whose own tail
# is nonzero.
PINNED_SWEEP_COUNTS = {
    "essential": {"linalg.gf_insert.calls": 310, "linalg.gf_insert.useful": 286,
                  "pbw.monomials_swept": 520, "pbw.enumerate.yielded": 520,
                  "weylmod.act.calls": 320},
    "filtration": {"linalg.gf_insert.calls": 310, "linalg.gf_insert.useful": 286,
                   "pbw.enumerate.yielded": 520, "weylmod.act.calls": 320},
}


def test_traced_module_sweeps_keep_their_counts():
    result = _traced_python(
        "import contextlib, io, json, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "from weylpbw import cli\n"
        "out = {}\n"
        "for command, extra in [('essential', ['--oracle']), ('filtration', [])]:\n"
        "    tracer.counts.clear()\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main([command, '--type', 'G2', '--weight', '1,2', '--p', '3',\n"
        "                  *extra, '--no-cache', '--quiet'])\n"
        "    out[command] = dict(tracer.counts)\n"
        "print(json.dumps(out))\n")
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    for command, pinned in PINNED_SWEEP_COUNTS.items():
        got = counts[command]
        assert {name: got.get(name, 0) for name in pinned} == pinned, command


def test_every_active_span_fires(tmp_path):
    """Tiny items of each benchmark workload reach every span the workload
    declares ``active``; ``perfbench/run.py --trace 1`` fails on a silent one."""
    result = _traced_python(
        "import contextlib, io, json, tracing, workloads\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "from weylpbw import PayloadStore, build_root_system, cli, load_or_build_lattice\n"
        f"store = PayloadStore({str(tmp_path / 'store')!r})\n"
        "calls = {}\n"
        "def main(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main([*argv, '--quiet'])\n"
        "def close(name):\n"
        "    calls[name] = {m for m, n in tracer.counts.items() if m.endswith('.calls') and n}\n"
        "    tracer.counts.clear()\n"
        "main('verify', '--condition2', '--type', 'A1', '--p', '3')\n"
        "main('verify', '--v0', '--type', 'A1', '--p', '3')\n"
        "main('verify', '--g2', '--p', '11')\n"
        "close('verify')\n"
        "load_or_build_lattice(build_root_system('A2'), (1, 1), None, store)\n"
        "close('lattice-cold')\n"
        "for command in ('essential', 'filtration'):\n"
        "    main(command, '--type', 'A2', '--weight', '1,1', '--p', '3',\n"
        "         '--cache-dir', str(store.root))\n"
        "close('sweep-warm')\n"
        "print(json.dumps({name: [s for s in w.active if s + '.calls' not in calls[name]]\n"
        "                  for name, w in workloads.WORKLOADS.items()}))\n")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"lattice-cold": [], "sweep-warm": [], "verify": []}
