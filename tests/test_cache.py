"""Content-addressed payload storage."""

import json
import os
import subprocess
import sys
from pathlib import Path

from weylpbw import (
    SIGN_CONVENTION_TAG,
    AdmissibleLattice,
    PayloadStore,
    build_root_system,
    content_key,
    load_or_build_lattice,
    stable_dumps,
    stable_hash,
)
from weylpbw.cache import key_fields


def test_stable_dumps_is_order_independent():
    a = stable_dumps({"b": 1, "a": [2, {"d": 3, "c": 4}]})
    b = stable_dumps({"a": [2, {"c": 4, "d": 3}], "b": 1})
    assert a == b
    assert a == '{"a":[2,{"c":4,"d":3}],"b":1}'


def test_stable_dumps_ascii_only():
    assert stable_dumps({"k": "α"}) == '{"k":"\\u03b1"}'


def test_stable_hash_shape():
    h = stable_hash({"x": 1})
    assert len(h) == 64
    assert h != stable_hash({"x": 2})


def test_key_fields_pin_convention_and_version():
    fields = key_fields([[2]], (1,))
    assert fields["sign_convention"] == SIGN_CONVENTION_TAG
    assert "version" in fields
    assert "p" not in fields                # one key serves every prime
    assert content_key([[2]], (1,)) == stable_hash(fields)


def test_store_round_trip(tmp_path):
    store = PayloadStore(tmp_path / "cache")
    key = content_key([[2]], (2,))
    entry = {"key_fields": key_fields([[2]], (2,)), "data": [1, 2, 3]}
    path = store.store(key, entry)
    assert path == store.path_for(key)
    assert path.read_text().endswith("\n")
    assert store.load(key) == entry
    # the write is one file; no temp droppings remain
    assert sorted(f.name for f in path.parent.iterdir()) == [f"{key}.json"]


def test_load_missing_returns_none(tmp_path):
    assert PayloadStore(tmp_path).load("0" * 64) is None


def test_load_rejects_corrupt_and_foreign_entries(tmp_path):
    store = PayloadStore(tmp_path)
    key = content_key([[2]], (1,))
    store.path_for(key).write_text("not json")
    assert store.load(key) is None
    # valid JSON whose recorded fields do not hash back to the key
    store.path_for(key).write_text(json.dumps(
        {"key_fields": key_fields([[2]], (9,))}))
    assert store.load(key) is None
    store.path_for(key).write_text(json.dumps([1, 2]))
    assert store.load(key) is None


def test_load_or_build_round_trip(tmp_path):
    a1 = build_root_system("A1")
    store = PayloadStore(tmp_path)
    first = load_or_build_lattice(a1, (3,), None, store)
    key = content_key(a1.cartan.matrix, (3,))
    assert store.path_for(key).exists()
    second = load_or_build_lattice(a1, (3,), None, store)
    assert second.to_payload() == first.to_payload()
    assert stable_dumps(second.to_payload()) == stable_dumps(first.to_payload())
    assert second.dim == 4


def test_one_entry_serves_every_prime(tmp_path, monkeypatch):
    a1 = build_root_system("A1")
    store = PayloadStore(tmp_path)
    built = load_or_build_lattice(a1, (3,), 2, store)

    def no_build(*args):
        raise AssertionError("a cache hit must not rebuild the lattice")
    monkeypatch.setattr(AdmissibleLattice, "build", no_build)
    for p in (3, None):
        hit = load_or_build_lattice(a1, (3,), p, store)
        assert stable_dumps(hit.to_payload()) == stable_dumps(built.to_payload())
    assert len(list(tmp_path.iterdir())) == 1


def test_load_or_build_without_store():
    a1 = build_root_system("A1")
    lattice = load_or_build_lattice(a1, (2,), 5)
    assert lattice.dim == 3


def test_cached_entry_survives_reserialization(tmp_path):
    """serialize -> deserialize -> serialize is byte-identical."""
    g2 = build_root_system("G2")
    store = PayloadStore(tmp_path)
    built = load_or_build_lattice(g2, (1, 0), 11, store)
    key = content_key(g2.cartan.matrix, (1, 0))
    raw = store.path_for(key).read_bytes()
    reloaded = load_or_build_lattice(g2, (1, 0), 11, store)
    store.store(key, {"key_fields": key_fields(g2.cartan.matrix, (1, 0)),
                      "payload": reloaded.to_payload()})
    assert store.path_for(key).read_bytes() == raw
    assert reloaded.dims == built.dims


def corrupt_one_f_entry(path):
    """Shift one entry of one F matrix by 5, keeping the old digest line."""
    body, digest = path.read_text().splitlines()
    entry = json.loads(body)
    f = entry["payload"]["f"]
    f[sorted(f)[0]][0][0] += 5
    path.write_text(f"{stable_dumps(entry)}\n{digest}\n")


def test_load_checks_the_digest_and_the_key(tmp_path):
    store = PayloadStore(tmp_path)
    key = content_key([[2]], (2,))
    entry = {"key_fields": key_fields([[2]], (2,)), "data": [1, 2, 3]}
    path = store.store(key, entry)
    body, digest = path.read_text().splitlines()
    assert (json.loads(body), digest) == (entry, stable_hash(entry))
    # a changed line, or a line without its digest, is a miss
    path.write_text(f"{body.replace('3', '4')}\n{digest}\n")
    assert store.load(key) is None
    path.write_text(body + "\n")
    assert store.load(key) is None
    # so is an intact entry filed under another key
    store.store(key, {"key_fields": key_fields([[2]], (9,))})
    assert store.load(key) is None


def test_load_or_build_rebuilds_a_corrupted_entry(tmp_path):
    g2 = build_root_system("G2")
    store = PayloadStore(tmp_path)
    built = load_or_build_lattice(g2, (1, 1), 3, store)
    key = content_key(g2.cartan.matrix, (1, 1))
    path = store.path_for(key)
    raw = path.read_bytes()
    corrupt_one_f_entry(path)
    assert store.load(key) is None
    rebuilt = load_or_build_lattice(g2, (1, 1), 3, store)
    assert stable_dumps(rebuilt.to_payload()) == stable_dumps(built.to_payload())
    assert path.read_bytes() == raw                 # the entry was rewritten


def misfit_g2_payloads():
    """G2 (1,1) payloads of the right dimension that do not fit their own
    blocks: block (1,1) listed twice, the F matrix of root #0 on it a column
    or a row short or missing, its dimension or weight not a JSON integer,
    an E matrix raising the highest block out of the module, and block
    (0,1) given a weight its depth does not give."""
    want = stable_dumps(AdmissibleLattice.build("G2", (1, 1)).to_payload())

    def edited(change):
        payload = json.loads(want)
        block = next(b for b in payload["blocks"] if b["t"] == [1, 1])
        change(payload, block, payload["f"]["0|1,1"])
        return payload

    return [
        edited(lambda payload, block, mat: payload["blocks"].append(dict(block))),
        edited(lambda payload, block, mat: [row.pop() for row in mat]),
        edited(lambda payload, block, mat: mat.pop()),
        edited(lambda payload, block, mat: block.update(dim=float(block["dim"]))),
        edited(lambda payload, block, mat: block.update(weight=list(map(str, block["weight"])))),
        edited(lambda payload, block, mat: payload["e"].update({"0|0,0": [[1]]})),
        edited(lambda payload, block, mat: payload["f"].pop("0|1,1")),
        edited(lambda payload, block, mat: next(
            b for b in payload["blocks"] if b["t"] == [0, 1]).update(weight=[5, 5])),
    ]


def test_load_or_build_rebuilds_an_entry_that_does_not_check(tmp_path, lattice_builds):
    """A digest-valid entry under the right key whose payload does not parse,
    parses to another module, or does not fit its own blocks is a miss:
    rebuilt once and overwritten."""
    a2 = build_root_system("A2")
    dual = AdmissibleLattice.build(a2, (0, 1)).to_payload()    # the same dimension
    good = AdmissibleLattice.build(a2, (1, 0)).to_payload()
    short = dict(good, blocks=good["blocks"][:-1])
    e_list = dict(good, e=list(good["e"].values()))            # tables that are not objects
    f_int = dict(good, f=3)
    cases = [(a2, (1, 0), [{"cartan": [[2]]}, [1, 2], {"cartan": "A2"}, dual, short,
                           e_list, f_int]),
             (build_root_system("G2"), (1, 1), misfit_g2_payloads())]
    store = PayloadStore(tmp_path)
    for system, weight, payloads in cases:
        key = content_key(system.cartan.matrix, weight)
        want = stable_dumps(AdmissibleLattice.build(system, weight).to_payload())
        for payload in payloads:
            store.store(key, {"key_fields": key_fields(system.cartan.matrix, weight),
                              "payload": payload})
            lattice_builds.clear()
            rebuilt = load_or_build_lattice(system, weight, None, store)
            assert lattice_builds == [weight]
            assert stable_dumps(rebuilt.to_payload()) == want
            assert stable_dumps(store.load(key)["payload"]) == want


def test_load_or_build_rebuilds_an_entry_with_a_loose_matrix(tmp_path, lattice_builds):
    """Stored matrices are taken as decoded, so each entry must be a JSON
    integer and each e/f label must name one of the payload's blocks: a
    float or string entry, or an unknown block, is a miss, rebuilt and
    overwritten."""
    g2 = build_root_system("G2")
    store = PayloadStore(tmp_path)
    key = content_key(g2.cartan.matrix, (1, 0))
    want = stable_dumps(AdmissibleLattice.build(g2, (1, 0)).to_payload())

    def loose(side, value=None, label=None):
        payload = json.loads(want)
        first = sorted(payload[side])[0]
        assert payload[side][first] == [[1]]
        if label is None:
            payload[side][first] = [[value]]
        else:
            payload[side][label] = payload[side].pop(first)
        return payload

    for payload in (loose("e", 1.0), loose("f", "1"), loose("e", True),
                    loose("f", label="0|9,9"), loose("e", label="0|3,2,0")):
        try:
            AdmissibleLattice.from_payload(payload, g2)
        except (KeyError, ValueError):
            pass
        else:
            raise AssertionError(f"{payload} decoded")
        store.store(key, {"key_fields": key_fields(g2.cartan.matrix, (1, 0)),
                          "payload": payload})
        lattice_builds.clear()
        rebuilt = load_or_build_lattice(g2, (1, 0), None, store)
        assert lattice_builds == [(1, 0)]
        assert stable_dumps(rebuilt.to_payload()) == want
        assert stable_dumps(store.load(key)["payload"]) == want


def test_a_cached_lattice_builds_no_second_root_system(tmp_path):
    """A run that reads its lattice from the store gives it the root system
    the run built from ``--type``: after two cached ``essential`` runs in one
    interpreter, the first filling the store, gc finds one RootSystem per
    Cartan matrix."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import collections, contextlib, gc, io, json\n"
        "from weylpbw import AdmissibleLattice, cli\n"
        "from weylpbw.rootsys import RootSystem\n"
        "builds = []\n"
        "build = AdmissibleLattice.build.__func__\n"
        "AdmissibleLattice.build = classmethod(\n"
        "    lambda cls, *args: builds.append(args[1]) or build(cls, *args))\n"
        "for label in ('B2', 'B2', 'G2', 'G2'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(['essential', '--type', label, '--weight', '1,0', '--p', '3',\n"
        f"                  '--cache-dir', {str(tmp_path)!r}, '--quiet'])\n"
        "gc.collect()\n"
        "systems = [o for o in gc.get_objects() if isinstance(o, RootSystem)]\n"
        "print(json.dumps([len(builds), collections.Counter(o.cartan.label for o in systems)]))\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # one build per type; the second run of each reads the stored entry
    assert json.loads(result.stdout) == [2, {"B2": 1, "G2": 1}]
