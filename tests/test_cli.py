"""The weylpbw command-line interface, driven in-process."""

import hashlib
import json

import pytest

from weylpbw.cache import CACHE_DIR_ENV, PayloadStore, content_key, key_fields
from weylpbw.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--quiet")
    return code, json.loads(out)


# --- roots --------------------------------------------------------------------


def test_roots_g2(capsys):
    code, payload = run_json(capsys, "roots", "--type", "G2")
    assert code == 0
    assert payload["count"] == 6
    names = [r["name"] for r in payload["roots"]]
    assert names == ["11122", "1112", "112", "12", "2", "1"]
    assert [r["height"] for r in payload["roots"]] == [5, 4, 3, 2, 1, 1]
    assert payload["roots"][0]["coords"] == [3, 2]


def test_roots_from_cartan_file(capsys, tmp_path):
    path = tmp_path / "a2.json"
    path.write_text("[[2,-1],[-1,2]]")
    code, payload = run_json(capsys, "roots", "--cartan", str(path))
    assert code == 0
    assert payload["count"] == 3


def test_roots_rejects_bad_cartan_file(capsys, tmp_path):
    """Not a Cartan matrix, or not of JSON integers (a boolean is not one)."""
    path = tmp_path / "bad.json"
    for text in ("[[2,-2],[-2,2]]", "[[2,-1.0],[-1,2]]", "[[2,false],[false,2]]"):
        path.write_text(text)
        code, out, err = run(capsys, "roots", "--cartan", str(path))
        assert code == 2, text
        assert "error" in err


def test_roots_needs_a_system(capsys):
    code, _, err = run(capsys, "roots")
    assert code == 2


def test_text_format_is_labeled_lossy(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A1", "--format", "text",
                       "--quiet")
    assert code == 0
    assert out.splitlines()[0].startswith("# weylpbw roots (text rendering; lossy")


def test_csv_format_roots(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A2", "--format", "csv",
                       "--quiet")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4  # header + three roots
    assert lines[0].split(",")[0] == "index"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# --- essential ----------------------------------------------------------------


def test_essential_a1(capsys):
    code, payload = run_json(capsys, "essential", "--type", "A1",
                             "--weight", "4")
    assert code == 0
    assert payload["count"] == 5
    assert payload["indices"] == [[0], [1], [2], [3], [4]]
    assert payload["degree_histogram"] == [1, 1, 1, 1, 1]


def test_essential_g2_oracle_agreement(capsys):
    code, payload = run_json(capsys, "essential", "--type", "G2",
                             "--weight", "1,0", "--oracle")
    assert code == 0
    assert payload["count"] == 7
    assert payload["oracle"]["agrees"] is True
    assert payload["oracle"]["table_size"] == 7


def test_essential_oracle_takes_a_lowercase_g2_label(capsys):
    code, payload = run_json(capsys, "essential", "--type", "g2",
                             "--weight", "1,0", "--oracle")
    assert code == 0
    assert payload["oracle"]["agrees"] is True


def test_essential_oracle_needs_g2(capsys):
    code, _, err = run(capsys, "essential", "--type", "A1", "--weight", "2",
                       "--oracle")
    assert code == 2
    assert "G2" in err


def test_essential_requires_weight(capsys):
    code, _, err = run(capsys, "essential", "--type", "A1")
    assert code == 2


def test_weight_must_match_rank(capsys):
    code, _, err = run(capsys, "essential", "--type", "A1", "--weight", "1,2")
    assert code == 2


def test_weight_must_be_dominant(capsys):
    code, _, err = run(capsys, "essential", "--type", "A2", "--weight", "1,-1")
    assert code == 2


def test_composite_p_rejected(capsys):
    code, _, err = run(capsys, "essential", "--type", "A1", "--weight", "2",
                       "--p", "6")
    assert code == 2


def test_cap_exceeded_is_exit_3(capsys):
    code, _, err = run(capsys, "filtration", "--type", "A2",
                       "--weight", "8,8", "--cap", "100")
    assert code == 3
    assert "cap" in err


# --- filtration ---------------------------------------------------------------


def test_filtration_single_module(capsys):
    code, payload = run_json(capsys, "filtration", "--type", "A1",
                             "--weight", "2", "--p", "3")
    assert code == 0
    assert payload["graded"] == [1, 1, 1]
    assert [lv["dim"] for lv in payload["levels"]] == [1, 2, 3]
    assert payload["top_dim"] == 3


@pytest.mark.parametrize("tensor", [(), ("--tensor", "1")])
def test_filtration_rejects_negative_levels(capsys, tensor):
    code, out, err = run(capsys, "filtration", "--type", "A1", "--weight", "2",
                         "--levels", "-1", *tensor)
    assert code == 2
    assert out == ""
    assert "--levels must be nonnegative" in err


def test_filtration_tensor(capsys):
    code, payload = run_json(capsys, "filtration", "--type", "A1",
                             "--weight", "1", "--tensor", "1", "--p", "2")
    assert code == 0
    assert [lv["dim"] for lv in payload["levels"]] == [3, 4]
    assert payload["tensor_dim"] == 4
    assert "note" not in payload


def test_filtration_degenerate_tensor_notes_concentration(capsys):
    code, payload = run_json(capsys, "filtration", "--type", "A1",
                             "--weight", "2", "--tensor", "0", "--p", "3")
    assert code == 0
    assert payload["note"] == "filtration concentrated in degree 0"


def test_filtration_cut_at_level_zero_notes_no_concentration(capsys):
    # level 0 is 4 of the 6 dimensions: cutting the sweep there leaves no
    # graded piece above it, but the filtration is not concentrated
    code, payload = run_json(capsys, "filtration", "--type", "A1", "--weight", "2",
                             "--tensor", "1", "--p", "3", "--levels", "0")
    assert code == 0
    assert [lv["dim"] for lv in payload["levels"]] == [4]
    assert payload["tensor_dim"] == 6
    assert "note" not in payload


# --- verify -------------------------------------------------------------------


def test_verify_condition2(capsys):
    code, payload = run_json(capsys, "verify", "--condition2", "--type", "A1",
                             "--p", "2")
    assert code == 0
    assert payload["status"] == "pass"
    assert payload["verdict"] is True


def test_verify_condition2_caps_the_weight_group_it_sweeps(capsys):
    """At A2 p=2, dim V(gamma) is 27 and the tensor square 729, but the
    check sweeps one weight group of width 45: a cap of 45 runs it as the
    default cap does, and 44 stops it before any work."""
    argv = ("verify", "--condition2", "--type", "A2", "--p", "2", "--quiet")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--cap", "45")[:2] == (0, out)
    code, out, err = run(capsys, *argv, "--cap", "44")
    assert code == 3 and out == ""
    assert "45" in err


def test_verify_g2_small_prime_explores(capsys):
    code, payload = run_json(capsys, "verify", "--g2", "--p", "7")
    assert code == 0
    assert payload["status"] == "exploration-only"


def test_verify_g2_reports_failure_deterministically(capsys):
    code1, out1, _ = run(capsys, "verify", "--g2", "--p", "11", "--quiet")
    code2, out2, _ = run(capsys, "verify", "--g2", "--p", "11", "--quiet")
    assert code1 == code2 == 1
    assert out1 == out2  # byte-identical report
    payload = json.loads(out1)
    assert payload["status"] == "fail"
    step_ok = {s["name"]: s["ok"] for s in payload["steps"]}
    assert step_ok["coefficient"] is False
    assert step_ok["annihilation"] is True


def test_verify_requires_a_mode(capsys):
    code, _, err = run(capsys, "verify", "--type", "A1", "--p", "2")
    assert code == 2
    assert "mode" in err


def test_verify_refuses_csv(capsys):
    code, _, err = run(capsys, "verify", "--g2", "--p", "7", "--format", "csv")
    assert code == 2


# --- shared plumbing ----------------------------------------------------------


def test_schema_flag(capsys):
    for cmd in ("roots", "essential", "filtration", "verify"):
        code, out, _ = run(capsys, cmd, "--schema")
        assert code == 0
        assert isinstance(json.loads(out), dict)


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "roots", "--type", "A1", "--out", str(target),
                       "--quiet")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == 1


def test_quiet_silences_timing(capsys):
    _, _, err = run(capsys, "roots", "--type", "A1", "--quiet")
    assert err == ""
    _, _, err = run(capsys, "roots", "--type", "A1")
    assert "finished in" in err


def test_cache_dir_flag(capsys, tmp_path):
    cache = tmp_path / "store"
    code, first = run_json(capsys, "essential", "--type", "A1", "--weight",
                           "3", "--cache-dir", str(cache))
    assert code == 0
    entries = list(cache.glob("*.json"))
    assert len(entries) == 1
    code, second = run_json(capsys, "essential", "--type", "A1", "--weight",
                            "3", "--cache-dir", str(cache))
    assert second == first


def test_corrupted_cache_entry_is_rebuilt(capsys, tmp_path):
    """A cached lattice with one F entry changed is a miss, not a crash."""
    args = ("essential", "--type", "G2", "--weight", "1,1", "--p", "3")
    code, want, _ = run(capsys, *args, "--no-cache", "--quiet")
    assert code == 0
    cache = tmp_path / "store"
    run(capsys, *args, "--cache-dir", str(cache), "--quiet")
    [path] = cache.glob("*.json")
    body, digest = path.read_text().splitlines()
    entry = json.loads(body)
    f = entry["payload"]["f"]
    f[sorted(f)[0]][0][0] += 5
    path.write_text(f"{json.dumps(entry)}\n{digest}\n")
    code, out, _ = run(capsys, *args, "--cache-dir", str(cache), "--quiet")
    assert (code, out) == (0, want)


def test_unparsable_cache_entry_is_rebuilt(capsys, tmp_path):
    """A digest-valid entry under the right key whose payload is not a
    lattice is a miss, not a traceback."""
    args = ("essential", "--type", "A1", "--weight", "2")
    code, want, _ = run(capsys, *args, "--no-cache", "--quiet")
    assert code == 0
    store = PayloadStore(tmp_path / "store")
    store.store(content_key([[2]], (2,)),
                {"key_fields": key_fields([[2]], (2,)), "payload": {"cartan": [[2]]}})
    code, out, _ = run(capsys, *args, "--cache-dir", str(store.root), "--quiet")
    assert (code, out) == (0, want)


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "env-store"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
    code, _ = run_json(capsys, "essential", "--type", "A1", "--weight", "2")
    assert code == 0
    assert list(cache.glob("*.json"))
    # --no-cache wins over the environment
    other = tmp_path / "unused"
    monkeypatch.setenv(CACHE_DIR_ENV, str(other))
    run_json(capsys, "essential", "--type", "A1", "--weight", "2",
             "--no-cache")
    assert not other.exists()


# --- golden reports -------------------------------------------------------------
#
# Exit code, stdout sha256 and stderr sha256 (with --quiet) of runs across every
# command, format and exit code. The digests were taken from the code before the
# command-line layer was rewritten; they pin the reports byte for byte and must
# not be regenerated to make a change pass.

EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = [
    (("roots", "--type", "G2"), 0,
     "3d631af6270e6e1785cc62fb8651fae2915639fb07da1063bc4f9f4004d8af4f", EMPTY),
    (("roots", "--type", "A2", "--format", "csv"), 0,
     "b8ca307360fd8fd404414b159fc53a8e9e157e12f9a1db020839b535e32ff5e9", EMPTY),
    (("roots", "--type", "B3", "--format", "text"), 0,
     "5c4cf03ecc993c3b994f826e07d831550ef72db2f39290b1e4d0a2b538d38efa", EMPTY),
    (("roots", "--cartan", "A2FILE"), 0,
     "e71d45ee098bbc8243d99ff90182873e5130518646ac6fe62e20387828464856", EMPTY),
    (("roots",), 2, EMPTY,
     "0ea6410228c964df5849a9ad0c62ee2ab6dbaf2d81d200a1efd9c3be93065d7a"),
    (("roots", "--type", "A5"), 3, EMPTY,
     "a624eefb30eb06c72311a2432aeeadb8ef8212fb15f9dd11d87f2aca2a28c07d"),
    (("essential", "--type", "A1", "--weight", "4"), 0,
     "387330852147d7339f843bef9b6f58d7edf2e477d8d65378bd2c7b7fa8c4c589", EMPTY),
    (("essential", "--type", "G2", "--weight", "1,0", "--oracle"), 0,
     "cca47297a20e91f5e1b0152431d226fcfe6ac52d5e9226170963bf4ad692ba58", EMPTY),
    (("essential", "--type", "A2", "--weight", "1,1", "--p", "3", "--format", "csv"), 0,
     "47efc354bafdd6312e4860322f5b1aedc3501760bb2abb7696d038cac2d3526c", EMPTY),
    (("essential", "--type", "B2", "--weight", "1,1", "--p", "2", "--format", "text"), 0,
     "36fd6c8671f4b6a4741c109e0d529b1b01011351da3c50db9c511b7ee89b25aa", EMPTY),
    (("essential", "--type", "A1", "--weight", "2", "--oracle"), 2, EMPTY,
     "e4d24cfda010b8563b97b7d5f603419fafade19feca4d0023d92d0996dc6634a"),
    (("essential", "--type", "A1", "--weight", "2", "--p", "6"), 2, EMPTY,
     "a661e512b014fd7a97690117ac489187f9ea52ae461e3578419bdc7346d6a8ff"),
    (("essential", "--type", "A1"), 2, EMPTY,
     "010fed3df81c0de18a87ea60f2d7beec40749b5502b73e9426b92f76cc01e67d"),
    (("filtration", "--type", "A1", "--weight", "2", "--p", "3"), 0,
     "220e557fdfa5f6f9d4e49d9cc6a72d3b7b9483cf8fc2d0ec827638b4b212a0b9", EMPTY),
    (("filtration", "--type", "A2", "--weight", "1,1", "--p", "2", "--format", "csv"), 0,
     "0cb4772ce77a5c01465851dc71ee8fb780cf8bfd5b58c5516312e1ccc1555496", EMPTY),
    (("filtration", "--type", "A1", "--weight", "1", "--tensor", "1", "--p", "2"), 0,
     "ff43665afb90ba370b6c936fd8cf2594f2388763f100f46ae2fc357f4c9b6f52", EMPTY),
    (("filtration", "--type", "A1", "--weight", "2", "--tensor", "0", "--p", "3",
      "--format", "text"), 0,
     "b97fdde356ce293b57df5b179f57fe23b77aebd164ecec7a0cd3dae4bab43fba", EMPTY),
    (("filtration", "--type", "A2", "--weight", "1,0", "--tensor", "0,1", "--p", "3",
      "--format", "csv"), 0,
     "ecabe37d83ed3950f17c99e8e6d12306b13c72d31f3343d44df7d17f3d8b87b6", EMPTY),
    (("filtration", "--type", "A2", "--weight", "8,8", "--cap", "100"), 3, EMPTY,
     "8ef3f3fd42ba85c26ec76a31395d7ca924dd61e24164dea3192d794af613821c"),
    (("filtration", "--type", "A1", "--weight", "2", "--cap", "0"), 2, EMPTY,
     "61cbc2b238ca96916892c6cf8542f81784eb505ed9090aa9b696ac38644a4633"),
    (("verify", "--condition2", "--type", "A1", "--p", "2"), 0,
     "88fc364e398fe91a468310f64695f667a76a8d21a341c5834e09a55868568a4f", EMPTY),
    (("verify", "--v0", "--type", "A1", "--p", "3", "--format", "text"), 0,
     "ee0ed26e14c57ed871c855c618fd2eda0c555143ab381f5f0075abed5700dfc6", EMPTY),
    (("verify", "--g2", "--p", "7"), 0,
     "42ee93fa975038d58bd43eef72f19f911999979a776c14bc4346efab8ae57b37", EMPTY),
    (("verify", "--g2", "--p", "11"), 1,
     "eec027eef07fb6a2964424793dcbd1e6e8765a3a26fa1a5acff721672a6f9b5e", EMPTY),
    (("verify", "--g2", "--p", "13"), 1,
     "9101148a4c9f84aea9116cffd76cf99d9ab76de7d1f9712b3f49674ae6c118bd", EMPTY),
    (("verify", "--g2", "--p", "23"), 1,
     "e829ba438decf7bdcf116b01a061ff3f279ddeca59b6f1e66975e3da58663998", EMPTY),
    (("verify", "--g2", "--p", "7", "--format", "csv"), 2, EMPTY,
     "b95b1386e9b6547631c88dd0a1a8010ce260044ea0d56746c3742b7593b33615"),
    (("verify", "--type", "A1", "--p", "2"), 2, EMPTY,
     "4196492a3f7ee73c940a9de3824964174c98002ee34d088fccc66bec3b9a48a5"),
]


@pytest.mark.parametrize("argv, code, out_sha, err_sha", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_reports(capsys, tmp_path, argv, code, out_sha, err_sha):
    a2 = tmp_path / "a2.json"
    a2.write_text("[[2,-1],[-1,2]]")
    argv = [str(a2) if a == "A2FILE" else a for a in argv]
    got, out, err = run(capsys, *argv, "--quiet")
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(err.encode()).hexdigest() == err_sha


# --- options that were accepted and ignored are gone -------------------------------


def test_roots_takes_no_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--type", "A1", "--cap", "5"])
    assert exc.value.code == 2


def test_verify_takes_no_cache_dir(capsys, tmp_path):
    cache = tmp_path / "store"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--g2", "--p", "7", "--cache-dir", str(cache)])
    assert exc.value.code == 2
    assert not cache.exists()


def _entries(cache):
    return {path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in cache.glob("*.json")}


@pytest.mark.parametrize("lam, mu, count", [("1", "1", 1), ("2", "1", 2)])
def test_filtration_tensor_uses_the_store(capsys, tmp_path, lam, mu, count):
    cache = tmp_path / "store"
    args = ("filtration", "--type", "A1", "--weight", lam, "--tensor", mu,
            "--p", "3", "--cache-dir", str(cache), "--quiet")
    code, first, _ = run(capsys, *args)
    assert code == 0
    entries = _entries(cache)
    assert len(entries) == count
    code, second, _ = run(capsys, *args)
    assert (code, second) == (0, first)
    assert _entries(cache) == entries



# --- every module is built by the command, once -----------------------------------

BUILDS = [
    # V(gamma), gamma = 2(p-1)rho, serves F0.v and both legs of the square
    (("verify", "--condition2", "--type", "A1", "--p", "3"), 0, [(4,)]),
    (("verify", "--v0", "--type", "A1", "--p", "3"), 0, [(4,)]),
    # V(w1) and V(w2), each shared by the G2 steps that read it
    (("verify", "--g2", "--p", "11"), 1, [(1, 0), (0, 1)]),
    # a tensor square shares one module
    (("filtration", "--type", "A1", "--weight", "2", "--tensor", "2", "--p", "3"), 0,
     [(2,)]),
    (("filtration", "--type", "A1", "--weight", "2", "--tensor", "1", "--p", "3"), 0,
     [(2,), (1,)]),
]


@pytest.mark.parametrize("argv, code, built", BUILDS,
                         ids=[" ".join(b[0]) for b in BUILDS])
def test_each_command_builds_each_lattice_once(capsys, monkeypatch, lattice_builds,
                                               argv, code, built):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert run(capsys, *argv, "--quiet")[0] == code
    assert lattice_builds == built
