"""The weylpbw command-line interface, driven in-process."""

import json

import pytest

from weylpbw.cache import CACHE_DIR_ENV
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
    path = tmp_path / "bad.json"
    path.write_text("[[2,-2],[-2,2]]")
    code, out, err = run(capsys, "roots", "--cartan", str(path))
    assert code == 2
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


# --- verify -------------------------------------------------------------------


def test_verify_condition2(capsys):
    code, payload = run_json(capsys, "verify", "--condition2", "--type", "A1",
                             "--p", "2")
    assert code == 0
    assert payload["status"] == "pass"
    assert payload["verdict"] is True


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
