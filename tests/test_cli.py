"""Command-line interface: frozen tables, exit codes, determinism."""

import json

import pytest

from mmmcoh.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# -- hilbert tables --------------------------------------------------------------


def test_hilbert_ring_frozen(capsys):
    code, doc = run_json(capsys, "hilbert", "Q", "--up-to", "8")
    assert code == 0
    assert doc["dims"] == [1, 0, 1, 0, 2, 0, 3, 0, 5]


def test_hilbert_twisted_frozen(capsys):
    code, doc = run_json(capsys, "hilbert", "H", "--up-to", "7")
    assert code == 0
    assert doc["dims"] == [0, 1, 0, 2, 0, 4, 0, 7]


def test_hilbert_tilde_frozen(capsys):
    code, doc = run_json(capsys, "hilbert", "Htilde", "--up-to", "7")
    assert code == 0
    assert doc["dims"] == [1, 0, 0, 0, 0, 1, 0, 2]
    assert doc["generators"]["0"] == ["theta"]
    assert doc["generators"]["5"] == ["M(1,2)"]


def test_hilbert_tilde_dual_frozen(capsys):
    code, doc = run_json(capsys, "hilbert", "HtildeDual", "--up-to", "5")
    assert code == 0
    assert doc["dims"] == [0, 0, 0, 1, 0, 2]
    assert doc["generators"]["3"] == ["m2"]


def test_hilbert_csv_and_text(capsys):
    code, out = run_cli(capsys, "hilbert", "Q", "--up-to", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dimension"
    assert lines[1] == "0,1"
    assert lines[-1] == "4,2"

    code, out = run_cli(capsys, "hilbert", "Q", "--up-to", "4")
    assert code == 0
    assert "Q coefficients" in out


def test_hilbert_up_to_out_of_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "Q", "--max-degree", "8", "--up-to", "10"])
    assert exc.value.code == 2


def test_hilbert_unknown_label_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "Z"])
    assert exc.value.code == 2


# -- verify-all -------------------------------------------------------------------


def test_verify_all_small_bound_passes(capsys):
    code, doc = run_json(capsys, "verify-all", "--max-degree", "12")
    assert code == 0
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 9
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_all_is_byte_deterministic(capsys):
    _, first = run_cli(capsys, "verify-all", "--max-degree", "10", "--format", "json")
    _, second = run_cli(capsys, "verify-all", "--max-degree", "10", "--format", "json")
    assert first == second


def test_verify_all_timings_sidecar(capsys):
    _, doc = run_json(capsys, "verify-all", "--max-degree", "8", "--timings")
    assert "timings_ms" in doc
    assert set(doc["timings_ms"]) == {c["check_id"] for c in doc["checks"]}
    _, plain = run_json(capsys, "verify-all", "--max-degree", "8")
    assert "timings_ms" not in plain
    assert "elapsed" not in json.dumps(plain)


def test_verify_all_text_format(capsys):
    code, out = run_cli(capsys, "verify-all", "--max-degree", "8")
    assert code == 0
    assert out.count("[PASS]") == 9
    assert "all checks passed" in out


def test_verify_all_csv_is_flat_projection(capsys):
    code, out = run_cli(capsys, "verify-all", "--max-degree", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check_id,status,per_degree_data"
    assert len(lines) == 10  # header plus one row per check
    assert all(",pass," in line for line in lines[1:])


def test_verify_all_minimal_bound(capsys):
    code, doc = run_json(capsys, "verify-all", "--max-degree", "2")
    assert code == 0
    assert doc["all_passed"] is True


# -- argument validation ------------------------------------------------------------


@pytest.mark.parametrize("bad", ["7", "0", "-4", "13"])
def test_odd_or_nonpositive_bound_is_usage_error(bad):
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--max-degree", bad])
    assert exc.value.code == 2


def test_bad_jobs_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--jobs", "0", "--max-degree", "8"])
    assert exc.value.code == 2


def test_jobs_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--jobs", "2", "--max-degree", "8"])
    assert exc.value.code == 2


def test_cli_import_loads_no_process_pool():
    import subprocess
    import sys

    code = (
        "import sys, mmmcoh.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_degree_bound_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MMM_DEGREE_BOUND", "8")
    code, doc = run_json(capsys, "hilbert", "Q")
    assert code == 0
    assert len(doc["dims"]) == 9

    monkeypatch.setenv("MMM_DEGREE_BOUND", "7")
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "Q"])
    assert exc.value.code == 2

    monkeypatch.setenv("MMM_DEGREE_BOUND", "junk")
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "Q"])
    assert exc.value.code == 2
    assert "MMM_DEGREE_BOUND='junk' is not an integer" in capsys.readouterr().err


def test_explicit_bound_beats_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MMM_DEGREE_BOUND", "6")
    code, doc = run_json(capsys, "hilbert", "Q", "--max-degree", "10", "--up-to", "10")
    assert code == 0
    assert len(doc["dims"]) == 11


# -- remaining subcommands ----------------------------------------------------------


def test_tor_subcommand(capsys):
    code, doc = run_json(capsys, "tor", "--max-degree", "12", "--j-max", "2")
    assert code == 0
    assert doc["nonfreeness_witness_tor1_degree2"] == 1
    assert [t["j"] for t in doc["tables"]] == [0, 1, 2]
    assert doc["tables"][0]["dims"]["0"] == 1  # theta
    assert doc["tables"][0]["dims"]["6"] == 1  # first kernel generator


def test_tor_check_rows_are_the_tor_tables(capsys):
    # verify-all's tor-dimensions rows are a view over the tables `tor` prints
    code, doc = run_json(capsys, "tor", "--max-degree", "12")
    assert code == 0
    from_tables = sorted(
        (int(d), t["j"], n) for t in doc["tables"] for d, n in t["dims"].items()
    )
    code, report = run_json(capsys, "verify-all", "--max-degree", "12")
    assert code == 0
    (check,) = [c for c in report["checks"] if c["check_id"] == "tor-dimensions"]
    rows = check["per_degree_data"]
    assert [(r["degree"], r["j"], r["got"]) for r in rows] == from_tables
    assert all(r["expected"] == r["got"] for r in rows)


def test_generators_subcommand(capsys):
    code, doc = run_json(capsys, "generators", "--max-degree", "12")
    assert code == 0
    assert doc["syzygies_checked"] == 1  # only (1,2,3) fits under 12
    assert doc["minimal_generator_counts"] == {"6": 1, "8": 1, "10": 2, "12": 2}
    by_degree = {r["degree"]: r for r in doc["per_degree"]}
    assert by_degree[10]["kernel_dim"] == 5


def test_exactness_subcommand(capsys):
    code, doc = run_json(capsys, "exactness", "--max-degree", "8")
    assert code == 0
    assert doc["all_exact"] is True


def test_h1_bundled(capsys):
    code, doc = run_json(capsys, "h1", "b3")
    assert code == 0
    assert (doc["z1_dim"], doc["b1_dim"], doc["h1_dim"]) == (2, 2, 0)
    assert "z1_basis" not in doc


def test_h1_certify(capsys):
    code, doc = run_json(capsys, "h1", "b3", "--certify")
    assert code == 0
    assert len(doc["z1_basis"]) == 2
    assert len(doc["b1_basis"]) == 2


def test_h1_from_file(capsys, tmp_path):
    doc = {
        "generators": 1,
        "relators": [],
        "matrices": [[[1, 0], [0, 1]]],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_json(capsys, "h1", str(path))
    assert code == 0
    assert out["h1_dim"] == 2  # trivial rank-2 rep of Z


def test_h1_missing_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["h1", "/nonexistent/group.json"])
    assert exc.value.code == 2


def test_h1_rejects_rep_that_breaks_a_relator(capsys, tmp_path):
    # x^2 = 1 but rho(x) = 2, so the relator image is 4, not the identity
    doc = {"generators": 1, "relators": [[1, 1]], "matrices": [[[2]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["h1", str(path)])
    assert exc.value.code == 2
    assert "relator" in capsys.readouterr().err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(
        ["hilbert", "Q", "--up-to", "4", "--format", "json", "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["dims"] == [1, 0, 1, 0, 2]


def test_console_script_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "mmmcoh.cli", "hilbert", "Q", "--up-to", "2", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "degree,dimension"
