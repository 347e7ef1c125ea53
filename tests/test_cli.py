"""Command-line interface: frozen tables, exit codes, determinism."""

import hashlib
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


def test_hilbert_generators_stop_at_up_to(capsys):
    # the tables run to the bound; the command cuts dims and generators
    code, doc = run_json(capsys, "hilbert", "Htilde", "--max-degree", "12", "--up-to", "7")
    assert code == 0
    assert set(doc["generators"]) == {"0", "5", "7"}
    for up_to in (0, 5, 8, 12):
        for label in ("Htilde", "HtildeDual"):
            code, doc = run_json(
                capsys, "hilbert", label, "--max-degree", "12", "--up-to", str(up_to)
            )
            assert code == 0
            assert all(0 <= int(c) <= up_to for c in doc.get("generators", {})), (label, up_to)


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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_tor_witness_does_not_depend_on_j_max(capsys, fmt):
    # Tor_1 at degree 2 is 1 however many tables are printed
    code, out = run_cli(capsys, "tor", "--j-max", "0", "--max-degree", "4", "--format", fmt)
    assert code == 0
    if fmt == "json":
        doc = json.loads(out)
        assert [t["j"] for t in doc["tables"]] == [0]
        assert doc["nonfreeness_witness_tor1_degree2"] == 1
    else:
        assert out.splitlines()[-1] == "non-freeness witness: dim Tor_1 at degree 2 = 1"


@pytest.mark.parametrize("command, searches", [
    ("hilbert Htilde", 8), ("tor", 0), ("generators", 8),
])
def test_delta_queries_read_delta_off_its_tables(capsys, monkeypatch, command, searches):
    # the three queries that certify the contraction build no matrix of it
    # and rank it with no pivot search and no elimination; the one pivot
    # search per degree that remains is the span's spanning forest, on
    # 2, 4, ..., 16, with an edge between two rows for every column
    import mmmcoh.linalg as linalg
    import mmmcoh.stable as stable
    from mmmcoh.modules import GradedModuleMap

    def forbidden(*args):
        raise AssertionError("GradedModuleMap.matrix")

    spans = []

    def counted(edges, ground, real=stable._forest_pivots):
        edges = list(edges)
        spans.append((ground, edges))
        return real(edges, ground)

    monkeypatch.setattr(GradedModuleMap, "matrix", forbidden)
    monkeypatch.setattr(stable, "_forest_pivots", counted)
    monkeypatch.setattr(linalg, "pivot_columns", forbidden)
    monkeypatch.setattr(linalg, "_rref", forbidden)
    code, _ = run_cli(capsys, *command.split(), "--max-degree", "16", "--format", "json")
    assert code == 0
    twisted = stable.StableCohomology(16).twisted_module()
    assert [ground for ground, _ in spans] == [twisted.dim(d) for d in range(2, 17, 2)][:searches]
    assert all(u != v and max(u, v) < ground for ground, edges in spans for u, v in edges)


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


def test_h1_rejects_non_integer_letters(capsys, tmp_path):
    doc = {"generators": 1.7, "relators": [[1.9, 1.2]], "matrices": [[[1]]]}
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["h1", str(path)])
    assert exc.value.code == 2
    assert "must be an integer" in capsys.readouterr().err


def test_h1_checks_the_degree_bound(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["h1", "b3", "--max-degree", "7"])
    assert exc.value.code == 2
    monkeypatch.setenv("MMM_DEGREE_BOUND", "junk")
    with pytest.raises(SystemExit) as exc:
        main(["h1", "b3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "MMM_DEGREE_BOUND='junk' is not an integer" in captured.err
    assert captured.out == ""


def test_unwritable_out_fails_before_the_computation(capsys, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the computation ran before --out was checked")

    monkeypatch.setattr("mmmcoh.cli.run_verification", never)
    target = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--max-degree", "8", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"cannot write {target}" in captured.err
    assert captured.out == ""
    assert not target.parent.exists()


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


# -- output bytes and the common flags ----------------------------------------------

SUBCOMMANDS = ["verify-all", "hilbert", "tor", "generators", "exactness", "h1"]

# sha256 of each subcommand's stdout at --max-degree 12, in every format;
# verify-all's text output prints wall-clock times, so only its json and csv
GOLDEN_DIGESTS = [
    ("hilbert Q", "json", "ab1b205d3275f4a839df66a2ad8c16a26af2c8fdecc1123891046a568de4c58a"),
    ("hilbert Q", "csv", "d539fa49ac9e22389ba08d54347b8698415b9c33c2c4666ff7adde36e18082c3"),
    ("hilbert Q", "text", "8db4a9b0af0ec5c050facd41d333e48cf9ae9663939f51703c7c0736dc005e0e"),
    ("hilbert H", "json", "75b3edeca8612084d3a61f39049b0486fd3576445c2f9642a1385ab83082ae6a"),
    ("hilbert H", "csv", "881216d1fdace3995a144201ab256564fd8e433e6903bb7c80ce8e26e13baf1d"),
    ("hilbert H", "text", "718503d55981fa14eb5860860e2170a5bb137e67ad50241d35501d69e73c669f"),
    ("hilbert Htilde", "json", "b905846aa0984525fe059018f3bf9f29ce3e70c77ca76a185ee22c2537e935e5"),
    ("hilbert Htilde", "csv", "e5de5a1d037dec478dc14008fb727e5520fb39d95bdd8a1c2fd37663efb9f33a"),
    ("hilbert Htilde", "text", "7147a1ee7a1e1c122f266a2d035023fc2013742e8d0a9180fbb427cbac411a27"),
    ("hilbert HtildeDual", "json", "d8b7e369b63294a6e8a80d4cf9f95f282325772b0e54d7209e14cec01dcf9cd3"),
    ("hilbert HtildeDual", "csv", "28407b52c89a1f6391a76b9acdc4acdf952068a9535b771d12f3a612cadb93ef"),
    ("hilbert HtildeDual", "text", "98331b628e2a93f3d4c9af72c45a8d309f237c8adcf49887064499806226a4ba"),
    ("tor", "json", "7906dfe507637810f6253135b815f31da70c9fc6a0385d55f7e91cf0642616ad"),
    ("tor", "csv", "85c5d195b73495f4f5f4d2c985ddf692e68a2ef0bd4fc61fb022f5c6f1f0ba94"),
    ("tor", "text", "d4beae55fc93d722e49c609ab11f9be1f2076378ca3b11b355fd8d4350685d90"),
    ("tor --j-max 2", "json", "b13f10508d98e8cba514c93f60a3c2a2086db48e47997f182d8d3c26845ead21"),
    ("tor --j-max 2", "csv", "d24f21a123b9831968f5ac65378c36f2fbb870c95fd313efcf46f8f8046d54c4"),
    ("tor --j-max 2", "text", "c8e63f1b73541ade26d25423d094d1716d60abd8687c98ccd631835fb981e6f8"),
    ("generators", "json", "8a317e073d2b9279ce8f86f8d556b332c2ec0f23d2fa344a6a69bc14332ec08f"),
    ("generators", "csv", "78cfda8bbb8a41d2a076ce0ad205afbd2dad62f45f38b0e226628fc8e6ea4e84"),
    ("generators", "text", "27c0443cbd0f4f1ad51d1e24e374dbc795d4516890c3d114f10fdd4f7df7f3fd"),
    ("exactness", "json", "286e6abec63815780af0dcebee6d4e251ce5416e40cfce132cf91e828ba1ec1f"),
    ("exactness", "csv", "61a5f442a4e1c1b0cea71527c3827258c2b7cee42e78945bd199f5864368054f"),
    ("exactness", "text", "72ce3c0e0435c029fc5c3a5daccf1473a07ed814e6c04e0ab197f9252e086f1f"),
    ("h1 b3", "json", "51959345888b4b7905735a8e5550e04c708cf78d6cc25eecbd850d9e3e05c805"),
    ("h1 b3", "csv", "9bde79ec825daf10b1a3eefb62f457c3b66b8c2a4c3997375bffeb3dee27ff37"),
    ("h1 b3", "text", "1b26edd2669fd891c2a88964e95244af1da7c2a8b2ad3f18e74bdba41827e63c"),
    ("h1 b3 --certify", "json", "c63b0060f3516e983173f77dfe10c66bbbd4ccd4dc3032d2ee06033aeba22eed"),
    ("h1 b3 --certify", "csv", "9bde79ec825daf10b1a3eefb62f457c3b66b8c2a4c3997375bffeb3dee27ff37"),
    ("h1 b3 --certify", "text", "5aeca722ff98948259841fc59b8a1bab2b8317f3f60e51606a7d8d7788210f78"),
    ("verify-all", "json", "230d97d3a155a492c67e45252e827271bdc9f410d21e3230833421a9b4530401"),
    ("verify-all", "csv", "ad4c96788756ea097bf73ba8941e09d145f981f7ccc016781d0c8f18dac9ae3e"),
]


@pytest.mark.parametrize(
    "command,fmt,digest", GOLDEN_DIGESTS, ids=[f"{c}-{f}" for c, f, _ in GOLDEN_DIGESTS]
)
def test_output_bytes_are_frozen(capsys, command, fmt, digest):
    code, out = run_cli(capsys, *command.split(), "--max-degree", "12", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of `h1 --certify` on Z acting on Q by 1/2, whose bases are not
# integral: Z^1 is spanned by (1) and B^1 by (-1/2)
RATIONAL_CERTIFY_DIGESTS = [
    ("json", "b776fdc88b16026e8e2341702c5f4e04ff9d182a7fe2f9f4463fcd1b3336c9db"),
    ("csv", "6fdab7d5e9698ca5b700452cbfbc7bf7d075683eb692c224be6996e238d6bc76"),
    ("text", "9620a8fe1cb1d64dcfa22aa2ba50bdcbcc0758c74617bac259fc24526d246319"),
]


@pytest.mark.parametrize("fmt,digest", RATIONAL_CERTIFY_DIGESTS, ids=["json", "csv", "text"])
def test_rational_certify_bytes_are_frozen(capsys, tmp_path, monkeypatch, fmt, digest):
    doc = {"generators": 1, "relators": [], "matrices": [[["1/2"]]]}
    (tmp_path / "group.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the input path is printed, so keep it relative
    code, out = run_cli(capsys, "h1", "group.json", "--certify", "--format", fmt)
    assert code == 0
    if fmt == "json":
        doc = json.loads(out)
        assert (doc["z1_basis"], doc["b1_basis"]) == ([["1"]], [["-1/2"]])
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of the json the benchmark pins: verify-all at 40 and the four
# queries at 36, each run with its own context as a CLI call is; the
# verify-all pin is of the report, which the CLI ends with one newline
BENCHMARK_DIGESTS = [
    ("verify-all", "40", "274a938db4ce2d35f039a441a403231484211c42809c156d0f700e8ac752344e"),
    ("hilbert Htilde", "36", "0007354629699cba649874a85bc8351ef168a17650746fb913a19067b9995cea"),
    ("tor", "36", "43fb459c34e708616ea2e35d71eebf979332ba5b2820be131a4d1b99ee1cacad"),
    ("generators", "36", "346a2759e162e95452e2535cceabc7a2bef051951953f9fd8bf6184390893ebd"),
    ("exactness", "36", "b31c34da31414093de52a1e05215e6cd9691f044de6cb8e67a65b108da3044c0"),
]


@pytest.mark.parametrize(
    "command,bound,digest", BENCHMARK_DIGESTS, ids=[f"{c}-{b}" for c, b, _ in BENCHMARK_DIGESTS]
)
def test_output_bytes_at_the_benchmark_bounds(capsys, command, bound, digest):
    code, out = run_cli(capsys, *command.split(), "--max-degree", bound, "--format", "json")
    assert code == 0
    if command == "verify-all":
        assert out.endswith("}\n")
        out = out[:-1]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_takes_the_common_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--max-degree", "--format", "--out"):
        assert flag in out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "mmmcoh 0.1.0\n"


# -- bad input and unwritable output are usage errors ---------------------------------


@pytest.mark.parametrize(
    "text,message",
    [
        ("[1, 2]", "malformed group description"),
        ('{"generators": 1, "relators": 5, "matrices": [[[1]]]}', "malformed group description"),
        (
            '{"generators": 0, "relators": [], "matrices": [], "dimension": [1]}',
            "malformed group description",
        ),
        (
            '{"generators": 1, "relators": [], "matrices": [[[1e400]]]}',
            "malformed group description",
        ),
        (None, "cannot read input file"),  # the path is a directory
        ('{"generators": 1, "relators": [], "matrices": [[[true]]]}', "must be an integer"),
        ('{"generators": 1, "relators": [], "matrices": [[[0.1]]]}', "must be an integer"),
        ('{"generators": 0, "relators": [], "matrices": [], "dimension": true}', "must be an integer"),
        ('{"generators": 0, "relators": [], "matrices": [], "dimension": 2.7}', "must be an integer"),
        (
            '{"generators": 1, "relators": [], "matrices": [[["1/0"]]]}',
            'malformed group description: matrix entry "1/0" has a zero denominator',
        ),
        ('{"generators": "1", "relators": [], "matrices": [[[1]]]}', "must be an integer"),
        ('{"generators": 1, "relators": [["1"]], "matrices": [[[1]]]}', "must be an integer"),
        (
            '{"generators": 0, "relators": [], "matrices": [], "dimension": " 2 "}',
            "must be an integer",
        ),
    ],
    ids=[
        "top-level-list", "int-relators", "list-dimension", "infinite-entry", "directory",
        "bool-entry", "float-entry", "bool-dimension", "float-dimension", "zero-denominator",
        "string-generators", "string-letter", "string-dimension",
    ],
)
def test_h1_malformed_input_is_usage_error(capsys, tmp_path, text, message):
    path = tmp_path
    if text is not None:
        path = tmp_path / "group.json"
        path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["h1", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_out_into_missing_directory_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "Q", "--max-degree", "8", "--format", "json", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {target}" in captured.err
    assert not target.exists()


# -- a failed statement is exit 1 with one message, never a traceback --------------


def _break_tor(monkeypatch):
    from mmmcoh import stable

    real = stable.exterior_dim
    monkeypatch.setattr(stable, "exterior_dim", lambda n, d: real(n, d) + ((n, d) == (3, 8)))


def _break_cartan(monkeypatch):
    # p_2 scaled by 2 at degree 8 is still a complex with the same ranks,
    # so still exact; d p + p d = L no longer holds
    from slot_patch import patch_p

    def broken(self, n, d, m):
        return m.scale(2) if (n, d) == (2, 8) else m

    patch_p(monkeypatch, broken)


def _break_p_squared(monkeypatch):
    # one sign of p_2 flipped at degree 8: p_1 p_2 is no longer zero
    from mmmcoh.linalg import SparseMatrix
    from slot_patch import patch_p

    def broken(self, n, d, m):
        if (n, d) != (2, 8):
            return m
        entries = m.entries
        entries[next(iter(entries))] *= -1
        return SparseMatrix(m.rows, m.cols, entries)

    patch_p(monkeypatch, broken)


def test_failed_statement_leaves_no_stale_document_at_out(capsys, monkeypatch, tmp_path):
    target = tmp_path / "x.json"
    target.write_text("STALE", encoding="utf-8")
    _break_tor(monkeypatch)
    assert main(["tor", "--max-degree", "8", "--format", "json", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mmmcoh: Tor mismatches: ")
    assert target.read_bytes() == b""


@pytest.mark.parametrize(
    "command,brk,message",
    [
        ("tor", _break_tor, "mmmcoh: Tor mismatches: [{'j': 1, 'degree': 8, "),
        ("exactness", _break_p_squared, "mmmcoh: p^2 is not zero at (n, d) = (2, 8)\n"),
    ],
    ids=["tor", "exactness"],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_failed_statement_exits_1_with_a_message(capsys, monkeypatch, command, brk, message, fmt):
    brk(monkeypatch)
    assert main([command, "--max-degree", "8", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_exactness_query_refuses_a_scaled_p_that_verify_all_fails(capsys, monkeypatch):
    # a scaled p_2 keeps exactness, but its values are not the Koszul signs
    # that the p^2 slot test reads, so the exactness query refuses it there;
    # verify-all also states d p + p d = L, and fails both rows that read
    # the forms certificate with the Cartan message
    from mmmcoh.verify import run_verification

    _break_cartan(monkeypatch)
    assert main(["exactness", "--max-degree", "8", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mmmcoh: p^2 is not zero at (n, d) = (2, 8)\n"
    by_id = {c.check_id: c for c in run_verification(8).checks}
    failed = {cid for cid, c in by_id.items() if c.status == "fail"}
    assert failed == {"tor-dimensions", "resolution-exactness"}
    message = "d p + p d is not the weight diagonal at (n, d) = (1, 8)"
    assert by_id["tor-dimensions"].failure == by_id["resolution-exactness"].failure == message


@pytest.mark.parametrize("command", ["exactness", "tor"])
def test_forms_queries_build_no_d_and_no_weights(capsys, monkeypatch, command):
    from mmmcoh.forms import DifferentialForms

    calls = []
    for name in ("exterior_derivative", "euler_weights"):

        def counted(self, n, d, real=getattr(DifferentialForms, name), name=name):
            calls.append((name, n, d))
            return real(self, n, d)

        monkeypatch.setattr(DifferentialForms, name, counted)
    assert main([command, "--max-degree", "16", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == []


def test_hilbert_tilde_dual_fails_on_a_cokernel_mismatch(capsys, monkeypatch):
    # one more free generator in internal degree 4 grows the cokernel of
    # cup with m1 past the free module on m2, m3, ...; the table must not
    # print the m_a as its generators then
    from mmmcoh.modules import free_module
    from mmmcoh.stable import StableCohomology

    real = StableCohomology.twisted_module

    def padded(self):
        return free_module(self.algebra, [*real(self).gen_degrees, 4], coh_offset=-1)

    monkeypatch.setattr(StableCohomology, "twisted_module", padded)
    assert main(["hilbert", "HtildeDual", "--max-degree", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mmmcoh: cokernel mismatch at degree 2\n"


def test_a_corrupt_table_is_fail_rows_not_a_traceback(capsys, monkeypatch):
    # e1^3 placed one past the end of the degree 6 basis: every check that
    # reads the table of e1 from degree 4 fails with the table's message
    from mmmcoh.algebra import PolynomialAlgebra

    real = PolynomialAlgebra._block_starts

    def corrupt(self, k, j):
        # the block (1, 3) of degree 6 holds e1^3
        starts = real(self, k, j)
        return [*starts[:3], 3, *starts[4:]] if (k, j) == (3, 1) else starts

    monkeypatch.setattr(PolynomialAlgebra, "_block_starts", corrupt)
    assert main(["verify-all", "--max-degree", "12", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    status = {c["check_id"]: c.get("failure", "pass") for c in json.loads(captured.out)["checks"]}
    assert status.pop("contraction-identity") == status.pop("torus-h1") == "pass"
    assert set(status.values()) == {"the table of e1 from degree 4 is not 2 positions in range(3)"}


def test_a_wrong_table_in_range_is_fail_rows_not_a_traceback(capsys, monkeypatch):
    # e1^3 placed at the position of e1*e2 in degree 6: the table of e1 from
    # degree 4 is in range but not injective, so the d it scatters and the
    # p it builds break the Cartan identity, which the forms certificate
    # walks first
    from mmmcoh.algebra import PolynomialAlgebra

    real = PolynomialAlgebra._block_starts

    def wrong(self, k, j):
        # the block (1, 3) of degree 6 holds e1^3
        starts = real(self, k, j)
        return [*starts[:3], 1, *starts[4:]] if (k, j) == (3, 1) else starts

    monkeypatch.setattr(PolynomialAlgebra, "_block_starts", wrong)
    assert main(["verify-all", "--max-degree", "12", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    status = {c["check_id"]: c.get("failure", "pass") for c in json.loads(captured.out)["checks"]}
    assert status.pop("contraction-identity") == status.pop("torus-h1") == "pass"
    cartan = "d p + p d is not the weight diagonal at (n, d) = (0, 6)"
    assert status.pop("tor-dimensions") == status.pop("resolution-exactness") == cartan
    assert set(status.values()) == {"the row table is not injective"}


def test_a_coboundary_off_the_cocycles_is_a_fail_row_not_a_traceback(capsys, monkeypatch):
    # a B^1 basis vector that breaks the relator conditions: torus-h1 fails
    # with a row naming it, and the h1 query exits 1 with the same message
    from mmmcoh import groupcoh
    from mmmcoh.linalg import SparseMatrix
    from mmmcoh.verify import run_verification

    real = groupcoh.coboundary_space

    def off(pres, rep):
        return SparseMatrix.of_columns(4, 2, [real(pres, rep).packed[0], (1, 1)])

    monkeypatch.setattr(groupcoh, "coboundary_space", off)
    message = "coboundary 1 of B^1, (0, 1, 0, 0), fails the cocycle conditions"
    (check,) = run_verification(8, check_ids=["torus-h1"]).checks
    assert (check.status, check.failure) == ("fail", message)
    assert main(["h1", "b3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mmmcoh: {message}\n"
