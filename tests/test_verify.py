"""The aggregated verification report: schema, determinism, failure rows."""

import hashlib
import json

import pytest

from mmmcoh.verify import CHECKS, run_verification

CHECK_IDS = [
    "contraction-identity",
    "dual-injectivity",
    "covariant-surjectivity",
    "kernel-generators",
    "tor-dimensions",
    "resolution-exactness",
    "torus-h1",
    "kernel-cross-check",
    "sequence-audit",
]


def test_check_registry_is_complete():
    assert [cid for cid, _, _ in CHECKS] == CHECK_IDS


def test_all_checks_pass_at_small_bound():
    report = run_verification(12)
    assert report.passed
    assert report.degree_bound == 12
    assert [c.check_id for c in report.checks] == CHECK_IDS
    for c in report.checks:
        assert c.status == "pass"
        assert c.failure is None
        assert c.per_degree_data  # every check reports row-level evidence


def test_check_subset_selection():
    report = run_verification(8, check_ids=["torus-h1", "sequence-audit"])
    assert [c.check_id for c in report.checks] == ["torus-h1", "sequence-audit"]
    assert report.passed


@pytest.mark.parametrize(
    "check_ids, named",
    [
        (["tor-dimension"], "'tor-dimension'"),
        (["torus-h1", "torus_h1", "audit"], "['audit', 'torus_h1']"),
        ([], "no check selected"),
    ],
    ids=["misspelt", "two-unknown", "empty"],
)
def test_a_selection_that_certifies_nothing_is_an_error(check_ids, named):
    # a misspelt id must not drop its check and leave a report that passes
    with pytest.raises(ValueError) as caught:
        run_verification(8, check_ids=check_ids)
    assert named in str(caught.value)


def test_json_is_deterministic_and_timing_free():
    a = run_verification(8).to_json()
    b = run_verification(8).to_json()
    assert a == b
    assert "elapsed" not in a and "timings" not in a


def test_timings_sidecar_is_opt_in():
    report = run_verification(8)
    doc = report.to_dict(include_timings=True)
    assert set(doc["timings_ms"]) == set(CHECK_IDS)
    assert all(ms >= 0 for ms in doc["timings_ms"].values())
    assert "timings_ms" not in report.to_dict()


def test_jobs_other_than_one_is_rejected():
    with pytest.raises(ValueError, match="process pool was removed"):
        run_verification(8, jobs=2)


def test_report_bytes_at_bound_24_are_frozen():
    # a richer bound than the CLI golden digests at 12: Tor up to j = 4 and
    # forms up to Omega^4 all show up in the report
    text = run_verification(24).to_json()
    assert (
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        == "930feb24fe57cc2d67fa4b68eadb041bbcd22e5e3504d9b9e92b5808a4418f77"
    )


def test_report_json_parses_and_carries_version():
    from mmmcoh import __version__

    doc = json.loads(run_verification(8).to_json())
    assert doc["artifact_version"] == __version__
    assert doc["all_passed"] is True


def test_elapsed_ms_is_populated_on_results():
    report = run_verification(8)
    assert all(c.elapsed_ms >= 0.0 for c in report.checks)


def test_value_error_in_a_check_is_a_fail_row(monkeypatch):
    # a contraction map that is not equivariant fails the checks built on it;
    # the others still run and the CLI exits 1
    from mmmcoh.cli import main
    from mmmcoh.modules import GradedModuleMap
    from mmmcoh.stable import StableCohomology

    real = StableCohomology.delta_covariant

    def broken(self):
        good = real(self)
        tables = dict(good.tables)
        rows, values = tables[4]
        tables[4] = (rows, tuple(2 * x for x in values))
        return GradedModuleMap(good.source, good.target, good.degree_shift, tables)

    monkeypatch.setattr(StableCohomology, "delta_covariant", broken)
    report = run_verification(8)
    by_id = {c.check_id: c for c in report.checks}
    assert [c.check_id for c in report.checks] == CHECK_IDS
    surj = by_id["covariant-surjectivity"]
    assert surj.status == "fail"
    assert surj.per_degree_data == []
    assert "fails to commute" in surj.failure
    assert by_id["resolution-exactness"].status == "pass"
    assert not report.passed
    assert main(["verify-all", "--max-degree", "8"]) == 1


def test_tor_mismatch_is_a_fail_row(monkeypatch):
    # the tor-dimensions check reads its expected values from
    # StableCohomology.verify_tor; a wrong expectation there fails the check
    from mmmcoh import stable
    from mmmcoh.cli import main

    real = stable.exterior_dim

    def off_by_one(n, d):
        return real(n, d) + (1 if (n, d) == (3, 8) else 0)

    monkeypatch.setattr(stable, "exterior_dim", off_by_one)
    report = run_verification(8)
    by_id = {c.check_id: c for c in report.checks}
    assert [c.check_id for c in report.checks] == CHECK_IDS
    tor = by_id["tor-dimensions"]
    assert tor.status == "fail"
    assert tor.per_degree_data == []
    assert "'j': 1, 'degree': 8" in tor.failure
    later = CHECK_IDS[CHECK_IDS.index("tor-dimensions") + 1:]
    assert all(by_id[cid].status == "pass" for cid in later)
    assert not report.passed
    assert main(["verify-all", "--max-degree", "8"]) == 1


def test_verify_all_builds_each_forms_operator_once_per_degree(monkeypatch):
    # tor-dimensions runs the forms certificate with its Cartan half, which
    # fills the exactness memo that resolution-exactness and Tor read
    from collections import Counter

    from mmmcoh.algebra import PolynomialAlgebra
    from mmmcoh.forms import DifferentialForms

    built = Counter()
    for name in ("exterior_derivative", "_contraction"):

        def counted(self, n, d, real=getattr(DifferentialForms, name), name=name):
            built[name, n, d] += 1
            return real(self, n, d)

        monkeypatch.setattr(DifferentialForms, name, counted)
    top = DifferentialForms(PolynomialAlgebra(12)).max_form_degree()
    once = Counter()
    for d in range(1, 13):
        once.update(("exterior_derivative", n, d) for n in range(top + 2))
        once.update(("_contraction", n, d) for n in range(top + 3))
    # p slot-major only: the certificate builds no packed p
    assert run_verification(12, check_ids=["tor-dimensions", "resolution-exactness"]).passed
    assert built == once
    built.clear()
    assert run_verification(12).passed
    # and kernel-cross-check compares the slot list of p_1 with the
    # contraction at even d
    once.update(("_contraction", 1, d) for d in range(2, 13, 2))
    assert built == once


def test_corrupt_contraction_fails_tor_and_exactness(monkeypatch):
    # tor-dimensions rests on the exactness of the contraction complex, so
    # one wrong entry of p_3 fails both rows with the walk's message
    from mmmcoh.linalg import SparseMatrix
    from slot_patch import patch_p

    def broken(self, n, d, m):
        if (n, d) != (3, 12):
            return m
        entries = m.entries
        entries[next(iter(entries))] *= 2
        return SparseMatrix(m.rows, m.cols, entries)

    patch_p(monkeypatch, broken)
    by_id = {c.check_id: c for c in run_verification(12).checks}
    failed = {cid for cid, c in by_id.items() if c.status == "fail"}
    assert failed == {"tor-dimensions", "resolution-exactness"}
    message = "d p + p d is not the weight diagonal at (n, d) = (2, 12)"
    assert by_id["tor-dimensions"].failure == message
    assert by_id["resolution-exactness"].failure == message


def test_failed_surjectivity_fails_tor(monkeypatch):
    # dimension shifting needs the contraction onto A_+: tor-dimensions
    # fails with the surjectivity check's own message
    from mmmcoh.stable import FalsificationError, StableCohomology

    def misses(self):
        raise FalsificationError("contraction against m1 misses degree 6")

    monkeypatch.setattr(StableCohomology, "verify_surjectivity", misses)
    by_id = {c.check_id: c for c in run_verification(12).checks}
    tor = by_id["tor-dimensions"]
    assert tor.status == "fail"
    assert tor.per_degree_data == []
    assert tor.failure == "contraction against m1 misses degree 6"


@pytest.mark.parametrize(
    "check_id,method",
    [
        ("contraction-identity", "verify_contraction_table"),
        ("kernel-cross-check", "kernel_cross_check"),
        ("sequence-audit", "exact_sequence_audit"),
    ],
)
def test_registry_looks_methods_up_on_the_instance(monkeypatch, check_id, method):
    # a wrapper put on the class after import, as the benchmark's tracer
    # does, must see the registry's call
    from mmmcoh.stable import FalsificationError, StableCohomology

    def patched(self):
        raise FalsificationError(f"patched {method}")

    monkeypatch.setattr(StableCohomology, method, patched)
    (check,) = run_verification(8, check_ids=[check_id]).checks
    assert check.status == "fail"
    assert check.failure == f"patched {method}"


def test_surjectivity_check_builds_no_generator_report():
    # covariant-surjectivity reads the even part of Htilde off its own rows,
    # so the span elimination is timed under kernel-generators
    from mmmcoh.stable import StableCohomology
    from mmmcoh.verify import _check_surjectivity

    ctx = StableCohomology(12)
    rows = _check_surjectivity(ctx)
    assert [r["degree"] for r in rows] == list(range(2, 13, 2))
    assert ctx._generators is None


def test_even_part_failure_keeps_its_message(monkeypatch):
    from mmmcoh.stable import FalsificationError, StableCohomology
    from mmmcoh.verify import _check_surjectivity

    def with_cokernel(self):
        return {2: {"rank": 1, "dim_target": 1, "surjective": 1, "kernel": 0},
                4: {"rank": 1, "dim_target": 2, "surjective": 0, "kernel": 1}}

    monkeypatch.setattr(StableCohomology, "verify_surjectivity", with_cokernel)
    message = r"^even part should be one theta line, got \{0: 1, 4: 1\}$"
    with pytest.raises(FalsificationError, match=message):
        _check_surjectivity(StableCohomology(4))


def test_verify_all_eliminates_only_the_group_cohomology(monkeypatch, capsys):
    # the StableCohomology checks and the CLI queries rank nothing by
    # elimination: delta by distinct rows, p by unit minors and the span of
    # the M(i, j) by a spanning forest of its edges.  Gaussian elimination
    # is left to the torus-h1 certificate: the inverses of the two
    # generator images and the cocycle kernel, each of width 4, and the
    # column space of the two coboundary generators
    import sys

    from mmmcoh import linalg
    from mmmcoh.cli import main
    from mmmcoh.groupcoh import h1_certificate, load_bundled_b3

    real = linalg._rref
    calls = []

    def counting(rows, width):
        calls.append(width)
        return real(rows, width)

    # every module of the package that binds the routine, whoever calls it
    for name, module in list(sys.modules.items()):
        if name.startswith("mmmcoh.") and getattr(module, "_rref", None) is real:
            monkeypatch.setattr(module, "_rref", counting)
    assert run_verification(24, check_ids=[c for c in CHECK_IDS if c != "torus-h1"]).passed
    for query in (["hilbert", "Htilde"], ["tor"], ["generators"], ["exactness"]):
        assert main([*query, "--max-degree", "16", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == []
    assert run_verification(24).passed
    in_run = list(calls)
    calls.clear()
    h1_certificate(*load_bundled_b3())
    assert in_run == calls == [4, 4, 4, 2]
