"""Acceptance suite: the nine headline guarantees, each with a time budget.

Every test runs the full computation at the default degree bound of 24 and
asserts both exact correctness and the stated wall-clock budget.  Budgets
are generous on purpose: they exist to catch algorithmic regressions (an
accidental dense or exponential path), not to benchmark hardware.
"""

import json
import time

from mmmcoh.algebra import exterior_dim
from mmmcoh.cli import main
from mmmcoh.forms import DifferentialForms
from mmmcoh.groupcoh import h1_certificate, load_group_data
from mmmcoh.stable import StableCohomology, contraction_pairing
import algebra_oracle as oracle
from test_forms import lie_derivative_oracle, verify_cartan

BOUND = 24


class timed:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def test_criterion_1_contraction_identity():
    """criterion 1: pairing of twisted generators is -e_(l+l'-1), all pairs, < 1 s"""
    with timed() as t:
        ctx = StableCohomology(BOUND)
        rows = ctx.verify_contraction_table()
        assert all(row["ok"] for row in rows)
        # independent spot values, not routed through the table builder:
        # the index pairing (k, c), meaning c e_k, and the object oracle's
        m = oracle.TwistedElement.generator
        e = oracle.AlgebraElement.generator
        for (l1, l2), k in (((1, 1), 1), ((2, 3), 4), ((5, 8), 12)):
            assert contraction_pairing(l1, l2) == (k, -1)
            assert oracle.contraction_pairing(m(l1), m(l2)) == -e(k)
    assert t.seconds < 1.0


def test_criterion_2_embedding_and_cokernel():
    """criterion 2: cup with the first twisted class embeds the ring, cokernel free on higher classes, < 5 s"""
    with timed() as t:
        ctx = StableCohomology(BOUND)
        per_degree = ctx.verify_injectivity()
        assert set(per_degree) == set(range(0, BOUND - 1, 2))
        for d, row in per_degree.items():
            assert row["injective"] == 1, d
            assert row["cokernel"] == row["cokernel_expected"], d
    assert t.seconds < 5.0


def test_criterion_3_contraction_surjectivity_and_even_part():
    """criterion 3: contraction hits every positive ring degree; even part is the unit line only, < 5 s"""
    with timed() as t:
        ctx = StableCohomology(BOUND)
        per_degree = ctx.verify_surjectivity()
        assert set(per_degree) == set(range(2, BOUND + 1, 2))
        for d, row in per_degree.items():
            assert row["surjective"] == 1, d
        table = ctx.stable_cohomology_tilde()
        even = {c: n for c, n in table.dims.items() if c % 2 == 0}
        assert even == {0: 1}
    assert t.seconds < 5.0


def test_criterion_4_kernel_generators_syzygies_minimality():
    """criterion 4: M(i,j) classes span the kernel, satisfy all 23 cyclic syzygies, minimal counts = wedge-square, < 20 s"""
    with timed() as t:
        ctx = StableCohomology(BOUND)
        report = ctx.verify_generators()  # raises on any span/syzygy failure
        assert report.syzygies_checked == 23
        for row in report.per_degree:
            assert row["span_rank"] == row["kernel_dim"], row
        assert report.minimal_counts[6] == 1
        assert report.minimal_counts[8] == 1
        assert report.minimal_counts[10] == 2
        assert report.minimal_counts[12] == 2
        for d, n in report.minimal_counts.items():
            assert n == exterior_dim(2, d), d
    assert t.seconds < 20.0


def test_criterion_5_tor_dimensions_and_nonfreeness():
    """criterion 5: Koszul homology is two wedge columns in every bidegree up to j = 4; Tor_1 at degree 2 is nonzero, < 30 s"""
    with timed() as t:
        ctx = StableCohomology(BOUND)
        report = ctx.verify_tor(j_max=4)  # raises on any dimension mismatch
        for table in report.results:
            for d in range(0, BOUND + 1, 2):
                expected = exterior_dim(table.j, d) + exterior_dim(table.j + 2, d)
                assert table.dim(d) == expected, (table.j, d)
        assert report.nonfreeness_witness == 1
    assert t.seconds < 30.0


def test_criterion_6_forms_resolution_exactness_and_cartan():
    """criterion 6: contraction resolution exact in every positive degree; degree operator = dp + pd is diagonal with weight (factors + form degree), < 10 s"""
    with timed() as t:
        ctx = StableCohomology(BOUND)
        forms: DifferentialForms = ctx.forms
        for d in range(1, BOUND + 1):
            assert forms.verify_exactness(d).all_exact, d
        top = forms.max_form_degree()
        for d in range(2, BOUND + 1, 2):
            for n in range(0, top + 1):
                assert verify_cartan(forms, n, d), (n, d)
                L = lie_derivative_oracle(forms, n, d)
                # each block of the layout: one wedge of n factors over the
                # coefficient monomials of its degree
                weights = [
                    m.total_exponent + n
                    for _, deg in forms._layout(n, d)[0].values()
                    for m in oracle.monomials(forms.algebra, deg)
                ]
                diagonal = L.entries
                for i, weight in enumerate(weights):
                    assert diagonal.get((i, i)) == weight, (n, d, i)
                    assert weight > 0
                assert L.nnz() == len(weights)  # nothing off the diagonal
    assert t.seconds < 10.0


def test_criterion_7_torus_mapping_class_group_h1():
    """criterion 7: H^1 of the braid group B3 acting on the torus lattice vanishes with Z^1 = B^1 = 2, < 0.1 s"""
    doc = {
        "generators": 2,
        "relators": [[1, 2, 1, -2, -1, -2]],
        "matrices": [[[1, 1], [0, 1]], [[1, 0], [-1, 1]]],
    }
    with timed() as t:
        pres, rep = load_group_data(doc)
        cert = h1_certificate(pres, rep)
        assert cert.z1_dim == 2
        assert cert.b1_dim == 2
        assert cert.h1_dim == 0
    assert t.seconds < 0.1


def test_criterion_8_cross_oracle_kernels_agree():
    """criterion 8: module-route and forms-route contraction matrices agree up to sign with equal kernels in every degree, < 5 s"""
    with timed() as t:
        ctx = StableCohomology(BOUND)
        rows = ctx.kernel_cross_check()
        assert len(rows) == BOUND // 2
        for row in rows:
            assert row["matrices_match_up_to_sign"] == 1, row
            assert row["kernel_dim_module_route"] == row["kernel_dim_forms_route"], row
    assert t.seconds < 5.0


def test_criterion_9_cli_suite_deterministic_and_fast(capsys):
    """criterion 9: verify-all at the full bound exits 0 in < 60 s with byte-identical JSON across runs"""
    with timed() as t:
        code_first = main(["verify-all", "--max-degree", "24", "--format", "json"])
        first = capsys.readouterr().out
    assert code_first == 0
    assert t.seconds < 60.0

    with timed() as t2:
        code_second = main(["verify-all", "--max-degree", "24", "--format", "json"])
        second = capsys.readouterr().out
    assert code_second == 0
    assert t2.seconds < 60.0

    assert first == second  # byte-for-byte
    doc = json.loads(first)
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 9
