"""Stable cohomology tables and theorem verifications."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmcoh.linalg import SparseMatrix, _matrix
from mmmcoh.stable import (
    FalsificationError,
    StableCohomology,
    _forest_pivots,
    _pairs_up_to,
    contraction_pairing,
    kernel_generator,
)
import algebra_oracle as oracle
from algebra_oracle import AlgebraElement, Monomial, TwistedElement, monomials
from module_oracle import (
    direct_sum,
    kernel_module,
    map_matrices,
    minimal_generators,
    trivial_module,
)
from slot_patch import p_matrix, patch_p
from test_linalg import _oracle_forward, _row_dicts_of


@pytest.fixture(scope="module")
def sc():
    return StableCohomology(24)


def oracle_tilde_module(sc):
    """theta line (degree 0) plus the kernel module of the contraction:
    the full stable Htilde cohomology as a graded A-module."""
    return direct_sum(trivial_module(sc.algebra), contraction_kernel(sc))


def contraction_kernel(sc):
    """The kernel module of the contraction against m_1, from the oracle."""
    return kernel_module(sc.twisted_module(), map_matrices(sc.delta_covariant()))[0]


def monomial_index(algebra, d):
    """The position of each basis monomial of degree d."""
    return {m: k for k, m in enumerate(monomials(algebra, d))}


def ring_as_vector(sc, a: AlgebraElement, d: int) -> SparseMatrix:
    """a, homogeneous of degree d, as a one-column matrix of coordinates in
    A_d."""
    index = monomial_index(sc.algebra, d)
    return SparseMatrix(len(index), 1, {(index[m], 0): c for m, c in a.terms.items()})


def twisted_as_vector(sc, x: TwistedElement, d: int) -> SparseMatrix:
    """x as a one-column matrix of coordinates in the twisted module's
    degree-d slice."""
    blocks, dim = sc.twisted_module().generator_blocks(d)
    entries = {}
    for (l, m), c in x.terms.items():
        deg = m.degree
        if 2 * l + deg != d:
            raise ValueError(f"term at internal degree {2*l + deg}, not {d}")
        offset = blocks[sc.generator_index(l)][0]
        entries[(offset + monomial_index(sc.algebra, deg)[m], 0)] = c
    return SparseMatrix(dim, 1, entries)


def as_element(terms) -> TwistedElement:
    """Index terms (l, k, c), one per term c * e_k m_l, as a twisted element."""
    return TwistedElement({(l, Monomial.generator(k)): c for l, k, c in terms})


# -- contraction pairing --------------------------------------------------------


def test_contraction_frozen_values():
    m1 = TwistedElement.generator(1)
    m2 = TwistedElement.generator(2)
    m3 = TwistedElement.generator(3)
    assert oracle.contraction_pairing(m1, m1) == -AlgebraElement.generator(1)
    assert oracle.contraction_pairing(m2, m3) == -AlgebraElement.generator(4)
    assert oracle.contraction_pairing(m3, m2) == -AlgebraElement.generator(4)  # symmetric
    # the index pairing (k, c), meaning c e_k
    assert contraction_pairing(1, 1) == (1, -1)
    assert contraction_pairing(2, 3) == contraction_pairing(3, 2) == (4, -1)


def test_index_pairing_matches_the_object_oracle():
    # every pair of generators up to bound 40: (k, c) is the object
    # pairing's one term c e_k
    m = TwistedElement.generator
    for l1 in range(1, 21):
        for l2 in range(1, 22 - l1):
            k, c = contraction_pairing(l1, l2)
            expected = AlgebraElement({Monomial.generator(k): c})
            assert oracle.contraction_pairing(m(l1), m(l2)) == expected, (l1, l2)


def test_contraction_is_bilinear_over_the_ring():
    e1 = AlgebraElement.generator(1)
    m1 = TwistedElement.generator(1)
    # mu(e1 m1, m1) = e1 * mu(m1, m1) = -e1^2
    assert oracle.contraction_pairing(e1 * m1, m1) == -(e1 * e1)
    assert oracle.contraction_pairing(m1, e1 * m1) == -(e1 * e1)
    combo = 2 * TwistedElement.generator(1) - TwistedElement.generator(2)
    # mu(combo, m1) = -2 e1 + e2
    expected = -(2 * AlgebraElement.generator(1)) + AlgebraElement.generator(2)
    assert oracle.contraction_pairing(combo, TwistedElement.generator(1)) == expected


def test_contraction_table_verification(sc):
    rows = sc.verify_contraction_table()
    assert rows  # nonempty
    for row in rows:
        assert row["ok"] is True
    # every unordered pair with 2(l + l' - 1) <= 24 shows up
    pairs = {(r["l"], r["l_prime"]) for r in rows}
    assert (1, 1) in pairs and (1, 12) in pairs
    assert all(2 * (a + b - 1) <= 24 for a, b in pairs)
    assert all(r["degree"] == 2 * (r["l"] + r["l_prime"] - 1) for r in rows)


# -- twisted elements and symbols -----------------------------------------------


def test_twisted_element_degrees():
    m2 = TwistedElement.generator(2)
    assert m2.internal_degree() == 4
    e1 = AlgebraElement.generator(1)
    assert (e1 * m2).internal_degree() == 6
    assert TwistedElement().internal_degree() is None


def test_kernel_generator_is_cross_difference():
    # M(i,j) = e_i m_j - e_j m_i
    x = oracle.kernel_generator(1, 2)
    e1m2 = AlgebraElement.generator(1) * TwistedElement.generator(2)
    e2m1 = AlgebraElement.generator(2) * TwistedElement.generator(1)
    assert x == e1m2 - e2m1
    assert x.internal_degree() == 6
    # antisymmetric: M(j, i) = -M(i, j) and M(i, i) = 0
    assert oracle.kernel_generator(2, 1) == -x
    assert oracle.kernel_generator(3, 3).is_zero()
    # the index terms (l, k, c), one per term c * e_k m_l
    assert kernel_generator(1, 2) == [(2, 1, 1), (1, 2, -1)]
    assert as_element(kernel_generator(2, 1)) == -x


def test_index_generators_match_the_object_oracle():
    # every M(i, j) up to bound 40, both orders: the object's terms read as
    # (l, k, c), in the object's order
    for (i, j) in _pairs_up_to(40):
        for a, b in ((i, j), (j, i)):
            read = []
            for (l, m), c in oracle.kernel_generator(a, b).terms.items():
                ((k, e),) = m.pairs
                assert e == 1 and c.denominator == 1, (a, b)
                read.append((l, k, c.numerator))
            assert kernel_generator(a, b) == read, (a, b)


# -- the two connecting maps ----------------------------------------------------


def test_connecting_maps_frozen_entries(sc):
    e = AlgebraElement.generator
    m = TwistedElement.generator
    contra = sc.delta_contravariant()
    # degree-0 block: the unit of the ring is sent to m_1, a 1x1 matrix
    block = contra.matrix(0)
    assert (block.rows, block.cols) == (1, 1)
    one = ring_as_vector(sc, AlgebraElement.one(), 0)
    assert block @ one == twisted_as_vector(sc, m(1), 2)
    # linearity over the ring: e_2 |-> e_2 m_1
    v = contra.matrix(4) @ ring_as_vector(sc, e(2), 4)
    assert v == twisted_as_vector(sc, e(2) * m(1), 6)
    co = sc.delta_covariant()
    # m_1 |-> -e_1 and e_1 m_2 |-> -e_1 e_2
    assert co.matrix(2) @ twisted_as_vector(sc, m(1), 2) == ring_as_vector(sc, -e(1), 2)
    assert co.matrix(6) @ twisted_as_vector(sc, e(1) * m(2), 6) == ring_as_vector(
        sc, -(e(1) * e(2)), 6
    )


def test_contravariant_map_is_injective_with_known_cokernel(sc):
    per_degree = sc.verify_injectivity()
    for d, row in per_degree.items():
        assert row["rank"] == sc.algebra.hilbert_function(d), d
    # cokernel above source degree d equals the slice of the free module
    # on m_2, m_3, ... in internal degree d + 2
    for d, row in per_degree.items():
        assert row["cokernel"] == row["cokernel_expected"], d
        assert row["injective"] == 1
    assert per_degree[2]["cokernel"] == 1  # m_2
    assert per_degree[4]["cokernel"] == 2  # e1 m_2, m_3
    assert per_degree[8]["cokernel"] == 7  # dim F_10 - dim A_8 = 12 - 5


def test_covariant_map_is_surjective_in_positive_degree(sc):
    per_degree = sc.verify_surjectivity()
    for d, row in per_degree.items():
        assert row["rank"] == sc.algebra.hilbert_function(d), d


def test_covariant_kernel_dims_frozen(sc):
    kernel = contraction_kernel(sc)
    expected = {2: 0, 4: 0, 6: 1, 8: 2, 10: 5, 12: 8, 14: 15, 16: 23,
                18: 37, 20: 55, 22: 83, 24: 118}
    for d, k in expected.items():
        assert kernel.dim(d) == k, d
        assert sc.kernel_dim(d) == k, d


def test_kernel_elements_die_under_covariant_map(sc):
    delta = sc.delta_covariant()
    for (i, j) in [(1, 2), (1, 3), (2, 3), (2, 5)]:
        x = as_element(kernel_generator(i, j))
        d = x.internal_degree()
        v = twisted_as_vector(sc, x, d)
        assert (delta.matrix(d) @ v).is_zero(), (i, j)


# -- cohomology tables ----------------------------------------------------------


def test_ring_table_frozen(sc):
    assert sc.stable_cohomology_ring().as_list(8) == [1, 0, 1, 0, 2, 0, 3, 0, 5]


def test_twisted_table_frozen(sc):
    # odd degrees 2l-1 carry the free module slices
    t = sc.stable_cohomology_twisted()
    assert t.as_list(7) == [0, 1, 0, 2, 0, 4, 0, 7]


def test_tilde_table_frozen(sc):
    t = sc.stable_cohomology_tilde()
    assert t.as_list(7) == [1, 0, 0, 0, 0, 1, 0, 2]
    assert t.generator_report[0] == ("theta",)
    assert t.generator_report[5] == ("M(1,2)",)
    assert set(t.generator_report[7]) == {"M(1,3)"}


def test_tilde_dual_table_frozen(sc):
    t = sc.stable_cohomology_tilde_dual()
    assert t.as_list(5) == [0, 0, 0, 1, 0, 2]
    assert t.generator_report[3] == ("m2",)


def test_degree_9_kernel_slice(sc):
    # cohomological degree 9 = internal degree 10: twelve-dimensional twisted
    # slice, seven-dimensional image, five-dimensional kernel
    kernel = contraction_kernel(sc)
    assert sc.twisted_module().dim(10) == 12
    assert sc.algebra.hilbert_function(10) == 7
    assert kernel.dim(10) == 5
    assert sc.kernel_dim(10) == 5
    t = sc.stable_cohomology_tilde()
    assert t.dim(9) == 5


# -- generators, relations, syzygies --------------------------------------------


def test_generators_report(sc):
    report = sc.verify_generators()
    by_degree = {row["degree"]: row for row in report.per_degree}
    assert by_degree[6]["kernel_dim"] == 1
    assert by_degree[6]["span_rank"] == 1
    assert by_degree[10]["kernel_dim"] == 5
    assert by_degree[10]["span_rank"] == 5
    for row in report.per_degree:
        assert row["span_rank"] == row["kernel_dim"], row


def test_minimal_generator_counts_match_wedge_square(sc):
    report = sc.verify_generators()
    expected = {6: 1, 8: 1, 10: 2, 12: 2, 14: 3, 16: 3, 18: 4, 20: 4, 22: 5, 24: 5}
    assert report.minimal_counts == expected


def test_syzygy_count(sc):
    # triples i < j < k whose cyclic relation lives inside the bound;
    # verify_generators raises if any relation fails, so reaching here
    # means all 23 were checked exactly
    report = sc.verify_generators()
    assert report.syzygies_checked == 23


def test_syzygy_check_matches_the_element_arithmetic():
    # the index check agrees with e_i M(j,k) + e_j M(k,i) + e_k M(i,j)
    # summed as the oracle's TwistedElements, triple by triple
    from mmmcoh.stable import _cyclic_syzygies, _kernel_generator_terms, _triples_up_to

    triples = _triples_up_to(30)
    assert _cyclic_syzygies(_kernel_generator_terms(30), 30) == len(triples) == 53
    for (i, j, k) in triples:
        lhs = (
            Monomial.generator(i) * as_element(kernel_generator(j, k))
            + Monomial.generator(j) * as_element(kernel_generator(k, i))
            + Monomial.generator(k) * as_element(kernel_generator(i, j))
        )
        assert lhs.is_zero()


@pytest.mark.parametrize(
    "pair,slot,triple",
    [
        ((1, 2), 0, (1, 2, 3)),
        ((2, 4), 1, (1, 2, 4)),
        ((3, 4), 0, (1, 3, 4)),
        ((2, 3), 1, (1, 2, 3)),
    ],
)
def test_a_corrupt_term_fails_the_syzygy_naming_its_triple(pair, slot, triple):
    from mmmcoh.stable import _cyclic_syzygies, _kernel_generator_terms

    terms = _kernel_generator_terms(16)
    l, k, c = terms[pair][slot]
    terms[pair][slot] = (l, k, 2 * c)
    with pytest.raises(FalsificationError, match=r"^syzygy fails at \(%d,%d,%d\)$" % triple):
        _cyclic_syzygies(terms, 16)


def test_a_negated_generator_fails_only_its_syzygies(monkeypatch):
    # -M(1,2) lies in the kernel and spans what M(1,2) spans, so
    # kernel-generators fails at the first cyclic syzygy that reads it
    from mmmcoh import stable
    from mmmcoh.verify import run_verification

    real = stable.kernel_generator
    negated = [(2, 1, -1), (1, 2, 1)]
    monkeypatch.setattr(
        stable, "kernel_generator", lambda i, j: negated if (i, j) == (1, 2) else real(i, j)
    )
    by_id = {c.check_id: c for c in run_verification(12).checks}
    assert [cid for cid, c in by_id.items() if c.status == "fail"] == ["kernel-generators"]
    assert by_id["kernel-generators"].failure == "syzygy fails at (1,2,3)"


def test_tor_matches_two_wedge_columns(sc):
    from mmmcoh.algebra import exterior_dim

    report = sc.verify_tor(j_max=4)
    assert report.ok
    assert [t.j for t in report.results] == [0, 1, 2, 3, 4]
    for table in report.results:
        for d in range(0, 25, 2):
            assert table.dim(d) == exterior_dim(table.j, d) + exterior_dim(
                table.j + 2, d
            ), (table.j, d)


def test_tor_builds_no_layout_past_the_largest_form_degree():
    # Omega^n is zero for n > max_form_degree, so a large j_max keeps the
    # layouts and exterior bases of j_max = 4
    small, large = StableCohomology(24), StableCohomology(24)
    few, many = small.verify_tor(j_max=4), large.verify_tor(j_max=2000)
    assert len(many.results) == 2001
    assert many.results[:5] == few.results
    assert len(large.forms._layouts) == len(small.forms._layouts)
    assert len(large.algebra._exterior_cache) == len(small.algebra._exterior_cache)


def test_nonfreeness_witness(sc):
    report = sc.verify_tor(j_max=1)
    assert report.nonfreeness_witness == 1


def test_exact_sequence_audit(sc):
    rows = sc.exact_sequence_audit()
    for row in rows:
        assert row["alternating_sum"] == 0, row
    by_degree = {r["internal_degree"]: r for r in rows}
    assert by_degree[6] == {
        "internal_degree": 6,
        "kernel": 1,
        "twisted": 4,
        "ring": 3,
        "unit": 0,
        "alternating_sum": 0,
    }
    assert by_degree[0]["ring"] == 1 and by_degree[0]["unit"] == 1


def test_kernel_cross_check(sc):
    rows = sc.kernel_cross_check()
    assert len(rows) == 12  # internal degrees 2, 4, ..., 24
    for row in rows:
        assert row["matrices_match_up_to_sign"] == 1
        assert row["kernel_dim_module_route"] == row["kernel_dim_forms_route"]


@pytest.mark.parametrize("how", ["scale", "move", "drop"])
def test_kernel_cross_check_fails_on_a_changed_p1_column(monkeypatch, how):
    # delta's tables against p_1: one column of p_1 scaled, moved to
    # another row or emptied (its value set to 0, as a slot list has no
    # empty column) fails the row of its degree, whose forms-route kernel
    # is read off the changed p_1
    from mmmcoh import linalg

    def changed(self, n, d, m):
        if (n, d) != (1, 8):
            return m
        cols = list(m.packed)
        r, x = cols[3]
        cols[3] = {"scale": (r, 2 * x), "move": ((r + 1) % m.rows, x), "drop": (r, 0)}[how]
        return _matrix(m.rows, m.cols, tuple(cols))

    patch_p(monkeypatch, changed)
    ctx = StableCohomology(12)
    with pytest.raises(FalsificationError, match="^forms dictionary fails at degree 8$") as exc:
        ctx.kernel_cross_check()
    assert [r["matrices_match_up_to_sign"] for r in exc.value.report] == [1, 1, 1, 0]
    # the changed p_1 fails the exactness certificate of degree 8, so its
    # rank is counted off its slot list: the elimination agrees
    p1 = p_matrix(ctx.forms, 1, 8)
    p1 = SparseMatrix.of_columns(p1.rows, p1.cols, p1.packed)  # a 0 value dropped
    assert exc.value.report[-1]["kernel_dim_forms_route"] == p1.cols - linalg.rank(p1)


def test_kernel_cross_check_counts_a_zero_value_of_p1_as_an_empty_column(monkeypatch):
    # p_1 at degree 2 is the 1x1 matrix of p(de1) = e1; with its one value
    # set to 0 it fails its exactness certificate and has rank 0, so the
    # forms route reads a kernel of 1
    def zeroed(self, n, d, m):
        return _matrix(m.rows, m.cols, ((0, 0),)) if (n, d) == (1, 2) else m

    patch_p(monkeypatch, zeroed)
    ctx = StableCohomology(4)
    message = r"^p has no unit minor on the down forms at \(n, d\) = \(1, 2\)$"
    with pytest.raises(ValueError, match=message):
        ctx.forms.verify_exactness(2)
    with pytest.raises(FalsificationError, match="^forms dictionary fails at degree 2$") as exc:
        ctx.kernel_cross_check()
    assert exc.value.report == [
        {
            "internal_degree": 2,
            "kernel_dim_module_route": 0,
            "kernel_dim_forms_route": 1,
            "matrices_match_up_to_sign": 0,
        }
    ]


def test_kernel_cross_check_takes_rank_p1_from_the_exactness_reports(monkeypatch):
    from mmmcoh import linalg

    ctx = StableCohomology(24)
    for d in range(1, 25):
        ctx.forms.verify_exactness(d)
    ctx.verify_surjectivity()  # the kernel dimensions, from the ranks of delta
    calls = []
    real = linalg._rref

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_rref", counted)
    rows = ctx.kernel_cross_check()
    assert calls == []
    # the rows the elimination of each p_1 gives
    assert [r["internal_degree"] for r in rows] == list(range(2, 25, 2))
    for row in rows:
        p1 = p_matrix(ctx.forms, 1, row["internal_degree"])
        assert row["kernel_dim_forms_route"] == p1.cols - linalg.rank(p1)
        assert row["kernel_dim_module_route"] == row["kernel_dim_forms_route"]
        assert row["matrices_match_up_to_sign"] == 1


def test_kernel_cross_check_passes_a_broken_p2_without_elimination(monkeypatch):
    # a negated entry of the first column of p_2 fails the exactness
    # certificate at degree 8, but p_1 still equals -delta there: its rank
    # is counted off its slot list, with no elimination, and the rows are
    # those of the unbroken complex
    from mmmcoh import linalg

    expected = StableCohomology(12).kernel_cross_check()

    def broken(self, n, d, m):
        if (n, d) != (2, 8):
            return m
        r, x, *rest = m.packed[0]
        return SparseMatrix.of_columns(m.rows, m.cols, [(r, -x, *rest), *m.packed[1:]])

    def forbidden(*args):
        raise AssertionError("linalg._rref")

    patch_p(monkeypatch, broken)
    monkeypatch.setattr(linalg, "_rref", forbidden)
    ctx = StableCohomology(12)
    with pytest.raises(ValueError, match=r"at \(n, d\) = \(2, 8\)$"):
        ctx.forms.verify_exactness(8)
    assert ctx.kernel_cross_check() == expected


def test_tables_reject_out_of_range(sc):
    # the tables stop at the bound, and so do the modules' action tables
    from mmmcoh.algebra import DegreeBoundError

    assert max(sc.stable_cohomology_tilde().dims) <= sc.degree_bound
    assert max(sc.stable_cohomology_tilde().generator_report) <= sc.degree_bound
    for module in (sc.ring_module(), sc.twisted_module()):
        with pytest.raises(DegreeBoundError):
            module.multiplication_table(1, sc.degree_bound)


def test_falsification_error_is_assertion_error():
    assert issubclass(FalsificationError, AssertionError)


def test_kernel_only_tor_is_shifted_wedge(sc):
    # without the theta line, Koszul homology of the bare kernel is one
    # wedge column shifted by two
    from koszul_oracle import tor_dimension
    from mmmcoh.algebra import exterior_dim

    kernel = contraction_kernel(sc)
    for j in (0, 1, 2):
        for d in range(0, 17, 2):
            assert tor_dimension(kernel, j, d) == exterior_dim(j + 2, d), (j, d)
    # and tor_0 agrees with the minimal-generator computation
    mg = minimal_generators(kernel, up_to=16)
    for d in range(0, 17, 2):
        assert mg.counts.get(d, 0) == exterior_dim(2, d)


def test_euler_characteristic_for_nonfree_module(sc):
    # alternating sums of the Koszul complex equal alternating sums of its
    # homology, including for the non-free tilde module
    from koszul_oracle import koszul_dim, tor_dimension

    module = oracle_tilde_module(sc)
    for d in (6, 10, 14):
        j_top = d // 2 + 1
        chain_sum = sum((-1) ** j * koszul_dim(module, j, d) for j in range(j_top + 1))
        homology_sum = sum(
            (-1) ** j * tor_dimension(module, j, d) for j in range(j_top + 1)
        )
        assert chain_sum == homology_sum, d


def test_generator_outside_the_kernel_is_named(monkeypatch):
    # e_1 m_3 + e_3 m_1 contracts to -2 e_1 e_3, so M(1,3) leaves the kernel
    # at its first degree, 8, behind the e_1 M(1,2) columns that stay in it
    import mmmcoh.stable as stable

    real = stable.kernel_generator

    def broken(i, j):
        return [(3, 1, 1), (1, 3, 1)] if (i, j) == (1, 3) else real(i, j)

    monkeypatch.setattr(stable, "kernel_generator", broken)
    with pytest.raises(FalsificationError, match=r"^M\(1,3\) leaves the kernel at degree 8$"):
        StableCohomology(10).verify_generators()


def test_kernel_membership_is_checked_at_the_generators(monkeypatch):
    # delta is A-linear (checked when it is built), so verify_generators
    # sends only the M(i, j) of degree d through delta at d: at each d,
    # exactly those M(i, j), pair order kept, each read through delta's
    # tables with no matrix product
    from mmmcoh import linalg
    from mmmcoh.modules import GradedModuleMap

    ctx = StableCohomology(14)
    delta = ctx.delta_covariant()
    seen = {}
    real = GradedModuleMap.image

    def recording(f, d, column):
        assert f is delta
        seen.setdefault(d, []).append(column)
        return real(f, d, column)

    def no_product(a, b):
        raise AssertionError("a matrix product")

    monkeypatch.setattr(GradedModuleMap, "image", recording)
    monkeypatch.setattr(linalg.SparseMatrix, "__matmul__", no_product)
    ctx.verify_generators()
    assert sorted(seen) == list(range(6, 15, 2))
    for d in range(2, 15, 2):
        index = _oracle_twisted_index(ctx, d)
        # M(i, j) = e_i m_j - e_j m_i; m_l sits at generator position l - 1
        expected = [
            {index[(j - 1, Monomial.generator(i))]: 1, index[(i - 1, Monomial.generator(j))]: -1}
            for i in range(1, d // 4 + 1)
            for j in [d // 2 - i]
            if i < j
        ]
        assert [dict(zip(col[0::2], col[1::2])) for col in seen.get(d, [])] == expected, d


@pytest.mark.parametrize("term", [(1, 1, 1), (1, 3, 1), (2, 2, 1)], ids=["e1m1", "e3m1", "e2m2"])
def test_generator_term_with_a_wrong_k_is_rejected(monkeypatch, term):
    # a term c * e_k m_l of M(1, 2) needs l + k = 3: the span reads it
    # through the table of e_k and finds the block of m_l of another degree
    import mmmcoh.stable as stable

    real = stable.kernel_generator
    monkeypatch.setattr(
        stable, "kernel_generator", lambda i, j: [term] if (i, j) == (1, 2) else real(i, j)
    )
    with pytest.raises(ValueError, match=r"^the span: the term "):
        StableCohomology(10).verify_generators()


def test_generator_terms_on_one_class_are_rejected(monkeypatch):
    # two terms on m_1 would land in one block, and the span's columns
    # would repeat a row
    import mmmcoh.stable as stable

    real = stable.kernel_generator
    twice = [(1, 2, 1), (1, 2, -1)]
    monkeypatch.setattr(
        stable, "kernel_generator", lambda i, j: twice if (i, j) == (1, 2) else real(i, j)
    )
    with pytest.raises(ValueError, match=r"^M\(1,2\) has two terms on one m_l: "):
        StableCohomology(10).verify_generators()


def test_a_generator_off_the_graphic_premise_is_named(monkeypatch, capsys):
    # M(1,4) + M(2,3) lies in the kernel, but its columns hold four entries:
    # the span is no longer graphic, and kernel-generators alone fails
    import mmmcoh.stable as stable
    from mmmcoh.cli import main
    from mmmcoh.verify import run_verification

    real = stable.kernel_generator
    summed = [(4, 1, 1), (1, 4, -1), (3, 2, 1), (2, 3, -1)]
    monkeypatch.setattr(
        stable, "kernel_generator", lambda i, j: summed if (i, j) == (1, 4) else real(i, j)
    )
    failed = [c for c in run_verification(12).checks if c.status == "fail"]
    assert [c.check_id for c in failed] == ["kernel-generators"]
    assert failed[0].failure == (
        "the span: M(1,4) is not graphic at degree 10: its terms [1, -1, 1, -1] "
        "are not one nonzero int or two with opposite values"
    )
    assert main(["verify-all", "--max-degree", "12"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_generators_build_no_matrix(monkeypatch):
    # the span's edges come straight off the tables: no SparseMatrix is
    # built anywhere inside verify_generators
    import sys

    from mmmcoh import linalg

    ctx = StableCohomology(24)
    ctx.verify_surjectivity()

    def forbidden(*args):
        raise AssertionError("a SparseMatrix")

    # every module of the package that binds the unchecked constructor
    real = linalg._matrix
    for name, module in list(sys.modules.items()):
        if name.startswith("mmmcoh.") and getattr(module, "_matrix", None) is real:
            monkeypatch.setattr(module, "_matrix", forbidden)
    monkeypatch.setattr(linalg.SparseMatrix, "__init__", forbidden)
    assert ctx.verify_generators().minimal_counts == {
        d: len([(i, j) for (i, j) in _pairs_up_to(d) if 2 * (i + j) == d])
        for d in range(6, 25, 2)
    }


# -- the spanning-forest pivots ------------------------------------------------
#
# A matrix whose every column is zero, x e_u or x (e_u - e_v) is graphic:
# _forest_pivots reads its pivots off a spanning forest of the columns'
# edges.  They must be the pivots of the elimination oracle, whatever the
# scale of each column, with parallel edges, single-entry columns and zero
# columns mixed in.

graphic_value = st.one_of(
    st.sampled_from([1, -1, 2, -3]),
    st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(2, 4)),
)


@st.composite
def graphic_matrices(draw, max_rows=6, max_cols=10):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    columns = []
    for _ in range(cols):
        # an edge needs two rows, a single entry one
        kind = draw(st.sampled_from(["zero", "single", "edge"][: 1 + min(rows, 2)]))
        x = draw(graphic_value)
        if kind == "zero":
            columns.append(())
        elif kind == "single":
            columns.append((draw(st.integers(0, rows - 1)), x))
        else:
            u, v = draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2, unique=True))
            columns.append((u, x, v, -x))
    return SparseMatrix.of_columns(rows, cols, columns)


def _edges(m):
    """The edges of a graphic matrix's columns, ground vertex ``m.rows``,
    as one iterator, as the span streams them."""
    ground = m.rows
    return iter([(c[0], c[2]) if len(c) == 4 else (c[0], ground) if c else (ground, ground)
                 for c in m.packed])


@given(graphic_matrices())
@settings(max_examples=300, deadline=None)
def test_forest_pivots_match_the_elimination_oracle(m):
    assert _forest_pivots(_edges(m), m.rows) == _oracle_forward(_row_dicts_of(m), m.cols)[0]


def test_forest_pivots_on_parallel_edges_and_zero_rows():
    # a doubled edge, a scaled copy of it reversed, then a single entry on
    # each end: the second single entry closes a cycle through the ground
    m = SparseMatrix.of_columns(
        3, 5, [(0, 1, 1, -1), (1, 2, 0, -2), (), (0, Fraction(1, 2)), (1, -1)]
    )
    assert _forest_pivots(_edges(m), m.rows) == [0, 3] == _oracle_forward(_row_dicts_of(m), 5)[0]
    assert _forest_pivots(_edges(SparseMatrix.zero(0, 4)), 0) == []


def test_injectivity_table_is_computed_once(sc):
    # the dual-injectivity check and the HtildeDual table share one result
    assert sc.verify_injectivity() is sc.verify_injectivity()


def test_surjectivity_table_is_computed_once(monkeypatch):
    # covariant-surjectivity and the Htilde table share one result; the
    # ranks are read off delta's row tables, with no elimination
    import mmmcoh.linalg as linalg
    from mmmcoh.modules import GradedModuleMap

    real = GradedModuleMap.rank
    calls, eliminations = [], []

    def counting(f, d):
        calls.append(d)
        return real(f, d)

    monkeypatch.setattr(GradedModuleMap, "rank", counting)
    monkeypatch.setattr(linalg, "_rref", lambda *args: eliminations.append(args))
    ctx = StableCohomology(12)
    rows = ctx.verify_surjectivity()
    assert calls == list(range(2, 13, 2))  # one rank per positive even degree
    assert ctx.verify_surjectivity() is rows
    assert calls == list(range(2, 13, 2))
    ctx.stable_cohomology_tilde()
    assert eliminations == []


def test_a_failed_surjectivity_run_is_not_kept(monkeypatch):
    from mmmcoh.modules import GradedModuleMap

    real = GradedModuleMap.rank
    monkeypatch.setattr(GradedModuleMap, "rank", lambda f, d: real(f, d) - (d == 6))
    ctx = StableCohomology(12)
    with pytest.raises(FalsificationError, match="misses degree 6"):
        ctx.verify_surjectivity()
    monkeypatch.setattr(GradedModuleMap, "rank", real)
    assert ctx.verify_surjectivity()[6] == {"rank": 3, "dim_target": 3, "surjective": 1, "kernel": 1}


def test_kernel_minimal_generators_computed_once_per_run(monkeypatch):
    # covariant-surjectivity and kernel-generators share one full-bound
    # report: one span search per degree in the whole run
    import mmmcoh.stable as stable
    from mmmcoh.verify import run_verification

    real = stable._forest_pivots
    calls = []

    def counting(edges, ground):
        calls.append(ground)
        return real(edges, ground)

    monkeypatch.setattr(stable, "_forest_pivots", counting)
    assert run_verification(12).passed
    twisted = StableCohomology(12).twisted_module()
    assert calls == [twisted.dim(d) for d in range(2, 13, 2)]

    # a lower bound eliminates its own degrees
    ctx = StableCohomology(8)
    report = ctx.verify_generators()
    assert report.minimal_counts == {6: 1, 8: 1}
    assert report.minimal_counts == minimal_generators(contraction_kernel(ctx)).counts


def test_kernel_route_matches_the_kernel_module_oracle():
    # dimensions from the ranks of delta and minimal counts from the pivot
    # split, against the kernel module and the elimination of its action
    ctx = StableCohomology(32)
    kernel = contraction_kernel(ctx)
    for d in range(0, 33, 2):
        assert ctx.kernel_dim(d) == kernel.dim(d), d
    assert ctx.verify_generators().minimal_counts == minimal_generators(kernel).counts


def test_dimension_checks_do_not_need_surjectivity(monkeypatch):
    # the kernel dimensions come from the ranks of delta, not from the
    # surjectivity check, so its failure fails only the checks that need it
    from mmmcoh.verify import run_verification

    def misses(self):
        raise FalsificationError("contraction against m1 misses degree 6")

    monkeypatch.setattr(StableCohomology, "verify_surjectivity", misses)
    by_id = {c.check_id: c for c in run_verification(12).checks}
    assert by_id["covariant-surjectivity"].status == "fail"
    for check_id in ("kernel-generators", "kernel-cross-check", "sequence-audit"):
        assert by_id[check_id].status == "pass", check_id


# -- the object-based map builders, kept as test-only oracles -------------------------


def _oracle_twisted_index(sc, d):
    F = sc.twisted_module()
    basis = [
        (k, m)
        for k, a in enumerate(F.gen_degrees)
        if a <= d
        for m in monomials(sc.algebra, d - a)
    ]
    return {b: k for k, b in enumerate(basis)}


def _oracle_delta_covariant(sc, d):
    src = _oracle_twisted_index(sc, d)
    tgt = monomial_index(sc.algebra, d)
    entries = {}
    for col, (k, m) in enumerate(src):
        entries[(tgt[m * Monomial.generator(k + 1)], col)] = -1
    return SparseMatrix(len(tgt), len(src), entries)


def _oracle_delta_contravariant(sc, d):
    src = monomials(sc.algebra, d)
    tgt = _oracle_twisted_index(sc, d + 2)
    entries = {(tgt[(0, m)], col): 1 for col, m in enumerate(src)}
    return SparseMatrix(len(tgt), len(src), entries)


def _same_matrix(new, oracle):
    return (new.rows, new.cols) == (oracle.rows, oracle.cols) and list(
        new.entries.items()
    ) == list(oracle.entries.items())


def test_connecting_maps_match_object_oracles(sc):
    co, contra = sc.delta_covariant(), sc.delta_contravariant()
    for d in range(2, sc.degree_bound + 1, 2):
        assert _same_matrix(co.matrix(d), _oracle_delta_covariant(sc, d)), d
    for d in range(0, sc.degree_bound - 1, 2):
        assert _same_matrix(contra.matrix(d), _oracle_delta_contravariant(sc, d)), d


def test_twisted_as_vector_matches_object_oracle(sc):
    for d in range(2, sc.degree_bound + 1, 2):
        idx = _oracle_twisted_index(sc, d)
        for (k, m), pos in idx.items():
            v = twisted_as_vector(sc, TwistedElement({(k + 1, m): Fraction(3, 2)}), d)
            assert (v.rows, v.cols, v.entries) == (len(idx), 1, {(pos, 0): Fraction(3, 2)}), (k, m)
    with pytest.raises(ValueError):
        twisted_as_vector(sc, TwistedElement.generator(2), 6)


# -- Tor by dimension shifting, against the Koszul rank oracle ---------------------


def test_verify_tor_matches_the_koszul_rank_oracle():
    from koszul_oracle import tor_dimension

    ctx = StableCohomology(32)
    report = ctx.verify_tor(j_max=4)
    module = oracle_tilde_module(ctx)
    assert [t.j for t in report.results] == [0, 1, 2, 3, 4]
    for table in report.results:
        for d in range(0, 33):
            assert table.dim(d) == tor_dimension(module, table.j, d), (table.j, d)


def test_contraction_is_the_koszul_complex_of_the_ring():
    # the identification premise of verify_tor: the oracle's Koszul
    # differential of A over itself is p, up to the order of the wedges
    from koszul_oracle import koszul_differential, koszul_layout

    ctx = StableCohomology(20)
    ring, forms = ctx.ring_module(), ctx.forms

    def to_forms(j, d):
        # Koszul position -> forms position, block by block
        blocks = forms._layout(j, d)[0]
        return {
            off + q: blocks[wedge][0] + q
            for wedge, off, deg in koszul_layout(ring, j, d)
            for q in range(ring.dim(deg))
        }

    for d in range(0, 21):
        for j in range(1, forms.max_form_degree() + 2):
            k, p = koszul_differential(ring, j, d), p_matrix(forms, j, d)
            rows, cols = to_forms(j - 1, d), to_forms(j, d)
            assert (k.rows, k.cols) == (p.rows, p.cols) == (len(rows), len(cols)), (j, d)
            moved = {(rows[r], cols[c]): x for (r, c), x in k.entries.items()}
            assert moved == p.entries, (j, d)


def test_verify_all_builds_no_koszul_differential_and_walks_each_degree_once(monkeypatch):
    import koszul_oracle
    import mmmcoh
    from mmmcoh.forms import DifferentialForms
    from mmmcoh.verify import run_verification

    built = []
    real_koszul = koszul_oracle.koszul_differential

    def koszul(module, j, d):
        built.append((j, d))
        return real_koszul(module, j, d)

    monkeypatch.setattr(koszul_oracle, "koszul_differential", koszul)
    walks = []
    real_slots = DifferentialForms._cartan_slots

    def slots(self, n, d, *operators):
        walks.append((n, d))
        return real_slots(self, n, d, *operators)

    def walk(*operators):
        raise AssertionError("a passing run walks no column")

    monkeypatch.setattr(DifferentialForms, "_cartan_slots", slots)
    monkeypatch.setattr(DifferentialForms, "_homotopy_walk", staticmethod(walk))
    report = run_verification(12)
    assert report.passed
    assert built == []
    assert not any(
        name.startswith("koszul") or name.startswith("tor_")
        for module in (mmmcoh, mmmcoh.modules, mmmcoh.stable)
        for name in vars(module)
    )
    top = StableCohomology(12).forms.max_form_degree()
    assert sorted(walks) == sorted((n, d) for d in range(1, 13) for n in range(top + 2))
