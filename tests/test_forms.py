"""Differential forms on the graded algebra: d, contraction, Cartan identity."""

from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmmcoh.algebra import PolynomialAlgebra, exterior_basis, exterior_dim
from mmmcoh.forms import DifferentialForms, ExactnessReport, SpotCheck
from mmmcoh.linalg import SparseMatrix, _matrix, rank
from mmmcoh.verify import run_verification
import mmmcoh.forms as forms_module
from algebra_oracle import Monomial, monomials, smallest_indices, wedge_insert, wedge_remove
from slot_patch import d_matrix, derivative_matrix, p_matrix, patch_d, patch_p, slots_of


@pytest.fixture(scope="module")
def forms():
    return DifferentialForms(PolynomialAlgebra(24))


def image(forms, mat, form, n, d, n_out):
    """The image under ``mat``: Omega^n_d -> Omega^{n_out}_d of one basis
    form ``(monomial, wedge)``, read off its column as ``{(monomial,
    wedge): coefficient}``."""
    col = mat.packed[_oracle_index(forms.algebra, n, d)[form]]
    target = _oracle_form_basis(forms.algebra, n_out, d)
    return {target[r]: Fraction(x) for r, x in zip(col[0::2], col[1::2])}


# -- frozen single-element examples --------------------------------------------


def test_exterior_derivative_of_monomial_times_generator_form(forms):
    # d(e1^2 de2) = 2 e1 de1 ^ de2
    x = (Monomial.from_exponents({1: 2}), (2,))
    out = image(forms, d_matrix(forms, 1, 8), x, 1, 8, 2)
    assert out == {(Monomial.generator(1), (1, 2)): Fraction(2)}


def test_exterior_derivative_antisymmetry_collapse(forms):
    # d(e2 de2) = de2 ^ de2 = 0
    x = (Monomial.generator(2), (2,))
    assert image(forms, d_matrix(forms, 1, 8), x, 1, 8, 2) == {}


def test_interior_product_on_one_form(forms):
    # p(e2 de3) = e2 e3
    x = (Monomial.generator(2), (3,))
    out = image(forms, p_matrix(forms, 1, 10), x, 1, 10, 0)
    assert out == {(Monomial.from_exponents({2: 1, 3: 1}), ()): Fraction(1)}


def test_interior_product_on_two_form_has_koszul_signs(forms):
    # p(de1 ^ de2) = e1 de2 - e2 de1
    x = (Monomial.one(), (1, 2))
    out = image(forms, p_matrix(forms, 2, 6), x, 2, 6, 1)
    assert out == {
        (Monomial.generator(1), (2,)): Fraction(1),
        (Monomial.generator(2), (1,)): Fraction(-1),
    }


def test_wedge_insert_sign_and_dedup():
    assert wedge_insert(2, (1, 3)) == (-1, (1, 2, 3))
    assert wedge_insert(1, (2, 3)) == (1, (1, 2, 3))
    assert wedge_insert(3, (1, 2)) == (1, (1, 2, 3))
    assert wedge_insert(2, (1, 2)) is None


def test_wedge_remove_signs():
    assert wedge_remove(0, (1, 2, 3)) == (1, 1, (2, 3))
    assert wedge_remove(1, (1, 2, 3)) == (-1, 2, (1, 3))
    assert wedge_remove(2, (1, 2, 3)) == (1, 3, (1, 2))


# -- structural identities, all degrees up to the bound -------------------------


def test_d_squared_is_zero(forms):
    for d in range(2, 25, 2):
        for n in range(0, forms.max_form_degree() + 1):
            d1 = d_matrix(forms, n, d)
            d2 = d_matrix(forms, n + 1, d)
            assert (d2 @ d1).nnz() == 0, (n, d)


def test_contraction_squared_is_zero(forms):
    for d in range(2, 25, 2):
        for n in range(2, forms.max_form_degree() + 2):
            p1 = p_matrix(forms, n, d)
            p2 = p_matrix(forms, n - 1, d)
            assert (p2 @ p1).nnz() == 0, (n, d)


def test_cartan_identity_everywhere(forms):
    for d in range(2, 25, 2):
        for n in range(0, forms.max_form_degree() + 1):
            assert verify_cartan(forms, n, d), (n, d)


def test_degree_operator_is_diagonal_with_positive_weights(forms):
    for d in (2, 8, 14, 24):
        for n in range(0, forms.max_form_degree() + 1):
            L = lie_derivative_oracle(forms, n, d)
            weights = forms.euler_weights(n, d)
            dim = forms.dim(n, d)
            dense = L.to_lists()
            for i in range(dim):
                for j in range(dim):
                    want = Fraction(weights[i]) if i == j else Fraction(0)
                    assert dense[i][j] == want
            if d > 0:
                assert all(w > 0 for w in weights)


def test_form_dimensions_factor_through_exterior_algebra(forms):
    # dim Omega^n_d = sum_k dim A_{d-k} * dim Lambda^n_k
    A = forms.algebra
    for d in range(0, 25, 2):
        for n in range(0, forms.max_form_degree() + 2):
            expected = sum(
                A.hilbert_function(d - k) * exterior_dim(n, k)
                for k in range(0, d + 1, 2)
            )
            assert forms.dim(n, d) == expected, (n, d)


def test_max_form_degree_is_the_loop_in_closed_form():
    # the largest n with n(n+1) <= bound, as the loop over n found it
    def loop(bound):
        n = 0
        while (n + 1) * (n + 2) <= bound:
            n += 1
        return n

    for bound in range(0, 2001):
        forms = DifferentialForms.__new__(DifferentialForms)
        forms.algebra = SimpleNamespace(degree_bound=bound)
        assert forms.max_form_degree() == loop(bound), bound


def test_max_form_degree_values():
    # largest n with n(n+1) <= bound, since de1^...^den has internal degree n(n+1)
    assert DifferentialForms(PolynomialAlgebra(24)).max_form_degree() == 4
    assert DifferentialForms(PolynomialAlgebra(6)).max_form_degree() == 2
    assert DifferentialForms(PolynomialAlgebra(2)).max_form_degree() == 1
    assert DifferentialForms(PolynomialAlgebra(12)).max_form_degree() == 3


def test_top_form_slot_is_nonempty_and_next_is_empty(forms):
    top = forms.max_form_degree()
    bound = forms.algebra.degree_bound
    assert forms.dim(top, bound) > 0
    assert all(forms.dim(top + 1, d) == 0 for d in range(0, bound + 1, 2))


def test_exactness_reports(forms):
    # kernels of the contraction out of Omega^1 match the twisted kernel table
    expected_kernel = {2: 0, 4: 0, 6: 1, 8: 2, 10: 5, 12: 8}
    for d, k in expected_kernel.items():
        report = forms.verify_exactness(d)
        assert report.all_exact
        spot1 = report.spots[1]
        assert spot1.form_degree == 1
        assert spot1.dim - spot1.rank_out == k
        assert spot1.rank_in == k


def test_exactness_all_even_degrees(forms):
    for d in range(2, 25, 2):
        assert forms.verify_exactness(d).all_exact, d


def test_exactness_rejects_degree_zero(forms):
    with pytest.raises(ValueError):
        forms.verify_exactness(0)


def test_basis_ordering_is_deterministic(forms):
    # wedges in lex order, each block at its offset with its coefficient degree
    assert forms._layout(1, 6) == ({(1,): (0, 4), (2,): (2, 2), (3,): (3, 0)}, 4)
    labels = [(wedge, str(m)) for m, wedge in layout_basis(forms, 1, 6)]
    assert labels == [
        ((1,), "e1^2"),
        ((1,), "e2"),
        ((2,), "e1"),
        ((3,), "1"),
    ]


# -- randomized: d is a derivation for the module structure ---------------------


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_derivative_of_product_rule(i, j, e):
    # d(e_i^e de_j) = e * e_i^{e-1} de_i ^ de_j  (zero when i == j collapses)
    A = PolynomialAlgebra(24)
    forms = DifferentialForms(A)
    d_int = 2 * i * e + 2 * j
    if d_int > 24:
        return
    x = (Monomial.from_exponents({i: e}), (j,))
    out = image(forms, d_matrix(forms, 1, d_int), x, 1, d_int, 2)
    ins = wedge_insert(i, (j,))
    if ins is None:
        assert out == {}
    else:
        sign, merged = ins
        reduced = Monomial.from_exponents({i: e - 1}) if e > 1 else Monomial.one()
        assert out == {(reduced, merged): Fraction(sign * e)}


def test_generator_rules_frozen(forms):
    # d(e1) = de1 and p(de1) = e1: the defining rules of both derivations
    x = (Monomial.generator(1), ())
    out = image(forms, d_matrix(forms, 0, 2), x, 0, 2, 1)
    assert out == {(Monomial.one(), (1,)): Fraction(1)}

    y = (Monomial.one(), (1,))
    out = image(forms, p_matrix(forms, 1, 2), y, 1, 2, 0)
    assert out == {(Monomial.generator(1), ()): Fraction(1)}


def test_derivative_kills_constant_forms(forms):
    x = (Monomial.one(), (1, 2))
    assert image(forms, d_matrix(forms, 2, 6), x, 2, 6, 3) == {}


def test_degree_operator_frozen_eigenvalues(forms):
    # weight = generator factors + form degree
    assert forms.euler_weights(1, 2) == [1]  # de1
    idx = _oracle_index(forms.algebra, 1, 8)[(Monomial.from_exponents({1: 2}), (2,))]
    assert forms.euler_weights(1, 8)[idx] == 3  # e1^2 de2
    assert forms.euler_weights(0, 0) == [0]  # the unit is the only weight-0 form
    assert lie_derivative_oracle(forms, 0, 0).nnz() == 0


def test_cartan_at_degree_zero(forms):
    assert verify_cartan(forms, 0, 0)


# -- the per-entry builders, kept as test-only oracles -----------------------------
#
# The operators are built from wedge-major offsets and the algebra's
# multiplication tables.  These are the builders they replaced: one
# basis form ``(monomial, wedge)`` and one Monomial per entry, looked up in
# a basis index.  Each rebuilt matrix must equal its oracle entry for
# entry, in the same dict order, which is what keeps the reports
# byte-identical.


def _oracle_form_basis(algebra, n, d):
    """The basis of Omega^n_d as ``(monomial, wedge)`` pairs, from the
    exterior bases and the monomial bases alone."""
    out = []
    if d % 2 == 0:
        wedges = sorted(w for wt in range(0, d + 1, 2) for w in exterior_basis(n, wt))
        for wedge in wedges:
            for m in monomials(algebra, d - sum(2 * i for i in wedge)):
                out.append((m, wedge))
    return out


def layout_basis(forms, n, d):
    """The basis of Omega^n_d that ``forms._layout`` records: each wedge's
    block of coefficient monomials, blocks in layout order."""
    blocks = forms._layout(n, d)[0]
    return [(m, wedge) for wedge, (_, deg) in blocks.items() for m in monomials(forms.algebra, deg)]


def _oracle_index(algebra, n, d):
    return {b: k for k, b in enumerate(_oracle_form_basis(algebra, n, d))}


def _oracle_exterior_derivative(algebra, n, d):
    src = _oracle_form_basis(algebra, n, d)
    tgt_index = _oracle_index(algebra, n + 1, d)
    entries = {}
    for col, (m, w) in enumerate(src):
        for i, e in m.pairs:
            ins = wedge_insert(i, w)
            if ins is None:
                continue
            sign, wedge = ins
            reduced = Monomial.from_exponents({**dict(m.pairs), i: e - 1})
            row = tgt_index[(reduced, wedge)]
            entries[(row, col)] = sign * e
    return SparseMatrix(len(tgt_index), len(src), entries)


def _oracle_interior_product(algebra, n, d):
    src = _oracle_form_basis(algebra, n, d)
    tgt_index = _oracle_index(algebra, n - 1, d)
    entries = {}
    for col, (m, w) in enumerate(src):
        for k in range(len(w)):
            sign, i, rest = wedge_remove(k, w)
            row = tgt_index[(m * Monomial.generator(i), rest)]
            entries[(row, col)] = entries.get((row, col), 0) + sign
    return SparseMatrix(len(tgt_index), len(src), entries)


def _same_matrix(new, oracle):
    return (new.rows, new.cols) == (oracle.rows, oracle.cols) and list(
        new.entries.items()
    ) == list(oracle.entries.items())


def test_operators_match_object_oracles_at_bound_24():
    algebra = PolynomialAlgebra(24)
    forms = DifferentialForms(algebra)
    for n in range(0, forms.max_form_degree() + 2):
        for d in range(0, 25):
            basis = _oracle_form_basis(algebra, n, d)
            assert layout_basis(forms, n, d) == basis, (n, d)
            assert forms.dim(n, d) == len(basis), (n, d)
            assert forms.euler_weights(n, d) == [m.total_exponent + n for m, _ in basis], (n, d)
            assert _same_matrix(
                d_matrix(forms, n, d), _oracle_exterior_derivative(algebra, n, d)
            ), ("d", n, d)
            if n >= 1:
                assert _same_matrix(
                    p_matrix(forms, n, d), _oracle_interior_product(algebra, n, d)
                ), ("p", n, d)


def test_the_packed_view_of_p_lists_its_slots_in_order_at_bound_24():
    # the packed matrix of p is _contraction's slot lists interleaved: the
    # oracle's columns tuple for tuple, entry t contracting slot t, with
    # int values
    algebra = PolynomialAlgebra(24)
    forms = DifferentialForms(algebra)
    for n in range(0, forms.max_form_degree() + 2):
        for d in range(0, 25):
            m = p_matrix(forms, n, d)
            rows, cols, slot_rows, slot_values = forms._contraction(n, d)
            assert (m.rows, m.cols, len(slot_rows)) == (rows, cols, n), (n, d)
            if n >= 1:
                assert m.packed == _oracle_interior_product(algebra, n, d).packed, (n, d)
            else:
                assert m == SparseMatrix.zero(0, forms.dim(0, d)), (n, d)
            assert all(type(x) is int for col in m.packed for x in col), (n, d)
            for t in range(n):
                assert [col[2 * t] for col in m.packed] == slot_rows[t], (n, d, t)
                assert [col[2 * t + 1] for col in m.packed] == slot_values[t], (n, d, t)


@pytest.mark.parametrize("table", [(0, 0, 2), (0, 1, 3)], ids=["repeated", "onto-e2^2"])
def test_division_needs_a_table_onto_the_monomials_e_i_divides(table):
    # into degree 8 (e1^4, e1^2*e2, e1*e3, e2^2, e4), e1 divides the first
    # three; a table in range that does not fill exactly those positions
    # gives d the wrong exponents and p the wrong products, and the
    # certificate of degree 8 fails on both
    forms = DifferentialForms(PolynomialAlgebra(24))
    assert forms.algebra.multiplication_table(1, 6) == (0, 1, 2)
    assert forms.algebra.exponents(1, 8) == (4, 2, 1, 0, 0)
    for check, message in (
        ("verify_cartan", "d p + p d is not the weight diagonal at (n, d) = (0, 8)"),
        ("verify_exactness", "p has no unit minor on the down forms at (n, d) = (1, 8)"),
    ):
        forms = DifferentialForms(PolynomialAlgebra(24))
        forms.algebra._mult_cache[1, 6] = table
        with pytest.raises(ValueError) as exc:
            getattr(forms, check)(8)
        assert str(exc.value) == message, check


def test_every_wrong_table_entry_fails_cartan_at_bound_12():
    # each single entry of each multiplication table moved to another
    # position in range: the certificate of the degree the table maps into
    # fails, whether the table then repeats a position or not
    tables = {}
    A = PolynomialAlgebra(12)
    for d in range(0, 11, 2):
        for i in range(1, (12 - d) // 2 + 1):
            tables[i, d] = A.multiplication_table(i, d)
    tried = 0
    for (i, d), table in tables.items():
        size = A.hilbert_function(d + 2 * i)
        for k, q in enumerate(table):
            for wrong in range(size):
                if wrong == q:
                    continue
                forms = DifferentialForms(PolynomialAlgebra(12))
                forms.algebra._mult_cache[i, d] = table[:k] + (wrong,) + table[k + 1 :]
                with pytest.raises(ValueError):
                    forms.verify_cartan(d + 2 * i)
                tried += 1
    assert tried == 300


# -- the product and rank routes, kept as test-only oracles -------------------------
#
# verify_exactness certifies exactness from p alone: a matched unit minor
# of each p_n, p^2 = 0 and the counts of the matching.  verify_cartan adds
# the contracting homotopy, in one walk over the operators' columns.  These
# are the routes they replaced: L = d p + p d assembled from two products
# and a sum, and one elimination per contraction.  verify_cartan below
# reads the Cartan half of one walk, to compare with them.


def homotopy_walk(forms, n, d):
    """The walk on every column of Omega^n_d alone, over the weights and the
    four operators it reads, each built through the class's builder
    methods, d as the packed columns of its matrix."""
    d_down = d_matrix(forms, n - 1, d).packed if n else ()
    return forms._homotopy_walk(
        forms.euler_weights(n, d),
        d_matrix(forms, n, d).packed,
        forms._contraction(n + 1, d),
        forms._contraction(n, d),
        d_down,
    )


def verify_cartan(forms, n, d):
    """d p + p d equals the predicted diagonal on Omega^n_d, read from the
    homotopy walk."""
    return homotopy_walk(forms, n, d)


def lie_derivative_oracle(forms, n, d):
    """L = d p + p d on Omega^n_d, assembled from operator products."""
    dim0 = forms.dim(0, d)
    p_then_d = (
        d_matrix(forms, n - 1, d) @ p_matrix(forms, n, d)
        if n >= 1
        else SparseMatrix.zero(dim0, dim0)
    )
    d_then_p = p_matrix(forms, n + 1, d) @ d_matrix(forms, n, d)
    return p_then_d + d_then_p


def rank_exactness_oracle(forms, d):
    """The exactness report from the rank of every contraction p_n."""
    top = forms.max_form_degree()
    dims = {n: forms.dim(n, d) for n in range(top + 2)}
    ranks = {n: rank(p_matrix(forms, n, d)) for n in range(1, top + 2)}
    spots = [SpotCheck(0, dims[0], 0, ranks[1], ranks[1] == dims[0])]
    for n in range(1, top + 1):
        spots.append(
            SpotCheck(n, dims[n], ranks[n], ranks[n + 1], dims[n] - ranks[n] == ranks[n + 1])
        )
    return ExactnessReport(degree=d, spots=tuple(spots))


def test_homotopy_route_matches_rank_oracle(forms):
    for d in range(1, 25):
        assert forms.verify_exactness(d).to_dict() == rank_exactness_oracle(forms, d).to_dict(), d


def test_cartan_walk_matches_product_oracle(forms):
    for d in range(0, 25, 2):
        for n in range(0, forms.max_form_degree() + 2):
            weights = forms.euler_weights(n, d)
            diagonal = SparseMatrix(
                len(weights), len(weights), {(i, i): w for i, w in enumerate(weights)}
            )
            assert verify_cartan(forms, n, d) == (lie_derivative_oracle(forms, n, d) == diagonal)


def _double_entry(m, col=None):
    """m with its first entry, or the first entry of column ``col``, doubled."""
    entries = m.entries
    key = next(k for k in entries if col is None or k[1] == col)
    entries[key] *= 2
    return SparseMatrix(m.rows, m.cols, entries)


def _break_weight(monkeypatch):
    real = DifferentialForms.euler_weights

    def broken(self, n, d):
        weights = real(self, n, d)
        if (n, d) == (1, 8):
            weights[0] += 1
        return weights

    monkeypatch.setattr(DifferentialForms, "euler_weights", broken)


def _break_operator(name, key, col=None):
    def broken(self, n, d, m):
        return _double_entry(m, col) if (n, d) == key else m

    def patch(monkeypatch):
        (patch_p if name == "interior_product" else patch_d)(monkeypatch, broken)

    return patch


# each break fails the Cartan identity first at (n, d) = (1, 8): the weight
# and d_1 are read on Omega^1 directly, p_2 as the p of p(dw).  The
# exactness certificate reads neither d nor the weights, so it passes the
# first two; doubling one entry of p_2 breaks p_1 p_2 = 0
BREAKS = {
    "weight": _break_weight,
    "p-column": _break_operator("interior_product", (2, 8)),
    "d-column": _break_operator("exterior_derivative", (1, 8)),
}
EXACTNESS_AT_8 = {
    "weight": None,
    "d-column": None,
    "p-column": "p^2 is not zero at (n, d) = (2, 8)",
}
CARTAN_FAILS = r"^d p \+ p d is not the weight diagonal at \(n, d\) = \(1, 8\)$"


@pytest.mark.parametrize("brk", sorted(BREAKS))
def test_broken_premise_raises(monkeypatch, brk):
    BREAKS[brk](monkeypatch)
    forms = DifferentialForms(PolynomialAlgebra(12))
    for d in range(1, 8):
        assert forms.verify_cartan(d).all_exact
    with pytest.raises(ValueError, match=CARTAN_FAILS):
        forms.verify_cartan(8)
    assert 8 not in forms._exactness  # a failed walk fills no memo
    if EXACTNESS_AT_8[brk] is None:
        assert forms.verify_exactness(8).all_exact
    else:
        with pytest.raises(ValueError) as exc:
            forms.verify_exactness(8)
        assert str(exc.value) == EXACTNESS_AT_8[brk]


@pytest.mark.parametrize("brk", sorted(BREAKS))
def test_broken_premise_is_a_resolution_exactness_fail_row(monkeypatch, capsys, brk):
    from mmmcoh.cli import main

    BREAKS[brk](monkeypatch)
    by_id = {c.check_id: c for c in run_verification(12).checks}
    exactness = by_id["resolution-exactness"]
    assert exactness.status == "fail"
    assert exactness.per_degree_data == []
    assert exactness.failure == "d p + p d is not the weight diagonal at (n, d) = (1, 8)"
    assert main(["verify-all", "--max-degree", "12"]) == 1
    assert "FAILURES PRESENT" in capsys.readouterr().out


def test_walk_detects_a_nonzero_p_squared(monkeypatch):
    # on Omega^3, p_2 is read only as the p of p(pw), so doubling an entry
    # of a column of p_2 that p(de1^de2^de3) hits leaves the Cartan walk
    # there intact and breaks p^2 = 0
    hit = p_matrix(DifferentialForms(PolynomialAlgebra(12)), 3, 12).packed[0][0]
    _break_operator("interior_product", (2, 12), col=hit)(monkeypatch)
    forms = DifferentialForms(PolynomialAlgebra(12))
    assert homotopy_walk(forms, 3, 12)
    p3, p2 = (forms._contraction(n, 12) for n in (3, 2))
    assert not forms._square_zero(p3, p2)
    # the exactness certificate meets p_2 first as p_1 p_2, on Omega^2
    with pytest.raises(ValueError, match=r"^p\^2 is not zero at \(n, d\) = \(2, 12\)$"):
        forms.verify_exactness(12)


# -- mutations of p that the exactness certificate must catch ----------------------


def _flip_sign(key, col=0):
    """Break p at (n, d) = key: the first entry of column ``col`` negated."""

    def patch(monkeypatch):
        def broken(self, n, d, m):
            if (n, d) != key:
                return m
            entries = m.entries
            entries[next(k for k in entries if k[1] == col)] *= -1
            return SparseMatrix(m.rows, m.cols, entries)

        patch_p(monkeypatch, broken)

    return patch


@pytest.mark.parametrize("key", [(2, 8), (3, 12), (2, 16), (4, 20), (3, 24)])
def test_a_flipped_sign_of_p_fails_p_squared_at_its_degree(monkeypatch, key):
    from mmmcoh.stable import StableCohomology

    _flip_sign(key)(monkeypatch)
    message = r"^p\^2 is not zero at \(n, d\) = \(%d, %d\)$" % key
    forms = DifferentialForms(PolynomialAlgebra(24))
    for d in range(1, key[1]):
        assert forms.verify_exactness(d).all_exact
    with pytest.raises(ValueError, match=message):
        forms.verify_exactness(key[1])
    with pytest.raises(ValueError, match=message):
        StableCohomology(24).verify_tor()


def _move_up_entry(key, onto):
    """Break p at (n, d) = key: the entry that the first down column has in
    an up row moves to the up row of the next down column (``onto="up"``)
    or to a down row the column does not hold (``onto="down"``)."""

    def patch(monkeypatch):
        def broken(self, n, d, m):
            if (n, d) != key:
                return m
            up_in, up_out = self._up_marks(n - 1, d), self._up_marks(n, d)
            down = [c for c in range(m.cols) if not up_out[c]]
            (r,) = [r for r in m.packed[down[0]][::2] if up_in[r]]
            if onto == "up":
                (target,) = [r for r in m.packed[down[1]][::2] if up_in[r]]
            else:
                held = set(m.packed[down[0]][::2])
                target = next(r for r in range(m.rows) if not up_in[r] and r not in held)
            entries = m.entries
            entries[target, down[0]] = entries.pop((r, down[0]))
            return SparseMatrix(m.rows, m.cols, entries)

        patch_p(monkeypatch, broken)

    return patch


@pytest.mark.parametrize(
    "key,onto",
    [((1, 8), "up"), ((2, 12), "up"), ((2, 12), "down"), ((3, 20), "up"), ((3, 20), "down")],
)
def test_a_moved_up_entry_fails_the_unit_minor(monkeypatch, key, onto):
    _move_up_entry(key, onto)(monkeypatch)
    forms = DifferentialForms(PolynomialAlgebra(20))
    message = r"^p has no unit minor on the down forms at \(n, d\) = \(%d, %d\)$" % key
    with pytest.raises(ValueError, match=message):
        forms.verify_exactness(key[1])
    # the Cartan half is walked first on each Omega^n, and its p_n reads
    # the moved entry as p_{n+1} one step earlier
    with pytest.raises(ValueError, match=r"^d p \+ p d is not the weight diagonal"):
        forms.verify_cartan(key[1])


@pytest.mark.parametrize("key", [(1, 8), (2, 12), (3, 20)])
def test_a_zero_unit_of_p_fails_the_unit_minor(monkeypatch, key):
    # the entry that the first down column has in an up row, its value set
    # to 0: a slot list holds it, but it is no unit.  For p_1 nothing else
    # reads it (p_0 has no entries, so p_0 p_1 = 0 holds), so only the
    # unit minor can refuse it
    def broken(self, n, d, m):
        if (n, d) != key:
            return m
        up_in, up_out = self._up_marks(n - 1, d), self._up_marks(n, d)
        c = next(c for c in range(m.cols) if not up_out[c])
        col = list(m.packed[c])
        t = next(t for t in range(0, len(col), 2) if up_in[col[t]])
        col[t + 1] = 0
        return _matrix(m.rows, m.cols, m.packed[:c] + (tuple(col),) + m.packed[c + 1 :])

    patch_p(monkeypatch, broken)
    message = "p has no unit minor on the down forms at (n, d) = (%d, %d)" % key
    with pytest.raises(ValueError) as exc:
        DifferentialForms(PolynomialAlgebra(20)).verify_exactness(key[1])
    assert str(exc.value) == message


def test_every_positive_degree_form_is_matched():
    # the down forms of Omega^n and the up forms of Omega^(n-1) pair off,
    # and every form but the unit of Omega^0_0 has a partner
    forms = DifferentialForms(PolynomialAlgebra(24))
    for d in range(2, 25, 2):
        top = forms.max_form_degree()
        downs = [forms._up_marks(n, d).count(0) for n in range(top + 2)]
        ups = [forms._up_marks(n, d).count(1) for n in range(top + 2)]
        assert downs[0] == 0 and downs[top + 1] == ups[top + 1] == 0, d
        assert ups[:-1] == downs[1:], d
    assert list(forms._up_marks(0, 0)) == [1]


def test_up_marks_follow_the_smallest_index_of_each_monomial():
    # the counts' suffix rule gives what the rule per monomial gave: m de_S
    # is up when S is empty or min S exceeds the smallest index dividing m
    algebra = PolynomialAlgebra(40)
    forms = DifferentialForms(algebra)
    for d in range(0, 41, 2):
        for n in range(forms.max_form_degree() + 2):
            want = bytearray(forms.dim(n, d))
            for wedge, (off, deg) in forms._layout(n, d)[0].items():
                smallest = smallest_indices(algebra, deg)
                flags = [not wedge or wedge[0] > s for s in smallest]
                want[off : off + len(flags)] = bytes(flags)
            assert forms._up_marks(n, d) == want, (n, d)


def test_unit_minor_is_the_partner_of_each_down_form(forms):
    # the one up-row entry of each down column of p_n is its matched form
    # (e_{min S} m) de_{S - min S}, with sign +1
    for d in range(2, 25, 2):
        for n in range(1, forms.max_form_degree() + 1):
            basis = layout_basis(forms, n, d)
            below = _oracle_index(forms.algebra, n - 1, d)
            up_in, up_out = forms._up_marks(n - 1, d), forms._up_marks(n, d)
            for c, col in enumerate(p_matrix(forms, n, d).packed):
                if up_out[c]:
                    continue
                m, wedge = basis[c]
                partner = (m * Monomial.generator(wedge[0]), wedge[1:])
                hits = [(r, x) for r, x in zip(col[::2], col[1::2]) if up_in[r]]
                assert hits == [(below[partner], 1)], (n, d, c)


# -- streaming: the operators live only inside verify_exactness(d) -------------


def _reachable(obj):
    """obj and everything held in the dicts, lists and tuples below it."""
    stack = [obj]
    while stack:
        x = stack.pop()
        yield x
        if isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)


def _is_operator(x):
    """Whether ``x`` holds an operator: a matrix, or a list or tuple of
    lists or tuples, as the slot lists of p and the packed columns of d
    are (no layout is: its blocks are a dict)."""
    return isinstance(x, SparseMatrix) or (
        isinstance(x, (list, tuple)) and bool(x) and all(isinstance(c, (list, tuple)) for c in x)
    )


def test_no_operator_outlives_its_degree():
    forms = DifferentialForms(PolynomialAlgebra(24))
    for d in range(1, 25):
        assert forms.verify_exactness(d).all_exact
        assert forms.verify_cartan(d).all_exact
    for operator in (forms._contraction(2, 24), forms.exterior_derivative(1, 24)):
        assert any(map(_is_operator, _reachable(operator)))
    held = [
        name for name, value in vars(forms).items() if any(map(_is_operator, _reachable(value)))
    ]
    assert held == []


def _count_builds(monkeypatch, built):
    for name in ("exterior_derivative", "_contraction", "euler_weights"):

        def counted(self, n, d, real=getattr(DifferentialForms, name), name=name):
            built.append((name, n, d))
            return real(self, n, d)

        monkeypatch.setattr(DifferentialForms, name, counted)


def test_each_degree_builds_each_operator_once(monkeypatch):
    built = []
    _count_builds(monkeypatch, built)
    top = DifferentialForms(PolynomialAlgebra(24)).max_form_degree()
    for d in range(1, 25):
        # the exactness certificate: p_0 .. p_{top+1} slot-major, no d and
        # no weights
        forms = DifferentialForms(PolynomialAlgebra(24))
        built.clear()
        forms.verify_exactness(d)
        assert sorted(built) == [("_contraction", n, d) for n in range(top + 2)], d
        built.clear()
        forms.verify_exactness(d)
        assert built == [], d
        # with the Cartan half, d_0 .. d_{top+1}, p_0 .. p_{top+2} and the
        # weights: what the walks at n = 0..top+1 read
        forms.verify_cartan(d)
        assert sorted(built) == sorted(
            [("exterior_derivative", n, d) for n in range(top + 2)]
            + [("euler_weights", n, d) for n in range(top + 2)]
            + [("_contraction", n, d) for n in range(top + 3)]
        ), d
        built.clear()
        forms.verify_cartan(d)
        forms.verify_exactness(d)
        assert built == [], d


def test_cartan_fills_the_exactness_memo(monkeypatch):
    forms = DifferentialForms(PolynomialAlgebra(16))
    reports = [forms.verify_cartan(d) for d in range(1, 17)]
    built = []
    _count_builds(monkeypatch, built)
    assert [forms.verify_exactness(d) for d in range(1, 17)] == reports
    assert built == []


def test_verifying_every_degree_peaks_near_one_degree():
    # with no operator kept across degrees, the traced peak of degrees
    # 1..32 stays close to that of degree 32 alone: 1.26 times it, against
    # 1.9 times when every d_n and p_n is kept
    import gc
    import tracemalloc

    def traced_peak(degrees):
        forms = DifferentialForms(PolynomialAlgebra(32))
        # a full collection empties the interpreter's free lists, and a block
        # reused from a free list is never traced: start both windows from
        # empty lists, or a collection falling inside one window only (its
        # timing depends on how many objects the test session holds) makes
        # every later allocation there visible and the other's not
        gc.collect()
        tracemalloc.start()
        try:
            for d in degrees:
                forms.verify_exactness(d)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one untraced pass first, so that what outlives an instance (module
    # level memos, interned objects) is counted on neither side
    warm = DifferentialForms(PolynomialAlgebra(32))
    for d in range(1, 33):
        warm.verify_exactness(d)
    del warm
    assert traced_peak(range(1, 33)) < 1.5 * traced_peak([32])


def test_top_plus_one_forms_must_vanish(monkeypatch):
    # the derived ranks start from Omega^{top+1}_d = 0
    monkeypatch.setattr(DifferentialForms, "max_form_degree", lambda self: 2)
    forms = DifferentialForms(PolynomialAlgebra(12))
    with pytest.raises(ValueError, match=r"^Omega\^n is not zero at \(n, d\) = \(3, 12\)$"):
        forms.verify_exactness(12)


# -- the down-column walk: half the columns, the full walk's verdicts ------------


def _first_up_column(n, d):
    return DifferentialForms(PolynomialAlgebra(24))._up_marks(n, d).index(1)


UP_FLIPS = {
    # p_n flipped in its first up column: (n, d) -> where the exactness
    # certificate and the Cartan walk name it, as the full walk always did
    (1, 8): ((2, 8), (0, 8)),
    (2, 12): ((2, 12), (1, 12)),
    (2, 16): ((2, 16), (1, 16)),
    (2, 20): ((2, 20), (1, 20)),
    (3, 24): ((3, 24), (2, 24)),
    (1, 24): ((2, 24), (0, 24)),
}


@pytest.mark.parametrize("key", sorted(UP_FLIPS))
def test_a_flipped_sign_in_an_up_column_is_named_as_by_the_full_walk(monkeypatch, key):
    # no down-column walk reads an up column of p_n as p_n, so the failure
    # shows elsewhere first; the full walk run after it names the slot
    _flip_sign(key, col=_first_up_column(*key))(monkeypatch)
    square, cartan = UP_FLIPS[key]
    forms = DifferentialForms(PolynomialAlgebra(24))
    with pytest.raises(ValueError) as exc:
        forms.verify_exactness(key[1])
    assert str(exc.value) == "p^2 is not zero at (n, d) = (%d, %d)" % square
    with pytest.raises(ValueError) as exc:
        forms.verify_cartan(key[1])
    assert str(exc.value) == "d p + p d is not the weight diagonal at (n, d) = (%d, %d)" % cartan
    assert key[1] not in forms._exactness


def test_a_p_entry_moved_onto_another_weight_fails_cartan(monkeypatch):
    # the entry of the first up column of p_2 at degree 12 moves to a row
    # of Omega^1 whose Euler weight differs from its own
    key = (2, 12)
    col = _first_up_column(*key)

    def broken(self, n, d, m):
        if (n, d) != key:
            return m
        weights = self.euler_weights(n - 1, d)
        entries = m.entries
        r = next(r for r, c in entries if c == col)
        held = {r for r, c in entries if c == col}
        target = next(s for s in range(m.rows) if s not in held and weights[s] != weights[r])
        entries[target, col] = entries.pop((r, col))
        return SparseMatrix(m.rows, m.cols, entries)

    patch_p(monkeypatch, broken)
    with pytest.raises(ValueError) as exc:
        DifferentialForms(PolynomialAlgebra(12)).verify_cartan(12)
    assert str(exc.value) == "d p + p d is not the weight diagonal at (n, d) = (1, 12)"


def test_the_weight_premise_is_what_settles_the_up_forms(monkeypatch):
    # a wrong weight at an up form is read by no premise of the slot test
    # but (W), that p keeps the Euler weight: the form is reached by p_2 (it
    # is the partner of a down column), so (D) does not read it, and K is
    # carried to it along p only where p commutes with L
    up = _first_up_column(1, 8)
    real = DifferentialForms.euler_weights

    def broken(self, n, d):
        weights = real(self, n, d)
        if (n, d) == (1, 8):
            weights[up] += 1
        return weights

    monkeypatch.setattr(DifferentialForms, "euler_weights", broken)
    message = "d p + p d is not the weight diagonal at (n, d) = (1, 8)"
    with pytest.raises(ValueError) as exc:
        DifferentialForms(PolynomialAlgebra(8)).verify_cartan(8)
    assert str(exc.value) == message
    monkeypatch.setattr(DifferentialForms, "_keeps_weight", staticmethod(lambda *args: True))
    forms = DifferentialForms(PolynomialAlgebra(8))
    assert forms._walk_degree(8, True, down_only=True).all_exact
    with pytest.raises(ValueError) as exc:
        forms._walk_degree(8, True, down_only=False)
    assert str(exc.value) == message


def test_a_failed_down_walk_that_the_full_walk_passes_is_an_error(monkeypatch):
    # the first call of a first-pass test that reads a column answers
    # False; every later one answers as the test does.  p^2 on the down
    # columns is read by verify_exactness, the Cartan slot test (which
    # certifies p^2 on every column too) by verify_cartan, and the full
    # walk reads neither
    failed = []
    real_square, real_slots = DifferentialForms._square_zero, DifferentialForms._cartan_slots

    def square(walked_p, p_down):
        if walked_p[1] and not failed:
            failed.append(True)
            return False
        return real_square(walked_p, p_down)

    def slots(self, n, d, d_out, *rest):
        if d_out[0][1] and not failed:
            failed.append(True)
            return False
        return real_slots(self, n, d, d_out, *rest)

    for reader, broken, check in (
        ("_square_zero", staticmethod(square), "verify_exactness"),
        ("_cartan_slots", slots, "verify_cartan"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(DifferentialForms, reader, broken)
            failed.clear()
            forms = DifferentialForms(PolynomialAlgebra(8))
            with pytest.raises(
                ValueError, match=r"^the down-column and full walks disagree at d = 8$"
            ):
                getattr(forms, check)(8)
            assert failed and 8 not in forms._exactness


@pytest.mark.parametrize("check", ["verify_exactness", "verify_cartan"])
def test_the_walk_reads_the_down_columns_only(monkeypatch, check):
    # per degree, the exactness half reads sum_n u_n columns of p, half of
    # sum_n dim Omega^n_d: the unit minor reads the columns of p_n at the
    # down forms, and in verify_exactness p^2 reads the same ones.  In
    # verify_cartan the slot test reads d_n and p_{n+1} whole, once per n,
    # in place of the down-only p^2 (it certifies p^2 on every column), and
    # nothing walks a column
    real_minor, real_square = DifferentialForms._unit_minor, DifferentialForms._square_zero
    real_slots = DifferentialForms._cartan_slots
    minored, squared, slotted = [], [], []

    def minor(down_p, up_in):
        minored.append(list(forms_module._columns(down_p)))
        return real_minor(down_p, up_in)

    def square(walked_p, p_down):
        squared.append(list(forms_module._columns(walked_p)))
        return real_square(walked_p, p_down)

    def slots(self, n, d, d_out, d_down, *weights):
        slotted.append((n, d_matrix(self, n, d) == derivative_matrix(d_out), d_down))
        return real_slots(self, n, d, d_out, d_down, *weights)

    def walk(*operators):
        raise AssertionError("no column is walked when the first pass passes")

    monkeypatch.setattr(DifferentialForms, "_unit_minor", staticmethod(minor))
    monkeypatch.setattr(DifferentialForms, "_square_zero", staticmethod(square))
    monkeypatch.setattr(DifferentialForms, "_cartan_slots", slots)
    monkeypatch.setattr(DifferentialForms, "_homotopy_walk", staticmethod(walk))
    forms = DifferentialForms(PolynomialAlgebra(24))
    top = forms.max_form_degree()
    for d in range(1, 25):
        minored.clear()
        squared.clear()
        slotted.clear()
        getattr(forms, check)(d)
        downs = [
            [c for c, up in enumerate(forms._up_marks(n, d)) if not up] for n in range(top + 2)
        ]
        p = [p_matrix(forms, n, d).packed for n in range(top + 2)]
        assert minored == [[p[n][c] for c in down] for n, down in enumerate(downs)], d
        read = sum(map(len, minored))
        assert 2 * read == sum(forms.dim(n, d) for n in range(top + 2)), d
        assert read == sum(s.rank_out for s in forms.verify_exactness(d).spots), d
        if check == "verify_exactness":
            assert squared == minored and slotted == [], d
        else:
            # d_n as exterior_derivative builds it, and d_{n-1} the record
            # of the step before, with the p_n it shares
            assert squared == [] and [s[:2] for s in slotted] == [(n, True) for n in range(top + 2)]
            for n in range(1, top + 2):
                assert derivative_matrix(slotted[n][2]) == d_matrix(forms, n - 1, d), (n, d)


def _outcome(certify, *args):
    """What a certificate says: its report, or the message it raises."""
    try:
        return certify(*args).to_dict()
    except ValueError as exc:
        return str(exc)


@given(
    st.sampled_from(["interior_product", "exterior_derivative", "euler_weights"]),
    st.integers(0, 4),
    st.integers(1, 8),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(["negate", "double", "move"]),
    st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_one_corrupt_entry_gets_the_full_walks_verdict(name, n, half, col, entry, how, row):
    # one entry of p or d at (n, d), d <= 16, negated, doubled or moved to
    # a row the column does not hold (an entry of d, on the pattern of p,
    # is set to 0 instead), or one Euler weight raised by 1: both
    # certificates must say what the walk over every column says, a report
    # or the same message
    d = 2 * half
    forms = DifferentialForms(PolynomialAlgebra(16))
    views = {"interior_product": p_matrix, "exterior_derivative": d_matrix}
    m = views[name](forms, n, d) if name in views else forms.euler_weights(n, d)
    if name == "euler_weights":
        assume(m)
        m[col % len(m)] += 1
        corrupt = m
    else:
        filled = [c for c, packed in enumerate(m.packed) if packed]
        assume(filled)
        c = filled[col % len(filled)]
        held = m.packed[c][::2]
        r = held[entry % len(held)]
        entries = m.entries
        if how == "move" and name == "exterior_derivative":
            # the entries of d sit on the pattern of p_{n+1}, so a moved
            # entry has no slot: it is dropped, its value 0, instead
            entries[r, c] = 0
        elif how == "move":
            free = [s for s in range(m.rows) if s not in held]
            assume(free)
            entries[free[row % len(free)], c] = entries.pop((r, c))
        else:
            entries[r, c] *= -1 if how == "negate" else 2
        corrupt = SparseMatrix(m.rows, m.cols, entries)
    real = DifferentialForms.euler_weights

    def broken(self, k, e):
        return corrupt if (k, e) == (n, d) else real(self, k, e)

    with pytest.MonkeyPatch.context() as mp:
        if name == "euler_weights":
            mp.setattr(DifferentialForms, name, broken)
        else:
            patch = patch_p if name == "interior_product" else patch_d
            patch(mp, lambda self, k, e, m: corrupt if (k, e) == (n, d) else m)
        for check, cartan in (("verify_exactness", False), ("verify_cartan", True)):
            got = _outcome(getattr(DifferentialForms(PolynomialAlgebra(16)), check), d)
            oracle = DifferentialForms(PolynomialAlgebra(16))._walk_degree
            assert got == _outcome(oracle, d, cartan, False), check


# -- the slot tests: whole operators at once, the scans as their fallback --------


def _count_scans(monkeypatch):
    """Count the calls of the per-column scans that the slot tests fall
    back to, by name."""
    calls = {"_minor_scan": 0, "_square_scan": 0}
    for name in calls:

        def counted(*args, real=getattr(forms_module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(forms_module, name, counted)
    return calls


def test_no_degree_to_24_falls_back_to_a_scan(monkeypatch):
    # the builders list each p column in slot order, so the slot tests
    # settle every degree; a builder change that breaks the Koszul slot
    # order would still certify, through the scans, at half the speed
    calls = _count_scans(monkeypatch)
    forms, cartan = DifferentialForms(PolynomialAlgebra(24)), DifferentialForms(PolynomialAlgebra(24))
    for d in range(1, 25):
        assert forms.verify_exactness(d).all_exact
        assert cartan.verify_cartan(d).all_exact
    assert calls == {"_minor_scan": 0, "_square_scan": 0}


def _rotate_slots(self, n, d, m):
    # every column lists its entries from slot 1 on, then slot 0: the same
    # matrix, so p^2 = 0 still, in another slot order
    return _matrix(m.rows, m.cols, tuple(col[2:] + col[:2] for col in m.packed))


def test_a_p_in_another_slot_order_certifies_through_the_scans(monkeypatch):
    # verify_exactness certifies it through the scans, with the same
    # reports.  d is built on the slots of p_{n+1} in the Koszul order, slot
    # t holding (-1)^t (a + 1) with a the exponent of the t-th index of the
    # wedge, so on these slots it is not the exterior derivative: the first
    # pass fails, and the full walk names the first (n, d) where d p + p d
    # is then not the weight diagonal
    reports = [DifferentialForms(PolynomialAlgebra(16)).verify_exactness(d) for d in range(1, 17)]
    patch_p(monkeypatch, _rotate_slots)
    calls = _count_scans(monkeypatch)
    forms = DifferentialForms(PolynomialAlgebra(16))
    assert [forms.verify_exactness(d) for d in range(1, 17)] == reports
    assert calls["_minor_scan"] > 0 and calls["_square_scan"] > 0
    forms = DifferentialForms(PolynomialAlgebra(16))
    assert [forms.verify_cartan(d) for d in range(1, 6)] == reports[:5]
    with pytest.raises(ValueError) as exc:
        forms.verify_cartan(6)
    assert str(exc.value) == "d p + p d is not the weight diagonal at (n, d) = (1, 6)"


def test_one_flipped_value_inside_a_pair_fails_p_squared(monkeypatch):
    # the value of slot 1 of the first down column of p_3 at degree 20
    # negated: its pairs with slot 0 and slot 2 no longer cancel
    key = (3, 20)
    col = DifferentialForms(PolynomialAlgebra(20))._up_marks(*key).index(0)

    def broken(self, n, d, m):
        if (n, d) != key:
            return m
        packed = list(m.packed)
        packed[col] = packed[col][:3] + (-packed[col][3],) + packed[col][4:]
        return _matrix(m.rows, m.cols, tuple(packed))

    patch_p(monkeypatch, broken)
    forms = DifferentialForms(PolynomialAlgebra(20))
    p3, p2 = forms._contraction(3, 20), forms._contraction(2, 20)
    assert not forms_module._square_slots(_column_of(p3, col), p2)
    assert not forms._square_zero(p3, p2)
    with pytest.raises(ValueError) as exc:
        forms.verify_exactness(20)
    assert str(exc.value) == "p^2 is not zero at (n, d) = (3, 20)"


def test_a_moved_row_inside_a_pair_fails_the_slot_test():
    # the column of p_2 that slot 0 of a down column of p_3 reaches, its
    # first entry moved to a row it does not hold with its value kept: the
    # Koszul signs still hold, and only the rows of the pairs tell
    forms = DifferentialForms(PolynomialAlgebra(20))
    p3, p2 = forms._contraction(3, 20), forms._contraction(2, 20)
    col = _column_of(p3, forms._up_marks(3, 20).index(0))
    reached = col[2][0][0]
    rows, cols, slot_rows, slot_values = p2
    free = next(s for s in range(forms.dim(1, 20)) if s not in [r[reached] for r in slot_rows])
    moved = [list(r) for r in slot_rows]
    moved[0][reached] = free
    below = (rows, cols, moved, slot_values)
    assert forms_module._square_slots(col, p2)
    assert not forms_module._square_slots(col, below)
    assert not forms_module._square_scan(forms_module._columns(col), forms_module._columns(below))


def test_a_p_down_of_another_width_fails_the_slot_test():
    # the pairs cover every term only when p_{n-1} has n - 1 slots: against
    # a p_0 given one slot, into row 0 with value 1, p_1 meets no pair, and
    # p_0 p_1 is not zero
    forms = DifferentialForms(PolynomialAlgebra(8))
    p1 = forms._contraction(1, 8)
    cols = forms.dim(0, 8)
    widened = (1, cols, [[0] * cols], [[1] * cols])
    assert forms_module._square_slots(p1, forms._contraction(0, 8))
    assert not forms_module._square_slots(p1, widened)
    assert not DifferentialForms._square_zero(p1, widened)


def _column_of(p, col):
    """Column ``col`` of the slot record ``p``, alone, slot-major."""
    keep = bytearray(p[1])
    keep[col] = 1
    return forms_module._compressed(p, keep)


def _mutate(p, column, entry, how, value):
    """The slot record ``p`` with one change to the column at ``column %
    cols``: its entry in slot ``entry % n`` negated, doubled, set to 0 or
    moved to row ``value % rows``, or two of its slots swapped."""
    rows, cols, slot_rows, slot_values = p
    slot_rows, slot_values = [list(r) for r in slot_rows], [list(v) for v in slot_values]
    n = len(slot_rows)
    if cols and n:
        c, k = column % cols, entry % n
        if how == "negate":
            slot_values[k][c] = -slot_values[k][c]
        elif how == "double":
            slot_values[k][c] *= 2
        elif how == "zero":
            slot_values[k][c] = 0
        elif how == "row" and rows:
            slot_rows[k][c] = value % rows
        elif how == "swap" and n >= 2:
            j = (entry + 1) % n
            for listed in (slot_rows, slot_values):
                listed[k][c], listed[j][c] = listed[j][c], listed[k][c]
    return rows, cols, slot_rows, slot_values


KINDS = ["none", "negate", "double", "zero", "row", "swap"]


@given(
    st.integers(1, 4),
    st.integers(1, 8),
    st.sampled_from(["out", "down"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(KINDS),
    st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_each_slot_test_agrees_with_its_scan_on_p(n, half, where, column, entry, how, value):
    # the down columns of p_n and the columns of p_{n-1} at degree <= 16,
    # slot-major, one of the two changed: a slot test that certifies is
    # never wrong, and its function's verdict is the scan's
    forms = DifferentialForms(PolynomialAlgebra(16))
    d = 2 * half
    p_out, below = forms._contraction(n, d), forms._contraction(n - 1, d)
    up_out, up_in = forms._up_marks(n, d), forms._up_marks(n - 1, d)
    cols = forms_module._compressed(p_out, up_out.translate(forms_module._FLIP))
    assume(cols[1])
    if where == "out":
        cols = _mutate(cols, column, entry, how, value)
    else:
        below = _mutate(below, column, entry, how, value)
    packed = forms_module._columns(cols)
    square = forms_module._square_scan(packed, forms_module._columns(below))
    if forms_module._square_slots(cols, below):
        assert square
    assert DifferentialForms._square_zero(cols, below) == square
    minor = forms_module._minor_scan(packed, up_in)
    if forms_module._minor_slots(cols, up_in):
        assert minor
    assert DifferentialForms._unit_minor(cols, up_in) == minor
    if how == "none":
        # unchanged operators certify on the slot tests alone
        assert forms_module._square_slots(cols, below) and forms_module._minor_slots(cols, up_in)


_values = st.sampled_from([1, -1, 2, 0])


@given(st.integers(0, 3), st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_each_slot_test_agrees_with_its_scan_on_random_columns(n, size, data):
    # random slot lists of n slots over 6 rows, each column's rows
    # distinct, those of the columns its rows reach with n - 1 slots (or
    # one more), and random up marks: the slot tests may only say what the
    # scans say
    def column(width):
        rows = data.draw(st.lists(st.integers(0, 5), min_size=width, max_size=width, unique=True))
        return tuple(x for r in rows for x in (r, data.draw(_values)))

    width = max(n - 1, 0) + data.draw(st.integers(0, 1))
    chunk = [column(n) for _ in range(size)]
    below = tuple(column(width) for _ in range(6))
    cols, p_down = slots_of(6, chunk, n), slots_of(6, below, width)
    up_in = bytearray(data.draw(st.lists(st.integers(0, 1), min_size=6, max_size=6)))
    square = forms_module._square_scan(chunk, below)
    assert not forms_module._square_slots(cols, p_down) or square
    assert DifferentialForms._square_zero(cols, p_down) == square
    minor = forms_module._minor_scan(chunk, up_in)
    assert not forms_module._minor_slots(cols, up_in) or minor
    assert DifferentialForms._unit_minor(cols, up_in) == minor


def test_square_zero_settles_all_its_columns_at_once(monkeypatch):
    # every column of p_3 goes to one slot test, and a failure in the last
    # one is still found
    forms = DifferentialForms(PolynomialAlgebra(24))
    p3, p2 = forms._contraction(3, 24), forms._contraction(2, 24)
    seen = []
    real = forms_module._square_slots
    monkeypatch.setattr(
        forms_module, "_square_slots", lambda p, below: seen.append(p[1]) or real(p, below)
    )
    assert forms._square_zero(p3, p2)
    assert seen == [p3[1]] and p3[1] > 1
    rows, cols, slot_rows, slot_values = p3
    doubled = [list(v) for v in slot_values]
    doubled[0][-1] *= 2
    assert not forms._square_zero((rows, cols, slot_rows, doubled), p2)


# -- the Cartan slot test: d on the pattern of p, premises over whole lists ------


def _degree_lists(forms, d):
    """The lists the Cartan slot test reads at degree d, as the first pass
    builds them: p_0, the records of d_0 .. d_{top+1} (each holding the
    p_{n+1} whose rows are its columns) and the weights of Omega^0 ..
    Omega^{top+1}."""
    top = forms.max_form_degree()
    derivatives = [forms.exterior_derivative(n, d) for n in range(top + 2)]
    weights = [forms.euler_weights(n, d) for n in range(top + 2)]
    return forms._contraction(0, d), derivatives, weights


def _slot_test_passes(forms, d, p0, derivatives, weights):
    """Whether `_cartan_slots` passes at every n of degree d."""
    return all(
        forms._cartan_slots(
            n,
            d,
            derivatives[n],
            derivatives[n - 1] if n else (p0, []),
            weights[n - 1] if n else [],
            weights[n],
        )
        for n in range(len(derivatives))
    )


def _dense_k(p0, derivatives, weights):
    """K_n = p_{n+1} d_n + d_{n-1} p_n - L_n for every n, as dense int
    matrices made entry by entry from the lists, with no code of the
    package: p_n's value of slot t at column c in row slot_rows[t][c], d's
    entry (-1)^t (a + 1) of row v in the column of slot t."""

    def dense(rows, cols, triples):
        out = [[0] * cols for _ in range(rows)]
        for r, c, x in triples:
            out[r][c] += x
        return out

    def product(a, b, cols):
        return [[sum(x * b[k][c] for k, x in enumerate(row)) for c in range(cols)] for row in a]

    p_mats = [
        dense(rows, cols, [
            (r, c, x)
            for slot_rows, values in zip(slots, slot_values)
            for c, (r, x) in enumerate(zip(slot_rows, values))
        ])
        for rows, cols, slots, slot_values in [p0] + [p for p, _ in derivatives]
    ]
    d_mats = [
        dense(cols, rows, [
            (v, u, (-1) ** t * (a + 1))
            for t, (reached, found) in enumerate(zip(slots, exps))
            for v, (u, a) in enumerate(zip(reached, found))
        ])
        for (rows, cols, slots, _), exps in derivatives
    ]
    ks = []
    for n, w in enumerate(weights):
        k = product(p_mats[n + 1], d_mats[n], len(w))
        if n:
            below = product(d_mats[n - 1], p_mats[n], len(w))
            k = [[x + y for x, y in zip(r, s)] for r, s in zip(k, below)]
        ks.append([[x - (w[i] if i == j else 0) for j, x in enumerate(r)] for i, r in enumerate(k)])
    return ks


def test_every_single_corruption_of_the_lists_fails_the_slot_test_at_bound_12():
    # each entry of each list the slot test reads, changed once, where the
    # lists of a degree are shared as the first pass shares them: a value of
    # d_n (read at n and n + 1) plus or minus 1, negated or set to 0, and a
    # row of p_{n+1} (read at n and n + 1, and d_n's column there) moved to
    # every other row.  Passing at every n must mean K = 0 on the lists; none
    # passes
    forms = DifferentialForms(PolynomialAlgebra(12))
    tried = 0
    for d in range(2, 13, 2):
        p0, derivatives, weights = _degree_lists(forms, d)
        assert _slot_test_passes(forms, d, p0, derivatives, weights), d
        assert all(not any(map(any, k)) for k in _dense_k(p0, derivatives, weights)), d

        def refused():
            if _slot_test_passes(forms, d, p0, derivatives, weights):
                assert all(not any(map(any, k)) for k in _dense_k(p0, derivatives, weights))
                return False
            return True

        for n, (p_up, exps) in enumerate(derivatives):
            for t, listed in enumerate(exps):
                sign = -1 if t % 2 else 1
                for v, a in enumerate(listed):
                    value = sign * (a + 1)
                    for wrong in (value + 1, value - 1, -value, 0):
                        changed = list(exps)
                        changed[t] = listed[:v] + (sign * wrong - 1,) + listed[v + 1 :]
                        derivatives[n] = (p_up, changed)
                        assert refused(), ("d", n, d, t, v, wrong)
                        tried += 1
                    derivatives[n] = (p_up, exps)
            for t, rows in enumerate(p_up[2]):
                for c, r in enumerate(rows):
                    for wrong in range(p_up[0]):
                        if wrong != r:
                            rows[c] = wrong
                            assert refused(), ("p", n + 1, d, t, c, wrong)
                            tried += 1
                    rows[c] = r
    assert tried == 1116


def test_a_passing_run_at_40_walks_no_column_and_builds_each_p_once(monkeypatch):
    # the slot test passes at every (n, d) of bound 40 with no fallback: no
    # packed column of d is made, no column walked, no scan made, and each
    # p_n is built once per degree (inside exterior_derivative from n = 1)
    def forbidden(*args):
        raise AssertionError("the first pass fell back")

    for name in ("_transposed", "_minor_scan", "_square_scan"):
        monkeypatch.setattr(forms_module, name, forbidden)
    monkeypatch.setattr(DifferentialForms, "_homotopy_walk", staticmethod(forbidden))
    built, verdicts = Counter(), []
    real_p, real_slots = DifferentialForms._contraction, DifferentialForms._cartan_slots

    def counted(self, n, d):
        built[n, d] += 1
        return real_p(self, n, d)

    def slots(self, *args):
        verdicts.append(real_slots(self, *args))
        return verdicts[-1]

    monkeypatch.setattr(DifferentialForms, "_contraction", counted)
    monkeypatch.setattr(DifferentialForms, "_cartan_slots", slots)
    assert run_verification(40, check_ids=["tor-dimensions", "resolution-exactness"]).passed
    top = DifferentialForms(PolynomialAlgebra(40)).max_form_degree()
    assert built == Counter((n, d) for d in range(1, 41) for n in range(top + 3))
    assert len(verdicts) == 40 * (top + 2) and all(verdicts)


def test_the_block_and_count_premises_are_read(monkeypatch):
    # a single wrong entry breaks several premises at once (the test above);
    # these break one.  (I): a run of p_{n+1} that falls inside its block, or
    # leaves the block of T - T_s; (C): the count of Omega^{n+2} one more
    forms = DifferentialForms(PolynomialAlgebra(12))
    n, d = 1, 12
    p0, derivatives, weights = _degree_lists(forms, d)
    args = (n, d, derivatives[n], derivatives[n - 1], weights[n - 1], weights[n])
    assert forms._cartan_slots(*args)
    rows_up = derivatives[n][0][2]
    assert forms._runs_in_blocks(n, d, rows_up)
    blocks = forms._layout(n + 1, d)[0]
    size = {w: forms.algebra.hilbert_function(deg) for w, (_, deg) in blocks.items()}
    off = next(off for w, (off, _) in blocks.items() if size[w] > 1)
    falling = [list(rows) for rows in rows_up]
    falling[0][off], falling[0][off + 1] = falling[0][off + 1], falling[0][off]
    assert not forms._runs_in_blocks(n, d, falling)
    single = next(off for w, (off, _) in blocks.items() if size[w] == 1)
    tgt = forms._layout(n, d)[0]
    wedge = next(w for w, (off, _) in blocks.items() if off == single)
    start, deg = tgt[wedge[1:]]
    assert start > 0
    for wrong in (start - 1, start + forms.algebra.hilbert_function(deg)):  # next to its block
        leaving = [list(rows) for rows in rows_up]
        leaving[0][single] = wrong
        assert not forms._runs_in_blocks(n, d, leaving), wrong
    with monkeypatch.context() as patch:
        patch.setattr(DifferentialForms, "_runs_in_blocks", lambda *args: False)
        assert not forms._cartan_slots(*args)
    real = DifferentialForms.dim
    monkeypatch.setattr(
        DifferentialForms, "dim", lambda self, k, e: real(self, k, e) + ((k, e) == (n + 2, d))
    )
    assert not forms._cartan_slots(*args)


def test_a_p_row_out_of_range_is_a_named_cartan_failure(monkeypatch):
    # a row of p_2 one past the rows of Omega^1: the slot test refuses it
    # (its run leaves its block), and the full walk, whose packed columns
    # of d have no column for it, still meets it as the row of p_2
    real = DifferentialForms._contraction

    def broken(self, n, d):
        p = real(self, n, d)
        if (n, d) == (2, 12):
            p[2][0][0] = p[0]
        return p

    monkeypatch.setattr(DifferentialForms, "_contraction", broken)
    with pytest.raises(ValueError) as exc:
        DifferentialForms(PolynomialAlgebra(12)).verify_cartan(12)
    assert str(exc.value) == "d p + p d is not the weight diagonal at (n, d) = (1, 12)"
