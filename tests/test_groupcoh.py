"""First group cohomology with exact matrix coefficients."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from importlib import resources

from mmmcoh.groupcoh import (
    GroupPresentation,
    MatrixRep,
    _invert,
    coboundary_space,
    cocycle_space,
    evaluate_word,
    h1_certificate,
    h1_dimension,
    load_group_data,
    load_group_file,
)
from mmmcoh.linalg import SparseMatrix, rank


def braid_pair():
    pres = GroupPresentation(
        num_generators=2, relators=((1, 2, 1, -2, -1, -2),)
    )
    rep = MatrixRep.from_integer_matrices(
        pres, [[[1, 1], [0, 1]], [[1, 0], [-1, 1]]]
    )
    return pres, rep


def test_braid_rep_satisfies_relator():
    pres, rep = braid_pair()
    assert evaluate_word(rep, pres.relators[0]) == SparseMatrix.identity(2)


def test_braid_h1_vanishes():
    pres, rep = braid_pair()
    cert = h1_certificate(pres, rep)
    assert (cert.z1_dim, cert.b1_dim, cert.h1_dim) == (2, 2, 0)
    assert h1_dimension(pres, rep) == 0
    assert (cert.z1_basis.rows, cert.z1_basis.cols) == (4, 2)
    assert (cert.b1_basis.rows, cert.b1_basis.cols) == (4, 2)


def test_free_group_trivial_rep_has_full_cocycle_space():
    # no relators: Z^1 = (Q^k)^n; trivial action: B^1 = 0
    pres = GroupPresentation(num_generators=2, relators=())
    rep = MatrixRep.from_integer_matrices(
        pres, [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]
    )
    assert cocycle_space(pres, rep) == SparseMatrix.identity(4)
    assert coboundary_space(pres, rep) == SparseMatrix.zero(4, 0)
    assert h1_dimension(pres, rep) == 4


def test_infinite_cyclic_trivial_rep():
    pres = GroupPresentation(num_generators=1, relators=())
    rep = MatrixRep.from_integer_matrices(pres, [[[1]]])
    assert h1_dimension(pres, rep) == 1


def test_infinite_cyclic_scaling_rep_kills_h1():
    # rho(x) = 2 on Q: (rho(x) - 1) is invertible so B^1 = Z^1 = Q
    pres = GroupPresentation(num_generators=1, relators=())
    rep = MatrixRep(pres, [SparseMatrix.from_rows([[Fraction(2)]])])
    assert cocycle_space(pres, rep).cols == 1
    assert coboundary_space(pres, rep).cols == 1
    assert h1_dimension(pres, rep) == 0


def test_evaluate_word_with_inverses():
    _, rep = braid_pair()
    assert evaluate_word(rep, ()) == SparseMatrix.identity(2)
    # rho(x1) rho(x1)^-1 = 1
    assert evaluate_word(rep, (1, -1)) == SparseMatrix.identity(2)
    m = evaluate_word(rep, (1, 2))
    expected = rep.image(1) @ rep.image(2)
    assert m == expected


def test_relator_validation_rejects_bad_rep():
    pres = GroupPresentation(num_generators=2, relators=((1, 2, -1, -2),))  # abelian
    with pytest.raises(ValueError):
        # the braid matrices do not commute
        MatrixRep.from_integer_matrices(
            pres, [[[1, 1], [0, 1]], [[1, 0], [-1, 1]]]
        )


def test_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation(num_generators=-1, relators=())
    with pytest.raises(ValueError):
        GroupPresentation(num_generators=2, relators=((1, -1),))  # not reduced
    with pytest.raises(ValueError):
        GroupPresentation(num_generators=1, relators=((2,),))  # letter range
    with pytest.raises(ValueError):
        GroupPresentation(num_generators=0, relators=((1,),))  # no generators


def test_trivial_group_has_no_first_cohomology():
    pres = GroupPresentation(num_generators=0, relators=())
    rep = MatrixRep(pres, [], dimension=2)
    assert cocycle_space(pres, rep) == SparseMatrix.zero(0, 0)
    assert coboundary_space(pres, rep) == SparseMatrix.zero(0, 0)
    assert h1_dimension(pres, rep) == 0
    with pytest.raises(ValueError):
        MatrixRep(pres, [])  # dimension must be given explicitly


@pytest.mark.parametrize("dimension", [2.7, "3", True])
def test_matrix_rep_rejects_a_dimension_that_is_not_an_int(dimension):
    # int() would read 2.7 as 2, "3" as 3 and true as 1: another representation
    with pytest.raises(ValueError, match="^dimension must be an integer, got "):
        MatrixRep(GroupPresentation(num_generators=0, relators=()), [], dimension=dimension)


def test_dimension_zero_rep_is_empty():
    pres = GroupPresentation(num_generators=1, relators=())
    rep = MatrixRep(pres, [SparseMatrix(0, 0, {})])
    assert coboundary_space(pres, rep) == SparseMatrix.zero(0, 0)
    assert h1_dimension(pres, rep) == 0


def test_h1_invariant_under_conjugation():
    pres, rep = braid_pair()
    for g_rows in ([[1, 2], [0, 1]], [[0, 1], [1, 0]], [[2, 1], [3, 2]]):
        g = SparseMatrix.from_rows(
            [[Fraction(x) for x in row] for row in g_rows]
        )
        g_inv = _invert(g)
        conjugated = MatrixRep(pres, [g_inv @ m @ g for m in rep.images])
        cert = h1_certificate(pres, conjugated)
        assert (cert.z1_dim, cert.b1_dim, cert.h1_dim) == (2, 2, 0)


def test_rep_validation():
    pres = GroupPresentation(num_generators=2, relators=())
    with pytest.raises(ValueError):
        MatrixRep.from_integer_matrices(pres, [[[1]]])  # wrong count
    with pytest.raises(ValueError):
        MatrixRep.from_integer_matrices(pres, [[[1]], [[1, 0], [0, 1]]])  # sizes
    with pytest.raises(ValueError):
        MatrixRep.from_integer_matrices(pres, [[[0]], [[1]]])  # singular


def test_invert_rejects_a_singular_matrix_with_no_zero_entry():
    # the second pivot of (m | 1) lands in the identity block
    with pytest.raises(ValueError, match="^matrix is singular$"):
        _invert(SparseMatrix.from_rows([[1, 2], [2, 4]]))
    pres = GroupPresentation(num_generators=1, relators=())
    with pytest.raises(ValueError, match="^matrix is singular$"):
        MatrixRep.from_integer_matrices(pres, [[[1, 2], [2, 4]]])


small_fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@given(st.integers(0, 5), st.data())
@settings(max_examples=120, deadline=None)
def test_invert_is_a_left_inverse(n, data):
    m = SparseMatrix(n, n, {(r, c): data.draw(small_fraction) for r in range(n) for c in range(n)})
    assume(rank(m) == n)
    assert _invert(m) @ m == SparseMatrix.identity(n)


def test_load_group_data_roundtrip():
    doc = {
        "generators": 2,
        "relators": [[1, 2, 1, -2, -1, -2]],
        "matrices": [[[1, 1], [0, 1]], [[1, 0], [-1, 1]]],
    }
    pres, rep = load_group_data(doc)
    assert h1_dimension(pres, rep) == 0


def test_load_group_data_parses_fraction_strings():
    doc = {"generators": 1, "relators": [], "matrices": [[["3/2"]]]}
    pres, rep = load_group_data(doc)
    assert rep.image(1).entries == {(0, 0): Fraction(3, 2)}
    assert rep.image(-1).entries == {(0, 0): Fraction(2, 3)}


@pytest.mark.parametrize(
    "doc",
    [
        {"generators": 1.7, "relators": [[1.9, 1.2]], "matrices": [[[1]]]},
        {"generators": 1.0, "relators": [], "matrices": [[[1]]]},
        {"generators": True, "relators": [], "matrices": [[[1]]]},
        {"generators": 2, "relators": [[1, 2.0]], "matrices": [[[1]], [[1]]]},
        {"generators": 1, "relators": [[True]], "matrices": [[[1]]]},
        {"generators": 1, "relators": [], "matrices": [[[True]]]},
        {"generators": 1, "relators": [], "matrices": [[[0.1]]]},
        {"generators": 1, "relators": [], "matrices": [[[2.0]]]},
        {"generators": 1, "relators": [], "matrices": [[[None]]]},
        {"generators": 0, "relators": [], "matrices": [], "dimension": True},
        {"generators": 0, "relators": [], "matrices": [], "dimension": 2.7},
    ],
    ids=[
        "float-count-and-letters", "whole-float-count", "bool-count", "float-letter", "bool-letter",
        "bool-entry", "float-entry", "whole-float-entry", "null-entry", "bool-dimension",
        "float-dimension",
    ],
)
def test_load_group_data_rejects_non_integer_counts_and_letters(doc):
    # int() would read these as another group (1.7 -> 1, true -> 1) and certify it
    with pytest.raises(ValueError, match="must be an integer"):
        load_group_data(doc)


def test_bundled_data_file():
    path = resources.files("mmmcoh") / "data" / "b3.json"
    pres, rep = load_group_file(str(path))
    cert = h1_certificate(pres, rep)
    assert (cert.z1_dim, cert.b1_dim, cert.h1_dim) == (2, 2, 0)


def test_coboundaries_satisfy_cocycle_conditions():
    # exercised inside h1_certificate; do it once directly as well
    pres, rep = braid_pair()
    from mmmcoh.groupcoh import _cocycle_matrix

    z = _cocycle_matrix(pres, rep)
    assert (z @ coboundary_space(pres, rep)).is_zero()
