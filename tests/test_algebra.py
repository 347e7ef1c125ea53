"""Graded algebra: bases, Hilbert function, exact ring arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmcoh.algebra import (
    AlgebraElement,
    DegreeBoundError,
    Monomial,
    PolynomialAlgebra,
    exterior_basis,
    exterior_dim,
)


def partition_counts(n_max):
    """Independent oracle: coefficients of prod 1/(1 - t^i) by convolution."""
    coeffs = [1] + [0] * n_max
    for i in range(1, n_max + 1):
        for n in range(i, n_max + 1):
            coeffs[n] += coeffs[n - i]
    return coeffs


def test_monomial_basis_degree_4_exact_order():
    A = PolynomialAlgebra(24)
    assert [str(m) for m in A.monomial_basis(4)] == ["e1^2", "e2"]


def test_monomial_basis_degree_8_contents():
    A = PolynomialAlgebra(24)
    basis = A.monomial_basis(8)
    assert len(basis) == 5
    assert {str(m) for m in basis} == {"e1^4", "e1^2*e2", "e2^2", "e1*e3", "e4"}


def test_hilbert_frozen_values():
    A = PolynomialAlgebra(24)
    assert A.hilbert_function(6) == 3
    assert A.hilbert_function(10) == 7
    assert A.hilbert_function(0) == 1
    assert A.hilbert_function(5) == 0


def test_hilbert_matches_partition_generating_function():
    A = PolynomialAlgebra(24)
    p = partition_counts(12)
    for d in range(0, 25):
        expected = p[d // 2] if d % 2 == 0 else 0
        assert A.hilbert_function(d) == expected


def test_basis_is_degree_homogeneous_and_duplicate_free():
    A = PolynomialAlgebra(24)
    for d in range(0, 25, 2):
        basis = A.monomial_basis(d)
        assert len(set(basis)) == len(basis)
        assert all(m.degree == d for m in basis)


def test_degree_bound_is_enforced():
    A = PolynomialAlgebra(8)
    A.monomial_basis(8)
    with pytest.raises(DegreeBoundError):
        A.monomial_basis(10)
    with pytest.raises(DegreeBoundError):
        A.hilbert_function(26)
    with pytest.raises(ValueError):
        PolynomialAlgebra(7)


def test_as_vector_frozen_example():
    A = PolynomialAlgebra(24)
    e1, e2 = AlgebraElement.generator(1), AlgebraElement.generator(2)
    a = 3 * (e1 * e1) - e2
    v = A.as_vector(a, 4)
    assert v.to_list() == [Fraction(3), Fraction(-1)]
    assert A.from_vector(v, 4) == a


def test_as_vector_rejects_wrong_degree():
    A = PolynomialAlgebra(24)
    with pytest.raises(ValueError):
        A.as_vector(AlgebraElement.generator(1), 4)


def test_multiplication_is_exact_beyond_bound():
    # ring arithmetic never truncates: only enumeration is bounded
    A = PolynomialAlgebra(8)
    e4 = AlgebraElement.generator(4)
    prod = e4 * e4
    assert prod.degree() == 16
    assert prod.coefficient(Monomial.from_exponents({4: 2})) == 1


def test_exterior_basis_examples():
    assert exterior_basis(2, 10) == ((1, 4), (2, 3))
    assert exterior_basis(1, 6) == ((3,),)
    assert exterior_basis(0, 0) == ((),)
    assert exterior_basis(0, 2) == ()
    assert exterior_dim(2, 6) == 1  # e1 ^ e2
    assert exterior_dim(3, 12) == 1  # e1 ^ e2 ^ e3
    assert exterior_dim(4, 24) == 2  # 1236 and 1245


def test_exterior_dims_match_independent_enumeration():
    from itertools import combinations

    for n in range(0, 5):
        for d in range(0, 25, 2):
            brute = sum(
                1
                for combo in combinations(range(1, d // 2 + 1), n)
                if 2 * sum(combo) == d
            )
            if n == 0:
                brute = 1 if d == 0 else 0
            assert exterior_dim(n, d) == brute, (n, d)


# -- randomized ring laws ------------------------------------------------------

coefficients = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=3)
)


@st.composite
def elements(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = {
            i: draw(st.integers(1, 2))
            for i in draw(st.sets(st.integers(1, 4), max_size=2))
        }
        terms[Monomial.from_exponents(exps)] = draw(coefficients)
    return AlgebraElement(terms)


@given(elements(), elements())
@settings(max_examples=100, deadline=None)
def test_multiply_commutative(a, b):
    assert a * b == b * a


@given(elements(), elements(), elements())
@settings(max_examples=60, deadline=None)
def test_multiply_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(elements())
@settings(max_examples=50, deadline=None)
def test_one_is_unital(a):
    assert AlgebraElement.one() * a == a


@given(st.integers(0, 12).map(lambda k: 2 * k))
@settings(max_examples=20, deadline=None)
def test_products_of_basis_elements_stay_in_basis(d):
    A = PolynomialAlgebra(24)
    basis = A.monomial_basis(d)
    for m in basis[:3]:
        prod = m * Monomial.generator(1)
        assert prod.degree == d + 2


def test_contract_edge_cases():
    A = PolynomialAlgebra(24)
    assert A.monomial_basis(5) == ()  # odd degrees are empty, not an error
    assert [str(m) for m in A.monomial_basis(0)] == ["1"]
    assert A.as_vector(AlgebraElement.zero(), 4).to_list() == [0, 0]
    e1, e2 = AlgebraElement.generator(1), AlgebraElement.generator(2)
    assert str((e1 + e2) * e1) == "e1^2 + e1*e2"
    assert A.as_vector(e2, 4).to_list() == [Fraction(0), Fraction(1)]


# -- multiplication tables --------------------------------------------------------


def test_multiplication_table_matches_monomial_product():
    # entry k is the position of m_k * e_i, for every basis monomial up to 24
    A = PolynomialAlgebra(24)
    for d in range(0, 25):
        for i in A.generator_indices():
            if d + 2 * i > 24:
                break
            target = A.monomial_basis(d + 2 * i)
            table = A.multiplication_table(i, d)
            assert len(table) == A.hilbert_function(d)
            products = [m * Monomial.generator(i) for m in A.monomial_basis(d)]
            assert [target[k] for k in table] == products, (i, d)
            assert A.multiplication_table(i, d) is table  # cached


def test_multiplication_table_respects_the_bound():
    A = PolynomialAlgebra(8)
    assert A.multiplication_table(1, 6) == (0, 1, 2)
    with pytest.raises(DegreeBoundError):
        A.multiplication_table(2, 6)
