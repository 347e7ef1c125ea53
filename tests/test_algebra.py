"""Graded algebra: bases, Hilbert function, tables, and the exact ring
arithmetic of the object oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmcoh.algebra import DegreeBoundError, PolynomialAlgebra, exterior_basis, exterior_dim
import algebra_oracle
from algebra_oracle import AlgebraElement, Monomial, TwistedElement, monomials


def partition_counts(n_max):
    """Independent oracle: coefficients of prod 1/(1 - t^i) by convolution."""
    coeffs = [1] + [0] * n_max
    for i in range(1, n_max + 1):
        for n in range(i, n_max + 1):
            coeffs[n] += coeffs[n - i]
    return coeffs


def assert_suffix_counts(counts, smallest, d):
    """B(d/2, s), the monomials of degree d with every index at least s, is
    the suffix of N(d/2, s) = ``counts[s]`` monomials of the canonical
    order, for each s the counts hold: the rule the forms' matching reads.
    ``smallest`` is the smallest index of each monomial, the unit reading
    one past the bound's indices."""
    for s in range(1, len(counts)):
        suffix = [False] * (len(smallest) - counts[s]) + [True] * counts[s]
        assert [x >= s for x in smallest] == suffix, (d, s)


def test_monomial_basis_degree_4_exact_order():
    A = PolynomialAlgebra(24)
    assert algebra_oracle.monomial_basis(A, 4) == (((1, 2),), ((2, 1),))
    assert [str(m) for m in monomials(A, 4)] == ["e1^2", "e2"]
    # the algebra's own data in that order: e1^2, e2
    assert A.total_exponents(4) == (2, 1)
    assert (A.exponents(1, 4), A.exponents(2, 4)) == ((2, 0), (0, 1))


def test_monomial_basis_degree_8_contents():
    A = PolynomialAlgebra(24)
    basis = monomials(A, 8)
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
        basis = monomials(A, d)
        assert len(set(basis)) == len(basis)
        assert all(m.degree == d for m in basis)


def test_degree_bound_is_enforced():
    A = PolynomialAlgebra(8)
    A.total_exponents(8)
    A.exponents(1, 8)
    with pytest.raises(DegreeBoundError):
        A.total_exponents(10)
    with pytest.raises(DegreeBoundError):
        A.exponents(1, 10)
    with pytest.raises(DegreeBoundError):
        algebra_oracle.monomial_basis(A, 10)
    with pytest.raises(DegreeBoundError):
        A.hilbert_function(26)
    with pytest.raises(ValueError):
        PolynomialAlgebra(7)


def test_multiplication_is_exact_beyond_bound():
    # the oracle's ring arithmetic never truncates: only enumeration is bounded
    e4 = AlgebraElement.generator(4)
    prod = e4 * e4
    assert prod.degree() == 16
    assert prod.coefficient(Monomial.from_exponents({4: 2})) == 1


@pytest.mark.parametrize(
    "cls,key,hashable",
    [
        (AlgebraElement, Monomial.generator(1), True),
        (TwistedElement, (1, Monomial.one()), False),
    ],
    ids=["ring", "twisted"],
)
def test_shared_arithmetic_is_exact_and_typed(cls, key, hashable):
    half, three = cls({key: 0.5}), cls({key: 3})
    for x, value in ((half, Fraction(1, 2)), (three, Fraction(3)), (three.scale(0.25), Fraction(3, 4))):
        assert type(x.terms[key]) is Fraction and x.terms[key] == value
    assert cls({key: 0}).terms == {}
    # sums that cancel leave no term
    for zero in (half - half, half + (-half), half + half - three.scale(Fraction(1, 3))):
        assert type(zero) is cls and zero.terms == {} and zero.is_zero()
    # the same terms in another class are another element
    for other in (AlgebraElement, TwistedElement):
        assert (cls({key: 1}) == other({key: 1})) is (other is cls)
    assert AlgebraElement.generator(1) != TwistedElement.generator(1)
    if hashable:
        assert hash(half) == hash(cls({key: Fraction(1, 2)}))
    else:
        with pytest.raises(TypeError):
            hash(half)


_ELEMENTS = {
    "ring": lambda: AlgebraElement.generator(1),
    "twisted": lambda: TwistedElement.generator(1),
}


@pytest.mark.parametrize("left,right", [("ring", "twisted")])
def test_sum_of_two_element_classes_is_a_type_error(left, right):
    x, y = _ELEMENTS[left](), _ELEMENTS[right]()
    for a, b in ((x, y), (y, x)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
    # within one class both operators still work
    assert (x + x).terms == {k: 2 * c for k, c in x.terms.items()}
    assert (y - y).is_zero()


def test_exterior_basis_examples():
    assert exterior_basis(2, 10) == ((1, 4), (2, 3))
    assert exterior_basis(1, 6) == ((3,),)
    assert exterior_basis(0, 0) == ((),)
    assert exterior_basis(0, 2) == ()


def test_exterior_basis_leaves_no_reference_cycle():
    # with the collector off, nothing the enumeration made is left for it
    import gc

    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            assert len(exterior_basis(3, 30)) == 12
        assert gc.collect() == 0
    finally:
        gc.enable()
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
    basis = monomials(A, d)
    for m in basis[:3]:
        prod = m * Monomial.generator(1)
        assert prod.degree == d + 2


def test_contract_edge_cases():
    A = PolynomialAlgebra(24)
    # odd degrees are empty, not an error
    assert A.total_exponents(5) == A.exponents(1, 5) == algebra_oracle.monomial_basis(A, 5) == ()
    assert algebra_oracle.monomial_basis(A, 0) == ((),)
    assert (A.total_exponents(0), A.exponents(1, 0)) == ((0,), (0,))
    assert [str(m) for m in monomials(A, 0)] == ["1"]
    basis = monomials(A, 4)
    assert [AlgebraElement.zero().coefficient(m) for m in basis] == [0, 0]
    e1, e2 = AlgebraElement.generator(1), AlgebraElement.generator(2)
    assert str((e1 + e2) * e1) == "e1^2 + e1*e2"
    assert [e2.coefficient(m) for m in basis] == [Fraction(0), Fraction(1)]


# -- multiplication tables --------------------------------------------------------


def test_multiplication_table_matches_monomial_product():
    # entry k is the position of m_k * e_i, for every basis monomial up to 24
    A = PolynomialAlgebra(24)
    for d in range(0, 25):
        for i in A.generator_indices():
            if d + 2 * i > 24:
                break
            target = monomials(A, d + 2 * i)
            table = A.multiplication_table(i, d)
            assert len(table) == A.hilbert_function(d)
            products = [m * Monomial.generator(i) for m in monomials(A, d)]
            assert [target[k] for k in table] == products, (i, d)
            assert A.multiplication_table(i, d) is table  # cached


def _oracle_partitions(k):
    """Partitions of k as weakly decreasing tuples (largest part first)."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for part in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    yield from rec(k, k)


def _oracle_basis(d):
    # one monomial per partition of d/2, sorted by the canonical key
    if d % 2:
        return ()
    monos = []
    for parts in _oracle_partitions(d // 2):
        exps = {}
        for p in parts:
            exps[p] = exps.get(p, 0) + 1
        monos.append(Monomial.from_exponents(exps))
    return tuple(sorted(monos, key=Monomial.sort_key))


def test_tables_match_the_sorted_partition_oracle():
    A = PolynomialAlgebra(40)
    bases = [_oracle_basis(d) for d in range(41)]
    for d in range(41):
        assert algebra_oracle.monomial_basis(A, d) == tuple(m.pairs for m in bases[d]), d
        assert A.total_exponents(d) == tuple(m.total_exponent for m in bases[d]), d
        smallest = [m.pairs[0][0] if m.pairs else 21 for m in bases[d]]
        if d % 2 == 0:
            assert_suffix_counts(A._counts()[d // 2], smallest, d)
        for i in A.generator_indices():
            if d + 2 * i > 40:
                break
            index = {m: k for k, m in enumerate(bases[d + 2 * i])}
            expected = tuple(index[m * Monomial.generator(i)] for m in bases[d])
            assert A.multiplication_table(i, d) == expected, (i, d)


def test_exterior_basis_is_memoized_per_instance(monkeypatch):
    import mmmcoh.algebra as algebra

    real = algebra.exterior_basis
    calls = []
    monkeypatch.setattr(algebra, "exterior_basis", lambda n, d: calls.append((n, d)) or real(n, d))
    A = PolynomialAlgebra(24)
    assert A.exterior_basis(2, 10) == ((1, 4), (2, 3))
    assert A.exterior_basis(2, 10) is A.exterior_basis(2, 10)
    assert calls == [(2, 10)]
    # a second instance enumerates again: nothing is kept between contexts
    assert PolynomialAlgebra(24).exterior_basis(2, 10) == ((1, 4), (2, 3))
    assert calls == [(2, 10), (2, 10)]


def test_every_instance_builds_its_own_tables():
    first, second = PolynomialAlgebra(36), PolynomialAlgebra(36)

    def tables(A):
        return (
            [A.total_exponents(d) for d in range(0, 37, 2)]
            + [A.exponents(i, d) for d in range(0, 37, 2) for i in (1, 2, d // 2 or 1)]
            + [A.multiplication_table(i, d) for d in range(0, 35, 2) for i in (1, (36 - d) // 2)]
            + [A.exterior_basis(n, d) for n in range(1, 4) for d in range(6, 37, 2)]
        )

    # nothing is built before it is asked for
    assert not any(v for k, v in vars(second).items() if k.endswith("_cache"))
    ours = tables(first)
    theirs = tables(second)
    assert ours == theirs
    # () is one shared object in Python, so only nonempty tables count
    assert not {id(t) for t in ours if t} & {id(t) for t in theirs if t}


def test_multiplication_table_respects_the_bound():
    A = PolynomialAlgebra(8)
    assert A.multiplication_table(1, 6) == (0, 1, 2)
    with pytest.raises(DegreeBoundError):
        A.multiplication_table(2, 6)


# -- tables from counts against the enumeration ---------------------------------


def test_tables_from_counts_match_the_enumeration_up_to_64():
    A, oracle = PolynomialAlgebra(64), PolynomialAlgebra(64)
    for d in range(65):
        assert A.hilbert_function(d) == algebra_oracle.hilbert_function(oracle, d), d
        assert A.total_exponents(d) == algebra_oracle.total_exponents(oracle, d), d
        if d % 2 == 0:
            smallest = algebra_oracle.smallest_indices(oracle, d)
            assert_suffix_counts(A._counts()[d // 2], smallest, d)
        for i in range(1, (64 - d) // 2 + 1):
            expected = algebra_oracle.multiplication_table(oracle, i, d)
            assert A.multiplication_table(i, d) == expected, (i, d)
        # every index inside the bound, those that divide no monomial of
        # degree d included
        for i in range(1, 33):
            assert A.exponents(i, d) == algebra_oracle.exponents(oracle, i, d), (i, d)


def _pentagonal_partition_counts(n_max):
    """p(n) by Euler's pentagonal number recurrence,
    p(n) = sum_{k >= 1} (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2))."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            p[n] += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                p[n] += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
    return p


def test_hilbert_function_up_to_200_is_the_partition_count():
    A = PolynomialAlgebra(200)
    p = _pentagonal_partition_counts(100)
    assert [A.hilbert_function(d) for d in range(201)] == [
        0 if d % 2 else p[d // 2] for d in range(201)
    ]
    assert p[100] == 190569292
    # the counts alone: no exponent table is built
    assert A._total_cache == {} and A._exp_cache == {}


def test_tables_keep_the_bound_and_the_generator_range():
    A = PolynomialAlgebra(8)
    with pytest.raises(DegreeBoundError):
        A.multiplication_table(1, 10)
    with pytest.raises(ValueError, match="generator indices start at 1"):
        A.multiplication_table(0, 4)
    assert A.multiplication_table(1, 5) == ()
    with pytest.raises(ValueError):
        A.hilbert_function(-2)


@pytest.mark.parametrize(
    "argv",
    [
        ["tor"],
        ["exactness"],
        ["hilbert", "Htilde"],
        ["generators"],
    ],
)
def test_the_cold_queries_enumerate_no_monomial_basis(argv, capsys, monkeypatch):
    from mmmcoh.cli import main

    made = []
    real = PolynomialAlgebra.__init__

    def recording(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(PolynomialAlgebra, "__init__", recording)
    assert main([*argv, "--max-degree", "24", "--format", "json"]) == 0
    capsys.readouterr()
    # the exponent tables are read by d and the Euler weights only, which
    # no cold query builds
    assert made and all(A._total_cache == {} and A._exp_cache == {} for A in made)
