"""Exact linear algebra: frozen examples and randomized invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmcoh.linalg import (
    SparseMatrix,
    _kernel_with_free_columns,
    _row_dicts,
    _rref,
    _scaled,
    column_space_basis,
    kernel_basis,
    rank,
)


def test_rank_of_frozen_example():
    m = SparseMatrix.from_rows([[1, 1], [0, 1], [1, 2]])
    assert rank(m) == 2


def test_kernel_of_single_row():
    m = SparseMatrix.from_rows([[1, 1, 0]])
    basis = kernel_basis(m)
    assert (basis.rows, basis.cols) == (3, 2)
    assert (m @ basis).is_zero()
    # canonical RREF kernel: one column per free column, unit there
    assert basis.to_lists() == [[Fraction(-1), 0], [Fraction(1), 0], [0, Fraction(1)]]


def _picked(m, cols):
    """The matrix of the columns ``cols`` of ``m``."""
    return SparseMatrix.of_columns(m.rows, len(cols), [m.packed[c] for c in cols])


def test_column_space_basis_are_original_columns():
    m = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    basis = column_space_basis(m)
    assert basis.cols == rank(m) == 2
    assert basis == _picked(m, [0, 2])


def test_exactness_no_floats():
    # a case where floating point would drift: Hilbert-like matrix
    n = 6
    m = SparseMatrix(
        n, n, {(i, j): Fraction(1, i + j + 1) for i in range(n) for j in range(n)}
    )
    assert rank(m) == n
    assert kernel_basis(m) == SparseMatrix.zero(n, 0)


def test_empty_and_zero_shapes():
    z = SparseMatrix.zero(0, 3)
    assert rank(z) == 0
    assert kernel_basis(z) == SparseMatrix.identity(3)
    z2 = SparseMatrix.zero(3, 0)
    assert rank(z2) == 0
    assert kernel_basis(z2) == SparseMatrix.zero(0, 0)


def echelon_form(m):
    """``(pivot columns, rows)`` of the reduced row echelon form, reached as
    `kernel_basis` reaches it, by `_rref`.  The rows keep the values
    elimination leaves, ``int`` while integral."""
    return _rref(_row_dicts(m), m.cols)


def _assert_exact(values):
    # an echelon row holds exact nonzero values: an int or a Fraction
    for x in values:
        assert type(x) in (int, Fraction) and x != 0, repr(x)


def test_rref_is_canonical_under_row_shuffle():
    rows = [[2, 4, 1], [1, 2, 0], [0, 0, 3]]
    m1 = SparseMatrix.from_rows(rows)
    m2 = SparseMatrix.from_rows(rows[::-1])
    p1, e1 = echelon_form(m1)
    p2, e2 = echelon_form(m2)
    assert p1 == p2
    assert e1 == e2


def test_matmul_and_vector_ops():
    a = SparseMatrix.from_rows([[1, 2], [3, 4]])
    b = SparseMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_lists() == [[2, 1], [4, 3]]
    v = SparseMatrix.from_rows([[1], [-1]])
    assert (a @ v).to_lists() == [[Fraction(-1)], [Fraction(-1)]]
    assert (v + v).scale(Fraction(1, 2)) == v


# -- randomized invariants ---------------------------------------------------

small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def matrices(draw, max_dim=6):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if draw(st.booleans()):
                entries[(r, c)] = draw(small_fraction)
    return SparseMatrix(rows, cols, entries)


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).cols == m.cols


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_kernel_vectors_annihilate(m):
    basis = kernel_basis(m)
    assert basis.rows == m.cols
    assert (m @ basis).is_zero()


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_column_space_is_independent_and_spans(m):
    basis = column_space_basis(m)
    assert basis.rows == m.rows
    assert rank(basis) == basis.cols == rank(m)


def test_identity_and_zero_trivial_cases():
    eye = SparseMatrix.identity(2)
    assert rank(eye) == 2
    assert kernel_basis(eye) == SparseMatrix.zero(2, 0)
    assert column_space_basis(eye) == eye
    assert rank(SparseMatrix.zero(3, 4)) == 0
    assert column_space_basis(SparseMatrix.zero(3, 4)) == SparseMatrix.zero(3, 0)

    col = SparseMatrix.from_rows([[Fraction(1)], [Fraction(2)]])
    (x,), (y,) = column_space_basis(col).to_lists()
    assert y == 2 * x != 0


# -- differential tests against an independent elimination ---------------------
#
# The oracle below eliminates another way than `_rref`, in all-Fraction
# arithmetic: for every column it scans all remaining rows for the sparsest
# one holding it (ties to the lowest index) and subtracts it from the
# remaining rows only, and a separate back-substitution pass then probes
# every row above each pivot.  It picks other pivot rows, but the reduced row echelon
# form is unique, so the pivots, the reduced rows and the kernel bases
# must agree.


def _oracle_forward(rows, width):
    work = [dict(r) for r in rows if r]
    pivots, echelon = [], []
    for col in range(width):
        best, best_len = -1, None
        for idx, row in enumerate(work):
            if col in row and (best_len is None or len(row) < best_len):
                best, best_len = idx, len(row)
        if best < 0:
            continue
        piv = work.pop(best)
        inv = Fraction(1) / piv[col]
        piv = {c: inv * x for c, x in piv.items()}
        nxt = []
        for row in work:
            f = row.get(col)
            if f:
                _oracle_sub_scaled(row, piv, f)
            if row:
                nxt.append(row)
        work = nxt
        pivots.append(col)
        echelon.append(piv)
        if not work:
            break
    return pivots, echelon


def _oracle_sub_scaled(row, piv, f):
    for c, x in piv.items():
        s = row.get(c, Fraction(0)) - f * x
        if s:
            row[c] = s
        else:
            row.pop(c, None)


def _row_dicts_of(m):
    rows = [dict() for _ in range(m.rows)]
    for (r, c), x in m.entries.items():
        rows[r][c] = x
    return rows


def _oracle_rref(m):
    pivots, echelon = _oracle_forward(_row_dicts_of(m), m.cols)
    for k in range(len(echelon) - 1, -1, -1):
        for j in range(k):
            f = echelon[j].get(pivots[k])
            if f:
                _oracle_sub_scaled(echelon[j], echelon[k], f)
    return pivots, echelon


def _oracle_kernel_basis(m):
    pivots, echelon = _oracle_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    entries = {}
    for j, f in enumerate(free):
        entries[(f, j)] = Fraction(1)
        for k, col in enumerate(pivots):
            if f in echelon[k]:
                entries[(col, j)] = -echelon[k][f]
    return SparseMatrix(m.cols, len(free), entries)


# entries in {0, +-1} leave many rows empty and many pivot candidates tied on
# length, which is where the tie-break shows
unit_entry = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1)])
tied_or_small = st.one_of(unit_entry, small_fraction)


@st.composite
def tie_matrices(draw, max_dim=8, rows=None, cols=None):
    if rows is None:
        rows = draw(st.integers(min_value=0, max_value=max_dim))
    if cols is None:
        cols = draw(st.integers(min_value=0, max_value=max_dim))
    entry = draw(st.sampled_from([unit_entry, tied_or_small]))
    return SparseMatrix(
        rows, cols, {(r, c): draw(entry) for r in range(rows) for c in range(cols)}
    )


@given(tie_matrices())
@settings(max_examples=150, deadline=None)
def test_rank_and_column_space_match_oracle(m):
    pivots, _ = _oracle_forward(_row_dicts_of(m), m.cols)
    assert rank(m) == len(pivots)
    assert column_space_basis(m) == _picked(m, pivots)


@given(tie_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_oracle(m):
    assert echelon_form(m) == _oracle_rref(m)


@given(tie_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_basis_matches_oracle(m):
    assert kernel_basis(m) == _oracle_kernel_basis(m)


# -- products and sums against all-Fraction loops ------------------------------
#
# The kernels carry integral values as ints and convert back to Fraction at
# the interface.  The oracles below are the loops they replaced, in which
# every value is a Fraction throughout.


def _oracle_matmul(a, b):
    by_col = {}
    for (r, c), x in a.entries.items():
        by_col.setdefault(c, []).append((r, x))
    out = {}
    for (k, c), x in b.entries.items():
        for r, y in by_col.get(k, ()):
            s = out.get((r, c), Fraction(0)) + y * x
            if s:
                out[(r, c)] = s
            else:
                out.pop((r, c), None)
    return out


def _oracle_add(a, b):
    out = dict(a.entries)
    for key, x in b.entries.items():
        s = out.get(key, Fraction(0)) + x
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _assert_fractions(values):
    for x in values:
        assert type(x) is Fraction and x != 0, repr(x)


@st.composite
def products(draw, max_dim=6):
    a = draw(tie_matrices(max_dim))
    b = draw(tie_matrices(max_dim, rows=a.cols))
    return a, b


@given(products())
@settings(max_examples=150, deadline=None)
def test_matmul_matches_fraction_oracle(ab):
    a, b = ab
    got = a @ b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got.entries == _oracle_matmul(a, b)
    _assert_fractions(got.entries.values())


@given(tie_matrices(max_dim=6), st.data())
@settings(max_examples=150, deadline=None)
def test_add_and_column_product_match_fraction_oracle(a, data):
    b = data.draw(tie_matrices(rows=a.rows, cols=a.cols))
    total = a + b
    assert total.entries == _oracle_add(a, b)
    _assert_fractions(total.entries.values())
    values = data.draw(st.lists(tied_or_small, min_size=a.cols, max_size=a.cols))
    column = SparseMatrix(a.cols, 1, {(r, 0): x for r, x in enumerate(values)})
    w = a @ column
    assert w.entries == _oracle_matmul(a, column)
    _assert_fractions(w.entries.values())


@given(tie_matrices(max_dim=6))
@settings(max_examples=120, deadline=None)
def test_elimination_results_are_fractions(m):
    _, echelon = echelon_form(m)
    for row in echelon:
        _assert_exact(row.values())
    for basis in (kernel_basis(m), column_space_basis(m)):
        _assert_fractions(basis.entries.values())


def test_pivots_led_by_minus_one_and_two():
    # column 0 pivots on -1 (negated, stays integral), column 1 on 2 (the
    # only division), column 3 on 3 after column 2 turns out free
    m = SparseMatrix.from_rows([[-1, 1, 0, 1], [0, 2, 1, 0], [0, 0, 0, 3]])
    pivots, echelon = echelon_form(m)
    assert pivots == [0, 1, 3]
    assert echelon == [
        {0: Fraction(1), 2: Fraction(1, 2)},
        {1: Fraction(1), 2: Fraction(1, 2)},
        {3: Fraction(1)},
    ]
    assert (pivots, echelon) == _oracle_rref(m)
    for row in echelon:
        _assert_exact(row.values())
    # the -1 pivot leaves its row integral; dividing by 2 and 3 makes Fractions
    assert [list(map(type, row.values())) for row in echelon] == [
        [int, Fraction],
        [Fraction, Fraction],
        [Fraction],
    ]
    basis = kernel_basis(m)
    assert basis.to_lists() == [[Fraction(-1, 2)], [Fraction(-1, 2)], [Fraction(1)], [Fraction(0)]]
    _assert_fractions(basis.entries.values())


def test_kernel_columns_keep_integral_values_as_ints():
    # the pivot 2 makes the echelon hold Fraction(2) and Fraction(1, 2);
    # the read-off keeps the first as the int -2
    m = SparseMatrix.from_rows([[2, 4, 1]])
    columns, free = _kernel_with_free_columns(m)
    assert free == [1, 2]
    assert columns == [(1, 1, 0, -2), (2, 1, 0, Fraction(-1, 2))]
    assert [list(map(type, col[1::2])) for col in columns] == [[int, int], [int, Fraction]]
    # an all-int column passes the column constructor as it is
    assert SparseMatrix.of_columns(3, 1, columns[:1]).packed[0] == columns[0]
    # the kernel basis is the matrix of these columns, as they are
    assert kernel_basis(m).packed == tuple(columns)
    assert kernel_basis(m).to_lists() == [
        [Fraction(-2), Fraction(-1, 2)],
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


@given(tie_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_columns_are_ints_where_integral(m):
    columns, free = _kernel_with_free_columns(m)
    basis = kernel_basis(m)
    assert len(columns) == len(free) == basis.cols
    for col in columns:
        for x in col[1::2]:
            assert type(x) is (int if Fraction(x).denominator == 1 else Fraction), repr(x)
    assert basis.entries == {
        (r, j): Fraction(x) for j, col in enumerate(columns) for r, x in zip(col[0::2], col[1::2])
    }
    _assert_fractions(basis.entries.values())


# -- constructor checks ------------------------------------------------------------


def test_constructors_reject_out_of_range_keys():
    for entries in ({(2, 0): 1}, {(0, 3): Fraction(1, 2)}, {(-1, 0): 1}, {(0, 0): 1, (1, 3): 0}):
        with pytest.raises(IndexError):
            SparseMatrix(2, 3, entries)


def test_constructors_drop_zeros_and_store_fractions():
    values = [0, Fraction(0), 0.0, 2, -64, 65, 10**30, Fraction(-3, 4), 0.25, -1.5]
    expected = {
        3: Fraction(2), 4: Fraction(-64), 5: Fraction(65), 6: Fraction(10**30),
        7: Fraction(-3, 4), 8: Fraction(1, 4), 9: Fraction(-3, 2),
    }
    m = SparseMatrix(1, len(values), {(0, c): x for c, x in enumerate(values)})
    assert m.entries == {(0, c): x for c, x in expected.items()}
    for x in m.entries.values():
        assert type(x) is Fraction
    # keys keep the order they came in
    assert list(m.entries) == [(0, c) for c in expected]


# -- column storage ----------------------------------------------------------------
#
# A matrix is stored as one packed tuple (row, value, row, value, ...) per
# column.  The entry dict stays the oracle: whatever order the entries come
# in, the stored matrix must read back as that dict.

nonzero_fraction = small_fraction.filter(bool)
# odd halves are never integral, so these matrices keep Fraction values
half_or_int = st.one_of(
    st.builds(lambda n: Fraction(2 * n + 1, 2), st.integers(min_value=-4, max_value=3)),
    st.integers(min_value=-3, max_value=3),
)


@st.composite
def shuffled_entries(draw, max_dim=6):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    oracle = {}
    for r in range(rows):
        for c in range(cols):
            if draw(st.booleans()):
                oracle[(r, c)] = draw(nonzero_fraction)
    keys = draw(st.permutations(list(oracle)))
    return rows, cols, oracle, {k: oracle[k] for k in keys}


def _packed_from(cols, entries):
    columns = [[] for _ in range(cols)]
    for (r, c), x in entries.items():
        columns[c] += (r, x)
    return [tuple(col) for col in columns]


@given(shuffled_entries())
@settings(max_examples=150, deadline=None)
def test_storage_reads_back_the_entry_dict_in_any_order(case):
    rows, cols, oracle, shuffled = case
    built = [
        SparseMatrix(rows, cols, oracle),
        SparseMatrix(rows, cols, shuffled),
        SparseMatrix.of_columns(rows, cols, _packed_from(cols, shuffled)),
    ]
    for m in built:
        assert m.entries == oracle
        _assert_fractions(m.entries.values())
        assert m.nnz() == len(oracle)
        assert m.is_zero() == (not oracle)
        assert m == built[0] and hash(m) == hash(built[0])
        dense = m.to_lists()
        assert sum(x != 0 for row in dense for x in row) == len(oracle)
        for (r, c), x in oracle.items():
            assert dense[r][c] == x
    # column-major, each column in the order its entries came in
    assert list(built[1].entries) == sorted(shuffled, key=lambda key: key[1])
    if oracle:
        key = next(iter(oracle))
        changed = dict(oracle)
        changed[key] += 1
        assert SparseMatrix(rows, cols, changed) != built[1]


@st.composite
def half_matrices(draw, rows, cols):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if draw(st.booleans()):
                entries[(r, c)] = draw(half_or_int)
    return SparseMatrix(rows, cols, entries)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_products_and_sums_with_non_integral_values(data):
    n, k, m = (data.draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    a = data.draw(half_matrices(n, k))
    b = data.draw(half_matrices(k, m))
    expected = _oracle_matmul(a, b)
    got = a @ b
    assert got.entries == expected
    _assert_fractions(got.entries.values())
    assert got == SparseMatrix(n, m, expected) and hash(got) == hash(SparseMatrix(n, m, expected))
    c = data.draw(half_matrices(n, k))
    total = a + c
    assert total.entries == _oracle_add(a, c)
    _assert_fractions(total.entries.values())
    assert (total - c) == a
    v = SparseMatrix(k, 1, {(i, 0): Fraction(2 * i + 1, 2) for i in range(k)})
    w = a @ v
    assert w.entries == _oracle_matmul(a, v)
    _assert_fractions(w.entries.values())


def test_column_constructor_checks_like_the_dict_constructor():
    for columns in (
        [(2, 1), (), ()],
        [(), (-1, Fraction(1, 2)), ()],
        [(0, 1, 5, 0), (), ()],
        [(), (), (1.0, 1)],
    ):
        with pytest.raises(IndexError):
            SparseMatrix.of_columns(2, 3, columns)
    with pytest.raises(ValueError):
        SparseMatrix.of_columns(2, 3, [(), ()])
    with pytest.raises(ValueError):
        SparseMatrix.of_columns(2, 1, [(0, 1, 0, 2)])
    with pytest.raises(ValueError):
        SparseMatrix.of_columns(2, 2, [(0,), (1, 5)])
    values = [0, Fraction(0), 0.0, 2, -64, 65, 10**30, Fraction(-3, 4), 0.25, -1.5, Fraction(6, 3), True]
    m = SparseMatrix.of_columns(1, len(values), [(0, x) for x in values])
    assert m == SparseMatrix(1, len(values), {(0, c): x for c, x in enumerate(values)})
    assert m.entries == {
        (0, 3): Fraction(2), (0, 4): Fraction(-64), (0, 5): Fraction(65), (0, 6): Fraction(10**30),
        (0, 7): Fraction(-3, 4), (0, 8): Fraction(1, 4), (0, 9): Fraction(-3, 2),
        (0, 10): Fraction(2), (0, 11): Fraction(1),
    }
    _assert_fractions(m.entries.values())
    # stored values are ints while integral
    stored = [x for col in m.packed for x in col[1::2]]
    assert [type(x) for x in stored] == [int] * 4 + [Fraction] * 3 + [int] * 2


# -- products by composition ---------------------------------------------------
#
# A one-entry column x e_k of the right operand picks column k of the left
# operand, times x.  The packed columns, value types included, must be
# those of scaling the picked column.


def _typed(packed):
    return [tuple((type(v), v) for v in col) for col in packed]


@st.composite
def one_entry_matrices(draw, rows, cols=None, values=None):
    if cols is None:
        cols = draw(st.integers(0, 8))
    if values is None:
        values = st.sampled_from([1, -1, Fraction(1, 2), Fraction(-3, 2), 2])
    return SparseMatrix.of_columns(
        rows, cols, [(draw(st.integers(0, rows - 1)), draw(values)) for _ in range(cols)]
    )


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_composition_matches_scaling_the_picked_column(data):
    inner = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        a = data.draw(one_entry_matrices(data.draw(st.integers(1, 6)), cols=inner))
    else:
        a = data.draw(tie_matrices(rows=data.draw(st.integers(0, 6)), cols=inner))
    value = data.draw(st.sampled_from([None, st.just(1), st.just(-1)]))
    b = data.draw(one_entry_matrices(inner, values=value))
    got = a @ b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    scaled = [_scaled(a.packed[k], x) for k, x in b.packed]
    assert _typed(got.packed) == _typed(scaled)
    assert got.entries == _oracle_matmul(a, b)
