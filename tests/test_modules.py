"""Graded modules: free modules, their multiplication tables and the maps
between them, the kernel-module oracle (kernels, minimal generators, direct
sums, matrix actions), and the Koszul rank oracle for Tor."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmcoh.algebra import DegreeBoundError, PolynomialAlgebra, exterior_dim
from mmmcoh.forms import DifferentialForms
from mmmcoh.linalg import SparseMatrix, _row_dicts, _rref, kernel_basis, rank
from mmmcoh.modules import FreeGradedModule, GradedModuleMap, free_module
from algebra_oracle import Monomial, monomials
from koszul_oracle import koszul_differential, koszul_dim, tor_dimension, tor_table
from module_oracle import (
    GradedModule,
    action,
    direct_sum,
    kernel_module,
    map_matrices,
    minimal_generators,
    trivial_module,
)

BOUND = 24


@pytest.fixture(scope="module")
def algebra():
    return PolynomialAlgebra(BOUND)


@pytest.fixture(scope="module")
def rank_one(algebra):
    # the algebra as a module over itself
    return free_module(algebra, [0])


@pytest.fixture(scope="module")
def twisted(algebra):
    # one generator per positive index l, in internal degree 2l
    gens = [2 * l for l in range(1, BOUND // 2 + 1)]
    return free_module(algebra, gens, coh_offset=-1)


def test_free_module_dims_match_forms(algebra, twisted):
    # the twisted module and Omega^1 have identical graded dimensions
    forms = DifferentialForms(algebra)
    for d in range(0, BOUND + 1, 2):
        assert twisted.dim(d) == forms.dim(1, d), d


def test_free_module_frozen_dims(twisted):
    frozen = [1, 2, 4, 7, 12, 19, 30, 45, 67, 97, 139, 195]
    assert [twisted.dim(d) for d in range(2, BOUND + 1, 2)] == frozen


def test_rank_one_free_module_is_the_algebra(algebra, rank_one):
    for d in range(0, BOUND + 1, 2):
        assert rank_one.dim(d) == algebra.hilbert_function(d)


def test_action_commutativity_is_checked(algebra):
    dims = {0: 1, 2: 1, 4: 1}
    # e1 acts as 1, e2 as 5: but then e1(e1 x) = 1 while e2 x = 5 in degree 4,
    # which no consistent module allows only if the two routes disagree --
    # here e1*e1 and e2 are distinct monomials so no constraint is violated.
    actions = {
        (1, 0): SparseMatrix.from_rows([[Fraction(1)]]),
        (1, 2): SparseMatrix.from_rows([[Fraction(1)]]),
        (2, 0): SparseMatrix.from_rows([[Fraction(5)]]),
    }
    GradedModule(algebra, dims, actions).check_action_commutativity()


def test_action_commutation_failure_is_detected(algebra):
    # e2 . e1 = 0 but e1 . e2 = 1 as maps from degree 0 to degree 6
    one = SparseMatrix.from_rows([[Fraction(1)]])
    zero = SparseMatrix.from_rows([[Fraction(0)]])
    dims = {0: 1, 2: 1, 4: 1, 6: 1}
    actions = {
        (1, 0): one,
        (1, 2): one,
        (1, 4): one,
        (2, 0): one,
        (2, 2): zero,
    }
    bad = GradedModule(algebra, dims, actions)
    with pytest.raises(ValueError):
        bad.check_action_commutativity()


def test_trivial_module_shape(algebra):
    t = trivial_module(algebra)
    assert t.dim(0) == 1
    assert t.dim(2) == 0
    assert t.action(1, 0).rows == 0


def test_direct_sum_dims_and_actions(algebra, rank_one):
    t = trivial_module(algebra)
    s = direct_sum(t, rank_one)
    for d in range(0, BOUND + 1, 2):
        assert s.dim(d) == t.dim(d) + rank_one.dim(d)
    s.check_action_commutativity()
    # block structure: the trivial summand contributes nothing to the action
    act = s.action(1, 0)
    assert act.rows == s.dim(2) and act.cols == s.dim(0)
    dense = act.to_lists()
    assert dense[0][0] == 0  # trivial block
    assert dense[0][1] == 1  # e1 * 1 = e1 in the free block


def test_module_map_shape_validation(algebra, rank_one):
    with pytest.raises(ValueError, match="^matrix at degree 0 has the wrong shape$"):
        GradedModuleMap.of_matrices(
            rank_one,
            rank_one,
            degree_shift=0,
            matrices={0: SparseMatrix.zero(3, 3)},
        )


def test_module_map_equivariance_validation(algebra, rank_one):
    # identity in degree 0 but zero in degree 2 cannot commute with e1
    mats = {
        d: SparseMatrix.identity(rank_one.dim(d)) if d == 0 else SparseMatrix.zero(
            rank_one.dim(d), rank_one.dim(d)
        )
        for d in range(0, BOUND + 1, 2)
    }
    with pytest.raises(ValueError, match="^map fails to commute with e1 at degree 0$"):
        GradedModuleMap.of_matrices(rank_one, rank_one, 0, mats)


def test_kernel_module_of_multiplication_by_e1(algebra, rank_one):
    # e1: A -> A(+2) is injective, so the kernel vanishes wherever the
    # target slice still fits inside the bound (the top slice maps to 0)
    mats = {d: action(rank_one, 1, d) for d in range(0, BOUND - 1, 2)}
    f = GradedModuleMap.of_matrices(rank_one, rank_one, 2, mats)
    ker, incl = kernel_module(f.source, map_matrices(f))
    assert all(ker.dim(d) == 0 for d in ker.degrees() if d + 2 <= BOUND)
    assert sorted(incl) == ker.degrees() == [BOUND]


def test_kernel_module_inherits_actions(algebra):
    # quotient-style example: map two copies of A onto one by (x, y) -> x + y;
    # kernel is the antidiagonal copy of A, again free of rank one
    two = free_module(algebra, [0, 0])
    one = free_module(algebra, [0])
    mats = {}
    for d in range(0, BOUND + 1, 2):
        rows = [[Fraction(0)] * two.dim(d) for _ in range(one.dim(d))]
        for (gen, mono), c in _oracle_free_index(two, d).items():
            r = _oracle_free_index(one, d)[(0, mono)]
            rows[r][c] = Fraction(1)
        mats[d] = SparseMatrix.from_rows(rows) if rows else SparseMatrix.zero(0, two.dim(d))
    f = GradedModuleMap.of_matrices(two, one, 0, mats)
    ker, incl = kernel_module(f.source, map_matrices(f))
    ker.check_action_commutativity()
    for d in range(0, BOUND + 1, 2):
        assert ker.dim(d) == algebra.hilbert_function(d)
    # inclusion is equivariant by construction; spot-check one product
    v = SparseMatrix.of_columns(ker.dim(0), 1, [(0, 1)])
    moved = ker.action(1, 0) @ v
    direct = incl[2] @ moved
    via_big = action(two, 1, 0) @ (incl[0] @ v)
    assert direct == via_big


def test_minimal_generators_of_free_module(algebra, twisted):
    # a free module's minimal generators sit exactly at its generator degrees
    mg = minimal_generators(twisted)
    assert mg.counts == {2 * l: 1 for l in range(1, BOUND // 2 + 1)}
    for d, reps in mg.representatives.items():
        assert (reps.rows, reps.cols) == (twisted.dim(d), 1)
        assert not reps.is_zero()


def test_minimal_generator_representatives_are_unit_vectors(algebra, rank_one):
    mg = minimal_generators(rank_one)
    assert mg.counts == {0: 1}
    assert mg.representatives[0].to_lists() == [[Fraction(1)]]
    assert mg.total() == 1


# -- Koszul homology -----------------------------------------------------------


def test_koszul_dims(algebra, rank_one):
    for d in range(0, 13, 2):
        assert koszul_dim(rank_one, 0, d) == algebra.hilbert_function(d)
        expected1 = sum(
            exterior_dim(1, k) * algebra.hilbert_function(d - k)
            for k in range(0, d + 1, 2)
        )
        assert koszul_dim(rank_one, 1, d) == expected1


def test_koszul_differential_squares_to_zero(algebra, rank_one):
    for d in range(2, 17, 2):
        for j in range(2, 4):
            d_j = koszul_differential(rank_one, j, d)
            d_j1 = koszul_differential(rank_one, j - 1, d)
            assert (d_j1 @ d_j).nnz() == 0, (j, d)


def test_free_module_has_no_higher_tor(algebra, twisted, rank_one):
    for mod in (rank_one, twisted):
        for j in (1, 2, 3):
            for d in range(0, 15, 2):
                assert tor_dimension(mod, j, d) == 0, (j, d)


def test_tor_zero_of_free_module_counts_generators(algebra, twisted):
    for d in range(2, BOUND + 1, 2):
        assert tor_dimension(twisted, 0, d) == 1  # one generator per even degree


def test_tor_of_trivial_module_is_exterior_algebra(algebra):
    t = trivial_module(algebra)
    for j in range(0, 4):
        for d in range(0, 17, 2):
            assert tor_dimension(t, j, d) == exterior_dim(j, d), (j, d)


def test_tor_frozen_spot_values(algebra):
    t = trivial_module(algebra)
    assert tor_dimension(t, 2, 6) == 1  # e1 ^ e2
    assert tor_dimension(t, 1, 4) == 1  # e2
    assert tor_dimension(t, 0, 0) == 1
    assert tor_dimension(t, 0, 2) == 0


def test_tor_table_matches_pointwise(algebra):
    t = trivial_module(algebra)
    table = tor_table(t, 2, up_to=12)
    for d in range(0, 13, 2):
        assert table.dim(d) == tor_dimension(t, 2, d)


def test_euler_characteristic_of_koszul_complex_vanishes(algebra, rank_one):
    # the Koszul complex of a free module is exact in positive degree, so
    # the alternating sum of slice dimensions minus homology collapses to 0
    for d in (4, 8, 12):
        euler_dims = sum(
            (-1) ** j * koszul_dim(rank_one, j, d) for j in range(0, d // 2 + 2)
        )
        euler_tor = sum(
            (-1) ** j * tor_dimension(rank_one, j, d) for j in range(0, d // 2 + 2)
        )
        assert euler_dims == euler_tor == 0, d


def test_zero_module_from_empty_generator_list(algebra):
    z = free_module(algebra, [])
    assert all(z.dim(d) == 0 for d in range(0, BOUND + 1, 2))
    assert minimal_generators(z).counts == {}


def test_kernel_of_identity_and_zero_maps(algebra, rank_one):
    degrees = list(range(0, BOUND + 1, 2))
    ident = GradedModuleMap.of_matrices(
        rank_one,
        rank_one,
        0,
        {d: SparseMatrix.identity(rank_one.dim(d)) for d in degrees},
    )
    ker, _ = kernel_module(ident.source, map_matrices(ident))
    assert all(ker.dim(d) == 0 for d in degrees)

    zero = GradedModuleMap.of_matrices(
        rank_one,
        rank_one,
        0,
        {d: SparseMatrix.zero(rank_one.dim(d), rank_one.dim(d)) for d in degrees},
    )
    ker, incl = kernel_module(zero.source, map_matrices(zero))
    for d in degrees:
        assert ker.dim(d) == rank_one.dim(d)
        assert incl[d] == SparseMatrix.identity(rank_one.dim(d))


def test_tor_zero_equals_minimal_generators(algebra, twisted, rank_one):
    # two independent computations of the same number, for free and
    # non-free modules alike
    t = trivial_module(algebra)
    for mod in (rank_one, twisted, t):
        mg = minimal_generators(mod, up_to=12)
        for d in range(0, 13, 2):
            assert tor_dimension(mod, 0, d) == mg.counts.get(d, 0), d


def _sum_map(source, target, keep_second_at_2):
    # (x, y) -> x + y in degree 0; in degree 2 the second summand is kept or
    # dropped, so the map does not commute with e1: no GradedModuleMap
    # holds it, and the kernel oracle takes the source and the matrices
    mats = {}
    for d in (0, 2):
        idx = _oracle_free_index(target, d)
        entries = {}
        for (gen, mono), col in _oracle_free_index(source, d).items():
            if d == 0:
                entries[(idx[(0, mono)], col)] = Fraction(1)
            elif gen == 0 or keep_second_at_2:
                entries[(idx[(gen if keep_second_at_2 else 0, mono)], col)] = Fraction(1)
        mats[d] = SparseMatrix(target.dim(d), source.dim(d), entries)
    with pytest.raises(ValueError, match="^map fails to commute with e1 at degree 0$"):
        GradedModuleMap.of_matrices(source, target, 0, mats)
    return source, mats


def _kernel_dims(source, mats):
    dims = {d: kernel_basis(mats[d]).cols for d in source.degrees()}
    return {d: n for d, n in dims.items() if n}


def test_kernel_module_rejects_push_outside_a_nonzero_kernel():
    # kernel (1, -1) in degree 0 and (0, e1) in degree 2: e1 sends the first
    # to (e1, -e1), which the degree-2 kernel does not contain
    algebra = PolynomialAlgebra(2)
    source, mats = _sum_map(free_module(algebra, [0, 0]), free_module(algebra, [0]), False)
    assert _kernel_dims(source, mats) == {0: 1, 2: 1}
    with pytest.raises(ValueError, match="e1 pushes a kernel vector at degree 0"):
        kernel_module(source, mats)


def test_kernel_module_rejects_push_into_a_zero_kernel():
    # kernel (1, -1) in degree 0 but the identity in degree 2, so no kernel
    # there for e1 (1, -1) = (e1, -e1) to land in
    algebra = PolynomialAlgebra(2)
    two = free_module(algebra, [0, 0])
    source, mats = _sum_map(two, two, True)
    assert _kernel_dims(source, mats) == {0: 1}
    with pytest.raises(ValueError, match="e1 pushes a kernel vector at degree 0"):
        kernel_module(source, mats)


# -- the object-based action builder, kept as a test-only oracle ---------------------


def _oracle_free_basis(module, d):
    """The degree-d basis as ``(generator position, monomial)`` pairs."""
    out = []
    if 0 <= d <= module.algebra.degree_bound and d % 2 == 0:
        for k, a in enumerate(module.gen_degrees):
            if a <= d:
                for m in monomials(module.algebra, d - a):
                    out.append((k, m))
    return out


def _oracle_free_index(module, d):
    return {b: k for k, b in enumerate(_oracle_free_basis(module, d))}


def _layout_basis(module, d):
    """The degree-d basis that ``module.generator_blocks`` records."""
    blocks = module.generator_blocks(d)[0]
    return [(k, m) for k, (_, deg) in blocks.items() for m in monomials(module.algebra, deg)]


def _oracle_action(module, i, d):
    src = _oracle_free_basis(module, d)
    tgt = _oracle_free_index(module, d + 2 * i)
    g = Monomial.generator(i)
    entries = {}
    for col, (k, m) in enumerate(src):
        entries[(tgt[(k, m * g)], col)] = 1
    return SparseMatrix(len(tgt), len(src), entries)


def test_free_module_actions_match_object_oracle(algebra, rank_one, twisted):
    # generator degrees out of order and repeated, besides the two in use
    mixed = free_module(algebra, [4, 0, 2, 2])
    for module in (rank_one, twisted, mixed):
        for d in range(0, BOUND + 1):
            assert _layout_basis(module, d) == _oracle_free_basis(module, d), d
            for i in algebra.generator_indices():
                if d + 2 * i > BOUND:
                    with pytest.raises(DegreeBoundError):
                        module.multiplication_table(i, d)
                    break
                table, oracle = module.multiplication_table(i, d), _oracle_action(module, i, d)
                assert (module.dim(d + 2 * i), len(table)) == (oracle.rows, oracle.cols), (i, d)
                assert [(r, c) for c, r in enumerate(table)] == list(oracle.entries), (i, d)
                assert set(oracle.entries.values()) <= {1}, (i, d)
                assert action(module, i, d) == oracle, (i, d)


# -- the oracle's Koszul rank memo ---------------------------------------------------


def test_tor_table_on_a_direct_sum(algebra, rank_one, monkeypatch):
    # Tor_j(Q, Q + A) = Lambda^j E + (Q in j = 0, degree 0)
    import koszul_oracle

    real = koszul_oracle.koszul_differential
    calls = []

    def counting(module, j, d):
        calls.append((j, d))
        return real(module, j, d)

    monkeypatch.setattr(koszul_oracle, "koszul_differential", counting)
    s = direct_sum(trivial_module(algebra), rank_one)
    tables = [tor_table(s, j, 12) for j in range(4)]
    assert tables[0].dims == {0: 2}
    for j in (1, 2, 3):
        assert tables[j].dims == {
            d: exterior_dim(j, d) for d in range(13) if exterior_dim(j, d)
        }
    assert len(calls) == len(set(calls))
    # each table is what ranking both differentials afresh gives
    for j, table in enumerate(tables):
        for d in range(13):
            c = koszul_dim(s, j, d)
            if c:
                r_out = rank(real(s, j, d)) if j else 0
                c -= r_out + rank(real(s, j + 1, d))
            assert table.dim(d) == c, (j, d)


def _first_noncommuting_square(source, target, shift, matrices):
    """The first (i, d) in the order of `check_equivariance` where the
    square fails to commute, with the object-level actions of
    `_oracle_action` multiplied as dense Fraction lists."""

    def product(a, b):
        x, y = a.to_lists(), b.to_lists()
        return [
            [sum((x[r][k] * y[k][c] for k in range(a.cols)), Fraction(0)) for c in range(b.cols)]
            for r in range(a.rows)
        ]

    def matrix(d):
        m = matrices.get(d)
        return SparseMatrix.zero(target.dim(d + shift), source.dim(d)) if m is None else m

    bound = source.algebra.degree_bound
    for d in source.degrees():
        for i in source.algebra.generator_indices():
            if d + 2 * i > bound or d + shift + 2 * i > bound:
                break
            left = product(_oracle_action(target, i, d + shift), matrix(d))
            right = product(matrix(d + 2 * i), _oracle_action(source, i, d))
            if left != right:
                return i, d
    return None


@pytest.mark.parametrize(
    "which, degree, column, how",
    [
        pytest.param("co", 2, 0, "scale", id="2-0-scale"),
        pytest.param("co", 6, 0, "move", id="6-0-move"),
        pytest.param("co", 8, 3, "scale", id="8-3-scale"),
        pytest.param("co", 10, 5, "move", id="10-5-move"),
        pytest.param("contra", 0, 0, "scale", id="contra-0-0-scale"),
        pytest.param("contra", 4, 1, "move", id="contra-4-1-move"),
        pytest.param("contra", 6, 2, "scale", id="contra-6-2-scale"),
        pytest.param("contra", 10, 6, "move", id="contra-10-6-move"),
    ],
)
def test_broken_contraction_column_fails_equivariance(which, degree, column, how):
    # the check relabels rows through the target's table and gathers
    # columns at the source's: a column of the contraction (F the source)
    # or of the cup product (F the target) scaled by 2 or moved to the next
    # row must fail at the first square a dense product of the object-level
    # actions finds, with the same message
    from mmmcoh.stable import StableCohomology

    sc = StableCohomology(12)
    good = sc.delta_covariant() if which == "co" else sc.delta_contravariant()
    m = good.matrix(degree)
    cols = list(m.packed)
    r, x = cols[column]
    cols[column] = (r, 2 * x) if how == "scale" else ((r + 1) % m.rows, x)
    matrices = {**map_matrices(good), degree: SparseMatrix.of_columns(m.rows, m.cols, cols)}
    first = _first_noncommuting_square(good.source, good.target, good.internal_shift, matrices)
    assert first is not None
    assert _first_noncommuting_square(
        good.source, good.target, good.internal_shift, map_matrices(good)
    ) is None
    i, d = first
    with pytest.raises(ValueError, match=rf"^map fails to commute with e{i} at degree {d}$"):
        GradedModuleMap.of_matrices(good.source, good.target, good.degree_shift, matrices)


def test_equivariance_check_makes_no_product(monkeypatch):
    # both sides of every square are index operations on the matrices
    from mmmcoh.stable import StableCohomology

    sc = StableCohomology(16)
    calls = []
    real = SparseMatrix.__matmul__

    def counting(a, b):
        calls.append((a.rows, a.cols))
        return real(a, b)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counting)
    for f in (sc.delta_covariant(), sc.delta_contravariant()):
        f.check_equivariance()
    assert calls == []


def test_equivariance_check_rejects_a_non_injective_table(monkeypatch):
    # a relabel stands for the product only if no two rows meet: a table
    # that sends two basis elements to one fails the check instead
    from mmmcoh.stable import StableCohomology

    sc = StableCohomology(12)
    good = sc.delta_contravariant()
    real = FreeGradedModule.multiplication_table

    def merged(self, i, d):
        table = real(self, i, d)
        return table[:1] * len(table)

    monkeypatch.setattr(FreeGradedModule, "multiplication_table", merged)
    with pytest.raises(ValueError, match="not injective"):
        GradedModuleMap(good.source, good.target, good.degree_shift, good.tables)


# -- maps as row tables ------------------------------------------------------------


@st.composite
def one_entry_columns(draw, rows, cols):
    """Columns with at most one entry each: zero columns, rows that repeat,
    values -1, 1 and 2."""
    return [
        draw(st.one_of(st.just(()), st.tuples(st.integers(0, rows - 1), st.sampled_from((-1, 1, 2)))))
        if rows else ()
        for _ in range(cols)
    ]


@given(st.data(), st.integers(0, 6), st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_table_rank_is_the_rank(data, rows, cols):
    # at bound 0 no e_i acts, so any map of degree-0 slices is a module map
    algebra = PolynomialAlgebra(0)
    source, target = free_module(algebra, [0] * cols), free_module(algebra, [0] * rows)
    m = SparseMatrix.of_columns(rows, cols, data.draw(one_entry_columns(rows, cols)))
    f = GradedModuleMap.of_matrices(source, target, 0, {0: m})
    assert f.matrix(0) == m
    assert f.rank(0) == len(_rref(_row_dicts(m), cols)[0])


@given(st.data(), st.integers(1, 5), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_is_minus_is_equality_with_the_negated_matrix(data, rows, cols):
    # against candidates as a slot list holds them, one entry per column and
    # a value of 0 for an empty column: minus the map with a few columns
    # replaced by any row and a value among -1, 0, 1 and 2, or two columns
    # swapped, and sometimes one row more
    algebra = PolynomialAlgebra(0)
    source, target = free_module(algebra, [0] * cols), free_module(algebra, [0] * rows)
    m = SparseMatrix.of_columns(rows, cols, data.draw(one_entry_columns(rows, cols)))
    f = GradedModuleMap.of_matrices(source, target, 0, {0: m})
    any_row = st.integers(0, rows - 1)
    slot_rows = [col[0] if col else data.draw(any_row) for col in (-m).packed]
    slot_values = [col[1] if col else 0 for col in (-m).packed]
    for c in data.draw(st.lists(st.integers(0, cols - 1), max_size=2)) if cols else []:
        slot_rows[c] = data.draw(any_row)
        slot_values[c] = data.draw(st.sampled_from((-1, 0, 1, 2)))
    if cols > 1 and data.draw(st.booleans()):
        a, b = data.draw(st.lists(st.integers(0, cols - 1), min_size=2, max_size=2, unique=True))
        for listed in (slot_rows, slot_values):
            listed[a], listed[b] = listed[b], listed[a]
    n_rows = data.draw(st.sampled_from((rows, rows, rows + 1)))
    candidate = SparseMatrix.of_columns(
        n_rows, cols, [(r, x) if x else () for r, x in zip(slot_rows, slot_values)]
    )
    assert f.is_minus(0, n_rows, slot_rows, slot_values) == (candidate == -m)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_table_check_fails_at_the_first_noncommuting_square(data):
    # a builder's map with a few columns replaced by random one-entry
    # columns: the check on the tables and the dense product of the object
    # actions find the same first square, or both find none
    from mmmcoh.stable import StableCohomology

    sc = StableCohomology(10)
    good = data.draw(st.sampled_from((sc.delta_covariant(), sc.delta_contravariant())))
    matrices = map_matrices(good)
    for _ in range(data.draw(st.integers(0, 3))):
        d = data.draw(st.sampled_from(sorted(matrices)))
        m = matrices[d]
        c = data.draw(st.integers(0, m.cols - 1))
        cols = list(m.packed)
        cols[c] = data.draw(one_entry_columns(m.rows, 1))[0]
        matrices[d] = SparseMatrix.of_columns(m.rows, m.cols, cols)
    first = _first_noncommuting_square(good.source, good.target, good.internal_shift, matrices)
    if first is None:
        GradedModuleMap.of_matrices(good.source, good.target, good.degree_shift, matrices)
    else:
        i, d = first
        with pytest.raises(ValueError, match=rf"^map fails to commute with e{i} at degree {d}$"):
            GradedModuleMap.of_matrices(good.source, good.target, good.degree_shift, matrices)


def test_a_column_with_two_entries_is_rejected(rank_one):
    # a module map takes one entry per column: the error names where
    mats = {d: SparseMatrix.identity(rank_one.dim(d)) for d in rank_one.degrees()}
    m = mats[6]
    cols = list(m.packed)
    cols[2] = (0, 1, 2, 1)
    mats[6] = SparseMatrix.of_columns(m.rows, m.cols, cols)
    with pytest.raises(ValueError, match="^the matrix at degree 6 has 2 entries in column 2; "):
        GradedModuleMap.of_matrices(rank_one, rank_one, 0, mats)


def test_zero_columns_keep_row_minus_one(rank_one):
    # the zero map by tables, with rows given anywhere: stored as row -1
    tables = {d: (range(rank_one.dim(d)), (0,) * rank_one.dim(d)) for d in rank_one.degrees()}
    zero = GradedModuleMap(rank_one, rank_one, 0, tables)
    for d in rank_one.degrees():
        assert zero.table(d) == ((-1,) * rank_one.dim(d), (0,) * rank_one.dim(d))
        assert zero.rank(d) == 0 and zero.matrix(d).is_zero()


def test_a_row_out_of_range_is_rejected(rank_one):
    with pytest.raises(ValueError, match=r"^a row of the map at degree 2 lies outside range\(1\)$"):
        GradedModuleMap(rank_one, rank_one, 0, {2: ((1,), (1,))})
