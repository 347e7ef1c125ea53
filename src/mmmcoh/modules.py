"""Free graded modules over the characteristic-class ring, and maps between them.

Every coefficient module the verifications build is free over
A = Q[e_1, e_2, ...]: the twisted-class module on the m_l, and A on 1.  A
free module is stored by its layout inside the algebra's bound: for each
internal degree, one block per generator holding the monomial basis of the
complementary degree.  The e_i act by multiplying monomials, so the action
M_d -> M_{d+2i} is a table of basis indices
(`FreeGradedModule.multiplication_table`), built from the algebra's own
tables, and no action is stored as a matrix.

The maps the verifications build, the contraction against m_1 and the cup
product with m_1, send each basis element to a multiple of one basis
element, so `GradedModuleMap` keeps each degree as a row table and a value
table, with no matrix.  `GradedModuleMap.check_equivariance` certifies
f e_i = e_i f square by square on those tables: the row of column c moved
through the target's table against the row of column T_source[c] one
degree up, and likewise the values.  The rank of such a map is the number
of distinct rows among its nonzero columns (`GradedModuleMap.rank`), with
no elimination.  `stable.StableCohomology` reads the contraction kernel's
dimensions off those ranks, and its minimal generator counts off the
pivots of the kernel-generator span, whose columns hold two entries, +1
and -1, so that each is an edge and the pivots come from a spanning
forest (`stable._forest_pivots`); there is no module structure on the
kernel.  The dimensions of Tor_j(Q, M) are held in ``TorResult``;
`stable.StableCohomology.verify_tor` derives them by dimension shifting,
with no Koszul complex of M.

Cohomological degrees may sit at a fixed offset from internal ones (the
twisted-class module stores its generators one above their cohomological
degree); the offset is bookkeeping only and never enters the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, neg
from typing import Dict, List, Mapping, Sequence, Tuple

from .algebra import DegreeBoundError, PolynomialAlgebra
from .linalg import (
    SparseMatrix,
    _gathered,
    _pack,
    rank,  # noqa: F401  (perfbench/test_perfbench.py reads modules.rank)
)


class FreeGradedModule:
    """The free module on homogeneous generators g_1, ..., g_r.

    The degree-d slice has basis (g_k, monomial) with deg g_k + deg monomial
    = d, ordered by generator then canonical monomial order; e_i acts by
    multiplying the monomial (`multiplication_table`).  ``coh_offset`` is
    the cohomological degree minus the internal degree.
    """

    def __init__(self, algebra: PolynomialAlgebra, gen_degrees: Sequence[int], coh_offset: int = 0):
        for a in gen_degrees:
            if a < 0 or a % 2:
                raise ValueError("generator degrees must be even and >= 0")
        self.algebra = algebra
        self.gen_degrees = tuple(gen_degrees)
        self.coh_offset = coh_offset
        self._blocks: Dict[int, Tuple[Dict[int, Tuple[int, int]], int]] = {}
        self.dims = {}
        for d in range(0, algebra.degree_bound + 1, 2):
            n = self.generator_blocks(d)[1]
            if n:
                self.dims[d] = n

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def degrees(self) -> List[int]:
        return sorted(self.dims)

    def generator_blocks(self, d: int) -> Tuple[Dict[int, Tuple[int, int]], int]:
        """The layout of the degree-d slice: ``({generator position:
        (offset, monomial degree)}, dim)``, one block per generator, each
        the monomial basis of its degree."""
        cached = self._blocks.get(d)
        if cached is None:
            blocks: Dict[int, Tuple[int, int]] = {}
            off = 0
            if 0 <= d <= self.algebra.degree_bound and d % 2 == 0:
                for k, a in enumerate(self.gen_degrees):
                    if a <= d:
                        blocks[k] = (off, d - a)
                        off += self.algebra.hilbert_function(d - a)
            cached = (blocks, off)
            self._blocks[d] = cached
        return cached

    def multiplication_table(self, i: int, d: int) -> Tuple[int, ...]:
        """Multiplication by e_i from degree d to degree d + 2i, as positions:
        entry k is the index of e_i * b_k in the degree-(d + 2i) basis, b_k
        the k-th basis element of degree d.  Each generator's block is the
        algebra's table moved to the block's offset; raises
        ``DegreeBoundError`` past the bound, as the algebra's table does."""
        top = d + 2 * i
        if top > self.algebra.degree_bound:
            raise DegreeBoundError(
                f"degree {top} exceeds the configured bound {self.algebra.degree_bound}"
            )
        target = self.generator_blocks(top)[0]
        product = self.algebra.multiplication_table
        parts = [(product(i, deg), target[k][0]) for k, (_, deg) in self.generator_blocks(d)[0].items()]
        if len(parts) == 1 and not parts[0][1]:
            return parts[0][0]  # one block at offset 0: the algebra's table
        return tuple(chain.from_iterable(map(add, t, repeat(off)) for t, off in parts))


def free_module(
    algebra: PolynomialAlgebra, gen_degrees: Sequence[int], coh_offset: int = 0
) -> FreeGradedModule:
    return FreeGradedModule(algebra, gen_degrees, coh_offset=coh_offset)


class GradedModuleMap:
    """A degreewise map between free modules, commuting with the e_i, that
    sends each basis element to a multiple of one basis element.

    ``degree_shift`` is cohomological; on internal degrees the shift is
    degree_shift + source.coh_offset - target.coh_offset.  The degree-d map
    is a row table and a value table, ``tables[d] = (rows, values)``: column
    c of the source's degree-d slice goes to ``values[c]`` times basis
    element ``rows[c]`` of the target's degree d + internal_shift.  A zero
    column has value 0 and is stored with row -1; a degree with no table is
    the zero map.  Both maps of the certificates have this shape: the
    contraction against m_1 sends m * m_l to -e_l m, and the cup product
    sends m to m * m_1.  Equivariance is checked at construction and a
    violation is an error: these maps encode theorems, not approximations.
    """

    def __init__(
        self,
        source: FreeGradedModule,
        target: FreeGradedModule,
        degree_shift: int,
        tables: Mapping[int, Tuple[Sequence[int], Sequence]],
    ):
        self.source = source
        self.target = target
        self.degree_shift = degree_shift
        self.tables: Dict[int, Tuple[Sequence[int], Tuple]] = {}
        s = self.internal_shift
        for d, (rows, values) in tables.items():
            n, top = source.dim(d), target.dim(d + s)
            if len(rows) != n or len(values) != n:
                raise ValueError(f"matrix at degree {d} has the wrong shape")
            values = tuple(values)
            kept = rows
            if not all(values):
                # a zero column holds row -1, so that equal columns have
                # equal rows
                rows = tuple(r if x else -1 for r, x in zip(rows, values))
                kept = list(compress(rows, values))
            if kept and (min(kept) < 0 or max(kept) >= top):
                raise ValueError(f"a row of the map at degree {d} lies outside range({top})")
            self.tables[d] = (rows, values)
        self.check_equivariance()

    @classmethod
    def of_matrices(
        cls,
        source: FreeGradedModule,
        target: FreeGradedModule,
        degree_shift: int,
        matrices: Mapping[int, SparseMatrix],
    ) -> "GradedModuleMap":
        """The map whose degree-d matrix is ``matrices[d]`` (zero where
        missing).  Raises ValueError on a matrix of the wrong shape, and on
        a column with more than one entry, naming its degree and column."""
        s = degree_shift + source.coh_offset - target.coh_offset
        tables = {}
        for d, m in matrices.items():
            if m.cols != source.dim(d) or m.rows != target.dim(d + s):
                raise ValueError(f"matrix at degree {d} has the wrong shape")
            packed = m.packed
            wide = next((c for c, col in enumerate(packed) if len(col) > 2), None)
            if wide is not None:
                raise ValueError(
                    f"the matrix at degree {d} has {len(packed[wide]) // 2} entries in "
                    f"column {wide}; a module map takes at most one per column"
                )
            tables[d] = (
                [col[0] if col else -1 for col in packed],
                [col[1] if col else 0 for col in packed],
            )
        return cls(source, target, degree_shift, tables)

    @property
    def internal_shift(self) -> int:
        return self.degree_shift + self.source.coh_offset - self.target.coh_offset

    def table(self, d: int) -> Tuple[Sequence[int], Tuple]:
        """``(rows, values)`` of the degree-d map; the zero map's where no
        table is stored."""
        t = self.tables.get(d)
        if t is None:
            n = self.source.dim(d)
            t = ((-1,) * n, (0,) * n)
        return t

    def matrix(self, d: int) -> SparseMatrix:
        """The degree-d map as a matrix, built from its tables.  No
        certificate reads it."""
        rows, values = self.table(d)
        return SparseMatrix.of_columns(
            self.target.dim(d + self.internal_shift),
            len(values),
            [(r, x) if x else () for r, x in zip(rows, values)],
        )

    def rank(self, d: int) -> int:
        """Rank of the degree-d map over Q, exact: the number of distinct
        rows among its nonzero columns, since each of those is a nonzero
        multiple of one basis element."""
        rows, values = self.table(d)
        return len(set(compress(rows, values)))

    def is_minus(self, d: int, n_rows: int, rows: Sequence[int], values: Sequence) -> bool:
        """Whether the matrix with ``n_rows`` rows whose column c holds
        ``values[c]`` at row ``rows[c]`` (one entry per column, as in a slot
        list, and a value of 0 an empty column) is minus the degree-d map:
        the same shape and nonzero columns, there the same rows and -values."""
        own_rows, own_values = self.table(d)
        return (
            (n_rows, len(rows)) == (self.target.dim(d + self.internal_shift), len(values))
            and list(map(bool, values)) == list(map(bool, own_values))
            and list(compress(rows, values)) == list(compress(own_rows, own_values))
            and list(map(neg, compress(values, values))) == list(compress(own_values, own_values))
        )

    def image(self, d: int, column: Sequence) -> Tuple:
        """The degree-d map applied to one packed column ``(row, value,
        ...)`` of the source's degree-d slice, as a packed column of the
        target, zeros dropped: entry (r, x) adds ``values[r] * x`` at row
        ``rows[r]``."""
        rows, values = self.table(d)
        acc: Dict[int, object] = {}
        for r, x in zip(column[0::2], column[1::2]):
            t = rows[r]
            acc[t] = acc.get(t, 0) + values[r] * x
        return _pack(acc)

    def check_equivariance(self) -> None:
        """e_i f(d) = f(d + 2i) e_i for every e_i and every source degree d
        inside the bound, on the tables, with no matrix: column c of
        e_i f(d) is ``values[c]`` at row ``T_target[rows[c]]``, and column c
        of f(d + 2i) e_i is column ``T_source[c]`` of f(d + 2i), with
        T_target and T_source the two modules' multiplication tables.  Each
        column has one entry, so moving it through T_target adds nothing
        to anything; T_target is still checked to be injective, as the
        table of e_i on a free module's basis must be."""
        s = self.internal_shift
        source, target = self.source, self.target
        bound = source.algebra.degree_bound
        for d in source.degrees():
            rows, values = self.table(d)
            for i in source.algebra.generator_indices():
                if d + 2 * i > bound or d + s + 2 * i > bound:
                    break
                moved = target.multiplication_table(i, d + s)
                if len(moved) != target.dim(d + s):
                    raise ValueError(
                        f"a table of {len(moved)} rows for a matrix of {target.dim(d + s)}"
                    )
                if len(set(moved)) != len(moved):
                    raise ValueError("the row table is not injective")
                up_rows, up_values = self.table(d + 2 * i)
                gathered = source.multiplication_table(i, d)
                # a zero column's row -1 reads the -1 appended to T_target
                if _gathered(up_values, gathered) != values or _gathered(
                    (*moved, -1), rows
                ) != _gathered(up_rows, gathered):
                    raise ValueError(
                        f"map fails to commute with e{i} at degree {d}"
                    )


@dataclass(frozen=True)
class TorResult:
    """Dimensions of Tor_j(Q, M) across internal degrees, fixed j."""

    j: int
    dims: Dict[int, int]

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)
