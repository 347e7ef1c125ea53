"""Exact sparse linear algebra over the rationals.

The torus H^1 certificate of ``groupcoh`` takes the kernels, column
spaces and inverses of its matrices here, whose entries are
``fractions.Fraction`` values.  Nothing here touches floating point: a
rank computed here is the rank, not an estimate.  The other ranks of the
certificates are taken where their maps are built: ``modules`` ranks a
map that sends each basis element to a multiple of one basis element by
counting distinct rows (and ``stable`` ranks a p_1 that fails its row
the same way), ``forms`` certifies the rank of p by a unit minor on the
down columns, and ``stable`` reads the rank of the kernel-generator span
off a spanning forest of its edges.

Representation: a matrix is stored by column, in the compressed sparse
column layout (T. A. Davis, *Direct Methods for Sparse Linear Systems*,
SIAM 2006, ch. 2) with one flat tuple per column: ``packed[c]`` is
``(row, value, row, value, ...)`` over the nonzeros of column c, and an
empty column is ``()``.  Within a column the entries keep the order they
were given in; ``==`` and ``hash`` ignore that order.  A matrix is treated
as immutable after construction.  A vector is a one-column matrix, and a
basis of k vectors, such as a kernel or column-space basis, is the matrix
of its k columns.  Matrices from outside input go through
``SparseMatrix.of_columns`` or the dict constructor, which check each
entry in one loop per column (row range, each row at most once per
column, value type, zeros dropped).  The index-arithmetic builders in
``forms`` (p and d) check the same properties once per block instead,
where their tables and layouts make them hold for every entry of the
block, and build no matrix: p is a list of rows and a list of values per
slot, d a tuple of packed columns.  The contraction and the cup product
are no matrices here either: each sends a basis element to a multiple of
one basis element, so ``modules.GradedModuleMap`` keeps it as a row table
and a value table and ranks it by counting distinct rows.

Reduction strategy: every matrix goes through one Gauss-Jordan routine,
``_rref``.  It takes columns from the left, makes the first remaining row
that holds a column its pivot row, scales that row to a leading 1 and
clears the column from every other row.  What it returns is
the reduced row echelon form, which is unique, so the pivot columns, the
kernel basis read off it and the inverse read off ``(m | 1)`` are
canonical.  The matrices eliminated in a passing run are the torus H^1
certificate's, of a few rows each, so no pivot is chosen to limit
fill-in.  Each elimination first transposes the columns into one
dict per row, once.

Products: ``A @ B`` reads the columns of ``B`` and adds, for each entry
``(k, x)`` of a column, ``x`` times column k of ``A`` into one dict
accumulator per column, so neither operand is re-indexed; ``A + B`` merges
each pair of columns the same way.  In a passing run the products, sums
and checked constructions all come from the torus H^1 certificate of
``groupcoh``: the words of the braid group B_3 on the torus lattice, the
cocycle matrix and the check that every coboundary is a cocycle, on
matrices of at most 4 rows and columns.

Arithmetic: a stored value is a Python ``int`` while it is integral and a
``Fraction`` otherwise, so ``@``, ``+`` and elimination run on ``int``
arithmetic with no conversion per entry, and Python's numeric tower keeps
a value exact as a ``Fraction`` where a division actually happens:
elimination negates a row led by -1 and divides only a row led by another
value than +-1.  A value computed from a ``Fraction`` stays one even when
it comes out integral; ``==`` and ``hash`` compare values, so that is
invisible outside.  Every value that crosses the interface (``entries``,
``to_lists``) is a new ``Fraction``, for a kernel or column-space basis
too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter, mul
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

# the value of a (row, value) pair, as a C-level callable
_VALUE = itemgetter(1)


def _gathered(seq: Sequence, indices: Sequence[int]) -> Tuple:
    """``seq[i]`` for each ``i`` in ``indices``, as a tuple, in one C-level
    call: ``map(seq.__getitem__, indices)`` goes through a slot wrapper per
    item and is about four times slower on a tuple."""
    if len(indices) > 1:
        return itemgetter(*indices)(seq)
    return tuple(seq[i] for i in indices)


def _getter(indices: Sequence[int]) -> Callable[[Sequence], Tuple]:
    """The function ``seq -> _gathered(seq, indices)``: made once, it
    gathers several sequences at the same indices without copying them
    again into the ``itemgetter``."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda seq: tuple(seq[i] for i in indices)


def _int_if_integral(x: Fraction):
    return x.numerator if x.denominator == 1 else x


def _pairs(col):
    """The ``(row, value)`` pairs of a packed column."""
    it = iter(col)
    return zip(it, it)


def _pack(acc: Dict[int, object]) -> Tuple:
    """A ``row -> value`` accumulator as a packed column, zeros dropped."""
    return tuple(chain.from_iterable(filter(_VALUE, acc.items())))


def _checked_columns(rows: int, columns: Sequence[Sequence]) -> Tuple[Tuple, ...]:
    """``columns`` as a tuple of packed columns, checked entry by entry:
    whole pairs only, every row an ``int`` in ``range(rows)`` and at most
    once per column; every value is stored as an ``int`` when integral and
    dropped when zero.  The checks of the dict constructor and
    ``of_columns``, for columns whose properties nothing else has
    established."""
    out: List[Tuple] = []
    for c, col in enumerate(columns):
        if len(col) % 2:
            raise ValueError("a packed column must hold (row, value) pairs")
        acc: Dict[int, object] = {}
        for r, x in _pairs(col):
            if type(r) is not int or not 0 <= r < rows:
                raise IndexError(f"entry ({r!r},{c}) outside {rows}x{len(columns)}")
            if r in acc:
                raise ValueError("a row appears twice in one column")
            acc[r] = x if type(x) is int else _int_if_integral(Fraction(x))
        out.append(_pack(acc))
    return tuple(out)


def _matrix(rows: int, cols: int, packed: Tuple[Tuple, ...]) -> "SparseMatrix":
    """A matrix of ``packed`` columns, unchecked: for results computed from
    checked matrices, and for builders that have checked the properties of
    `_checked_columns` themselves (``len(packed) == cols``, every row an
    ``int`` in ``range(rows)`` and at most once per column, every value a
    nonzero ``int`` or a non-integral ``Fraction``)."""
    m = SparseMatrix.__new__(SparseMatrix)
    m.rows, m.cols, m.packed = rows, cols, packed
    return m


def _scaled(col: Tuple, c) -> Tuple:
    out = list(col)
    out[1::2] = map(mul, col[1::2], repeat(c))
    return tuple(out)


class SparseMatrix:
    """A sparse rational matrix stored by column: ``packed[c]`` is column
    ``c`` as ``(row, value, row, value, ...)``; ``entries`` gives the
    nonzeros as a dict ``(r, c) -> Fraction``."""

    __slots__ = ("rows", "cols", "packed")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Optional[Mapping[Tuple[int, int], Fraction]] = None,
    ):
        if rows < 0 or cols < 0:
            raise ValueError("shape must be nonnegative")
        grouped: List[List[object]] = [[] for _ in range(cols)]
        if entries:
            for (r, c), x in entries.items():
                if not 0 <= c < cols:
                    raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
                grouped[c] += (r, x)
        self.rows = rows
        self.cols = cols
        self.packed = _checked_columns(rows, grouped)

    @classmethod
    def of_columns(cls, rows: int, cols: int, columns: Sequence[Sequence]) -> "SparseMatrix":
        """The matrix whose column ``c`` holds the pairs of the flat sequence
        ``columns[c] = (row, value, row, value, ...)``, with the checks of
        the dict constructor."""
        if rows < 0 or cols < 0:
            raise ValueError("shape must be nonnegative")
        if len(columns) != cols:
            raise ValueError(f"{len(columns)} columns given for {cols}")
        return _matrix(rows, cols, _checked_columns(rows, columns))

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "SparseMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, x in enumerate(row):
                if x:
                    entries[(r, c)] = x
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls.of_columns(n, n, list(zip(range(n), repeat(1))))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("shape must be nonnegative")
        return _matrix(rows, cols, ((),) * cols)

    @property
    def entries(self) -> Dict[Tuple[int, int], Fraction]:
        """The nonzeros as a new dict ``(r, c) -> Fraction``, column by column."""
        return {(r, c): Fraction(x) for c, col in enumerate(self.packed) for r, x in _pairs(col)}

    def __matmul__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        left = self.packed
        out: List[Tuple] = []
        for col in other.packed:
            acc: Dict[int, object] = {}
            for k, x in _pairs(col):
                for r, a in _pairs(left[k]):
                    acc[r] = acc.get(r, 0) + a * x
            out.append(_pack(acc))
        return _matrix(self.rows, other.cols, tuple(out))

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out: List[Tuple] = []
        for a, b in zip(self.packed, other.packed):
            acc = dict(_pairs(a))
            for r, x in _pairs(b):
                acc[r] = acc.get(r, 0) + x
            out.append(_pack(acc))
        return _matrix(self.rows, self.cols, tuple(out))

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (-other)

    def __neg__(self) -> "SparseMatrix":
        return self.scale(-1)

    def scale(self, c) -> "SparseMatrix":
        c = _int_if_integral(Fraction(c))
        if not c:
            return SparseMatrix.zero(self.rows, self.cols)
        return _matrix(self.rows, self.cols, tuple(map(_scaled, self.packed, repeat(c))))

    def nnz(self) -> int:
        return sum(map(len, self.packed)) // 2

    def is_zero(self) -> bool:
        return not any(self.packed)

    def to_lists(self) -> List[List[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for c, col in enumerate(self.packed):
            for r, x in _pairs(col):
                out[r][c] = Fraction(x)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix) or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        # the same entries may sit in another order within a column
        return all(
            a == b or (len(a) == len(b) and dict(_pairs(a)) == dict(_pairs(b)))
            for a, b in zip(self.packed, other.packed)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(
            (r, c, x) for c, col in enumerate(self.packed) for r, x in _pairs(col)
        )))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# elimination


def _row_dicts(m: SparseMatrix) -> List[Dict[int, object]]:
    # the one transpose: column-stored entries into one dict per row
    rows: List[Dict[int, object]] = [dict() for _ in range(m.rows)]
    for c, col in enumerate(m.packed):
        it = iter(col)
        for r, x in zip(it, it):
            rows[r][c] = x
    return rows


def _rref(rows: List[Dict[int, object]], width: int):
    """Gauss-Jordan elimination of ``rows`` to the reduced row echelon form.

    Columns are taken from the left.  The first remaining row that holds a
    column is its pivot row: it is scaled to a leading 1 and the column is
    cleared from every other row, the earlier pivot rows included.  Returns
    ``(pivot_cols, reduced_rows)``; the reduced form is unique, so neither
    depends on the order of ``rows``.  Values stay ``int`` while they are
    integral.  The row dicts are changed in place.
    """
    work = [r for r in rows if r]
    pivots: List[int] = []
    reduced: List[Dict[int, object]] = []
    for col in range(width):
        if not work:
            break
        idx = next((i for i, row in enumerate(work) if col in row), None)
        if idx is None:
            continue
        piv = work.pop(idx)
        lead = piv[col]
        if lead == -1:
            piv = {c: -x for c, x in piv.items()}
        elif lead != 1:
            inv = Fraction(1, lead)
            piv = {c: inv * x for c, x in piv.items()}
        for row in chain(reduced, work):
            f = row.get(col)
            if f:
                # row - f*piv, in place
                for c, x in piv.items():
                    s = row.get(c, 0) - f * x
                    if s:
                        row[c] = s
                    else:
                        row.pop(c, None)
        work = [r for r in work if r]
        pivots.append(col)
        reduced.append(piv)
    return pivots, reduced


def pivot_columns(m: SparseMatrix) -> List[int]:
    """The pivot columns of the canonical echelon form (`_rref`),
    increasing.

    Columns are cleared from the left, so the pivots among the first k
    columns number the rank of those k columns.  In the triangle on rows
    0, 1, 2 the third edge closes a cycle:

    >>> pivot_columns(SparseMatrix.of_columns(3, 3, [(0, 1, 1, -1), (1, 1, 2, -1), (0, 1, 2, -1)]))
    [0, 1]
    """
    return _rref(_row_dicts(m), m.cols)[0]


def rank(m: SparseMatrix) -> int:
    """Rank over Q, exact: the number of pivot columns (`pivot_columns`)."""
    return len(pivot_columns(m))


def kernel_basis(m: SparseMatrix) -> SparseMatrix:
    """A basis of the right null space ``{v : m v = 0}``, as the columns of
    an ``m.cols x nullity`` matrix.

    One basis vector per free column, in increasing column order; each has a
    1 in its free coordinate and 0 in the other free coordinates (the
    canonical RREF construction), so the basis is deterministic.

    >>> m = SparseMatrix.from_rows([[1, 1, 0], [0, 0, 2]])
    >>> basis = kernel_basis(m)
    >>> (basis.rows, basis.cols), basis.to_lists()
    ((3, 1), [[Fraction(-1, 1)], [Fraction(1, 1)], [Fraction(0, 1)]])
    >>> (m @ basis).is_zero()
    True
    """
    columns = _kernel_with_free_columns(m)[0]
    return _matrix(m.cols, len(columns), tuple(columns))


def _kernel_with_free_columns(m: SparseMatrix):
    """``(columns, free)``: the kernel basis as packed columns, values
    ``int`` where integral, in the order of the free columns ``free``."""
    pivots, reduced = _rref(_row_dicts(m), m.cols)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    by_free: Dict[int, List[object]] = {f: [f, 1] for f in free}
    # an RREF row is zero in every other pivot column, so each entry past
    # its pivot is a free-column coefficient
    for col, row in zip(pivots, reduced):
        for c, x in row.items():
            if c != col:
                by_free[c] += (col, -x if type(x) is int else _int_if_integral(-x))
    return [tuple(by_free[f]) for f in free], free


def column_space_basis(m: SparseMatrix) -> SparseMatrix:
    """The pivot columns of ``m``, a basis of its image, as the columns of
    one matrix (deterministic).  The matrix shares them with ``m``.

    >>> m = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    >>> basis = column_space_basis(m)
    >>> (basis.rows, basis.cols)
    (3, 2)
    >>> basis.packed[0] is m.packed[0] and basis.packed[1] is m.packed[2]
    True
    """
    pivots = pivot_columns(m)
    return _matrix(m.rows, len(pivots), tuple(map(m.packed.__getitem__, pivots)))
