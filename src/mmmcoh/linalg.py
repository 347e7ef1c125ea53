"""Exact sparse linear algebra over the rationals.

Everything downstream — Hilbert functions, kernels of contraction maps,
Koszul homology — reduces to ranks, kernels and solves of sparse matrices
with ``fractions.Fraction`` entries.  This module is the single place where
elimination happens, and it never touches floating point: a rank computed
here is the rank, not an estimate.

Representation: a matrix keeps a dict ``(row, col) -> Fraction`` holding the
nonzero entries only; a vector keeps ``index -> Fraction``.  Both types are
treated as immutable after construction.

Reduction strategy: rows are eliminated column-by-column from the left so
that the reduced row echelon form (and hence every kernel basis) is the
canonical one; within a column the pivot row is chosen by sparsity to limit
fill-in (Markowitz's rule), ties going to the lowest row index.  Because
columns are cleared in order, a working row holds the current column
exactly when that column is its leading one, so rows wait in buckets keyed
by leading column: a pivot search reads one bucket, never the whole row
set.  Back-substitution and the kernel read-off each pass over the echelon
form once.  Rank-only queries skip the back-substitution pass.

Products: ``apply`` multiplies one vector and indexes the matrix by column
on every call, which costs O(nnz).  Many vectors go through one ``@``
product with the matrix of their columns, which indexes once.

Arithmetic: every value that crosses the interface (matrix and vector
entries, RREF rows, kernel vectors, solutions) is a ``Fraction``, but
inside the kernels (``@``, ``+``, ``apply``, elimination, ``solve_many``)
an integral value travels as a Python ``int``; ``_int_if_integral`` unwraps
an entry on the way in.  The matrices built downstream have integer
entries, so most of the arithmetic is machine-independent ``int``
arithmetic, and Python's numeric tower keeps a value exact as a
``Fraction`` where a division actually happens (a pivot other than +-1).
On the way out ``_as_q`` wraps an ``int`` through ``_SMALL``, one shared
``Fraction`` per small integer.  Sharing is safe because ``Fraction`` is
immutable; it saves an allocation per entry, lets cached matrices share
their entries, and lets ``==`` on two matrices hit the identity shortcut.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Q = Fraction

_SMALL = {i: Fraction(i) for i in range(-64, 65)}
_ZERO = _SMALL[0]
_ONE = _SMALL[1]


def _as_q(x) -> Fraction:
    if type(x) is Fraction:
        return x
    q = _SMALL.get(x)  # no truth test: Fraction.__bool__ runs in Python
    return q if q is not None else Fraction(x)


def _int_if_integral(x: Fraction):
    # the one reader of Fraction internals: the public properties are about
    # 5x slower, and this runs once per entry entering a kernel
    return x._numerator if x._denominator == 1 else x


class VectorQ:
    """A sparse rational vector of fixed dimension.

    >>> v = VectorQ(3, {0: 1, 2: Fraction(-1, 2)})
    >>> v.to_list()
    [Fraction(1, 1), Fraction(0, 1), Fraction(-1, 2)]
    >>> (v + v)[2]
    Fraction(-1, 1)
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Optional[Mapping[int, Fraction]] = None):
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        self.dim = dim
        clean: Dict[int, Fraction] = {}
        if entries:
            for i, x in entries.items():
                if not 0 <= i < dim:
                    raise IndexError(f"index {i} out of range for dim {dim}")
                t = type(x)  # the same three paths as in SparseMatrix
                if t is Fraction:
                    if x:
                        clean[i] = x
                elif t is int:
                    if x:
                        q = _SMALL.get(x)
                        clean[i] = q if q is not None else Fraction(x)
                else:
                    x = _as_q(x)
                    if x:
                        clean[i] = x
        self.entries = clean

    @classmethod
    def from_list(cls, values: Sequence) -> "VectorQ":
        return cls(len(values), {i: _as_q(x) for i, x in enumerate(values) if x})

    @classmethod
    def unit(cls, dim: int, i: int) -> "VectorQ":
        return cls(dim, {i: _ONE})

    def __getitem__(self, i: int) -> Fraction:
        if not 0 <= i < self.dim:
            raise IndexError(i)
        return self.entries.get(i, _ZERO)

    def __add__(self, other: "VectorQ") -> "VectorQ":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.entries)
        for i, x in other.entries.items():
            s = out.get(i, _ZERO) + x
            if s:
                out[i] = s
            else:
                out.pop(i, None)
        v = VectorQ.__new__(VectorQ)
        v.dim, v.entries = self.dim, out
        return v

    def __sub__(self, other: "VectorQ") -> "VectorQ":
        return self + (-other)

    def __neg__(self) -> "VectorQ":
        v = VectorQ.__new__(VectorQ)
        v.dim = self.dim
        v.entries = {i: -x for i, x in self.entries.items()}
        return v

    def scale(self, c) -> "VectorQ":
        c = _as_q(c)
        v = VectorQ.__new__(VectorQ)
        v.dim = self.dim
        v.entries = {i: c * x for i, x in self.entries.items()} if c else {}
        return v

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not self.entries

    def to_list(self) -> List[Fraction]:
        return [self.entries.get(i, _ZERO) for i in range(self.dim)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorQ)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def __repr__(self):
        return f"VectorQ({self.dim}, {dict(sorted(self.entries.items()))!r})"


class SparseMatrix:
    """A sparse rational matrix; ``entries[(r, c)]`` holds the nonzeros."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Optional[Mapping[Tuple[int, int], Fraction]] = None,
    ):
        if rows < 0 or cols < 0:
            raise ValueError("shape must be nonnegative")
        self.rows = rows
        self.cols = cols
        clean: Dict[Tuple[int, int], Fraction] = {}
        if entries:
            for key, x in entries.items():
                r, c = key
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
                # an int is tested for zero before it is wrapped, because
                # int.__bool__ runs in C and Fraction.__bool__ in Python
                t = type(x)
                if t is Fraction:
                    if x:
                        clean[key] = x
                elif t is int:
                    if x:
                        q = _SMALL.get(x)
                        clean[key] = q if q is not None else Fraction(x)
                else:
                    x = _as_q(x)
                    if x:
                        clean[key] = x
        self.entries = clean

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
                    entries[(r, c)] = _as_q(x)
        return cls(rows, cols, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[VectorQ], rows: Optional[int] = None) -> "SparseMatrix":
        if rows is None:
            if not columns:
                raise ValueError("need explicit row count for empty column list")
            rows = columns[0].dim
        entries = {}
        for c, v in enumerate(columns):
            if v.dim != rows:
                raise ValueError("column dimension mismatch")
            for r, x in v.entries.items():
                entries[(r, c)] = x
        return cls(rows, len(columns), entries)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {(i, i): _ONE for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols)

    def entry(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), _ZERO)

    def column(self, c: int) -> VectorQ:
        if not 0 <= c < self.cols:
            raise IndexError(c)
        v = VectorQ.__new__(VectorQ)
        v.dim = self.rows
        v.entries = {r: x for (r, cc), x in self.entries.items() if cc == c}
        return v

    def columns(self) -> List[VectorQ]:
        cols: List[Dict[int, Fraction]] = [dict() for _ in range(self.cols)]
        for (r, c), x in self.entries.items():
            cols[c][r] = x
        out = []
        for d in cols:
            v = VectorQ.__new__(VectorQ)
            v.dim, v.entries = self.rows, d
            out.append(v)
        return out

    def apply(self, v: VectorQ) -> VectorQ:
        """Matrix-vector product (column convention), for one vector; for
        many, multiply by the matrix of their columns instead."""
        if v.dim != self.cols:
            raise ValueError("dimension mismatch")
        acc: Dict[int, object] = {}
        rows_by_col = self._rows_by_col()
        for c, x in v.entries.items():
            x = _int_if_integral(x)
            for r, a in rows_by_col.get(c, ()):
                acc[r] = acc.get(r, 0) + a * x
        w = VectorQ.__new__(VectorQ)
        w.dim, w.entries = self.rows, {r: _as_q(s) for r, s in acc.items() if s}
        return w

    def _rows_by_col(self):
        # column -> [(row, entry as int when integral)]
        by_col: Dict[int, List[Tuple[int, object]]] = {}
        for (r, c), x in self.entries.items():
            by_col.setdefault(c, []).append((r, _int_if_integral(x)))
        return by_col

    def __matmul__(self, other):
        if isinstance(other, VectorQ):
            return self.apply(other)
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        left_by_col = self._rows_by_col()
        acc: Dict[Tuple[int, int], object] = {}
        for (k, c), x in other.entries.items():
            col = left_by_col.get(k)
            if col:
                x = _int_if_integral(x)
                for r, a in col:
                    key = (r, c)
                    acc[key] = acc.get(key, 0) + a * x
        m = SparseMatrix.__new__(SparseMatrix)
        m.rows, m.cols = self.rows, other.cols
        m.entries = {key: _as_q(s) for key, s in acc.items() if s}
        return m

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = dict(self.entries)
        for key, x in other.entries.items():
            y = out.get(key)
            if y is None:
                out[key] = x
                continue
            s = _int_if_integral(y) + _int_if_integral(x)
            if s:
                out[key] = _as_q(s)
            else:
                del out[key]
        m = SparseMatrix.__new__(SparseMatrix)
        m.rows, m.cols, m.entries = self.rows, self.cols, out
        return m

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (-other)

    def __neg__(self) -> "SparseMatrix":
        m = SparseMatrix.__new__(SparseMatrix)
        m.rows, m.cols = self.rows, self.cols
        m.entries = {k: -x for k, x in self.entries.items()}
        return m

    def scale(self, c) -> "SparseMatrix":
        c = _as_q(c)
        m = SparseMatrix.__new__(SparseMatrix)
        m.rows, m.cols = self.rows, self.cols
        m.entries = {k: c * x for k, x in self.entries.items()} if c else {}
        return m

    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def to_lists(self) -> List[List[Fraction]]:
        return [
            [self.entries.get((r, c), _ZERO) for c in range(self.cols)]
            for r in range(self.rows)
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


# ---------------------------------------------------------------------------
# elimination


def _row_dicts(m: SparseMatrix) -> List[Dict[int, object]]:
    rows: List[Dict[int, object]] = [dict() for _ in range(m.rows)]
    for (r, c), x in m.entries.items():
        rows[r][c] = _int_if_integral(x)
    return [r for r in rows if r]


def _sub_scaled(row: Dict[int, object], piv: Dict[int, object], f):
    # row - f*piv, in place on a copy-free dict
    for c, x in piv.items():
        s = row.get(c, 0) - f * x
        if s:
            row[c] = s
        else:
            row.pop(c, None)


def _forward(rows: List[Dict[int, object]], width: int, pivot_limit: Optional[int] = None):
    """Forward elimination with normalized pivots.

    Columns are taken in increasing order (so the pivot-column set is
    canonical); among the rows holding a column the sparsest wins, ties
    going to the lowest row index.  Every working row sits in the bucket of
    its leading column, so a column's candidates are exactly its bucket:
    only those rows are reduced, and each is moved to the bucket of its new
    leading column.  Returns ``(pivot_cols, echelon_rows)`` with each
    echelon row scaled to a leading 1 and the pivot column eliminated from
    all later rows.  Values stay ``int`` while they are integral.
    """
    limit = width if pivot_limit is None else pivot_limit
    work = [r for r in rows if r]
    buckets: Dict[int, List[int]] = {}
    for idx, row in enumerate(work):
        lead = min(row)
        if lead < limit:
            buckets.setdefault(lead, []).append(idx)
    pivots: List[int] = []
    echelon: List[Dict[int, object]] = []
    for col in range(limit):
        if not buckets:
            break
        bucket = buckets.pop(col, None)
        if bucket is None:
            continue
        best = min(bucket, key=lambda idx: (len(work[idx]), idx))
        piv = work[best]
        lead = piv[col]
        if lead == -1:
            piv = {c: -x for c, x in piv.items()}
        elif lead != 1:
            inv = Fraction(1, lead)
            piv = {c: inv * x for c, x in piv.items()}
        for idx in bucket:
            if idx == best:
                continue
            row = work[idx]
            _sub_scaled(row, piv, row[col])
            if row:
                lead = min(row)
                if lead < limit:
                    buckets.setdefault(lead, []).append(idx)
        pivots.append(col)
        echelon.append(piv)
    return pivots, echelon


def _back_substitute(pivots: List[int], echelon: List[Dict[int, object]]):
    # clear each pivot column from the rows above it -> canonical RREF.
    # When row k is subtracted it has already lost every later pivot column,
    # so it brings only its own pivot and free columns into the rows above:
    # the rows holding each pivot column can be listed once, up front.
    position = {col: k for k, col in enumerate(pivots)}
    holders: List[List[int]] = [[] for _ in pivots]
    for j, row in enumerate(echelon):
        for col in row:
            k = position.get(col)
            if k is not None and k > j:
                holders[k].append(j)
    for k in range(len(echelon) - 1, -1, -1):
        col = pivots[k]
        piv = echelon[k]
        for j in holders[k]:
            _sub_scaled(echelon[j], piv, echelon[j][col])


def rref(m: SparseMatrix, pivot_limit: Optional[int] = None):
    """Canonical reduced row echelon form.

    Returns ``(pivot_cols, rows)`` where rows are dicts ``col -> Fraction``.
    The result is unique (independent of pivoting choices), which is what
    makes kernel bases deterministic.
    """
    pivots, echelon = _forward(_row_dicts(m), m.cols, pivot_limit)
    _back_substitute(pivots, echelon)
    return pivots, [{c: _as_q(x) for c, x in row.items()} for row in echelon]


def rank(m: SparseMatrix) -> int:
    """Rank over Q, by exact Gaussian elimination."""
    pivots, _ = _forward(_row_dicts(m), m.cols)
    return len(pivots)


def kernel_basis(m: SparseMatrix) -> List[VectorQ]:
    """Basis of the right null space ``{v : m v = 0}``.

    One basis vector per free column, in increasing column order; each has a
    1 in its free coordinate and 0 in the other free coordinates (the
    canonical RREF construction), so the basis is deterministic.
    """
    return _kernel_with_free_columns(m)[0]


def _kernel_with_free_columns(m: SparseMatrix):
    pivots, echelon = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    by_free: Dict[int, Dict[int, Fraction]] = {f: {f: _ONE} for f in free}
    # an RREF row is zero in every other pivot column, so each entry past
    # its pivot is a free-column coefficient
    for col, row in zip(pivots, echelon):
        for c, x in row.items():
            if c != col:
                by_free[c][col] = -x
    basis = []
    for f in free:
        v = VectorQ.__new__(VectorQ)
        v.dim, v.entries = m.cols, by_free[f]
        basis.append(v)
    return basis, free


def column_space_basis(m: SparseMatrix) -> List[VectorQ]:
    """The pivot columns of ``m`` (a basis of the image, deterministic)."""
    pivots, _ = _forward(_row_dicts(m), m.cols)
    return [m.column(c) for c in pivots]


def solve(m: SparseMatrix, b: VectorQ) -> Optional[VectorQ]:
    """One exact solution of ``m x = b``, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if b.dim != m.rows:
        raise ValueError("right-hand side dimension mismatch")
    sols = solve_many(m, [b])
    return sols[0]


def solve_many(m: SparseMatrix, bs: Sequence[VectorQ]) -> List[Optional[VectorQ]]:
    """Solve ``m x = b`` for several right-hand sides with one elimination.

    The candidate read off the pivot rows is verified by an exact
    multiplication, which doubles as the consistency test (a candidate from
    an inconsistent system fails it).
    """
    rows: List[Dict[int, object]] = [dict() for _ in range(m.rows)]
    for (r, c), x in m.entries.items():
        rows[r][c] = _int_if_integral(x)
    n = m.cols
    for j, b in enumerate(bs):
        if b.dim != m.rows:
            raise ValueError("right-hand side dimension mismatch")
        for r, x in b.entries.items():
            rows[r][n + j] = _int_if_integral(x)
    pivots, echelon = _forward([r for r in rows if r], n + len(bs), pivot_limit=n)
    _back_substitute(pivots, echelon)
    candidates: List[Dict[int, object]] = [dict() for _ in bs]
    for pcol, row in zip(pivots, echelon):
        for col, x in row.items():
            if col >= n:
                candidates[col - n][pcol] = x
    xs = [VectorQ(n, entries) for entries in candidates]
    products = (m @ SparseMatrix.from_columns(xs, rows=n)).columns()
    return [x if mx == b else None for x, mx, b in zip(xs, products, bs)]
