"""The graded polynomial algebra on the stable characteristic classes.

The stable cohomology ring of the mapping class groups (boundary case) is a
polynomial ring over Q on generators e_1, e_2, e_3, ... — the
Mumford-Morita-Miller classes — with e_i placed in degree 2i.  This module
enumerates that ring degree by degree, as index data: there are no ring
elements, and no monomial is ever built.  A monomial is its position in
the canonical basis of its degree.

Degrees are always *internal* (cohomological) degrees, so everything lives
in even degree; the basis of the degree-d slice corresponds to the
partitions of d/2 (the part i contributing one factor e_i).  A degree bound
caps every per-degree enumeration.

Each `PolynomialAlgebra` builds its own per-degree tables on first use, by
index arithmetic.  Write B(k, s) for the monomials of degree 2k whose
indices are all >= s, in canonical order: first index ascending, its
exponent descending, then the tails in the same order.  Its block (j, e)
is e_j^e times the tails B(k - je, j + 1), so the counts N(k, s) of these
sets fix every block's offset, and the Hilbert function, the
multiplication tables and the total exponents are arithmetic on them
(A. Nijenhuis and H. Wilf, *Combinatorial Algorithms*, 2nd ed., 1978,
ch. 9-10).  B(k, s) is a suffix of B(k, 1), so the forms read their
matching off the counts too (`DifferentialForms._up_marks`).  The
exponent of e_i at each position, which the forms' exterior derivative
reads, is scattered through the table of e_i from its quotients'
exponents.  Exterior bases are enumerated once per instance.

>>> A = PolynomialAlgebra(24)
>>> A.hilbert_function(10)
7
>>> A.total_exponents(8)  # e1^4, e1^2*e2, e1*e3, e2^2, e4
(4, 3, 2, 2, 1)
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add
from typing import Dict, List, Optional, Tuple

class DegreeBoundError(ValueError):
    """A per-degree enumeration was requested beyond the configured bound."""


class PolynomialAlgebra:
    """The ring Q[e_1, e_2, ...] with deg e_i = 2i, enumerated up to a bound.

    The bound must be an even nonnegative integer; per-degree queries above
    it raise :class:`DegreeBoundError` (no silent truncation anywhere).
    """

    def __init__(self, degree_bound: int = 24):
        if degree_bound < 0 or degree_bound % 2:
            raise ValueError("degree bound must be even and >= 0")
        self.degree_bound = degree_bound
        self._count_cache: List[List[int]] = []
        self._start_cache: Dict[Tuple[int, int], List[int]] = {}
        self._mult_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._total_cache: Dict[int, Tuple[int, ...]] = {}
        self._exp_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._exterior_cache: Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]] = {}

    def generator_indices(self) -> range:
        """Indices i of the generators e_i living inside the bound."""
        return range(1, self.degree_bound // 2 + 1)

    def _check_degree(self, d: int) -> None:
        if d < 0:
            raise ValueError("degrees are nonnegative")
        if d > self.degree_bound:
            raise DegreeBoundError(
                f"degree {d} exceeds the configured bound {self.degree_bound}"
            )

    def _counts(self) -> List[List[int]]:
        """N[k][s], the size of B(k, s), for k up to half the bound and s up
        to one past every index inside the bound: N[0][s] = 1 (the unit),
        N[k][s] = 0 for s > k > 0, and otherwise the monomials with first
        index s (e_s^e times B(k - se, s + 1)) plus those above it."""
        counts = self._count_cache
        if not counts:
            top = self.degree_bound // 2
            for k in range(top + 1):
                row = [1] * (top + 2) if k == 0 else [0] * (top + 2)
                for s in range(k, 0, -1):
                    row[s] = row[s + 1] + sum(counts[k - s * e][s + 1] for e in range(1, k // s + 1))
                counts.append(row)
        return counts

    def hilbert_function(self, d: int) -> int:
        """dim_Q of the degree-d slice: the partition count p(d/2), read
        from the counts, with no monomial enumerated."""
        self._check_degree(d)
        return 0 if d % 2 else self._counts()[d // 2][1]

    def _block_starts(self, k: int, j: int) -> List[int]:
        """Entry e is the position of block (j, e), e_j^e times
        B(k - je, j + 1), in the basis of degree 2k: after the monomials
        with first index below j and the blocks (j, f) with f > e.  Entry 0
        is the end of the run of first index j."""
        key = (k, j)
        starts = self._start_cache.get(key)
        if starts is None:
            n = self._counts()
            top = k // j
            starts = [0] * (top + 1)
            at = n[k][1] - n[k][j]
            for e in range(top, -1, -1):
                starts[e] = at
                at += n[k - j * e][j + 1]
            self._start_cache[key] = starts
        return starts

    def multiplication_table(self, i: int, d: int) -> Tuple[int, ...]:
        """Multiplication by e_i from degree d to degree d + 2i, as positions:
        entry k is the position of m_k * e_i in the basis of degree d + 2i,
        m_k the k-th basis monomial of degree d.

        Every matrix that multiplies by a generator is built from these
        tables by index arithmetic, with no monomial per matrix entry.  A
        table is built from the source basis's blocks (j, e), k = d/2, in
        their order:

        * j < i: e_i goes into the tail, so the block is the table of e_i
          on B(k - je, j + 1), shifted into the target block (j, e).  That
          sub-table is the tail of the table of e_i from degree
          2(k - je), whose positions in B(k - je + i, 1) lie in its suffix
          B(k - je + i, j + 1);
        * j = i: the block (i, e) goes onto the target block (i, e + 1),
          one contiguous range;
        * j > i: these monomials are B(k, i + 1), contiguous, and go onto
          the target block (i, 1), whose tails they are.

        >>> A = PolynomialAlgebra(24)
        >>> A.multiplication_table(1, 4)  # e1^2 -> e1^3, e2 -> e1*e2 of e1^3, e1*e2, e3
        (0, 1)
        """
        key = (i, d)
        table = self._mult_cache.get(key)
        if table is None:
            if i < 1:
                raise ValueError("generator indices start at 1")
            self._check_degree(d)
            self._check_degree(d + 2 * i)
            table = () if d % 2 else self._build_table(i, d // 2)
            # checked once here, so that a matrix built from the table needs
            # no check per entry: one entry per monomial, each an int in
            # range of the target basis
            size = self.hilbert_function(d + 2 * i)
            if len(table) != self.hilbert_function(d) or table and (
                set(map(type, table)) != {int} or min(table) < 0 or max(table) >= size
            ):
                raise ValueError(
                    f"the table of e{i} from degree {d} is not {self.hilbert_function(d)} "
                    f"positions in range({size})"
                )
            self._mult_cache[key] = table
        return table

    def _build_table(self, i: int, k: int) -> Tuple[int, ...]:
        # the three kinds of block of `multiplication_table`, in source order
        n = self._counts()
        starts = self._block_starts
        parts: List = []
        for j in range(1, i):
            onto = starts(k + i, j)
            for e in range(k // j, 0, -1):
                rest = k - j * e
                size = n[rest][j + 1]
                if size:
                    sub = self.multiplication_table(i, 2 * rest)
                    shift = onto[e] - n[rest + i][1] + n[rest + i][j + 1]
                    parts.append(map(add, sub[len(sub) - size :], repeat(shift)))
        onto = starts(k + i, i)
        for e in range(k // i, 0, -1):
            parts.append(range(onto[e + 1], onto[e + 1] + n[k - i * e][i + 1]))
        parts.append(range(onto[1], onto[1] + n[k][i + 1]))
        return tuple(chain.from_iterable(parts))

    def _block_offset(
        self, block: Optional[Tuple[int, int]], degree: int, rows: int
    ) -> Optional[int]:
        """The offset of ``block``, an ``(offset, degree)`` pair that places
        the monomial basis of a degree in a larger basis, if its degree is
        ``degree`` and it lies inside ``range(rows)``; else None.  The
        builders' check of one target block: every position of a table into
        ``degree``, moved by the offset, is then a row in range."""
        if block is not None and block[1] == degree:
            offset = block[0]
            if 0 <= offset and offset + self.hilbert_function(degree) <= rows:
                return offset
        return None

    def total_exponents(self, d: int) -> Tuple[int, ...]:
        """The number of generator factors of each basis monomial of degree
        d, from the counts alone: the run of first index j in degree 2k is
        e_j times B(k - j, j), the last N(k - j, j) monomials of degree
        2(k - j), so each of its monomials has one factor more than there.
        No multiplication table is read, so the Euler weights built on these
        cross-check the forms' operators, which are built from the tables."""
        self._check_degree(d)
        if d % 2:
            return ()
        totals = self._total_cache.get(d)
        if totals is None:
            k = d // 2
            n = self._counts()
            parts: List = [(0,)] if k == 0 else []
            for j in range(1, k + 1):
                below = self.total_exponents(2 * (k - j))
                parts.append(map(add, below[len(below) - n[k - j][j] :], repeat(1)))
            totals = self._total_cache[d] = tuple(chain.from_iterable(parts))
        return totals

    def exponents(self, i: int, d: int) -> Tuple[int, ...]:
        """The exponent of e_i in each basis monomial of degree d: 0 where
        e_i does not divide it, and where it does, at entry k of the table
        of e_i from degree d - 2i, one more than at k there.

        >>> PolynomialAlgebra(24).exponents(1, 6)  # e1^3, e1*e2, e3
        (3, 1, 0)
        """
        key = (i, d)
        exps = self._exp_cache.get(key)
        if exps is None:
            if i < 1:
                raise ValueError("generator indices start at 1")
            out = [0] * self.hilbert_function(d)
            if d >= 2 * i:
                below = d - 2 * i
                for q, e in zip(self.multiplication_table(i, below), self.exponents(i, below)):
                    out[q] = e + 1
            exps = self._exp_cache[key] = tuple(out)
        return exps

    def exterior_basis(self, n: int, d: int) -> Tuple[Tuple[int, ...], ...]:
        """:func:`exterior_basis` ``(n, d)``, enumerated once per instance."""
        key = (n, d)
        wedges = self._exterior_cache.get(key)
        if wedges is None:
            wedges = self._exterior_cache[key] = exterior_basis(n, d)
        return wedges


# ---------------------------------------------------------------------------
# exterior combinatorics (the wedges of the forms complex, and Lambda^j E)


def exterior_basis(n: int, d: int) -> Tuple[Tuple[int, ...], ...]:
    """Strictly increasing n-tuples (i_1 < ... < i_n) of generator indices
    with internal degree 2(i_1 + ... + i_n) = d, in ascending lex order.

    This is the degree-d slice of the n-th exterior power of the generator
    space (basis e_{i_1} ^ ... ^ e_{i_n}).

    >>> exterior_basis(2, 10)
    ((1, 4), (2, 3))
    """
    if n < 0 or d < 0:
        return ()
    if d % 2:
        return ()
    out: List[Tuple[int, ...]] = []
    _extend_wedges(out, (), 1, d // 2, n)
    return tuple(out)


def _extend_wedges(
    out: List[Tuple[int, ...]], prefix: Tuple[int, ...], start: int, remaining: int, slots: int
) -> None:
    # a module-level function, not a closure: a recursive closure refers to
    # itself through its cell, and each call would leave a reference cycle
    if slots == 0:
        if remaining == 0:
            out.append(prefix)
        return
    # smallest possible completion: start, start+1, ..., start+slots-1
    i = start
    while i * slots + slots * (slots - 1) // 2 <= remaining:
        _extend_wedges(out, prefix + (i,), i + 1, remaining - i, slots - 1)
        i += 1


def exterior_dim(n: int, d: int) -> int:
    """dim of the degree-d slice of the n-th exterior power."""
    return len(exterior_basis(n, d))
