"""The graded polynomial algebra on the stable characteristic classes.

The stable cohomology ring of the mapping class groups (boundary case) is a
polynomial ring over Q on generators e_1, e_2, e_3, ... — the
Mumford-Morita-Miller classes — with e_i placed in degree 2i.  This module
enumerates that ring degree by degree, as index data: there are no ring
elements.  A monomial is its pairs, the tuple ((i, e), ...) of each index
with its positive exponent, indices ascending; the unit is ().

Degrees are always *internal* (cohomological) degrees, so everything lives
in even degree; the basis of the degree-d slice corresponds to the
partitions of d/2 (the part i contributing one factor e_i).  A degree bound
caps every per-degree enumeration.

Each `PolynomialAlgebra` builds its own per-degree tables on first use, by
index arithmetic: monomial bases generated in canonical order, the
multiplication tables, total exponents, smallest indices and exterior
bases.

>>> A = PolynomialAlgebra(24)
>>> A.monomial_basis(4)  # e1^2, e2
(((1, 2),), ((2, 1),))
>>> A.hilbert_function(10)
7
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

# a monomial in the e_i, as its pairs (see above)
Pairs = Tuple[Tuple[int, int], ...]


class DegreeBoundError(ValueError):
    """A per-degree enumeration was requested beyond the configured bound."""


def _canonical_pairs(k: int, start: int = 1) -> Iterator[Pairs]:
    """The pairs of the monomials of degree 2k in the e_i, i >= start, in
    canonical order: first index ascending, its exponent descending, ..."""
    if k == 0:
        yield ()
        return
    for i in range(start, k + 1):
        for e in range(k // i, 0, -1):
            rest = k - i * e
            if rest == 0:
                yield ((i, e),)
            elif rest > i:  # the rest needs an index above i
                for tail in _canonical_pairs(rest, i + 1):
                    yield ((i, e),) + tail


def _times(pairs: Pairs, i: int) -> Pairs:
    """The pairs of the monomial times e_i, kept sorted by index."""
    for k, (j, e) in enumerate(pairs):
        if j == i:
            return pairs[:k] + ((i, e + 1),) + pairs[k + 1 :]
        if j > i:
            return pairs[:k] + ((i, 1),) + pairs[k:]
    return pairs + ((i, 1),)


class PolynomialAlgebra:
    """The ring Q[e_1, e_2, ...] with deg e_i = 2i, enumerated up to a bound.

    The bound must be an even nonnegative integer; per-degree queries above
    it raise :class:`DegreeBoundError` (no silent truncation anywhere).
    """

    def __init__(self, degree_bound: int = 24):
        if degree_bound < 0 or degree_bound % 2:
            raise ValueError("degree bound must be even and >= 0")
        self.degree_bound = degree_bound
        self._basis_cache: Dict[int, Tuple[Pairs, ...]] = {}
        self._position_cache: Dict[int, Dict[Pairs, int]] = {}
        self._mult_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._total_cache: Dict[int, Tuple[int, ...]] = {}
        self._smallest_cache: Dict[int, Tuple[int, ...]] = {}
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

    def monomial_basis(self, d: int) -> Tuple[Pairs, ...]:
        """The pairs of every monomial of internal degree d, canonically
        ordered: first index ascending, its exponent descending, ..."""
        self._check_degree(d)
        if d % 2:
            return ()
        cached = self._basis_cache.get(d)
        if cached is None:
            cached = self._basis_cache[d] = tuple(_canonical_pairs(d // 2))
        return cached

    def hilbert_function(self, d: int) -> int:
        """dim_Q of the degree-d slice: the partition count p(d/2)."""
        return len(self.monomial_basis(d))

    def _positions(self, d: int) -> Dict[Pairs, int]:
        # the position of each basis monomial of degree d, for the tables
        pos = self._position_cache.get(d)
        if pos is None:
            pos = self._position_cache[d] = {m: k for k, m in enumerate(self.monomial_basis(d))}
        return pos

    def multiplication_table(self, i: int, d: int) -> Tuple[int, ...]:
        """Multiplication by e_i from degree d to degree d + 2i, as positions:
        entry k is the index of m_k * e_i in ``monomial_basis(d + 2i)``,
        m_k the k-th basis monomial of degree d.

        Every matrix that multiplies by a generator is built from these
        tables by index arithmetic, with no monomial per matrix entry; a
        table itself puts e_i into each monomial's pairs.

        >>> A = PolynomialAlgebra(24)
        >>> A.monomial_basis(6)  # e1^3, e1*e2, e3
        (((1, 3),), ((1, 1), (2, 1)), ((3, 1),))
        >>> A.multiplication_table(1, 4)  # e1^2 -> e1^3, e2 -> e1*e2
        (0, 1)
        """
        key = (i, d)
        table = self._mult_cache.get(key)
        if table is None:
            target = self._positions(d + 2 * i)
            table = tuple(map(target.get, (_times(m, i) for m in self.monomial_basis(d))))
            # checked once here, so that a matrix built from the table needs
            # no check per entry: one entry per monomial, each an int in
            # range of the target basis (a product missing from the target
            # is a None)
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
        """The number of generator factors of each basis monomial of degree d."""
        table = self._total_cache.get(d)
        if table is None:
            table = self._total_cache[d] = tuple(
                sum(e for _, e in m) for m in self.monomial_basis(d)
            )
        return table

    def smallest_indices(self, d: int) -> Tuple[int, ...]:
        """The smallest generator index dividing each basis monomial of
        degree d.  The unit, which no generator divides, reads
        ``degree_bound // 2 + 1``, past every index inside the bound.

        >>> A = PolynomialAlgebra(24)
        >>> A.smallest_indices(6), A.smallest_indices(0)  # e1^3, e1*e2, e3; 1
        ((1, 1, 3), (13,))
        """
        table = self._smallest_cache.get(d)
        if table is None:
            past = self.degree_bound // 2 + 1
            table = self._smallest_cache[d] = tuple(
                m[0][0] if m else past for m in self.monomial_basis(d)
            )
        return table

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
