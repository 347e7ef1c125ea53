"""The graded polynomial algebra on the stable characteristic classes.

The stable cohomology ring of the mapping class groups (boundary case) is a
polynomial ring over Q on generators e_1, e_2, e_3, ... — the
Mumford-Morita-Miller classes — with e_i placed in degree 2i.  This module
realises that ring with exact coefficients: monomials, homogeneous elements,
per-degree bases and the Hilbert function.

Degrees are always *internal* (cohomological) degrees, so everything lives
in even degree; the basis of the degree-d slice corresponds to the
partitions of d/2 (the part i contributing one factor e_i).

A degree bound caps all per-degree *enumeration*; ring arithmetic itself is
exact at every degree, since elements are stored sparsely and nothing is
ever truncated.

Each `PolynomialAlgebra` builds its own per-degree tables on first use, by
index arithmetic: monomial bases generated in canonical order, the
multiplication tables, total exponents, smallest indices and exterior
bases.

>>> A = PolynomialAlgebra(24)
>>> [str(m) for m in A.monomial_basis(4)]
['e1^2', 'e2']
>>> A.hilbert_function(10)
7
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DegreeBoundError(ValueError):
    """A per-degree enumeration was requested beyond the configured bound."""


class Monomial:
    """A monomial in the e_i, kept as a sorted tuple of (index, exponent).

    >>> m = Monomial.from_exponents({1: 2, 3: 1})
    >>> str(m), m.degree, m.total_exponent
    ('e1^2*e3', 10, 3)
    >>> str(m * Monomial.generator(3))
    'e1^2*e3^2'
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Tuple[Tuple[int, int], ...]):
        self._pairs = pairs

    @classmethod
    def from_exponents(cls, exps: Mapping[int, int]) -> "Monomial":
        pairs = []
        for i in sorted(exps):
            e = exps[i]
            if e < 0 or i < 1:
                raise ValueError("generator indices are >= 1, exponents >= 0")
            if e:
                pairs.append((i, e))
        return cls(tuple(pairs))

    @classmethod
    def one(cls) -> "Monomial":
        return cls(())

    @classmethod
    def generator(cls, i: int) -> "Monomial":
        if i < 1:
            raise ValueError("generator indices start at 1")
        return cls(((i, 1),))

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return self._pairs

    @property
    def degree(self) -> int:
        # deg e_i = 2i
        return sum(2 * i * e for i, e in self._pairs)

    @property
    def total_exponent(self) -> int:
        """Number of generator factors counted with multiplicity."""
        return sum(e for _, e in self._pairs)

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented  # let module elements handle it via __rmul__
        exps: Dict[int, int] = dict(self._pairs)
        for i, e in other._pairs:
            exps[i] = exps.get(i, 0) + e
        return Monomial(tuple(sorted(exps.items())))

    def sort_key(self) -> Tuple[Tuple[int, int], ...]:
        """Key for the canonical order: descending lex on the exponent
        vector read from e_1 upward (so e1^2 precedes e2 in degree 4)."""
        return tuple((i, -e) for i, e in self._pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __repr__(self):
        return f"Monomial({self._pairs!r})"

    def __str__(self):
        if not self._pairs:
            return "1"
        bits = []
        for i, e in self._pairs:
            bits.append(f"e{i}" if e == 1 else f"e{i}^{e}")
        return "*".join(bits)


class LinearCombination:
    """A sparse Q-combination: ``terms`` maps each key to its nonzero
    ``Fraction`` coefficient.

    The ring elements here and the twisted classes share this arithmetic;
    each subclass adds its generators, products, degrees and printing.
    Elements of different subclasses never compare equal.

    >>> x = LinearCombination({"a": 1, "b": 0.5, "c": 0})
    >>> x.terms
    {'a': Fraction(1, 1), 'b': Fraction(1, 2)}
    >>> (x - x).is_zero(), (x + x.scale(-2)).terms
    (True, {'a': Fraction(-1, 1), 'b': Fraction(-1, 2)})
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping] = None):
        terms = terms or {}
        exact = (c if type(c) is Fraction else Fraction(c) for c in terms.values())
        self.terms = {k: c for k, c in zip(terms, exact) if c}

    @classmethod
    def _summed(cls, pairs: Iterable[Tuple[object, Fraction]], start: Optional[Mapping] = None):
        """The element ``start`` + sum c * key over (key, c) pairs with
        ``Fraction`` c, zeros dropped."""
        # Fraction arithmetic and hashing a key are slow: a first term is
        # stored as it is, ``start`` is copied, not rehashed, and only the
        # zero keys are hashed again
        out: Dict[object, Fraction] = dict(start or {})
        get = out.get
        for key, c in pairs:
            s = get(key)
            out[key] = c if s is None else s + c
        for key in [key for key, c in out.items() if not c]:
            del out[key]
        r = cls.__new__(cls)
        r.terms = out
        return r

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented  # a ring element plus a twisted class is a TypeError
        return self._summed(other.terms.items(), self.terms)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._summed(((key, -c) for key, c in other.terms.items()), self.terms)

    def __neg__(self):
        return self._summed((key, -c) for key, c in self.terms.items())

    def scale(self, c):
        c = Fraction(c)
        return self._summed((key, c * x) for key, x in self.terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms


class AlgebraElement(LinearCombination):
    """A Q-linear combination of monomials, stored sparsely.

    Supports +, -, scalar and ring multiplication; multiplication is exact
    in any degree.

    >>> a = AlgebraElement.generator(1)
    >>> str(a * a - 2 * AlgebraElement.generator(2))
    'e1^2 - 2*e2'
    """

    __slots__ = ()

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def one(cls) -> "AlgebraElement":
        return cls({Monomial.one(): _ONE})

    @classmethod
    def generator(cls, i: int) -> "AlgebraElement":
        return cls({Monomial.generator(i): _ONE})

    def __mul__(self, other):
        if isinstance(other, Monomial):
            return self._summed((m * other, c) for m, c in self.terms.items())
        if isinstance(other, AlgebraElement):
            return self._summed(
                (m1 * m2, c1 * c2)
                for m1, c1 in self.terms.items()
                for m2, c2 in other.terms.items()
            )
        if not isinstance(other, (int, Fraction)):
            return NotImplemented  # module elements pick this up via __rmul__
        return self.scale(other)

    __rmul__ = __mul__

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous element (None for 0, error if mixed)."""
        degs = {m.degree for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, _ZERO)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"AlgebraElement({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=Monomial.sort_key):
            c = self.terms[m]
            if m.pairs == ():
                term = str(c)
            elif c == 1:
                term = str(m)
            elif c == -1:
                term = f"-{m}"
            else:
                term = f"{c}*{m}"
            bits.append(term)
        out = bits[0]
        for term in bits[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def _canonical_pairs(k: int, start: int = 1) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """The ``pairs`` of the monomials of degree 2k in the e_i, i >= start, in
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


def _times(pairs: Tuple[Tuple[int, int], ...], i: int) -> Tuple[Tuple[int, int], ...]:
    """The ``pairs`` of the monomial times e_i, kept sorted by index."""
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
        self._basis_cache: Dict[int, Tuple[Monomial, ...]] = {}
        self._position_cache: Dict[int, Dict[Tuple[Tuple[int, int], ...], int]] = {}
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

    def monomial_basis(self, d: int) -> Tuple[Monomial, ...]:
        """All monomials of internal degree d, canonically ordered."""
        self._check_degree(d)
        if d % 2:
            return ()
        cached = self._basis_cache.get(d)
        if cached is None:
            cached = self._basis_cache[d] = tuple(map(Monomial, _canonical_pairs(d // 2)))
        return cached

    def hilbert_function(self, d: int) -> int:
        """dim_Q of the degree-d slice: the partition count p(d/2)."""
        return len(self.monomial_basis(d))

    def _positions(self, d: int) -> Dict[Tuple[Tuple[int, int], ...], int]:
        # the position of each basis monomial of degree d, keyed by its
        # ``pairs``, for the tables
        pos = self._position_cache.get(d)
        if pos is None:
            basis = self.monomial_basis(d)
            pos = self._position_cache[d] = {m.pairs: k for k, m in enumerate(basis)}
        return pos

    def multiplication_table(self, i: int, d: int) -> Tuple[int, ...]:
        """Multiplication by e_i from degree d to degree d + 2i, as positions:
        entry k is the index of m_k * e_i in ``monomial_basis(d + 2i)``,
        m_k the k-th basis monomial of degree d.

        Every matrix that multiplies by a generator is built from these
        tables by index arithmetic, with no monomial per matrix entry; a
        table itself puts e_i into each monomial's ``pairs``.

        >>> A = PolynomialAlgebra(24)
        >>> [str(m) for m in A.monomial_basis(6)]
        ['e1^3', 'e1*e2', 'e3']
        >>> A.multiplication_table(1, 4)  # e1^2 -> e1^3, e2 -> e1*e2
        (0, 1)
        """
        key = (i, d)
        table = self._mult_cache.get(key)
        if table is None:
            target = self._positions(d + 2 * i)
            table = tuple(map(target.get, (_times(m.pairs, i) for m in self.monomial_basis(d))))
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
            table = self._total_cache[d] = tuple(m.total_exponent for m in self.monomial_basis(d))
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
                m.pairs[0][0] if m.pairs else past for m in self.monomial_basis(d)
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
