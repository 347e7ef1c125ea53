"""The object arithmetic of the ring and the twisted classes, kept as a
test-only oracle.

``PolynomialAlgebra`` enumerates A = Q[e_1, e_2, ...] as index data: a
monomial is its position in the canonical basis of its degree, and every
matrix is built from multiplication tables.  ``mmmcoh.stable`` states the contraction
pairing and the kernel generators M(i, j) as index data too.  This is the
arithmetic they replaced: monomials, ring elements and twisted classes as
objects with exact ``Fraction`` coefficients, the pairing as an A-bilinear
form on them, and M(i, j) as a twisted element.  The tests check the
tables and the index data against it.

The algebra's tables come from counts of its blocks; ``monomial_basis``
here is the enumeration they replaced, each monomial as its pairs tuple
``((i, e), ...)`` of each index with its positive exponent, indices
ascending, and ``multiplication_table``, ``hilbert_function``,
``total_exponents``, ``exponents`` and ``smallest_indices`` read it: every
basis monomial, e_i put into its pairs (``times``) and the product looked
up among the target basis.  ``smallest_indices`` also
states the forms' matching per monomial, which ``_up_marks`` reads off the
counts, and ``wedge_insert`` and ``wedge_remove`` put an index into a
wedge and contract one slot of it, for the operator oracles of the forms
tests (the package's d reads its columns off p and inserts no index).
"""

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)

# a monomial in the e_i, as its pairs (see above)
Pairs = Tuple[Tuple[int, int], ...]


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


@lru_cache(maxsize=None)
def _basis(k: int) -> Tuple[Pairs, ...]:
    return tuple(_canonical_pairs(k))


def monomial_basis(algebra, d: int) -> Tuple[Pairs, ...]:
    """The pairs of every monomial of internal degree d, canonically
    ordered, inside the algebra's bound.

    >>> from mmmcoh.algebra import PolynomialAlgebra
    >>> A = PolynomialAlgebra(24)
    >>> monomial_basis(A, 4)  # e1^2, e2
    (((1, 2),), ((2, 1),))
    >>> monomial_basis(A, 6)  # e1^3, e1*e2, e3
    (((1, 3),), ((1, 1), (2, 1)), ((3, 1),))
    """
    algebra._check_degree(d)
    return () if d % 2 else _basis(d // 2)


def monomials(algebra, d: int) -> Tuple["Monomial", ...]:
    """``monomial_basis(algebra, d)`` as Monomial objects, in its order."""
    return tuple(map(Monomial, monomial_basis(algebra, d)))


def times(pairs: Tuple[Tuple[int, int], ...], i: int) -> Tuple[Tuple[int, int], ...]:
    """The pairs of the monomial times e_i, kept sorted by index."""
    for k, (j, e) in enumerate(pairs):
        if j == i:
            return pairs[:k] + ((i, e + 1),) + pairs[k + 1 :]
        if j > i:
            return pairs[:k] + ((i, 1),) + pairs[k:]
    return pairs + ((i, 1),)


def multiplication_table(algebra, i: int, d: int) -> Tuple[int, ...]:
    """The table of e_i from degree d by enumeration: each basis monomial's
    pairs with e_i put in, looked up among the degree d + 2i basis.

    >>> from mmmcoh.algebra import PolynomialAlgebra
    >>> multiplication_table(PolynomialAlgebra(24), 1, 4)  # e1^2 -> e1^3, e2 -> e1*e2
    (0, 1)
    """
    target = {m: k for k, m in enumerate(monomial_basis(algebra, d + 2 * i))}
    return tuple(target[times(m, i)] for m in monomial_basis(algebra, d))


def hilbert_function(algebra, d: int) -> int:
    """The dimension of degree d as the length of its enumerated basis."""
    return len(monomial_basis(algebra, d))


def total_exponents(algebra, d: int) -> Tuple[int, ...]:
    """The number of generator factors of each enumerated basis monomial."""
    return tuple(sum(e for _, e in m) for m in monomial_basis(algebra, d))


def exponents(algebra, i: int, d: int) -> Tuple[int, ...]:
    """The exponent of e_i in each enumerated basis monomial, 0 where e_i
    does not divide it."""
    return tuple(dict(m).get(i, 0) for m in monomial_basis(algebra, d))


def smallest_indices(algebra, d: int) -> Tuple[int, ...]:
    """The first index of each enumerated basis monomial; the unit reads
    one past the bound's indices.

    >>> from mmmcoh.algebra import PolynomialAlgebra
    >>> A = PolynomialAlgebra(24)
    >>> smallest_indices(A, 6), smallest_indices(A, 0)  # e1^3, e1*e2, e3; 1
    ((1, 1, 3), (13,))
    """
    past = algebra.degree_bound // 2 + 1
    return tuple(m[0][0] if m else past for m in monomial_basis(algebra, d))


def wedge_insert(i: int, wedge: Tuple[int, ...]):
    """de_i ^ (wedge): None if i repeats, else (sign, sorted wedge).

    >>> wedge_insert(2, (1, 3))
    (-1, (1, 2, 3))
    """
    if i in wedge:
        return None
    pos = sum(1 for j in wedge if j < i)
    sign = -1 if pos % 2 else 1
    return sign, wedge[:pos] + (i,) + wedge[pos:]


def wedge_remove(k: int, wedge: Tuple[int, ...]):
    """Contract the k-th slot (0-based) of a wedge: (sign, index removed,
    rest).

    >>> wedge_remove(1, (1, 2, 3))
    (-1, 2, (1, 3))
    """
    sign = -1 if k % 2 else 1
    return sign, wedge[k], wedge[:k] + wedge[k + 1 :]


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



class TwistedElement(LinearCombination):
    """An element of the free twisted-class module: sum of c * mono * m_l.

    Terms are keyed by (l, monomial); the A-action multiplies the monomial.
    """

    __slots__ = ()

    @classmethod
    def generator(cls, l: int) -> "TwistedElement":
        if l < 1:
            raise ValueError("twisted classes are indexed from 1")
        return cls({(l, Monomial.one()): _ONE})

    def __rmul__(self, other) -> "TwistedElement":
        """Scalar, monomial or ring-element multiplication from the left."""
        if isinstance(other, Monomial):
            return self._summed(((l, other * m), c) for (l, m), c in self.terms.items())
        if isinstance(other, AlgebraElement):
            return self._summed(
                ((l, m1 * m2), c1 * c2)
                for m1, c1 in other.terms.items()
                for (l, m2), c2 in self.terms.items()
            )
        return self.scale(other)

    def internal_degree(self) -> Optional[int]:
        degs = {m.degree + 2 * l for (l, m) in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def __repr__(self):
        if not self.terms:
            return "TwistedElement(0)"
        bits = []
        for (l, m), c in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key())
        ):
            mono = f"{m}*" if m.pairs else ""
            bits.append(f"{c}*{mono}m{l}")
        return "TwistedElement(" + " + ".join(bits) + ")"


def contraction_pairing(x: TwistedElement, y: TwistedElement) -> AlgebraElement:
    """The A-bilinear pairing with mu(m_l, m_l') = -e_{l+l'-1}."""
    return AlgebraElement._summed(
        (m1 * m2 * Monomial.generator(l1 + l2 - 1), -c1 * c2)
        for (l1, m1), c1 in x.terms.items()
        for (l2, m2), c2 in y.terms.items()
    )


def kernel_generator(i: int, j: int) -> TwistedElement:
    """M(i, j) = e_i m_j - e_j m_i (antisymmetric, M(i, i) = 0)."""
    gi, gj = Monomial.generator(i), Monomial.generator(j)
    return (gi * TwistedElement.generator(j)) - (gj * TwistedElement.generator(i))


