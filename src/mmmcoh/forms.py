"""The de Rham-style complex of forms on the characteristic-class ring.

Write A = Q[e_1, e_2, ...] for the stable class ring.  The space of
n-forms is Omega^n = A tensor Lambda^n(E) with basis elements

    (monomial) * de_{i_1} ^ ... ^ de_{i_n},   i_1 < ... < i_n,

graded by internal degree deg(monomial) + 2(i_1 + ... + i_n).  Three odd
operators act per degree:

* the exterior derivative d       (d e_i = de_i, d(de_i) = 0),
* the Euler contraction p         (A-linear, p(de_i) = e_i, Koszul signs),
* the Lie-type operator L = d p + p d, which is diagonal: a basis form with
  m generator factors in its coefficient and n wedge factors is an
  eigenvector of eigenvalue m + n.

The chain of contractions ... -> Omega^2 -> Omega^1 -> Omega^0 -> Q -> 0
is exact in every positive internal degree.  `verify_exactness` certifies
it from p alone, by a unit minor of each p_n on the forms of a discrete
Morse matching, p^2 = 0 and the counts of the matching; `verify_cartan`
also checks, in the same pass, that L is the diagonal of positive weights.
Both walk their identities on the down forms of the matching only, half
the columns of each degree: with the unit minors and the counts, and for
the Cartan identity with p keeping the Euler weight, these settle the
up forms too (`DifferentialForms._certify`).
d^2 = 0 is checked only by tests/test_forms.py, at bound 24.

The certificates read p slot-major.  Every column of p_n has n entries,
entry t contracting slot t of its wedge, so p_n is built as n lists of
rows and n lists of values, list t holding entry t of every column
(`DifferentialForms._contraction`; the fixed-width ELLPACK layout of
Y. Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed., SIAM
2003, section 3.4), with no tuple per column.  The unit minor and
p^2 = 0 are slot tests over these lists, with no loop per column.  The
unit minor holds when slot 0 of each down column is an up row with a
nonzero value, no other slot is, and the slot-0 rows are distinct.  p_{n-1} p_n = 0 holds when
the values follow the Koszul signs and, for slots t < u, "contract t,
then u - 1" lands on the row of "contract u, then t": the two terms
cancel, and such pairs cover every term.  Each is a few passes at C
level over whole lists: ``compress`` of each slot list to the down
positions, a gather through the slot lists of p_{n-1}, one count per
value list.  A slot test certifies only what it proves; when one does
not close, the scan of each packed column decides (`_minor_scan`,
`_square_scan`), so the verdicts, messages and reports are those of the
scans.  The Cartan identity is walked column by column, reading p by
slot and d as its packed columns (`exterior_derivative`); no operator
here is a matrix object.

The complex is streamed degree by degree: the operators are built on
each call and kept by no one here, so `verify_exactness(d)` and
`verify_cartan(d)` hold the operators of degree d only while they walk
them.  An instance keeps one exactness report per degree and the layouts
read since the last walk began: a walk of degree d drops the layouts of
every other degree, and a later statement that reads one builds it again.
The algebra's tables, the exponents that d reads among them, are kept by
the algebra.

Every operator here is finite per (form degree, internal degree), and
exact: its values are ints.

Layout: the basis of Omega^n_d is wedge-major.  The wedges of weight at
most d come in ascending lex order, and each wedge w owns one block, the
monomial basis of the coefficient degree d - wt(w), at an offset fixed by
the blocks before it.  The operators are built from these offsets, the
algebra's multiplication tables and, for d, the exponent of e_i at each
position (`PolynomialAlgebra.exponents`), so an operator entry is index
arithmetic.  The builders check each target block once (its coefficient
degree and its place inside the rows), not each entry: a table's
positions are checked to lie in range when the algebra makes it, so every
row of the block is then in range.
A basis form is never built as an object: it is the pair (monomial,
wedge) at its position in the layout, and ``_layout`` is the one record
of that order.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import add, itemgetter, setitem
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .algebra import PolynomialAlgebra
from .linalg import _gathered

# an operator as packed columns ``(row, value, row, value, ...)``, with no
# matrix object: d as `exterior_derivative` builds it, p where a scan reads it
Packed = Tuple[Tuple[int, ...], ...]

# p_n as `DifferentialForms._contraction` builds it: (rows, cols, slot_rows,
# slot_values), entry t of column c at (slot_rows[t][c], slot_values[t][c])
Slots = Tuple[int, int, List[List[int]], List[List[int]]]


def wedge_insert(i: int, wedge: Tuple[int, ...]):
    """de_i ^ (wedge): None if i repeats, else (sign, sorted wedge)."""
    if i in wedge:
        return None
    pos = sum(1 for j in wedge if j < i)
    sign = -1 if pos % 2 else 1
    return sign, wedge[:pos] + (i,) + wedge[pos:]


class DifferentialForms:
    """Per-degree bases and operators for the forms complex."""

    def __init__(self, algebra: PolynomialAlgebra):
        self.algebra = algebra
        self._layouts: Dict[Tuple[int, int], Tuple[Dict[Tuple[int, ...], Tuple[int, int]], int]] = {}
        self._exactness: Dict[int, ExactnessReport] = {}
        self._cartan: Set[int] = set()  # degrees whose Cartan walk passed

    @property
    def degree_bound(self) -> int:
        return self.algebra.degree_bound

    def max_form_degree(self) -> int:
        """Largest n with a nonzero Omega^n inside the bound: the minimal
        internal degree of Omega^n is 2(1+...+n) = n(n+1), and n(n+1) <= b
        exactly when (2n+1)^2 <= 4b + 1."""
        return (math.isqrt(4 * self.degree_bound + 1) - 1) // 2

    def _layout(self, n: int, d: int) -> Tuple[Dict[Tuple[int, ...], Tuple[int, int]], int]:
        """The wedge-major layout of Omega^n_d: ``({wedge: (offset,
        coefficient degree)}, dim)``, wedges in ascending lex order, each
        block the monomial basis of the coefficient degree."""
        if n < 0:
            raise ValueError("form degree must be >= 0")
        self.algebra._check_degree(d)
        key = (n, d)
        cached = self._layouts.get(key)
        if cached is None:
            blocks: Dict[Tuple[int, ...], Tuple[int, int]] = {}
            off = 0
            if d % 2 == 0:
                hilbert = _hilbert_counts(self.algebra)
                for wedge in self._wedges(n, d):
                    deg = d - 2 * sum(wedge)
                    blocks[wedge] = (off, deg)
                    off += hilbert[deg // 2]
            cached = (blocks, off)
            self._layouts[key] = cached
        return cached

    def _wedges(self, n: int, max_weight: int) -> List[Tuple[int, ...]]:
        # ascending lex across all admissible weights
        found = []
        for w in range(0, max_weight + 1, 2):
            found.extend(self.algebra.exterior_basis(n, w))
        found.sort()
        return found

    def dim(self, n: int, d: int) -> int:
        return self._layout(n, d)[1]

    # -- operators ---------------------------------------------------------

    def exterior_derivative(self, n: int, d: int) -> Packed:
        """d: Omega^n_d -> Omega^{n+1}_d (internal degree fixed) as its
        packed columns, rows in Omega^{n+1}_d, built on each call.

        Built per source block and index i: the monomials m that e_i
        divides are the positions of the table of e_i into the block's
        degree, entry k the product of the k-th monomial m / e_i of the
        target block.  So column table[k] gets row k of that block, with
        the value sign * (the exponent of e_i at k, plus one).  Appending
        in increasing i keeps each column's entries in index order.

        Checked per target block, not per entry: the positions of a table
        lie in range of its target degree's basis, distinct i join
        distinct wedges, so the entries of a column lie in disjoint blocks,
        and each value is sign * e with e >= 1."""
        src, cols = self._layout(n, d)
        tgt, rows = self._layout(n + 1, d)
        hilbert = _hilbert_counts(self.algebra)
        table, exponents = self.algebra.multiplication_table, self.algebra.exponents
        columns: List[Tuple[int, ...]] = []
        for wedge, (_, deg) in src.items():
            # one tuple per column, grown by concatenation: a tuple of ints
            # leaves the collector's watch, a list would stay on it
            block: List[Tuple[int, ...]] = [()] * hilbert[deg // 2]
            # e_i leaves the coefficient and joins the wedge
            for i in range(1, deg // 2 + 1):
                ins = wedge_insert(i, wedge)
                if ins is not None:
                    sign, joined = ins
                    into = deg - 2 * i
                    row_off, at = tgt.get(joined, (-1, -1))
                    if at != into or not 0 <= row_off <= rows - hilbert[into // 2]:
                        raise _block_error("d", n, d, rows, joined, into)
                    for q, row, e in zip(table(i, into), count(row_off), exponents(i, into)):
                        block[q] += (row, sign * (e + 1))
            columns.extend(block)
        _count_columns("d", n, d, cols, columns)
        return tuple(columns)

    def _contraction(self, n: int, d: int) -> Slots:
        """The Euler contraction p: Omega^n_d -> Omega^{n-1}_d,

            p(m * de_{i_1}^...^de_{i_n})
                = sum_k (-1)^{k-1} e_{i_k} m * de_{i_1}^...(drop k)...^de_{i_n},

        slot-major, built on each call: ``(rows, cols, slot_rows,
        slot_values)``, where entry t of column c, the term that contracts
        slot t (0-based) of the wedge, is ``(slot_rows[t][c],
        slot_values[t][c])``.  Every column has n entries, so each of the
        2n lists holds one entry of every column.  Contracting slot k moves
        e_i, i = wedge[k], into the coefficient with sign (-1)^k: per
        (wedge, slot), the rows of the block's columns are the target
        block's offset plus the positions of m * e_i, and every value of
        slot k is (-1)^k.

        Checked per target block, not per entry: each multiplication table
        has one position per monomial of its source block, in range of its
        target block, and the slots of one wedge drop distinct indices, so
        they land in distinct wedges, whose blocks are disjoint; each value
        is +-1.
        """
        if n < 1:
            # Omega^{-1} = 0; keep the shape so rank bookkeeping stays total
            return 0, self.dim(0, d) if n == 0 else 0, [], []
        src, cols = self._layout(n, d)
        tgt, rows = self._layout(n - 1, d)
        hilbert = _hilbert_counts(self.algebra)
        table = self.algebra.multiplication_table
        slot_rows: List[List[int]] = [[] for _ in range(n)]
        for wedge, (_, deg) in src.items():
            size = hilbert[deg // 2]
            for k, i in enumerate(wedge):
                rest = wedge[:k] + wedge[k + 1 :]
                row_off, into = tgt.get(rest, (-1, -1))
                if into != deg + 2 * i or not 0 <= row_off <= rows - hilbert[into // 2]:
                    raise _block_error("p", n, d, rows, rest, deg + 2 * i)
                product = table(i, deg)
                if len(product) != size:
                    raise ValueError(
                        f"p: the table of e{i} into the block of {rest} is not the size "
                        f"of the block of {wedge} at (n, d) = ({n}, {d})"
                    )
                slot_rows[k] += map(add, product, repeat(row_off))
        for listed in slot_rows:
            _count_columns("p", n, d, cols, listed)
        return rows, cols, slot_rows, [[-1 if k % 2 else 1] * cols for k in range(n)]

    def euler_weights(self, n: int, d: int) -> List[int]:
        """Predicted eigenvalue (generator factors + form degree) per basis
        element of Omega^n_d."""
        totals = self.algebra.total_exponents
        return [t + n for _, deg in self._layout(n, d)[0].values() for t in totals(deg)]

    def _up_marks(self, n: int, d: int) -> bytearray:
        """1 at each *up* basis form of Omega^n_d, 0 at each *down* one.

        m * de_S is down when S is not empty and min S is at most the
        smallest index dividing m; it is matched with the up form
        (e_{min S} m) * de_{S - min S}, the term of p(m * de_S) that
        contracts slot 0.  In positive degree this matches every form
        (E. Skoldberg, *Trans. Amer. Math. Soc.* 358, 2006).  The down
        forms of a block of coefficient degree 2k are the monomials whose
        indices are all >= min S, the suffix B(k, min S) of its canonical
        order, so its up forms are the prefix of N(k, 1) - N(k, min S)."""
        up = bytearray(self.dim(n, d))
        counts = self.algebra._counts()
        for wedge, (off, deg) in self._layout(n, d)[0].items():
            row = counts[deg // 2]
            ups = row[1] - row[wedge[0]] if wedge else row[1]
            up[off : off + ups] = b"\x01" * ups
        return up

    @staticmethod
    def _unit_minor(down_p: Slots, up_in: bytearray) -> bool:
        """Whether every down column of p_n, ``down_p`` (`_compressed`),
        has exactly one entry in an up row of Omega^{n-1}, with no two of
        them in the same row.  Those rows and columns then carry a
        generalized permutation minor, so rank p_n >= the number of down
        forms of Omega^n.

        Settled on the slot lists when they allow it (`_minor_slots`), else
        by the scan of each packed column (`_minor_scan`), whose verdict it
        then is."""
        return _minor_slots(down_p, up_in) or _minor_scan(_columns(down_p), up_in)

    @staticmethod
    def _square_zero(walked_p: Slots, p_down: Slots) -> bool:
        """Whether p_{n-1} p_n vanishes on the columns ``walked_p`` of p_n
        (`_compressed` to the walked positions), ``p_down`` the slot record
        of p_{n-1}.

        Settled on the slot lists by the Koszul pairing of the terms when
        they allow it (`_square_slots`), else by the scan of each packed
        column (`_square_scan`), whose verdict it then is."""
        return _square_slots(walked_p, p_down) or _square_scan(
            _columns(walked_p), _columns(p_down)
        )

    @staticmethod
    def _keeps_weight(
        down_p: Slots, down: bytearray, weights_out: List[int], weights_in: List[int]
    ) -> bool:
        """Whether every entry of a down column of p_n, ``down_p``, joins
        two forms of equal Euler weight, that is, whether p_n L = L p_n on
        the down forms of Omega^n (the 1s of ``down``): the weights of the
        rows of each slot are those of the down forms."""
        want = tuple(compress(weights_out, down))
        return all(_gathered(weights_in, rows) == want for rows in down_p[2])

    @staticmethod
    def _homotopy_walk(
        weights: List[int],
        d_out: Packed,
        p_up: Slots,
        p_out: Slots,
        d_down: Packed,
        columns: Iterable[int],
    ) -> bool:
        """Whether p(dw) + d(pw) = weight * w for each basis form w of
        Omega^n_d at a position in ``columns``, with no product matrix: one
        dict walk per column over d_n, p_{n+1}, p_n and d_{n-1}, p read by
        slot."""
        acc: Dict[int, int] = {}  # p(dw) + d(pw)
        get = acc.get
        up = list(zip(p_up[2], p_up[3]))
        out = list(zip(p_out[2], p_out[3]))
        for c in columns:
            it = iter(d_out[c])
            for r, x in zip(it, it):
                for rows, values in up:
                    s = rows[r]
                    acc[s] = get(s, 0) + x * values[r]
            for rows, values in out:
                x = values[c]
                lt = iter(d_down[rows[c]])
                for s, y in zip(lt, lt):
                    acc[s] = get(s, 0) + x * y
            if acc.pop(c, 0) != weights[c] or any(acc.values()):
                return False
            acc.clear()
        return True

    # -- exactness ---------------------------------------------------------

    def verify_exactness(self, d: int) -> "ExactnessReport":
        """Exactness of ... -> Omega^1_d -> Omega^0_d -> (Q)_d -> 0,
        certified from p alone, with no d.

        Write u_n for the number of down forms of Omega^n_d (`_up_marks`).
        For n in 0..top+1 the slot lists of p_n (`_contraction`) are checked
        to carry a unit minor on the down columns (`_unit_minor`, so
        rank p_n >= u_n) and p_{n-1} p_n = 0 (`_square_zero`, on the down
        columns, which settle the up ones: see `_certify`), both by slot
        tests over whole lists, with the scan of each packed column as
        their fallback, and the counts u_n + u_{n+1} = dim Omega^n_d and
        Omega^{top+1}_d = 0.  Then
        rank p_n + rank p_{n+1} <= dim Omega^n_d = u_n + u_{n+1} forces
        rank p_n = u_n and exactness at every n.  A broken identity raises
        ValueError naming it and (n, d).  The ranks in the report are the
        u_n.  Spot 0 still compares: in positive degree (Q)_d vanishes, so
        p_1 must fill Omega^0_d.

        p_0 .. p_{top+1} are built once each, as locals of this call, and
        at most two are alive at once; only the report is kept, per degree,
        so each (n, d) is certified once per instance however many
        statements rest on it.
        """
        cached = self._exactness.get(d)
        if cached is None:
            cached = self._exactness[d] = self._certify(d, cartan=False)
        return cached

    def verify_cartan(self, d: int) -> "ExactnessReport":
        """`verify_exactness` plus the Cartan identity d p + p d = L, the
        diagonal of positive weights, on every Omega^n_d, n in 0..top+1.

        The same pass walks both, on the down columns, and checks one more
        premise there, that p keeps the Euler weight (`_certify`).  It
        builds d_0 .. d_{top+1} and p_0 .. p_{top+2} once each, at most
        five alive at once.  L is then invertible and commutes with p, so
        pw = 0 gives w = p(L^-1 dw): the contracting homotopy (C. Weibel,
        *An Introduction to Homological Algebra*, 1994, section 1.4), a
        second proof of exactness.  The report fills the exactness memo
        when that is empty, so a degree that both statements read is
        walked once.
        """
        if d not in self._cartan:
            report = self._certify(d, cartan=True)
            self._exactness.setdefault(d, report)
            self._cartan.add(d)
        return self._exactness[d]

    def _certify(self, d: int, cartan: bool) -> "ExactnessReport":
        """The report of `verify_exactness`, walking the Cartan half too
        when ``cartan``; raises on the first broken identity.

        The identities are walked on the down columns of each Omega^n_d
        only, sum_n u_n = half of sum_n dim Omega^n_d columns, and these
        settle the whole degree once the unit minors and the counts hold.
        Each up form u of Omega^n is (p v - y) / x, with v its matched down
        form of Omega^{n+1}, x the entry of p v in row u and y in the span
        of the down forms of Omega^n, so p^2 u = (p (p p v) - p^2 y) / x = 0.
        The Cartan half needs one more premise, that p keeps the Euler
        weight on the down forms (`_keeps_weight`): p L v = L p v for every
        down v.  Then K = d p + p d - L vanishes on p v for v down in
        Omega^{n+1}, since p^2 = 0 everywhere by now:

            K(p v) = d p^2 v + p (L v - p d v) - L p v = p L v - L p v = 0,

        and so on u.  No smaller set of columns would do: the set walked in
        Omega^n must span it modulo im p_{n+1}, which takes rank p_n = u_n
        columns.

        p_n is read as its slot lists only (`_contraction`).  The unit
        minor and p^2 = 0 are slot tests (`_unit_minor`, `_square_zero`):
        whole lists at once where the slots of the built p_n show them,
        else the scan of each packed column, made from the slot lists only
        then, whose verdict it then is.  The Cartan half walks each down
        column, reading p_{n+1} and p_n by slot.

        If the down-column walk fails, the degree is walked again over
        every column, and the error is that walk's: the first broken
        identity and its (n, d) in the order of a full walk.  Should the
        full walk pass there, a ValueError says that the two disagree.
        """
        if d <= 0:
            raise ValueError("exactness is claimed in positive degrees only")
        self.algebra._check_degree(d)
        try:
            return self._walk_degree(d, cartan, down_only=True)
        except ValueError:
            pass
        self._walk_degree(d, cartan, down_only=False)
        raise ValueError(f"the down-column and full walks disagree at d = {d}")

    def _walk_degree(self, d: int, cartan: bool, down_only: bool) -> "ExactnessReport":
        """One certifying pass over degree d, on the down columns of each
        Omega^n_d when ``down_only``, else on all of them."""
        top = self.max_form_degree()
        # a walk reads the layouts of degree d only: those of other degrees
        # are dropped, and rebuilt if a later statement reads them
        self._layouts.clear()
        # Omega^{-1} = 0: p_0 has only empty columns, so nothing reads
        # d_{-1} or the slots of p_{-1}, and Omega^{-1} has no rows to mark
        d_down: Packed = ()
        p_down: Slots = (0, 0, [], [])
        up_in = bytearray()
        weights_in: List[int] = []
        p_out = self._contraction(0, d)
        downs = [0] * (top + 2)  # u_n
        for n in range(top + 2):
            up_out = self._up_marks(n, d)
            downs[n] = up_out.count(0)
            down = up_out.translate(_FLIP)
            # the down columns of p_n, for the unit minor, the weight check
            # and a down-only p^2, dropped before the walk
            down_p = _compressed(p_out, down)
            minor = self._unit_minor(down_p, up_in)
            # the down columns settle Cartan only where p commutes with L;
            # checked first, so that one weight list is alive when d_n and
            # p_{n+1} are built
            weights = self.euler_weights(n, d) if cartan else []
            keeps = not (cartan and down_only) or self._keeps_weight(
                down_p, down, weights, weights_in
            )
            square = self._square_zero(down_p if down_only else p_out, p_down)
            del down_p
            homotopy = True
            if cartan:
                weights_in = weights
                d_out = self.exterior_derivative(n, d)
                p_up = self._contraction(n + 1, d)
                homotopy = self._homotopy_walk(
                    weights, d_out, p_up, p_out, d_down, _walked(down, down_only)
                )
            positive = all(w > 0 for w in weights)
            for ok, identity in (
                (positive, "the weights of d p + p d are not positive"),
                (homotopy and keeps, "d p + p d is not the weight diagonal"),
                (minor, "p has no unit minor on the down forms"),
                (square, "p^2 is not zero"),
                (n == 0 or downs[n - 1] + downs[n] == self.dim(n - 1, d),
                 "the down forms of Omega^(n-1) and Omega^n do not add up to dim Omega^(n-1)"),
                (n <= top or not self.dim(n, d), "Omega^n is not zero"),
            ):
                if not ok:
                    raise ValueError(f"{identity} at (n, d) = ({n}, {d})")
            up_in = up_out
            if cartan:
                d_down, p_down, p_out = d_out, p_out, p_up
            elif n <= top:
                p_down = p_out  # p_{n-1} is dropped before p_{n+1} is built
                p_out = self._contraction(n + 1, d)
        dims = [self.dim(n, d) for n in range(top + 1)]
        # rank p_n = u_n = downs[n], and u_{top+1} = 0
        spots = [SpotCheck(0, dims[0], 0, downs[1], downs[1] == dims[0])]
        spots += [SpotCheck(n, dims[n], downs[n], downs[n + 1], True) for n in range(1, top + 1)]
        return ExactnessReport(degree=d, spots=tuple(spots))


def _walked(down: bytearray, down_only: bool) -> Iterable[int]:
    """The positions of Omega^n_d that a walk reads, made as it reads them:
    the down ones (1 in ``down``) when ``down_only``, else all."""
    return compress(count(), down) if down_only else range(len(down))


def _count_columns(name: str, n: int, d: int, cols: int, columns: Sequence) -> None:
    # the builders' columns (for p, one slot of each column), each block
    # already checked; a short table would have cut them short, so the
    # count is checked too
    if len(columns) != cols:
        raise ValueError(f"{name} has {len(columns)} of its {cols} columns at (n, d) = ({n}, {d})")


def _hilbert_counts(algebra: PolynomialAlgebra) -> List[int]:
    """dim A_{2k} at entry k, for every 2k inside the algebra's bound."""
    return list(map(itemgetter(1), algebra._counts()))


def _block_error(name: str, n: int, d: int, rows: int, wedge: Tuple[int, ...], deg: int):
    """The error of a builder whose target block for ``wedge`` is missing,
    holds another coefficient degree than ``deg`` or ends past ``rows``."""
    return ValueError(
        f"{name}: the block of {wedge} is not a coefficient-degree-{deg} "
        f"block inside {rows} rows at (n, d) = ({n}, {d})"
    )


# -- p slot-major, the slot tests of the exactness certificate, and the
# scans they fall back to (see the module docstring)

# maps the up marks of `DifferentialForms._up_marks` to down marks
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _columns(p: Slots) -> Tuple[Tuple[int, ...], ...]:
    """The packed columns of ``p``: column c is ``(slot_rows[0][c],
    slot_values[0][c], slot_rows[1][c], ...)``.  Made only where whole
    columns are read: the scans a slot test falls back to."""
    _, cols, slot_rows, slot_values = p
    if not slot_rows:
        return ((),) * cols
    return tuple(zip(*chain.from_iterable(zip(slot_rows, slot_values))))


def _compressed(p: Slots, keep: bytearray) -> Slots:
    """The columns of ``p`` at the 1s of ``keep``, slot-major."""
    rows, _, slot_rows, slot_values = p
    return (
        rows,
        keep.count(1),
        [list(compress(listed, keep)) for listed in slot_rows],
        [list(compress(listed, keep)) for listed in slot_values],
    )


def _koszul_signs(p: Slots) -> bool:
    """Whether every value of slot t of ``p`` is (-1)^t."""
    cols = p[1]
    return all(values.count(-1 if t % 2 else 1) == cols for t, values in enumerate(p[3]))


def _minor_slots(p: Slots, up_in: bytearray) -> bool:
    """True if the row of slot 0 of every column of ``p`` is an up row and
    no other slot's is, the slot-0 values are nonzero and the slot-0 rows
    are distinct: then every column has one entry in an up row and no two
    share it.  False says only that the slots do not show it."""
    _, cols, slot_rows, slot_values = p
    if not cols:
        return True
    if not slot_rows or 0 in slot_values[0] or _gathered(up_in, slot_rows[0]).count(1) != cols:
        return False
    if any(1 in _gathered(up_in, listed) for listed in slot_rows[1:]):
        return False
    # mark the slot-0 rows: a row met twice leaves fewer marks than columns
    used = bytearray(len(up_in))
    deque(map(setitem, repeat(used), slot_rows[0], repeat(1)), 0)
    return used.count(1) == cols


def _minor_scan(down_cols: Sequence[Tuple[int, ...]], up_in: bytearray) -> bool:
    """`DifferentialForms._unit_minor` by a scan of each packed column; an
    entry of value 0, which a slot list can hold, is no entry."""
    used = bytearray(len(up_in))
    for col in down_cols:
        it = iter(col)
        hit = [r for r, x in zip(it, it) if x and up_in[r]]
        if len(hit) != 1 or used[hit[0]]:
            return False
        used[hit[0]] = 1
    return True


def _square_slots(p: Slots, p_down: Slots) -> bool:
    """True if p_{n-1} p_n vanishes on the columns of ``p`` (of p_n) by
    exact cancellation in pairs.  ``p_down`` (p_{n-1}) must have n - 1
    slots, and the values of slot t must be (-1)^t in both.  The term
    "contract slot t, then slot u - 1 of the rest", t < u, then has the
    value (-1)^(t + u - 1), the opposite of "contract slot u, then slot t",
    and the two must sit on one row: slot u - 1 of p_{n-1} gathered at the
    rows of slot t against slot t gathered at the rows of slot u.  These
    pairs cover all n(n - 1) terms of a column, so its image under
    p_{n-1} p_n is zero.  False says only that the slots do not show it."""
    slot_rows, below = p[2], p_down[2]
    n = len(slot_rows)
    if not p[1]:
        return True
    if (n and len(below) != n - 1) or not (_koszul_signs(p) and _koszul_signs(p_down)):
        return False
    return all(
        _gathered(below[u - 1], slot_rows[t]) == _gathered(below[t], slot_rows[u])
        for u in range(1, n)
        for t in range(u)
    )


def _square_scan(cols: Iterable[Tuple[int, ...]], p_down: Packed) -> bool:
    """`DifferentialForms._square_zero` by a scan of each packed column:
    p(p c) summed in a dict."""
    square: Dict[int, int] = {}
    sget = square.get
    for col in cols:
        it = iter(col)
        for r, x in zip(it, it):
            lt = iter(p_down[r])
            for s, y in zip(lt, lt):
                square[s] = sget(s, 0) + x * y
        if any(square.values()):
            return False
        square.clear()
    return True


@dataclass(frozen=True)
class SpotCheck:
    """Rank bookkeeping at one slot of the contraction sequence."""

    form_degree: int
    dim: int
    rank_out: int
    rank_in: int
    exact: bool

    def to_dict(self) -> Dict[str, int]:
        return {
            "form_degree": self.form_degree,
            "dim": self.dim,
            "rank_out": self.rank_out,
            "rank_in": self.rank_in,
            "exact": self.exact,
        }


@dataclass(frozen=True)
class ExactnessReport:
    degree: int
    spots: Tuple[SpotCheck, ...]

    @property
    def all_exact(self) -> bool:
        return all(s.exact for s in self.spots)

    def to_dict(self):
        return {
            "degree": self.degree,
            "all_exact": self.all_exact,
            "spots": [s.to_dict() for s in self.spots],
        }
