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
also certifies, in the same pass, that L is the diagonal of positive
weights.  The exactness identities are checked on the down forms of the
matching only, half the columns of each degree: with the unit minors and
the counts, these settle the up forms too.  The Cartan identity is
certified on every column at once, by premises over whole lists
(`DifferentialForms._cartan_slots`): they pair off every term of
d p + p d off the diagonal, make K = d p + p d - L commute with p, and
give K = 0 from the top form degree down (`DifferentialForms._certify`).
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
scans.

d is kept on the same pattern, transposed: a basis form of Omega^{n+1}
is a row of d_n that meets exactly the n + 1 columns p_{n+1} sends it
to, so d_n is the slot rows of p_{n+1} with one list per slot of the
exponents its values are made of (`exterior_derivative`), and nothing is
transposed on the pass path.  The Cartan premises are slot tests as
well: gathers of the rows of p_n and the exponents of d_{n-1} at the
rows of p_{n+1}, a check of each (block, slot) run of p_{n+1}, and one
count of its rows.  When they do not close, the degree is walked again
column by column (`_homotopy_walk`), over packed columns of d made only
then, and the verdicts and messages are that walk's.  No operator here
is a matrix object.

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
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, compress, filterfalse, islice, repeat
from operator import add, itemgetter, le, lt, mul, setitem
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .algebra import PolynomialAlgebra
from .linalg import _gathered, _getter

# an operator as packed columns ``(row, value, row, value, ...)``, with no
# matrix object: what the scans and the full Cartan walk read
Packed = Tuple[Tuple[int, ...], ...]

# p_n as `DifferentialForms._contraction` builds it: (rows, cols, slot_rows,
# slot_values), entry t of column c at (slot_rows[t][c], slot_values[t][c])
Slots = Tuple[int, int, List[List[int]], List[List[int]]]

# d_n as `DifferentialForms.exterior_derivative` builds it: (p_{n+1}, exps),
# entry t of row v at column p_{n+1}[2][t][v] with value (-1)^t (exps[t][v] + 1)
Derivative = Tuple[Slots, List[Tuple[int, ...]]]


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

    def exterior_derivative(self, n: int, d: int) -> Derivative:
        """d: Omega^n_d -> Omega^{n+1}_d (internal degree fixed), row by row
        on the pattern of p_{n+1}, built on each call: ``(p_up, exps)``,
        p_up the slot record of p_{n+1} (`_contraction`), and row v of d_n
        holding, for each slot t, the value (-1)^t (exps[t][v] + 1) in
        column ``p_up[2][t][v]``.

        A row v = m * de_T of Omega^{n+1} meets exactly the columns that p
        sends v to: slot t of p_{n+1} contracts de_i, i = T_t, into
        (e_i m) de_{T - i}, and d of that form has the term
        (-1)^t (a + 1) m de_T, a the exponent of e_i in m.  So exps[t] is,
        block by block of Omega^{n+1}, the algebra's exponents of e_i in
        the block's coefficient degree (`PolynomialAlgebra.exponents`):
        no scatter, no tuple per row or column, and the ints of the
        algebra's lists.  The sign of the slot and the shift by one are the
        format's, not stored.

        Checked per row block, not per entry: each block of Omega^{n+1}
        has the coefficient degree of its wedge and lies inside the rows,
        so its exponent list has one entry per row; the columns are p's,
        checked where p is built, so every row has n + 1 entries in n + 1
        distinct columns, and each value is +-(a + 1) with a >= 0."""
        tgt, rows = self._layout(n + 1, d)
        hilbert = _hilbert_counts(self.algebra)
        exponents = self.algebra.exponents
        runs: List[List[Tuple[int, ...]]] = [[] for _ in range(n + 1)]
        for wedge, (off, deg) in tgt.items():
            into = d - 2 * sum(wedge)
            if deg != into or not 0 <= off <= rows - hilbert[into // 2]:
                raise _block_error("d", n, d, rows, wedge, into)
            for t, i in enumerate(wedge):
                runs[t].append(exponents(i, deg))
        return self._contraction(n + 1, d), [tuple(chain.from_iterable(r)) for r in runs]

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

    def _cartan_slots(
        self,
        n: int,
        d: int,
        d_out: Derivative,
        d_down: Derivative,
        weights_in: List[int],
        weights: List[int],
    ) -> bool:
        """The slot test of the Cartan identity at Omega^n_d: whole-list
        premises on d_n (``d_out``, on the pattern of p_{n+1}), d_{n-1}
        (``d_down``, on the pattern of p_n) and the Euler weights of
        Omega^{n-1} and Omega^n.  Passing it at every n of a degree, with
        Omega^{top+1}_d = 0, certifies K = d p + p d - L = 0 there, and
        p^2 = 0 on every column (`_certify` gives the argument).  False
        says only that the lists do not show it.

        Write R+ for the slot rows of p_{n+1}, R for those of p_n, a and a'
        for the exponent lists of d_n and d_{n-1} (`exterior_derivative`),
        and for slots s != t of a row v of d_n, s' = s - [s > t] and
        t' = t - [t > s].  The premises, in the order checked:

        (I) each slot's rows rise strictly inside each block of
            Omega^{n+1}, and the first and last row of the run of slot s
            in the block of wedge T lie in the block of T - T_s, so the
            whole run does (`_runs_in_blocks`).  So the rows of a column
            of p_{n+1} are distinct, and (v, s, t) -> ((R+_s[v], t'),
            (R+_t[v], s')) is injective: the blocks of R+_s[v] and
            R+_t[v] give T - T_s and T - T_t, whose union is T, so s and
            t, and a run is injective;
        (P) p_n p_{n+1} = 0 on every column, by `_square_slots` on all
            of p_{n+1}: the Koszul signs of both, and for s != t
            R_s'[R+_t[v]] = R_t'[R+_s[v]];
        (V) a_t[v] = a'_t'[R+_s[v]]: as values, slot t of d_n at v is
            -(-1)^(s + s') times slot t' of d_{n-1} at R+_s[v];
        (C) sum_y c(y)^2 = (n + 1) (dim Omega^{n+1} + (n + 2) dim
            Omega^{n+2}), c(y) the number of entries of p_{n+1} in row y:
            the count of Omega^{n+1}, checked here for p_{n+1};
        (W) p_n keeps the Euler weight on every column (`_keeps_weight`);
        (D) n + sum_k a'_k[u], which is sum_k (-1)^k (slot k of d_{n-1}
            at u), is the weight of u at every u of Omega^n that no entry
            of p_{n+1} reaches.

        (V) reads each slot of p_{n+1} through one getter, n gathers
        each.  With no column in p_{n+1}, (I), (P), (V) and (C) hold.
        """
        p_up, exps = d_out
        p_out, below = d_down
        rows_up = p_up[2]
        if not len(rows_up) == len(exps) == n + 1 or not len(p_out[2]) == len(below) == n:
            return False
        hits: Dict[int, int] = {}
        if p_up[1]:
            if not (self._runs_in_blocks(n, d, rows_up) and _square_slots(p_up, p_out)):
                return False
            # (V), per pair of slots t < u of p_{n+1}
            gets = list(map(_getter, rows_up))
            for u in range(1, n + 1):
                for t in range(u):
                    if gets[t](below[u - 1]) != exps[u] or gets[u](below[t]) != exps[t]:
                        return False
            del gets
            # (C)
            hits = Counter(chain.from_iterable(rows_up))
            if sum(map(mul, hits.values(), hits.values())) != (n + 1) * (
                p_up[1] + (n + 2) * self.dim(n + 2, d)
            ):
                return False
        # (W) and (D)
        if not self._keeps_weight(p_out, weights_in, weights):
            return False
        return all(
            n + sum(listed[u] for listed in below) == weights[u]
            for u in filterfalse(hits.__contains__, range(len(weights)))
        )

    @staticmethod
    def _keeps_weight(p: Slots, weights_in: List[int], weights: List[int]) -> bool:
        """Premise (W) of `_cartan_slots`: whether every entry of p_n joins
        two forms of equal Euler weight, ``weights_in`` those of
        Omega^{n-1} and ``weights`` of Omega^n, that is, whether
        p_n L_n = L_{n-1} p_n."""
        want = tuple(weights)
        return all(_gathered(weights_in, rows) == want for rows in p[2])

    def _runs_in_blocks(self, n: int, d: int, rows_up: List[List[int]]) -> bool:
        """Premise (I) of `_cartan_slots` on the slot rows of p_{n+1}: each
        slot's rows rise strictly inside each block of Omega^{n+1}, and the
        run of slot s in the block of wedge T starts and ends inside the
        block of T - T_s in Omega^n."""
        tgt = self._layout(n, d)[0]
        hilbert = _hilbert_counts(self.algebra)
        firsts, lasts = [], []
        lows: List[List[int]] = [[] for _ in range(n + 1)]
        highs: List[List[int]] = [[] for _ in range(n + 1)]
        for wedge, (off, deg) in self._layout(n + 1, d)[0].items():
            firsts.append(off)
            lasts.append(off + hilbert[deg // 2] - 1)
            for k in range(n + 1):
                block = tgt.get(wedge[:k] + wedge[k + 1 :])
                if block is None:
                    return False
                lows[k].append(block[0])
                highs[k].append(block[0] + hilbert[block[1] // 2])
        within = bytearray(b"\x01") * (lasts[-1] if lasts else 0)  # v, v + 1 in one block
        deque(map(setitem, repeat(within), lasts[:-1], repeat(0)), 0)
        return all(
            all(compress(map(lt, rows, islice(rows, 1, None)), within))
            and all(map(le, low, _gathered(rows, firsts)))
            and all(map(lt, _gathered(rows, lasts), high))
            for rows, low, high in zip(rows_up, lows, highs)
        )

    @staticmethod
    def _homotopy_walk(
        weights: List[int], d_out: Packed, p_up: Slots, p_out: Slots, d_down: Packed
    ) -> bool:
        """Whether p(dw) + d(pw) = weight * w for every basis form w of
        Omega^n_d, with no product matrix: one dict walk per column over
        d_n, p_{n+1}, p_n and d_{n-1}, p read by slot and d as packed
        columns (`_transposed`).  The full walk that names a failure of
        the slot test (`_certify`)."""
        acc: Dict[int, int] = {}  # p(dw) + d(pw)
        get = acc.get
        up = list(zip(p_up[2], p_up[3]))
        out = list(zip(p_out[2], p_out[3]))
        for c, weight in enumerate(weights):
            it = iter(d_out[c])
            for r, x in zip(it, it):
                for rows, values in up:
                    s = rows[r]
                    acc[s] = get(s, 0) + x * values[r]
            for rows, values in out:
                x = values[c]
                jt = iter(d_down[rows[c]])
                for s, y in zip(jt, jt):
                    acc[s] = get(s, 0) + x * y
            if acc.pop(c, 0) != weight or any(acc.values()):
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

        The same pass certifies both: the exactness half on the down
        columns, and the Cartan identity by a slot test over whole lists
        (`_cartan_slots`), which also certifies p^2 = 0 on every column
        (`_certify`).  It builds d_0 .. d_{top+1} (`exterior_derivative`,
        each with the p_{n+1} whose pattern it shares) and p_0 once each,
        at most two of each alive at once.  L is then invertible and
        commutes with p, so pw = 0 gives w = p(L^-1 dw): the contracting
        homotopy (C. Weibel, *An Introduction to Homological Algebra*,
        1994, section 1.4), a second proof of exactness.  The report fills
        the exactness memo when that is empty, so a degree that both
        statements read is certified once.
        """
        if d not in self._cartan:
            report = self._certify(d, cartan=True)
            self._exactness.setdefault(d, report)
            self._cartan.add(d)
        return self._exactness[d]

    def _certify(self, d: int, cartan: bool) -> "ExactnessReport":
        """The report of `verify_exactness`, certifying the Cartan half too
        when ``cartan``; raises on the first broken identity.

        The exactness identities are checked on the down columns of each
        Omega^n_d only, sum_n u_n = half of sum_n dim Omega^n_d columns, and
        these settle the whole degree once the unit minors and the counts
        hold.  Each up form u of Omega^n is (p v - y) / x, with v its
        matched down form of Omega^{n+1}, x the entry of p v in row u and y
        in the span of the down forms of Omega^n, so
        p^2 u = (p (p p v) - p^2 y) / x = 0.  No smaller set of columns
        would do: the set checked in Omega^n must span it modulo
        im p_{n+1}, which takes rank p_n = u_n columns.

        The Cartan half is certified on every column, by the premises of
        `_cartan_slots` at each n, d_n read on the pattern of p_{n+1}
        (`exterior_derivative`).  Write K_n = p_{n+1} d_n + d_{n-1} p_n - L_n.

        1. K_n is diagonal.  In column u of Omega^n, the term of p d that
           goes up through slot t of a row v and down through slot s != t
           sits in row R+_s[v] with the value (-1)^s (slot t of d_n at v);
           the term of d p through slot s' of u and slot t' of
           y = R+_s[v] sits in the same row (P) with the opposite value
           (V).  This pairing is injective (I), and both sides have
           n (n + 1) dim Omega^{n+1} terms off the diagonal (C), so every
           such term cancels.
        2. K commutes with p: with p^2 = 0 (P), K_n p_{n+1} and
           p_{n+1} K_{n+1} both equal p_{n+1} d_n p_{n+1} less
           L_n p_{n+1} = p_{n+1} L_{n+1} (W).  As the rows of a column of
           p_{n+1} are distinct (I), K takes one value along every entry of
           p.
        3. K = 0 from the top down: Omega^{top+1}_d = 0, a form that p_{n+1}
           reaches takes the value of K_{n+1} on a form that reaches it,
           and at a form that it does not reach K is (D) minus the weight.

        p_n is read as its slot lists only (`_contraction`).  The unit
        minor and p^2 = 0 are slot tests (`_unit_minor`, `_square_zero`):
        whole lists at once where the slots of the built p_n show them,
        else the scan of each packed column, made from the slot lists only
        then, whose verdict it then is.

        If the first pass fails (the down columns, and the Cartan slot
        test), the degree is walked again over every column, with the
        Cartan identity walked column by column (`_homotopy_walk`), and
        the error is that walk's: the first broken identity and its (n, d)
        in the order of a full walk.  Should the full walk pass there, a
        ValueError says that the two disagree.
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
        """One certifying pass over degree d.  With ``down_only``, the first
        pass: the exactness identities on the down columns of each
        Omega^n_d and, with ``cartan``, the Cartan slot test.  Else the
        full walk: every column, the Cartan identity by `_homotopy_walk`
        over packed columns of d made here."""
        top = self.max_form_degree()
        # a walk reads the layouts of degree d only: those of other degrees
        # are dropped, and rebuilt if a later statement reads them
        self._layouts.clear()
        # Omega^{-1} = 0: p_0 has only empty columns and no slots, so d_{-1}
        # has no values on its pattern, and Omega^{-1} has no rows to mark
        p_down: Slots = (0, 0, [], [])
        p_out = self._contraction(0, d)
        d_down: Derivative = (p_out, [])
        packed_down: Packed = ()
        up_in = bytearray()
        weights_in: List[int] = []
        slot_test = cartan and down_only
        downs = [0] * (top + 2)  # u_n
        for n in range(top + 2):
            up_out = self._up_marks(n, d)
            downs[n] = up_out.count(0)
            # the down columns of p_n, for the unit minor and a down-only
            # p^2, dropped before d_n is built
            down_p = _compressed(p_out, up_out.translate(_FLIP))
            minor = self._unit_minor(down_p, up_in)
            # the slot test at n - 1 certified p_{n-1} p_n = 0 on every column
            square = slot_test or self._square_zero(down_p if down_only else p_out, p_down)
            del down_p
            weights = self.euler_weights(n, d) if cartan else []
            homotopy = True
            if cartan:
                d_out = self.exterior_derivative(n, d)
                if slot_test:
                    homotopy = self._cartan_slots(n, d, d_out, d_down, weights_in, weights)
                else:
                    packed = _transposed(d_out)
                    homotopy = self._homotopy_walk(weights, packed, d_out[0], p_out, packed_down)
                    packed_down = packed
            positive = min(weights, default=1) > 0
            for ok, identity in (
                (positive, "the weights of d p + p d are not positive"),
                (homotopy, "d p + p d is not the weight diagonal"),
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
                weights_in = weights
                if not slot_test:  # the slot test reads no p_{n-1}, so none is kept
                    p_down = p_out
                d_down, p_out = d_out, d_out[0]
            elif n <= top:
                p_down = p_out  # p_{n-1} is dropped before p_{n+1} is built
                p_out = self._contraction(n + 1, d)
        dims = [self.dim(n, d) for n in range(top + 1)]
        # rank p_n = u_n = downs[n], and u_{top+1} = 0
        spots = [SpotCheck(0, dims[0], 0, downs[1], downs[1] == dims[0])]
        spots += [SpotCheck(n, dims[n], downs[n], downs[n + 1], True) for n in range(1, top + 1)]
        return ExactnessReport(degree=d, spots=tuple(spots))


def _transposed(derivative: Derivative) -> Packed:
    """The packed columns of d from its rows on the pattern of p: column u
    lists ``(v, (-1)^t (exps[t][v] + 1))`` for each slot t of each row v
    that p sends to u, rows ascending.  Made only for the full walk.  An
    entry whose column is out of range has none to go to; the walk still
    meets it, as the row of p_{n+1} that it shares."""
    (cols, _, slot_cols, _), exps = derivative
    signs = [-1 if t % 2 else 1 for t in range(len(exps))]
    columns: Dict[int, List[int]] = {}
    for v, (reached, found) in enumerate(zip(zip(*slot_cols), zip(*exps))):
        for u, a, sign in zip(reached, found, signs):
            columns.setdefault(u, []).extend((v, sign * (a + 1)))
    return tuple(tuple(columns.get(u, ())) for u in range(cols))


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
