"""Mapping class group cohomology with twisted coefficients, degree by degree.

Over the class ring A = Q[e_1, e_2, ...] three coefficient systems matter
here: the trivial one (cohomology A itself), the homological surface
coefficients H, and the two unit-tangent-bundle variants written Htilde
(the middle extension) and HtildeDual (its dual).  Stably,

* with H coefficients the cohomology is a free A-module on twisted classes
  m_{1,1}, m_{2,1}, m_{3,1}, ... with m_{l,1} in cohomological degree 2l-1
  (stored internally at degree 2l with offset -1);
* the contraction pairing of two twisted classes is the A-bilinear form
      mu(m_l, m_l') = -e_{l+l'-1};
* cup product with m_{1,1} embeds A into the twisted module with one degree
  of shift (the HtildeDual long exact sequence degenerates), and cokernel
  the free module on the m_a with a >= 2;
* contracting against m_{1,1} (that is, x -> mu(x, m_{1,1})) maps the
  twisted module onto the positive-degree part of A, and its kernel is the
  odd part of the Htilde cohomology; the even part is one fiber class theta
  in degree 0.  The kernel is generated by the classes
      M_{i,j} = e_i m_j - e_j m_i,
  subject only to the cyclic syzygies e_i M_{j,k} + e_j M_{k,i} + e_k M_{i,j} = 0,
  and, by dimension shifting along 0 -> kernel -> twisted module -> A -> Q
  -> 0, its Tor_j is Lambda^{j+2} E — adding the theta line, the full
  Htilde module has Tor_j = Lambda^j E + Lambda^{j+2} E, nonzero for j = 1,
  which certifies that it is not free.

Everything above is checked, not assumed: this module builds the two maps
as exact row and value tables (each sends a basis element to +-1 times one
basis element) and exposes one verification routine per statement.  The
forms complex provides an independent construction of the contraction
(under m_{i,1} <-> de_i the contraction against m_{1,1} is -p), which the
cross-check compares entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add
from typing import Dict, Iterable, List, Optional, Tuple

from .algebra import PolynomialAlgebra, exterior_dim
from .forms import DifferentialForms
from .modules import FreeGradedModule, GradedModuleMap, TorResult, free_module


class FalsificationError(AssertionError):
    """A structural statement failed an exact check.

    This should never fire; if it does, the payload says exactly where.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


def contraction_pairing(l1: int, l2: int) -> Tuple[int, int]:
    """mu(m_l1, m_l2) = -e_{l1+l2-1}, as the pair (l1 + l2 - 1, -1): the
    index of the one generator and its coefficient."""
    return (l1 + l2 - 1, -1)


def kernel_generator(i: int, j: int) -> List[Tuple[int, int, int]]:
    """M(i, j) = e_i m_j - e_j m_i, i != j, as its terms (l, k, c), one per
    term c * e_k m_l."""
    return [(j, i, 1), (i, j, -1)]


@dataclass(frozen=True)
class StableCohomologyTable:
    """Dimensions of a stable cohomology module by cohomological degree."""

    coefficient_label: str
    dims: Dict[int, int]
    generator_report: Optional[Dict[int, Tuple[str, ...]]] = None

    LABELS = ("Q", "H", "Htilde", "HtildeDual")

    def __post_init__(self):
        if self.coefficient_label not in self.LABELS:
            raise ValueError(f"unknown coefficients {self.coefficient_label!r}")
        if any(n < 0 for n in self.dims.values()):
            raise ValueError("dimensions are nonnegative")

    def dim(self, degree: int) -> int:
        return self.dims.get(degree, 0)

    def as_list(self, up_to: int) -> List[int]:
        return [self.dim(c) for c in range(up_to + 1)]


class StableCohomology:
    """All verified structure at one degree bound, lazily built and cached."""

    def __init__(self, degree_bound: int = 24):
        self.algebra = PolynomialAlgebra(degree_bound)
        self.forms = DifferentialForms(self.algebra)
        self._twisted: Optional[FreeGradedModule] = None
        self._ring: Optional[FreeGradedModule] = None
        self._contra: Optional[GradedModuleMap] = None
        self._co: Optional[GradedModuleMap] = None
        self._injectivity: Optional[Dict[int, Dict[str, int]]] = None
        self._surjectivity: Optional[Dict[int, Dict[str, int]]] = None
        self._generators: Optional[GeneratorsReport] = None

    @property
    def degree_bound(self) -> int:
        return self.algebra.degree_bound

    # -- the modules and maps ---------------------------------------------

    def twisted_module(self) -> FreeGradedModule:
        """Free module on m_1, m_2, ... (m_l at internal degree 2l, one
        above its cohomological degree)."""
        if self._twisted is None:
            gens = [2 * l for l in range(1, self.degree_bound // 2 + 1)]
            self._twisted = free_module(self.algebra, gens, coh_offset=-1)
        return self._twisted

    def ring_module(self) -> FreeGradedModule:
        """A as a module over itself (one generator in degree 0)."""
        if self._ring is None:
            self._ring = free_module(self.algebra, [0], coh_offset=0)
        return self._ring

    def generator_index(self, l: int) -> int:
        """Position of m_l among the module generators."""
        if not 1 <= l <= self.degree_bound // 2:
            raise ValueError(f"m{l} lies outside the bound")
        return l - 1

    def delta_contravariant(self) -> GradedModuleMap:
        """A -> twisted module, 1 |-> m_1 (cup with the degree-1 twisted
        class; cohomological shift +1, internal shift +2)."""
        if self._contra is not None:
            return self._contra
        A, F = self.ring_module(), self.twisted_module()
        tables = {}
        g0 = self.generator_index(1)
        for d in range(0, self.degree_bound - 1, 2):
            # m * m_1 sits in the m_1 block of degree d + 2, at m's position:
            # one entry 1 per column, checked per block, not per entry
            blocks, rows = F.generator_blocks(d + 2)
            offset = self.algebra._block_offset(blocks.get(g0), d, rows)
            if offset is None:
                raise ValueError(
                    f"delta_contravariant: the block of m1 at degree {d + 2} is not a "
                    f"degree-{d} block inside {rows} rows"
                )
            cols = self.algebra.hilbert_function(d)
            tables[d] = (range(offset, offset + cols), (1,) * cols)
        self._contra = GradedModuleMap(A, F, degree_shift=1, tables=tables)
        return self._contra

    def delta_covariant(self) -> GradedModuleMap:
        """Twisted module -> A, m_l |-> -e_l (contraction against m_1;
        cohomological shift +1, internal shift 0)."""
        if self._co is not None:
            return self._co
        A, F = self.ring_module(), self.twisted_module()
        hilbert = self.algebra.hilbert_function
        tables = {}
        for d in range(2, self.degree_bound + 1, 2):
            blocks, cols = F.generator_blocks(d)
            parts = []
            for k, (_, deg) in blocks.items():
                l = k + 1  # generator position k holds m_{k+1}
                # checked per block, not per entry: the table of e_l from
                # the block's degree lands in A_d, so its positions are rows
                # in range, one column per monomial of the block
                table = self.algebra.multiplication_table(l, deg) if deg + 2 * l == d else None
                if table is None or len(table) != hilbert(deg):
                    raise ValueError(
                        f"delta_covariant: the table of e{l} from degree {deg} does not fill "
                        f"the block of m{l} at degree {d}"
                    )
                parts.append(table)
            rows = tuple(chain.from_iterable(parts))
            if len(rows) != cols:
                raise ValueError(
                    f"delta_covariant has {len(rows)} of its {cols} columns at degree {d}"
                )
            tables[d] = (rows, (-1,) * cols)
        self._co = GradedModuleMap(F, A, degree_shift=1, tables=tables)
        return self._co

    def kernel_dim(self, d: int) -> int:
        """Dimension of the contraction kernel K (the odd part of the
        Htilde cohomology) at internal degree d: cols - rank, the rank read
        off the row table (`GradedModuleMap.rank`)."""
        return self.twisted_module().dim(d) - self.delta_covariant().rank(d)

    # -- verified tables ----------------------------------------------------

    def verify_injectivity(self) -> Dict[int, Dict[str, int]]:
        """Cup with m_1 is injective in every degree; cokernel dimensions
        match the free module on m_2, m_3, ... — returns per-degree data,
        and raises naming the first degree where either fails."""
        if self._injectivity is not None:
            return self._injectivity
        f = self.delta_contravariant()
        A = self.algebra
        rows: Dict[int, Dict[str, int]] = {}
        for d in range(0, self.degree_bound - 1, 2):
            r = f.rank(d)
            dim_src = A.hilbert_function(d)
            coker = f.target.dim(d + 2) - r
            # the free module on the m_a, a >= 2, at internal degree d+2
            expected = sum(
                A.hilbert_function(d + 2 - 2 * a)
                for a in range(2, (d + 2) // 2 + 1)
            )
            rows[d] = {
                "rank": r,
                "dim_source": dim_src,
                "injective": int(r == dim_src),
                "cokernel": coker,
                "cokernel_expected": expected,
            }
            if r != dim_src:
                raise FalsificationError(
                    f"cup with m1 fails to embed degree {d}", rows
                )
            if coker != expected:
                raise FalsificationError(f"cokernel mismatch at degree {d}", rows)
        self._injectivity = rows
        return rows

    def verify_surjectivity(self) -> Dict[int, Dict[str, int]]:
        """Contraction against m_1 hits all of A in every positive degree."""
        if self._surjectivity is not None:
            return self._surjectivity
        f = self.delta_covariant()
        rows: Dict[int, Dict[str, int]] = {}
        for d in range(2, self.degree_bound + 1, 2):
            r = f.rank(d)
            target = f.target.dim(d)
            rows[d] = {
                "rank": r,
                "dim_target": target,
                "surjective": int(r == target),
                "kernel": f.source.dim(d) - r,
            }
            if r != target:
                raise FalsificationError(
                    f"contraction against m1 misses degree {d}", rows
                )
        self._surjectivity = rows
        return rows

    def stable_cohomology_tilde_dual(self) -> StableCohomologyTable:
        """Verified table for HtildeDual: zero in even degrees, cokernel of
        the cup-with-m_1 embedding in odd ones."""
        per_degree = self.verify_injectivity()
        dims: Dict[int, int] = {}
        for c in range(1, self.degree_bound + 1, 2):
            d = c - 1  # source degree of the embedding
            if d in per_degree:
                dims[c] = per_degree[d]["cokernel"]
        gens = {2 * a - 1: (f"m{a}",) for a in range(2, self.degree_bound // 2 + 1)}
        return StableCohomologyTable("HtildeDual", dims, generator_report=gens)

    def stable_cohomology_tilde(self) -> StableCohomologyTable:
        """Verified table for Htilde: theta alone in even degrees (degree
        0), the contraction kernel in odd ones."""
        self.verify_surjectivity()
        dims: Dict[int, int] = {0: 1}
        for c in range(1, self.degree_bound + 1, 2):
            n = self.kernel_dim(c + 1)  # odd classes stored one degree up
            if n:
                dims[c] = n
        # verify_generators certified the counts against the Lambda^2 table
        gens: Dict[int, Tuple[str, ...]] = {0: ("theta",)}
        for d in sorted(self.verify_generators().minimal_counts):
            gens[d - 1] = tuple(f"M({i},{j})" for (i, j) in _lambda2_pairs(d))
        return StableCohomologyTable("Htilde", dims, generator_report=gens)

    def stable_cohomology_ring(self) -> StableCohomologyTable:
        """Table for the trivial coefficients: the Hilbert function of A."""
        dims = {}
        for c in range(0, self.degree_bound + 1, 2):
            n = self.algebra.hilbert_function(c)
            if n:
                dims[c] = n
        return StableCohomologyTable("Q", dims)

    def stable_cohomology_twisted(self) -> StableCohomologyTable:
        """Table for H coefficients: the free module on the m_l."""
        F = self.twisted_module()
        dims = {}
        for c in range(1, self.degree_bound + 1, 2):
            n = F.dim(c + 1)
            if n:
                dims[c] = n
        return StableCohomologyTable("H", dims)

    # -- theorem verifications ---------------------------------------------

    def verify_contraction_table(self) -> List[Dict[str, object]]:
        """mu(m_l, m_l') = -e_{l+l'-1} for every pair inside the bound.

        These rows restate the definition: `contraction_pairing` returns
        the very formula they compare it with.  The pairing is computed
        only as the contraction delta against m_1, its l' = 1 instance,
        which covariant-surjectivity and kernel-cross-check certify.
        """
        rows = []
        top = self.degree_bound
        for l1 in range(1, top // 2 + 1):
            for l2 in range(l1, top // 2 + 1):
                if 2 * (l1 + l2 - 1) > top:
                    break
                ok = contraction_pairing(l1, l2) == (l1 + l2 - 1, -1)
                rows.append(
                    {
                        "l": l1,
                        "l_prime": l2,
                        "degree": 2 * (l1 + l2 - 1),
                        "ok": ok,
                    }
                )
                if not ok:
                    raise FalsificationError(
                        f"mu(m{l1}, m{l2}) != -e{l1 + l2 - 1}", rows
                    )
        return rows

    def verify_generators(self) -> "GeneratorsReport":
        """The M(i, j) span the contraction kernel in every degree, satisfy
        the cyclic syzygies exactly, and minimally generate with Lambda^2
        multiplicities.

        One pivot search per degree d gives both the span and the minimal
        generators.  Its columns are every mono * M(i, j) with mono of
        positive degree, then the M(i, j) of degree d.  The kernel K_e is
        already certified to be the span for every e < d, so the first
        block spans A_+ K_d; pivots are taken from the left, so its pivots
        number dim (A_+ K)_d, and the pivots past it number the minimal
        generators dim K_d - dim (A_+ K)_d (E. Miller and B. Sturmfels,
        *Combinatorial Commutative Algebra*, GTM 227, 2005, ch. 1).

        Its premise is that the span is graphic: each column is zero, c e_u
        or c (e_u - e_v), an edge read straight off the multiplication
        tables, so the pivots come from a spanning forest (`_forest_pivots`)
        and no matrix is built.  It is checked per M(i, j) and degree,
        beside each term's check: one term, or two with opposite values, or
        none.  The terms have distinct l, so u != v.

        Kernel membership is checked at the generators, before the graphic
        premise: only the M(i, j) of degree d go through delta at d, each
        one packed column read through delta's tables
        (`GradedModuleMap.image`).  The premise is that delta is A-linear,
        certified by `GradedModuleMap.check_equivariance` when
        `delta_covariant` builds it; then delta(mono * M(i, j)) =
        mono * delta(M(i, j)) = 0 for each column of the first block, whose
        M(i, j) passed at its own degree.  The report is kept, so the
        Htilde table reads the same one."""
        if self._generators is not None:
            return self._generators
        bound = self.degree_bound
        delta = self.delta_covariant()
        F = self.twisted_module()
        algebra = self.algebra
        terms = _kernel_generator_terms(bound)
        per_degree: List[Dict[str, int]] = []
        counts: Dict[int, int] = {}
        for d in range(2, bound + 1, 2):
            rows = F.dim(d)
            kernel_dim = self.kernel_dim(d)
            blocks = F.generator_blocks(d)[0]
            # the M(i, j) of degree d last, each pair order kept
            pairs = sorted(_pairs_up_to(d), key=lambda p: 2 * (p[0] + p[1]) == d)
            edges: List[Iterable[Tuple[int, int]]] = []
            columns = 0
            for (i, j) in pairs:
                # column mono * M(i, j): per term, c at the row of mono * e_k
                # in the m_l block.  Checked per term, not per entry: the
                # block of m_l has degree deg + 2k and lies inside the rows,
                # and c is a nonzero int
                deg = d - 2 * (i + j)
                size = algebra.hilbert_function(deg)
                placed: List[Tuple[Tuple[int, ...], int, int]] = []
                for l, k, c in terms[i, j]:
                    block = blocks.get(self.generator_index(l))
                    offset = algebra._block_offset(block, deg + 2 * k, rows)
                    table = algebra.multiplication_table(k, deg)
                    if offset is None or type(c) is not int or not c or len(table) != size:
                        raise ValueError(
                            f"the span: the term {c}*e{k}*m{l} of M({i},{j}) is not a nonzero "
                            f"int on a degree-{deg + 2 * k} block inside {rows} rows at degree {d}"
                        )
                    placed.append((table, offset, c))
                if not deg:
                    # M(i, j) itself, the one column formed
                    column = tuple(chain.from_iterable((t[0] + o, c) for t, o, c in placed))
                    if delta.image(d, column):
                        raise FalsificationError(f"M({i},{j}) leaves the kernel at degree {d}")
                values = [c for _, _, c in placed]
                if len(values) > 2 or values[1:] and values[1] != -values[0]:
                    raise ValueError(
                        f"the span: M({i},{j}) is not graphic at degree {d}: its terms "
                        f"{values} are not one nonzero int or two with opposite values"
                    )
                # one edge per column; a missing end is the ground vertex, so
                # one term gives edges to it and none gives loops
                ends = [map(add, t, repeat(o)) for t, o, _ in placed]
                ends += [repeat(rows, size) for _ in range(2 - len(ends))]
                edges.append(zip(*ends))
                columns += size
            split = columns - len(_lambda2_pairs(d))
            pivots = _forest_pivots(chain.from_iterable(edges), rows)
            span_rank = len(pivots)
            minimal = sum(1 for c in pivots if c >= split)
            if minimal:
                counts[d] = minimal
            per_degree.append(
                {
                    "degree": d,
                    "kernel_dim": kernel_dim,
                    "span_rank": span_rank,
                    "spanning_vectors": columns,
                }
            )
            if span_rank != kernel_dim:
                raise FalsificationError(
                    f"M classes span {span_rank} of {kernel_dim} kernel "
                    f"dimensions at degree {d}"
                )

        syzygies = _cyclic_syzygies(terms, bound)
        expected = {
            d: len(_lambda2_pairs(d))
            for d in range(2, bound + 1, 2)
            if _lambda2_pairs(d)
        }
        if counts != expected:
            raise FalsificationError(
                f"minimal generators {counts} != Lambda^2 table {expected}"
            )
        self._generators = GeneratorsReport(
            per_degree=tuple(per_degree),
            syzygies_checked=syzygies,
            minimal_counts=counts,
        )
        return self._generators

    def verify_tor(self, j_max: int = 4) -> "TorReport":
        """Tor_j(Q, Htilde module) has dimension Lambda^j + Lambda^{j+2} in
        every internal degree (the theta line gives Lambda^j, the kernel K
        of the contraction against m_1 gives Lambda^{j+2}), and Tor_1 != 0
        certifies non-freeness.

        The dimensions come by dimension shifting along the defining
        sequence 0 -> K -> F -> A -> Q -> 0, with no Koszul complex of the
        module: F and A are free, so the long exact sequences of Tor give
        Tor_j(K) = Tor_{j+1}(A_+) = Tor_{j+2}(Q, Q) (C. Weibel, *An
        Introduction to Homological Algebra*, 1994, sections 2.4 and 4.5).
        The premises, each checked here at the bound or holding by
        construction:

        * Koszul(A) = (Omega^*, p) is exact in every degree 1..bound, so it
          resolves Q: `DifferentialForms.verify_exactness`, which certifies
          it from p alone, by a matched unit minor of each p_n plus
          p^2 = 0, and keeps the report per degree, so resolution-exactness
          reuses it.  It is the Koszul complex of A on the e_i because p
          applies the Koszul boundary formula to the same multiplication
          tables.  Its entries lie in A_+, so Tor_j(Q, Q)_d = Lambda^j_d is
          counted as the blocks of Omega^j_d whose coefficient degree is 0.
        * delta: F -> A is A-linear: `GradedModuleMap.check_equivariance`,
          run when `delta_covariant` builds it.
        * delta maps onto A_+ in every positive degree:
          `verify_surjectivity`.
        * The j = 0 step needs delta(m_l) outside A_+^2, so that
          F (x) Q -> A_+/A_+^2 is an isomorphism.  No further check is
          needed: by equivariance every other column of delta at degree 2l
          is e_k times a column of lower degree, so it lands in A_+^2, and
          surjectivity onto e_l then needs the column of m_l.
        * F and A are free by construction (`FreeGradedModule`), and every
          e_i acts by zero on the theta line Q, so Koszul(Q) is Lambda^* E
          with zero differential and the theta line contributes Lambda^j.

        A broken premise raises naming it; counts that differ from
        Lambda^j + Lambda^{j+2} raise a FalsificationError listing them.
        """
        top = self.degree_bound
        self.verify_surjectivity()
        for d in range(1, top + 1):
            self.forms.verify_exactness(d)
        results: List[TorResult] = []
        mismatches: List[Dict[str, int]] = []
        for j in range(0, j_max + 1):
            dims: Dict[int, int] = {}
            for d in range(0, top + 1):
                got = self._free_generators(j, d) + self._free_generators(j + 2, d)
                expected = exterior_dim(j, d) + exterior_dim(j + 2, d)
                if got != expected:
                    mismatches.append(
                        {"j": j, "degree": d, "got": got, "expected": expected}
                    )
                if got:
                    dims[d] = got
            results.append(TorResult(j=j, dims=dims))
        if mismatches:
            raise FalsificationError(f"Tor mismatches: {mismatches}")
        # Tor_1 at degree 2 whatever j_max is, as the loop counts it
        nonfree = self._free_generators(1, 2) + self._free_generators(3, 2) if top >= 2 else 0
        return TorReport(
            results=tuple(results),
            nonfreeness_witness=nonfree,
        )

    def _free_generators(self, n: int, d: int) -> int:
        """The degree-d generators of the free module Omega^n: the blocks
        of its layout whose coefficient degree is 0.  Past the largest form
        degree Omega^n is zero, and no layout is built for it."""
        if n > self.forms.max_form_degree():
            return 0
        return sum(1 for _, deg in self.forms._layout(n, d)[0].values() if deg == 0)

    def exact_sequence_audit(self) -> List[Dict[str, int]]:
        """Alternating sums across 0 -> kernel -> twisted -> A -> Q -> 0.

        Together with the verified injectivity/surjectivity this certifies
        exactness of the defining sequence block by block.
        """
        F = self.twisted_module()
        rows = []
        for d in range(0, self.degree_bound + 1, 2):
            k = self.kernel_dim(d)
            f = F.dim(d)
            a = self.algebra.hilbert_function(d)
            q = 1 if d == 0 else 0
            rows.append(
                {
                    "internal_degree": d,
                    "kernel": k,
                    "twisted": f,
                    "ring": a,
                    "unit": q,
                    "alternating_sum": k - f + a - q,
                }
            )
        bad = [r for r in rows if r["alternating_sum"]]
        if bad:
            raise FalsificationError(f"exact sequence audit fails: {bad}")
        return rows

    def kernel_cross_check(self) -> List[Dict[str, int]]:
        """The contraction against m_1 *is* -p on 1-forms under the
        dictionary m_i <-> de_i: identical matrices up to the global sign,
        and identical kernel dimensions per degree.  The one slot list of
        p_1 (`DifferentialForms._contraction`) is compared with delta's row
        table (`GradedModuleMap.is_minus`), with no matrix built.

        The rank of p_1 is the one the forms certificate of
        `DifferentialForms.verify_exactness` certified (spot 0's
        ``rank_in``, the number of down forms of Omega^1_d; a memo hit once
        resolution-exactness or Tor has run).  Where that certificate
        fails, it is the number of distinct rows among the nonzero columns
        of p_1, exact for one entry per column (`GradedModuleMap.rank`): a
        broken identity elsewhere in the forms complex is not a failure of
        this check."""
        delta = self.delta_covariant()
        rows = []
        for d in range(2, self.degree_bound + 1, 2):
            p_rows, cols, (slot_rows,), (slot_values,) = self.forms._contraction(1, d)
            same = delta.is_minus(d, p_rows, slot_rows, slot_values)
            k_delta = self.kernel_dim(d)
            try:
                rank_p = self.forms.verify_exactness(d).spots[0].rank_in
            except ValueError:
                rank_p = len(set(compress(slot_rows, slot_values)))
            k_p = cols - rank_p
            rows.append(
                {
                    "internal_degree": d,
                    "kernel_dim_module_route": k_delta,
                    "kernel_dim_forms_route": k_p,
                    "matrices_match_up_to_sign": int(same),
                }
            )
            if not same or k_delta != k_p:
                raise FalsificationError(
                    f"forms dictionary fails at degree {d}", rows
                )
        return rows


@dataclass(frozen=True)
class GeneratorsReport:
    per_degree: Tuple[Dict[str, int], ...]
    syzygies_checked: int
    minimal_counts: Dict[int, int]


@dataclass(frozen=True)
class TorReport:
    results: Tuple[TorResult, ...]
    nonfreeness_witness: int

    @property
    def ok(self) -> bool:
        return self.nonfreeness_witness > 0


# the terms of M(i, j), i < j, as (l, k, c) per term c * e_k m_l
GeneratorTerms = Dict[Tuple[int, int], List[Tuple[int, int, int]]]


def _kernel_generator_terms(bound: int) -> GeneratorTerms:
    """Each M(i, j) with 2(i + j) <= bound, read once from
    `kernel_generator`; raises unless its terms have distinct l.  The span
    checks each term's k, c and block when it reads it."""
    terms: GeneratorTerms = {}
    for (i, j) in _pairs_up_to(bound):
        terms[i, j] = kernel_generator(i, j)
        if len({l for l, _, _ in terms[i, j]}) != len(terms[i, j]):
            raise ValueError(f"M({i},{j}) has two terms on one m_l: {terms[i, j]}")
    return terms


def _cyclic_syzygies(terms: GeneratorTerms, bound: int) -> int:
    """The number of triples i < j < k with 2(i + j + k) <= bound, after
    checking e_i M(j, k) + e_j M(k, i) + e_k M(i, j) = 0 for each by index:
    the coefficient of e_a e_b m_l, keyed (l, a, b) with a <= b, summed
    over the terms, with M(k, i) read as -M(i, k)."""
    triples = _triples_up_to(bound)
    for (i, j, k) in triples:
        lhs: Dict[Tuple[int, int, int], object] = {}
        for a, pair, sign in ((i, (j, k), 1), (j, (i, k), -1), (k, (i, j), 1)):
            for l, b, c in terms[pair]:
                key = (l, a, b) if a <= b else (l, b, a)
                lhs[key] = lhs.get(key, 0) + sign * c
        if any(lhs.values()):
            raise FalsificationError(f"syzygy fails at ({i},{j},{k})")
    return len(triples)


def _forest_pivots(edges: Iterable[Tuple[int, int]], ground: int) -> List[int]:
    """The pivot columns of a graphic matrix with rows 0 .. ground - 1,
    given as one edge per column in column order: (u, v) for a column
    x (e_u - e_v), (u, ground) for x e_u, and a loop for a zero column.

    Scaling a column or adding the ground row (minus the sum of the
    others) changes no linear dependency, so columns are independent
    exactly when their edges form a forest, over any field (J. Oxley,
    *Matroid Theory*, 2nd ed., 2011, section 5.1).  Union-find keeps an
    edge iff it joins two components: the leftmost independent set, which
    is the pivot set of elimination from the left.

    >>> _forest_pivots([(0, 1), (1, 2), (0, 2), (3, 3), (2, 3)], 3)
    [0, 1, 4]
    """
    parent = list(range(ground + 1))
    pivots: List[int] = []
    for c, (u, v) in enumerate(edges):
        # the two roots, halving each path on the way
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            pivots.append(c)
    return pivots


def _pairs_up_to(d: int) -> List[Tuple[int, int]]:
    """(i, j) with i < j and 2(i + j) <= d, lex ordered."""
    out = []
    for i in range(1, d // 2 + 1):
        for j in range(i + 1, d // 2 + 1):
            if 2 * (i + j) <= d:
                out.append((i, j))
    return out


def _lambda2_pairs(d: int) -> List[Tuple[int, int]]:
    """(i, j) with i < j and 2(i + j) = d: a basis of Lambda^2 E at d."""
    return [(i, d // 2 - i) for i in range(1, (d // 2 - 1) // 2 + 1) if i < d // 2 - i]


def _triples_up_to(bound: int) -> List[Tuple[int, int, int]]:
    """(i, j, k) with i < j < k and 2(i + j + k) <= bound."""
    out = []
    half = bound // 2
    for i in range(1, half + 1):
        for j in range(i + 1, half + 1):
            for k in range(j + 1, half + 1):
                if i + j + k <= half:
                    out.append((i, j, k))
    return out
