"""Graded modules over the characteristic-class ring.

A graded module is stored degree-by-degree inside the algebra's bound: a
dimension for each internal degree and, for each generator e_i, the exact
matrix of multiplication M_d -> M_{d+2i}.  The free modules and the
equivariant maps between them are all the structure the verifications
build: `stable.StableCohomology` reads the contraction kernel's dimensions
and minimal generator counts off the pivots of those maps' matrices and of
the kernel-generator span, with no module structure on the kernel.  Those
matrices hold one entry +-1 per column (a free action, the contraction, the
cup product) or two, +1 and -1 (the span), so `check_equivariance`
multiplies by composing column indices (`linalg.SparseMatrix.__matmul__`)
and their ranks are spanning-forest counts (`linalg.pivot_columns`).  The
dimensions of Tor_j(Q, M) are held in ``TorResult``;
`stable.StableCohomology.verify_tor` derives them by dimension shifting,
with no Koszul complex of M.

Cohomological degrees may sit at a fixed offset from internal ones (the
twisted-class module stores its generators one above their cohomological
degree); the offset is bookkeeping only and never enters the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add
from typing import Dict, List, Mapping, Sequence, Tuple

from .algebra import Monomial, PolynomialAlgebra
from .linalg import (
    SparseMatrix,
    VectorQ,
    rank,  # noqa: F401  (perfbench/test_perfbench.py reads modules.rank)
)


class GradedModule:
    """A bounded, degreewise-finite graded module with exact action matrices.

    dims: internal degree -> dimension (missing degrees are zero).
    actions: (i, d) -> matrix of e_i: M_d -> M_{d+2i}; missing actions on a
    zero source or target default to the zero matrix of the right shape.
    coh_offset: cohomological degree minus internal degree (0 here unless a
    module's classes sit below their storage degree).
    """

    def __init__(
        self,
        algebra: PolynomialAlgebra,
        dims: Mapping[int, int],
        actions: Mapping[Tuple[int, int], SparseMatrix],
        coh_offset: int = 0,
        check: bool = True,
    ):
        self.algebra = algebra
        self.dims = {d: n for d, n in dims.items() if n}
        self.actions = dict(actions)
        self.coh_offset = coh_offset
        if min(self.dims, default=0) < 0:
            raise ValueError("internal degrees are nonnegative")
        for (i, d), m in self.actions.items():
            if m.cols != self.dim(d) or m.rows != self.dim(d + 2 * i):
                raise ValueError(
                    f"action of e{i} at degree {d} has shape "
                    f"{m.rows}x{m.cols}, expected {self.dim(d + 2 * i)}x{self.dim(d)}"
                )
        if check:
            self.check_action_commutativity()

    @property
    def bound(self) -> int:
        return self.algebra.degree_bound

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def degrees(self) -> List[int]:
        return sorted(self.dims)

    def action(self, i: int, d: int) -> SparseMatrix:
        m = self.actions.get((i, d))
        if m is None:
            m = SparseMatrix.zero(self.dim(d + 2 * i), self.dim(d))
        return m

    def check_action_commutativity(self) -> None:
        """e_i e_j = e_j e_i on every slice inside the bound (hard error)."""
        gens = list(self.algebra.generator_indices())
        for d in self.degrees():
            for a, i in enumerate(gens):
                if d + 2 * i > self.bound:
                    break
                for j in gens[a + 1 :]:
                    if d + 2 * i + 2 * j > self.bound:
                        break
                    ij = self.action(j, d + 2 * i) @ self.action(i, d)
                    ji = self.action(i, d + 2 * j) @ self.action(j, d)
                    if ij != ji:
                        raise ValueError(
                            f"actions of e{i} and e{j} fail to commute at degree {d}"
                        )

    def multiply(self, i: int, d: int, v: VectorQ) -> VectorQ:
        return self.action(i, d).apply(v)


class FreeGradedModule(GradedModule):
    """The free module on homogeneous generators g_1, ..., g_r.

    The degree-d slice has basis (g_k, monomial) with deg g_k + deg monomial
    = d, ordered by generator then canonical monomial order; e_i acts by
    multiplying the monomial, a 0/1 matrix.
    """

    def __init__(self, algebra: PolynomialAlgebra, gen_degrees: Sequence[int], coh_offset: int = 0):
        for a in gen_degrees:
            if a < 0 or a % 2:
                raise ValueError("generator degrees must be even and >= 0")
        self.algebra = algebra  # needed by generator_blocks() during construction
        self.gen_degrees = tuple(gen_degrees)
        self._blocks: Dict[int, Tuple[Dict[int, Tuple[int, int]], int]] = {}
        self._bases: Dict[int, Tuple[Tuple[int, Monomial], ...]] = {}
        self._indexes: Dict[int, Dict[Tuple[int, Monomial], int]] = {}
        dims = {}
        for d in range(0, algebra.degree_bound + 1, 2):
            n = self.generator_blocks(d)[1]
            if n:
                dims[d] = n
        actions = {}
        for d in range(0, algebra.degree_bound + 1, 2):
            for i in algebra.generator_indices():
                if d + 2 * i > algebra.degree_bound:
                    break
                m = self._build_action(algebra, i, d)
                if m.rows and m.cols:
                    actions[(i, d)] = m
        super().__init__(algebra, dims, actions, coh_offset=coh_offset, check=False)

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

    def basis(self, d: int) -> Tuple[Tuple[int, Monomial], ...]:
        """The degree-d basis as (generator position, monomial) pairs."""
        cached = self._bases.get(d)
        if cached is None:
            monomials = self.algebra.monomial_basis
            cached = tuple(
                (k, m)
                for k, (_, deg) in self.generator_blocks(d)[0].items()
                for m in monomials(deg)
            )
            self._bases[d] = cached
        return cached

    def basis_index(self, d: int) -> Dict[Tuple[int, Monomial], int]:
        idx = self._indexes.get(d)
        if idx is None:
            idx = {b: k for k, b in enumerate(self.basis(d))}
            self._indexes[d] = idx
        return idx

    def _build_action(self, algebra: PolynomialAlgebra, i: int, d: int) -> SparseMatrix:
        src, cols = self.generator_blocks(d)
        tgt, rows = self.generator_blocks(d + 2 * i)
        columns: List[Tuple[int, int]] = []
        for k, (_, deg) in src.items():
            # column (g_k, m) holds a 1 at (g_k, m * e_i)
            product = algebra.multiplication_table(i, deg)
            columns.extend(zip(map(add, product, repeat(tgt[k][0])), repeat(1)))
        return SparseMatrix.of_columns(rows, cols, columns)


def free_module(
    algebra: PolynomialAlgebra, gen_degrees: Sequence[int], coh_offset: int = 0
) -> FreeGradedModule:
    return FreeGradedModule(algebra, gen_degrees, coh_offset=coh_offset)


class GradedModuleMap:
    """A degreewise matrix family commuting with the e_i actions.

    ``degree_shift`` is cohomological; on internal degrees the shift is
    degree_shift + source.coh_offset - target.coh_offset.  ``matrix(d)``
    maps the degree-d slice of the source into degree d + internal_shift of
    the target.  Equivariance is checked at construction and a violation is
    an error: these maps encode theorems, not approximations.
    """

    def __init__(
        self,
        source: GradedModule,
        target: GradedModule,
        degree_shift: int,
        matrices: Mapping[int, SparseMatrix],
        check: bool = True,
    ):
        self.source = source
        self.target = target
        self.degree_shift = degree_shift
        self.matrices = dict(matrices)
        s = self.internal_shift
        for d, m in self.matrices.items():
            if m.cols != source.dim(d) or m.rows != target.dim(d + s):
                raise ValueError(f"matrix at degree {d} has the wrong shape")
        if check:
            self.check_equivariance()

    @property
    def internal_shift(self) -> int:
        off_s = self.source.coh_offset or 0
        off_t = self.target.coh_offset or 0
        return self.degree_shift + off_s - off_t

    def matrix(self, d: int) -> SparseMatrix:
        m = self.matrices.get(d)
        if m is None:
            m = SparseMatrix.zero(self.target.dim(d + self.internal_shift), self.source.dim(d))
        return m

    def check_equivariance(self) -> None:
        s = self.internal_shift
        bound = self.source.algebra.degree_bound
        for d in self.source.degrees():
            for i in self.source.algebra.generator_indices():
                if d + 2 * i > bound or d + s + 2 * i > bound:
                    break
                left = self.target.action(i, d + s) @ self.matrix(d)
                right = self.matrix(d + 2 * i) @ self.source.action(i, d)
                if left != right:
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
