"""Free graded modules over the characteristic-class ring, and maps between them.

Every coefficient module the verifications build is free over
A = Q[e_1, e_2, ...]: the twisted-class module on the m_l, and A on 1.  A
free module is stored by its layout inside the algebra's bound: for each
internal degree, one block per generator holding the monomial basis of the
complementary degree.  The e_i act by multiplying monomials, so the action
M_d -> M_{d+2i} is a table of basis indices
(`FreeGradedModule.multiplication_table`), built from the algebra's own
tables, and no action is stored as a matrix.

`GradedModuleMap.check_equivariance` certifies f e_i = e_i f square by
square with no product: the left side is f(d) with its rows relabelled
through the target's table, the right side the columns of f(d + 2i)
gathered at the source's table (`linalg.relabel_rows`,
`linalg.gather_columns`).  `stable.StableCohomology` reads the contraction
kernel's dimensions and minimal generator counts off the pivots of the
maps' matrices and of the kernel-generator span, with no module structure
on the kernel; those matrices hold one entry +-1 per column (the
contraction, the cup product) or two, +1 and -1 (the span), so their ranks
are spanning-forest counts (`linalg.pivot_columns`).  The dimensions of
Tor_j(Q, M) are held in ``TorResult``; `stable.StableCohomology.verify_tor`
derives them by dimension shifting, with no Koszul complex of M.

Cohomological degrees may sit at a fixed offset from internal ones (the
twisted-class module stores its generators one above their cohomological
degree); the offset is bookkeeping only and never enters the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import add
from typing import Dict, List, Mapping, Sequence, Tuple

from .algebra import DegreeBoundError, PolynomialAlgebra
from .linalg import (
    SparseMatrix,
    gather_columns,
    rank,  # noqa: F401  (perfbench/test_perfbench.py reads modules.rank)
    relabel_rows,
)


class FreeGradedModule:
    """The free module on homogeneous generators g_1, ..., g_r.

    The degree-d slice has basis (g_k, monomial) with deg g_k + deg monomial
    = d, ordered by generator then canonical monomial order; e_i acts by
    multiplying the monomial (`multiplication_table`).  ``coh_offset`` is
    the cohomological degree minus the internal degree.
    """

    def __init__(self, algebra: PolynomialAlgebra, gen_degrees: Sequence[int], coh_offset: int = 0):
        for a in gen_degrees:
            if a < 0 or a % 2:
                raise ValueError("generator degrees must be even and >= 0")
        self.algebra = algebra
        self.gen_degrees = tuple(gen_degrees)
        self.coh_offset = coh_offset
        self._blocks: Dict[int, Tuple[Dict[int, Tuple[int, int]], int]] = {}
        self.dims = {}
        for d in range(0, algebra.degree_bound + 1, 2):
            n = self.generator_blocks(d)[1]
            if n:
                self.dims[d] = n

    @property
    def bound(self) -> int:
        return self.algebra.degree_bound

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def degrees(self) -> List[int]:
        return sorted(self.dims)

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

    def multiplication_table(self, i: int, d: int) -> Tuple[int, ...]:
        """Multiplication by e_i from degree d to degree d + 2i, as positions:
        entry k is the index of e_i * b_k in the degree-(d + 2i) basis, b_k
        the k-th basis element of degree d.  Each generator's block is the
        algebra's table moved to the block's offset; raises
        ``DegreeBoundError`` past the bound, as the algebra's table does."""
        top = d + 2 * i
        if top > self.algebra.degree_bound:
            raise DegreeBoundError(
                f"degree {top} exceeds the configured bound {self.algebra.degree_bound}"
            )
        target = self.generator_blocks(top)[0]
        product = self.algebra.multiplication_table
        return tuple(chain.from_iterable(
            map(add, product(i, deg), repeat(target[k][0]))
            for k, (_, deg) in self.generator_blocks(d)[0].items()
        ))


def free_module(
    algebra: PolynomialAlgebra, gen_degrees: Sequence[int], coh_offset: int = 0
) -> FreeGradedModule:
    return FreeGradedModule(algebra, gen_degrees, coh_offset=coh_offset)


class GradedModuleMap:
    """A degreewise matrix family between free modules, commuting with the
    e_i actions.

    ``degree_shift`` is cohomological; on internal degrees the shift is
    degree_shift + source.coh_offset - target.coh_offset.  ``matrix(d)``
    maps the degree-d slice of the source into degree d + internal_shift of
    the target.  Equivariance is checked at construction and a violation is
    an error: these maps encode theorems, not approximations.
    """

    def __init__(
        self,
        source: FreeGradedModule,
        target: FreeGradedModule,
        degree_shift: int,
        matrices: Mapping[int, SparseMatrix],
    ):
        self.source = source
        self.target = target
        self.degree_shift = degree_shift
        self.matrices = dict(matrices)
        s = self.internal_shift
        for d, m in self.matrices.items():
            if m.cols != source.dim(d) or m.rows != target.dim(d + s):
                raise ValueError(f"matrix at degree {d} has the wrong shape")
        self.check_equivariance()

    @property
    def internal_shift(self) -> int:
        return self.degree_shift + self.source.coh_offset - self.target.coh_offset

    def matrix(self, d: int) -> SparseMatrix:
        m = self.matrices.get(d)
        if m is None:
            m = SparseMatrix.zero(self.target.dim(d + self.internal_shift), self.source.dim(d))
        return m

    def check_equivariance(self) -> None:
        """e_i f(d) = f(d + 2i) e_i for every e_i and every source degree d
        inside the bound, with no product: e_i f(d) is f(d) with its rows
        relabelled through the target's table (which `linalg.relabel_rows`
        checks to be injective, so that no two entries need adding), and
        f(d + 2i) e_i is f(d + 2i) with its columns gathered at the
        source's table."""
        s = self.internal_shift
        source, target = self.source, self.target
        bound = source.algebra.degree_bound
        for d in source.degrees():
            for i in source.algebra.generator_indices():
                if d + 2 * i > bound or d + s + 2 * i > bound:
                    break
                left = relabel_rows(
                    self.matrix(d),
                    target.multiplication_table(i, d + s),
                    target.dim(d + s + 2 * i),
                )
                right = gather_columns(self.matrix(d + 2 * i), source.multiplication_table(i, d))
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
