"""Graded modules over the characteristic-class ring.

A graded module is stored degree-by-degree inside the algebra's bound: a
dimension for each internal degree and, for each generator e_i, the exact
matrix of multiplication M_d -> M_{d+2i}.  That is all the structure the
verifications need: kernels of equivariant maps and minimal generator
counts (degreewise quotients by the ideal action).  The dimensions of
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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import Monomial, PolynomialAlgebra
from .linalg import (
    SparseMatrix,
    VectorQ,
    _forward,
    _kernel_with_free_columns,
    _pairs,
    offset_columns,
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


def trivial_module(algebra: PolynomialAlgebra) -> GradedModule:
    """Q in degree 0 with every e_i acting by zero."""
    return GradedModule(algebra, {0: 1}, {}, coh_offset=0, check=False)


def direct_sum(a: GradedModule, b: GradedModule) -> GradedModule:
    """Degreewise direct sum with block-diagonal actions.

    Cohomological offsets need not agree (the summands keep their own
    parity); internal degrees are what the sum is graded by, and the offset
    of the sum is meaningful only when both sides agree.
    """
    if a.algebra is not b.algebra:
        raise ValueError("summands must share an algebra")
    dims = {}
    for d in set(a.dims) | set(b.dims):
        dims[d] = a.dim(d) + b.dim(d)
    actions = {}
    for d in sorted(dims):
        for i in a.algebra.generator_indices():
            if d + 2 * i > a.algebra.degree_bound:
                break
            am, bm = a.action(i, d), b.action(i, d)
            m = SparseMatrix.of_columns(
                am.rows + bm.rows, am.cols + bm.cols, am.packed + tuple(offset_columns(bm, am.rows))
            )
            if m.rows and m.cols:
                actions[(i, d)] = m
    offset = a.coh_offset if a.coh_offset == b.coh_offset else None
    return GradedModule(a.algebra, dims, actions, coh_offset=offset, check=False)


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


def kernel_module(f: GradedModuleMap) -> Tuple[GradedModule, GradedModuleMap]:
    """The degreewise kernel of f, with its induced module structure.

    Returns ``(K, include)`` where include: K -> source is degree-shift 0.
    The induced action of e_i on the kernel basis is computed by solving
    against the kernel basis of the higher degree; the canonical basis from
    the RREF makes that a coordinate read-off (1 in each free column), done
    for the whole basis with one product, but the result is verified
    exactly and any mismatch — which would mean the actions do not preserve
    the kernel — is a hard error.
    """
    source = f.source
    algebra = source.algebra
    kernels: Dict[int, List[Tuple]] = {}  # the kernel basis as packed columns
    free_rows: Dict[int, Dict[int, int]] = {}  # free column -> basis index
    for d in source.degrees():
        basis, free = _kernel_with_free_columns(f.matrix(d))
        if basis:
            kernels[d] = basis
            free_rows[d] = {c: row for row, c in enumerate(free)}
    dims = {d: len(v) for d, v in kernels.items()}
    inclusions = {
        d: SparseMatrix.of_columns(source.dim(d), len(v), v) for d, v in kernels.items()
    }

    actions: Dict[Tuple[int, int], SparseMatrix] = {}
    for d, vs in sorted(kernels.items()):
        for i in algebra.generator_indices():
            up = d + 2 * i
            if up > algebra.degree_bound:
                break
            pushed = source.action(i, d) @ inclusions[d]
            if not dims.get(up):
                # the pushed-forward vectors must then be zero
                if not pushed.is_zero():
                    raise ValueError(
                        f"e{i} pushes a kernel vector at degree {d} outside the kernel"
                    )
                continue
            row_of = free_rows[up]
            coords = SparseMatrix.of_columns(
                dims[up],
                len(vs),
                [
                    tuple(chain.from_iterable((row_of[r], x) for r, x in _pairs(col) if r in row_of))
                    for col in pushed.packed
                ],
            )
            if inclusions[up] @ coords != pushed:
                raise ValueError(
                    f"e{i} pushes a kernel vector at degree {d} outside the kernel"
                )
            actions[(i, d)] = coords

    kernel = GradedModule(algebra, dims, actions, coh_offset=source.coh_offset, check=False)
    include = GradedModuleMap(kernel, source, 0, inclusions, check=False)
    return kernel, include


@dataclass(frozen=True)
class MinimalGenerators:
    """Degreewise generator counts and representative vectors."""

    counts: Dict[int, int]
    representatives: Dict[int, Tuple[VectorQ, ...]]

    def total(self) -> int:
        return sum(self.counts.values())


def minimal_generators(module: GradedModule, up_to: Optional[int] = None) -> MinimalGenerators:
    """Counts dim(M_d / (ideal action)) per degree with explicit lifts.

    The count in degree d is dim M_d minus the rank of the combined image
    of every e_i: M_{d-2i} -> M_d; representatives are the standard basis
    vectors of M_d completing that image to all of M_d (deterministic:
    taken in increasing basis order from the canonical pivot columns of
    one forward elimination).
    """
    algebra = module.algebra
    if up_to is None:
        up_to = algebra.degree_bound
    algebra._check_degree(up_to)
    counts: Dict[int, int] = {}
    reps: Dict[int, Tuple[VectorQ, ...]] = {}
    for d in module.degrees():
        if d > up_to:
            continue
        n = module.dim(d)
        # the rows of [e_i blocks | identity], stacked in one pass
        rows: List[Dict[int, object]] = [dict() for _ in range(n)]
        width = 0
        for i in algebra.generator_indices():
            low = d - 2 * i
            if low < 0:
                break
            if module.dim(low):
                block = module.action(i, low)
                for c, col in enumerate(block.packed, width):
                    for r, x in _pairs(col):
                        rows[r][c] = x
                width += block.cols
        for r in range(n):
            rows[r][width + r] = 1
        # pivots past the image block pick out the standard basis vectors
        # that extend the image to a full basis
        pivots, _ = _forward(rows, width + n)
        extra = [c - width for c in pivots if c >= width]
        if extra:
            counts[d] = len(extra)
            reps[d] = tuple(VectorQ.unit(n, r) for r in extra)
    return MinimalGenerators(counts=counts, representatives=reps)


@dataclass(frozen=True)
class TorResult:
    """Dimensions of Tor_j(Q, M) across internal degrees, fixed j."""

    j: int
    dims: Dict[int, int]

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)
