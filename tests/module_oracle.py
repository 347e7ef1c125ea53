"""The kernel-module route to the contraction kernel, kept as a test-only oracle.

``StableCohomology`` reads the kernel's dimensions as ``cols - rank`` of the
contraction against m_1 and its minimal generator counts off the pivots of
the span elimination in ``verify_generators``, with no module structure on
the kernel.  This is the route it replaced: the kernel module with its
induced action, read off and checked against the canonical kernel basis,
and the minimal generators eliminated from that action, together with the
trivial module and the direct sum that build the full Htilde module for
the Koszul oracle.

These modules are not free, so they carry their actions as matrices
(``GradedModule``); ``action`` gives the same matrix for a free module,
the 0/1 matrix of its multiplication table.
"""

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, List, Mapping, Optional, Tuple, Union

from mmmcoh.algebra import PolynomialAlgebra
from mmmcoh.linalg import SparseMatrix, _kernel_with_free_columns, _pairs, _rref
from mmmcoh.modules import FreeGradedModule, GradedModuleMap


class GradedModule:
    """A bounded, degreewise-finite graded module with exact action matrices.

    dims: internal degree -> dimension (missing degrees are zero).
    actions: (i, d) -> matrix of e_i: M_d -> M_{d+2i}; missing actions on a
    zero source or target default to the zero matrix of the right shape.
    coh_offset: cohomological degree minus internal degree.
    """

    def __init__(
        self,
        algebra: PolynomialAlgebra,
        dims: Mapping[int, int],
        actions: Mapping[Tuple[int, int], SparseMatrix],
        coh_offset: Optional[int] = 0,
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
        bound = self.algebra.degree_bound
        for d in self.degrees():
            for a, i in enumerate(gens):
                if d + 2 * i > bound:
                    break
                for j in gens[a + 1 :]:
                    if d + 2 * i + 2 * j > bound:
                        break
                    ij = self.action(j, d + 2 * i) @ self.action(i, d)
                    ji = self.action(i, d + 2 * j) @ self.action(j, d)
                    if ij != ji:
                        raise ValueError(
                            f"actions of e{i} and e{j} fail to commute at degree {d}"
                        )


Module = Union[GradedModule, FreeGradedModule]


def action(module: Module, i: int, d: int) -> SparseMatrix:
    """The matrix of e_i: M_d -> M_{d+2i}: a ``GradedModule``'s stored
    action, or for a free module the 0/1 matrix of its multiplication
    table (column k holds a 1 at row ``table[k]``)."""
    if isinstance(module, FreeGradedModule):
        table = module.multiplication_table(i, d)
        return SparseMatrix.of_columns(module.dim(d + 2 * i), len(table), list(zip(table, repeat(1))))
    return module.action(i, d)


def offset_columns(m: SparseMatrix, row_off: int, factor=1) -> List[Tuple]:
    """The columns of ``factor * m`` with every row moved down by
    ``row_off``: the columns of ``m`` as a block of a larger matrix."""
    return [
        tuple(chain.from_iterable((r + row_off, factor * x) for r, x in _pairs(col)))
        for col in m.packed
    ]


def map_matrices(f: GradedModuleMap) -> Dict[int, SparseMatrix]:
    """The matrix of ``f`` at each degree where it stores a table, the
    input ``kernel_module`` takes."""
    return {d: f.matrix(d) for d in f.tables}


def trivial_module(algebra: PolynomialAlgebra) -> GradedModule:
    """Q in degree 0 with every e_i acting by zero."""
    return GradedModule(algebra, {0: 1}, {})


def direct_sum(a: Module, b: Module) -> GradedModule:
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
            am, bm = action(a, i, d), action(b, i, d)
            m = SparseMatrix.of_columns(
                am.rows + bm.rows, am.cols + bm.cols, am.packed + tuple(offset_columns(bm, am.rows))
            )
            if m.rows and m.cols:
                actions[(i, d)] = m
    offset = a.coh_offset if a.coh_offset == b.coh_offset else None
    return GradedModule(a.algebra, dims, actions, coh_offset=offset)


def kernel_module(
    source: Module, matrices: Mapping[int, SparseMatrix]
) -> Tuple[GradedModule, Dict[int, SparseMatrix]]:
    """The degreewise kernel of the map with degree-d matrix
    ``matrices[d]`` on ``source`` (zero where missing), with its induced
    module structure.

    Returns ``(K, inclusions)``, ``inclusions[d]`` the matrix of
    K_d -> source_d for each degree where K is nonzero.  The map itself
    need not be equivariant; only the kernel's action is checked.
    The induced action of e_i on the kernel basis is computed by solving
    against the kernel basis of the higher degree; the canonical basis from
    the RREF makes that a coordinate read-off (1 in each free column), done
    for the whole basis with one product, but the result is verified
    exactly and any mismatch — which would mean the actions do not preserve
    the kernel — is a hard error.
    """
    algebra = source.algebra
    kernels: Dict[int, List[Tuple]] = {}  # the kernel basis as packed columns
    free_rows: Dict[int, Dict[int, int]] = {}  # free column -> basis index
    for d in source.degrees():
        m = matrices.get(d)
        if m is None:
            m = SparseMatrix.zero(0, source.dim(d))
        basis, free = _kernel_with_free_columns(m)
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
            pushed = action(source, i, d) @ inclusions[d]
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

    return GradedModule(algebra, dims, actions, coh_offset=source.coh_offset), inclusions


@dataclass(frozen=True)
class MinimalGenerators:
    """Degreewise generator counts and representative vectors, those of
    degree d as the columns of one matrix."""

    counts: Dict[int, int]
    representatives: Dict[int, SparseMatrix]

    def total(self) -> int:
        return sum(self.counts.values())


def minimal_generators(module: Module, up_to: Optional[int] = None) -> MinimalGenerators:
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
    reps: Dict[int, SparseMatrix] = {}
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
                block = action(module, i, low)
                for c, col in enumerate(block.packed, width):
                    for r, x in _pairs(col):
                        rows[r][c] = x
                width += block.cols
        for r in range(n):
            rows[r][width + r] = 1
        # pivots past the image block pick out the standard basis vectors
        # that extend the image to a full basis
        pivots, _ = _rref(rows, width + n)
        extra = [c - width for c in pivots if c >= width]
        if extra:
            counts[d] = len(extra)
            reps[d] = SparseMatrix.of_columns(n, len(extra), [(r, 1) for r in extra])
    return MinimalGenerators(counts=counts, representatives=reps)
