"""The Koszul rank route to Tor, kept as a test-only oracle.

``StableCohomology.verify_tor`` derives the Tor dimensions by dimension
shifting along the defining sequence, with no Koszul complex of the module.
This is the route it replaced: Tor_j(Q, M) from the ranks of the Koszul
differentials

    ... -> Lambda^2 E (x) M -> Lambda^1 E (x) M -> M -> 0,
    del(e_{i_1}^...^e_{i_j} (x) m) =
        sum_k (-1)^{k+1} e_{i_1}^...(drop k)...^e_{i_j} (x) e_{i_k} m,

each built from the module's action matrices (``module_oracle.action``)
and ranked once per module.
"""

from itertools import chain, repeat
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from mmmcoh.linalg import SparseMatrix, rank
from mmmcoh.modules import TorResult
from module_oracle import Module, action, offset_columns

# module -> {(j, d): rank of the Koszul differential}; a module is immutable
_RANKS: "WeakKeyDictionary[Module, Dict[Tuple[int, int], int]]" = WeakKeyDictionary()


def koszul_differential(module: Module, j: int, d: int) -> SparseMatrix:
    """The boundary Lambda^j E (x) M -> Lambda^{j-1} E (x) M in degree d.

    Bases are ordered wedge-major: for each wedge (ascending lex within a
    weight, weights ascending) the slice of M in the complementary degree,
    in its own order.
    """
    if j < 1:
        return SparseMatrix.zero(0, koszul_dim(module, 0, d) if j == 0 else 0)
    src_layout = koszul_layout(module, j, d)
    tgt_offsets = {w: off for w, off, _ in koszul_layout(module, j - 1, d)}
    columns: List[Tuple] = []
    for wedge, _, m_deg in src_layout:
        # per slot k, the columns of +-e_{i_k} moved into the block of the
        # wedge without slot k; a source column is their concatenation
        blocks = []
        for k, i in enumerate(wedge):
            rest = wedge[:k] + wedge[k + 1 :]
            row_off = tgt_offsets.get(rest)
            if row_off is not None:
                blocks.append(offset_columns(action(module, i, m_deg), row_off, -1 if k % 2 else 1))
        if blocks:
            columns.extend(map(tuple, map(chain.from_iterable, zip(*blocks))))
        else:
            columns.extend(repeat((), module.dim(m_deg)))
    rows = koszul_dim(module, j - 1, d)
    cols = koszul_dim(module, j, d)
    return SparseMatrix.of_columns(rows, cols, columns)


def koszul_layout(module: Module, j: int, d: int):
    """[(wedge, column offset, module degree)] for Lambda^j E (x) M at d."""
    layout = []
    off = 0
    for w in range(0, d + 1, 2):
        for wedge in module.algebra.exterior_basis(j, w):
            n = module.dim(d - w)
            if n:
                layout.append((wedge, off, d - w))
                off += n
    return layout


def koszul_dim(module: Module, j: int, d: int) -> int:
    wedges = module.algebra.exterior_basis
    return sum(len(wedges(j, w)) * module.dim(d - w) for w in range(0, d + 1, 2))


def tor_dimension(module: Module, j: int, d: int) -> int:
    """dim Tor_j(Q, M) in internal degree d, by exact rank bookkeeping."""
    if j < 0 or d < 0:
        return 0
    module.algebra._check_degree(d)
    c = koszul_dim(module, j, d)
    if c == 0:
        return 0
    r_out = koszul_rank(module, j, d) if j >= 1 else 0
    r_in = koszul_rank(module, j + 1, d)
    return c - r_out - r_in


def koszul_rank(module: Module, j: int, d: int) -> int:
    # Tor_j and Tor_{j-1} share this differential: rank it once per module
    ranks = _RANKS.setdefault(module, {})
    r = ranks.get((j, d))
    if r is None:
        r = ranks[(j, d)] = rank(koszul_differential(module, j, d))
    return r


def tor_table(module: Module, j: int, up_to: Optional[int] = None) -> TorResult:
    algebra = module.algebra
    if up_to is None:
        up_to = algebra.degree_bound
    algebra._check_degree(up_to)
    dims = {}
    for d in range(0, up_to + 1):
        n = tor_dimension(module, j, d)
        if n:
            dims[d] = n
    return TorResult(j=j, dims=dims)
