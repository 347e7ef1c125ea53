"""First cohomology of a finitely presented group in a rational matrix rep.

For a presentation <x_1, ..., x_n | r_1, ..., r_m> and a representation
rho on Q^k, a 1-cocycle is determined by its values v_i = f(x_i) subject to
f(r) = 0 for every relator, where f extends by the crossed-homomorphism
rule f(uv) = f(u) + rho(u) f(v), so f(x^-1) = -rho(x)^-1 f(x).  Expanding a
relator letter by letter gives one exact linear condition per relator and
coordinate; the solutions are Z^1.  Coboundaries are the image of
v |-> ((rho(x_i) - 1)v)_i, and dim H^1 = dim Z^1 - dim B^1.

Words are tuples of nonzero integers: +i for x_i, -i for its inverse; they
must be freely reduced.  Matrices are exact (integer or rational entries).

The motivating instance ships as data/b3.json: the mapping class group of a
once-bordered torus — the braid group on three strands — acting on the
first homology lattice of the surface.  Its H^1 vanishes, with the cocycle
and coboundary spaces both of dimension 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import SparseMatrix, _pairs, _row_dicts, _rref, column_space_basis, kernel_basis

Word = Tuple[int, ...]


def _is_freely_reduced(word: Sequence[int]) -> bool:
    return all(a != -b for a, b in zip(word, word[1:]))


@dataclass(frozen=True)
class GroupPresentation:
    """<x_1..x_n | relators>, relators as freely reduced signed-index words."""

    num_generators: int
    relators: Tuple[Word, ...]

    def __post_init__(self):
        # 0 generators is the trivial group (and then no relator can be valid)
        if self.num_generators < 0:
            raise ValueError("generator count cannot be negative")
        for w in self.relators:
            if not w:
                raise ValueError("relators must be nonempty")
            if not _is_freely_reduced(w):
                raise ValueError(f"relator {w} is not freely reduced")
            for letter in w:
                if letter == 0 or abs(letter) > self.num_generators:
                    raise ValueError(f"letter {letter} out of range")


def _invert(m: SparseMatrix) -> SparseMatrix:
    """Exact inverse of a square matrix (raises if singular)."""
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    n = m.rows
    rows = _row_dicts(m)
    for r, row in enumerate(rows):
        row[n + r] = 1
    # (m | 1) has rank n, and its pivots are range(n) iff m is invertible;
    # then row k of the reduced form is (e_k | row k of m^-1)
    pivots, reduced = _rref(rows, 2 * n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return SparseMatrix(
        n, n, {(k, c - n): x for k, row in enumerate(reduced) for c, x in row.items() if c >= n}
    )


class MatrixRep:
    """An exact matrix representation of a presented group.

    Generator images must be invertible and every relator must map to the
    identity; both facts are checked at construction.
    """

    def __init__(
        self,
        presentation: GroupPresentation,
        images: Sequence[SparseMatrix],
        dimension: Optional[int] = None,
    ):
        if len(images) != presentation.num_generators:
            raise ValueError("one matrix per generator")
        dims = {m.rows for m in images} | {m.cols for m in images}
        if dimension is not None:
            dims.add(_whole(dimension, "dimension"))
        if len(dims) > 1:
            raise ValueError("all images must be square of one size")
        if not dims:
            raise ValueError("with no generators the dimension must be given")
        self.presentation = presentation
        self.dimension = dims.pop()
        self.images = list(images)
        self.inverses = [_invert(m) for m in images]
        eye = SparseMatrix.identity(self.dimension)
        for w in presentation.relators:
            if evaluate_word(self, w) != eye:
                raise ValueError(f"relator {w} does not map to the identity")

    @classmethod
    def from_integer_matrices(
        cls,
        presentation: GroupPresentation,
        matrices: Sequence[Sequence[Sequence]],
        dimension: Optional[int] = None,
    ) -> "MatrixRep":
        images = [SparseMatrix.from_rows(rows) for rows in matrices]
        return cls(presentation, images, dimension=dimension)

    def image(self, letter: int) -> SparseMatrix:
        """rho of a single signed letter."""
        if letter > 0:
            return self.images[letter - 1]
        if letter < 0:
            return self.inverses[-letter - 1]
        raise ValueError("letters are nonzero")


def evaluate_word(rep: MatrixRep, word: Sequence[int]) -> SparseMatrix:
    """rho(word), by exact left-to-right multiplication."""
    out = SparseMatrix.identity(rep.dimension)
    for letter in word:
        out = out @ rep.image(letter)
    return out


def _cocycle_matrix(pres: GroupPresentation, rep: MatrixRep) -> SparseMatrix:
    """Stacked relator conditions on the tuple (f(x_1), ..., f(x_n)).

    Scanning a relator left to right with prefix action P:
    a letter x_i contributes P . f(x_i) and steps P to P rho(x_i);
    a letter x_i^-1 contributes -P rho(x_i)^-1 . f(x_i) and steps
    P to P rho(x_i)^-1.
    """
    n = pres.num_generators
    k = rep.dimension
    entries: Dict[Tuple[int, int], Fraction] = {}
    row_off = 0
    for w in pres.relators:
        blocks: List[Optional[SparseMatrix]] = [None] * n
        prefix = SparseMatrix.identity(k)
        for letter in w:
            if letter > 0:
                i = letter - 1
                contrib = prefix
                prefix = prefix @ rep.images[i]
            else:
                i = -letter - 1
                step = rep.inverses[i]
                contrib = -(prefix @ step)
                prefix = prefix @ step
            blocks[i] = contrib if blocks[i] is None else blocks[i] + contrib
        for i, block in enumerate(blocks):
            if block is None:
                continue
            for (r, c), x in block.entries.items():
                entries[(row_off + r, i * k + c)] = x
        row_off += k
    return SparseMatrix(row_off, n * k, entries)


def cocycle_space(pres: GroupPresentation, rep: MatrixRep) -> SparseMatrix:
    """Basis of Z^1 as matrix columns: concatenated values (f(x_1), ..., f(x_n))."""
    return kernel_basis(_cocycle_matrix(pres, rep))


def coboundary_space(pres: GroupPresentation, rep: MatrixRep) -> SparseMatrix:
    """Basis of B^1 as matrix columns: the image of v |-> ((rho(x_i) - 1) v)_i."""
    k = rep.dimension
    eye = SparseMatrix.identity(k)
    entries: Dict[Tuple[int, int], Fraction] = {}
    for i, m in enumerate(rep.images):
        diff = m - eye
        for (r, c), x in diff.entries.items():
            entries[(i * k + r, c)] = x
    stacked = SparseMatrix(pres.num_generators * k, k, entries)
    return column_space_basis(stacked)


def h1_dimension(pres: GroupPresentation, rep: MatrixRep) -> int:
    """dim H^1 = dim Z^1 - dim B^1 (B^1 <= Z^1 always; exact arithmetic)."""
    return cocycle_space(pres, rep).cols - coboundary_space(pres, rep).cols


@dataclass(frozen=True)
class H1Certificate:
    """Dimensions plus explicit bases, for reporting; each basis is a matrix
    whose columns are its vectors, as `cocycle_space` and `coboundary_space`."""

    z1_dim: int
    b1_dim: int
    h1_dim: int
    z1_basis: SparseMatrix
    b1_basis: SparseMatrix


def h1_certificate(pres: GroupPresentation, rep: MatrixRep) -> H1Certificate:
    z_matrix = _cocycle_matrix(pres, rep)
    z1 = kernel_basis(z_matrix)
    b1 = coboundary_space(pres, rep)
    # sanity: every coboundary is a cocycle, all in one product
    images = z_matrix @ b1
    if not images.is_zero():
        j = next(j for j, col in enumerate(images.packed) if col)
        col = dict(_pairs(b1.packed[j]))
        values = "(" + ", ".join(str(col.get(r, 0)) for r in range(b1.rows)) + ")"
        raise ValueError(f"coboundary {j} of B^1, {values}, fails the cocycle conditions")
    return H1Certificate(
        z1_dim=z1.cols,
        b1_dim=b1.cols,
        h1_dim=z1.cols - b1.cols,
        z1_basis=z1,
        b1_basis=b1,
    )


def _whole(x, what: str) -> int:
    # int() would read 1.7, true and "1" as 1, certifying another group
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {json.dumps(x, default=repr)}")
    return x


def _entry(x) -> Fraction:
    # Fraction() would read true as 1 and 0.1 as the binary float
    # 3602879701896397/36028797018963968, certifying another representation
    if type(x) is int or isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"matrix entry {json.dumps(x)} has a zero denominator") from None
    got = json.dumps(x, default=repr)
    raise ValueError(f'matrix entry must be an integer or a string such as "3/2", got {got}')


def load_group_data(doc: dict) -> Tuple[GroupPresentation, MatrixRep]:
    """Build (presentation, representation) from a JSON document.

    Expected shape::

        {"generators": 2,
         "relators": [[1, 2, 1, -2, -1, -2]],
         "matrices": [[[1, 1], [0, 1]], [[1, 0], [-1, 1]]]}

    Matrix entries may be integers or strings like "3/2" (not floats or
    booleans, which would be read as another number).  An optional
    "dimension" key pins the coefficient dimension; it is required only
    when there are no generators (nothing else determines it).
    """
    pres = GroupPresentation(
        num_generators=_whole(doc["generators"], "generator count"),
        relators=tuple(tuple(_whole(x, "relator letter") for x in w) for w in doc["relators"]),
    )
    matrices = [[[_entry(x) for x in row] for row in m] for m in doc["matrices"]]
    rep = MatrixRep.from_integer_matrices(pres, matrices, dimension=doc.get("dimension"))
    return pres, rep


def load_group_file(path) -> Tuple[GroupPresentation, MatrixRep]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_group_data(json.load(fh))


def load_bundled_b3() -> Tuple[GroupPresentation, MatrixRep]:
    """The bundled data/b3.json: B_3 acting on the torus homology lattice."""
    text = (resources.files("mmmcoh") / "data" / "b3.json").read_text(encoding="utf-8")
    return load_group_data(json.loads(text))
