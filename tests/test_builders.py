"""The index-arithmetic builders check their blocks, not every entry.

p, d, the contraction delta, the cup product and the kernel-generator span
are built from multiplication tables and layouts.  Each checks, once per
block, the properties that `linalg._checked_columns` checks entry by entry
(every row in range and at most once per column, every value a nonzero
int).  p is a list of rows and a list of values per slot, d a tuple of
packed columns, delta and the cup product are row tables, and the span
is a stream of edges for `stable._forest_pivots`; none is a matrix.
These tests hold the builders' output, read as matrices
(`slot_patch.p_matrix` and `d_matrix`), to the checked constructor,
break one block at a time, and make sure that no builder reaches the
entry check and that no run outside the torus H^1 certificate builds a
matrix.
"""

import sys

import pytest

from mmmcoh import linalg, stable
from mmmcoh.algebra import PolynomialAlgebra
from mmmcoh.cli import main
from mmmcoh.forms import DifferentialForms
from mmmcoh.linalg import SparseMatrix
from mmmcoh.stable import StableCohomology
from mmmcoh.verify import CHECKS, run_verification
from slot_patch import d_matrix, p_matrix

# the builders of p and d by the parameter names of the tests below: p
# slot-major, d as packed columns
BUILDERS = {
    "interior_product": DifferentialForms._contraction,
    "exterior_derivative": DifferentialForms.exterior_derivative,
}


def _checked(m):
    """``m`` through the checked constructor, which raises on any column
    that breaks the representation."""
    return SparseMatrix.of_columns(m.rows, m.cols, m.packed)


def test_every_builder_passes_the_entry_check_at_bound_24(monkeypatch):
    forms = DifferentialForms(PolynomialAlgebra(24))
    for n in range(0, forms.max_form_degree() + 2):
        for d in range(0, 25):
            for m in (p_matrix(forms, n, d), d_matrix(forms, n, d)):
                assert _checked(m) == m and _checked(m).packed == m.packed, (n, d)
    ctx = StableCohomology(24)
    for f in (ctx.delta_covariant(), ctx.delta_contravariant()):
        # one int row in range and one nonzero int value per column
        for d, (rows, values) in f.tables.items():
            top = f.target.dim(d + f.internal_shift)
            assert len(rows) == len(values) == f.source.dim(d), d
            assert set(map(type, rows)) == set(map(type, values)) == {int}, d
            assert 0 <= min(rows) and max(rows) < top and all(values), d
    # each edge (u, v) of the span as the column (u, c, v, -c), an edge to
    # the ground vertex as (u, c) and a loop as ()
    spans = []
    real = stable._forest_pivots

    def capturing(edges, ground):
        edges = list(edges)
        spans.append((ground, edges))
        return real(edges, ground)

    monkeypatch.setattr(stable, "_forest_pivots", capturing)
    report = ctx.verify_generators()
    assert [len(edges) for _, edges in spans] == [r["spanning_vectors"] for r in report.per_degree]
    for ground, edges in spans:
        columns = [
            () if u == v == ground else (u, 1) if v == ground else (u, 1, v, -1)
            for u, v in edges
        ]
        m = SparseMatrix.of_columns(ground, len(columns), columns)
        assert m.packed == tuple(columns)


def test_no_builder_reaches_the_entry_check(monkeypatch, capsys):
    # every call of the entry check _checked_columns, and of @ and +, in a
    # run has a groupcoh frame on its stack (the small torus H^1 matrices)
    # and no forms, modules or stable frame; the CLI queries make none
    callers = []

    def counted(owner, name):
        real = getattr(owner, name)

        def counting(*args):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_globals.get("__name__"))
                frame = frame.f_back
            callers.append((name, names))
            return real(*args)

        monkeypatch.setattr(owner, name, counting)

    counted(SparseMatrix, "__matmul__")
    counted(SparseMatrix, "__add__")
    counted(linalg, "_checked_columns")
    assert run_verification(24).passed
    assert {name for name, _ in callers} == {"__matmul__", "__add__", "_checked_columns"}
    for name, names in callers:
        assert "mmmcoh.groupcoh" in names, name
        assert not names & {"mmmcoh.forms", "mmmcoh.modules", "mmmcoh.stable"}, name
    callers.clear()
    for query in (["hilbert", "Htilde"], ["tor"], ["generators"], ["exactness"]):
        assert main(query + ["--max-degree", "16"]) == 0
    capsys.readouterr()
    assert callers == []


# run in a fresh interpreter: once a class has had ``__new__`` set, deleting
# it does not give back object.__new__'s handling of the constructor's
# arguments, so the count cannot be undone in this process
_COUNT_MATRICES = """
import contextlib, io, json
from mmmcoh.cli import main
from mmmcoh.linalg import SparseMatrix
from mmmcoh.verify import CHECKS, run_verification

made = []

def counting(cls, *args, **kwargs):
    made.append(cls)
    return object.__new__(cls)

SparseMatrix.__new__ = staticmethod(counting)
SparseMatrix.zero(2, 1)
SparseMatrix(2, 1, {(0, 0): 1})
counts = {"constructors": len(made)}
checks = [check_id for check_id, _, _ in CHECKS if check_id != "torus-h1"]
made.clear()
counts["checks"] = len(checks), len(CHECKS)
counts["passed"] = run_verification(24, check_ids=checks).passed
counts["verify-all"] = len(made)
for query in (["hilbert", "Htilde"], ["tor"], ["generators"], ["exactness"]):
    made.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(query + ["--max-degree", "24"])
    counts[" ".join(query)] = code, len(made)
print(json.dumps(counts))
"""


def test_no_matrix_is_built_outside_the_torus_h1_certificate():
    # every SparseMatrix is made through SparseMatrix.__new__, the checked
    # constructors and the unchecked _matrix alike: a run of every check
    # but torus-h1 makes none, and neither does any of the four CLI
    # queries (each with exit code 0)
    import json
    import subprocess

    out = subprocess.run(
        [sys.executable, "-c", _COUNT_MATRICES], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == {
        "constructors": 2,  # the count sees the unchecked and the dict constructor
        "checks": [8, 9],
        "passed": True,
        "verify-all": 0,
        "hilbert Htilde": [0, 0],
        "tor": [0, 0],
        "generators": [0, 0],
        "exactness": [0, 0],
    }


# -- one broken block at a time: a ValueError naming it ---------------------------


def _patch_layout(monkeypatch, key, wedge, change):
    real = DifferentialForms._layout

    def broken(self, n, d):
        blocks, dim = real(self, n, d)
        if (n, d) == key:
            blocks = {**blocks, wedge: change(*blocks[wedge])}
        return blocks, dim

    monkeypatch.setattr(DifferentialForms, "_layout", broken)


@pytest.mark.parametrize(
    "name,n,message",
    [
        ("interior_product", 2, r"^p: the block of \(1,\) is not a coefficient-degree-6 block "
                                r"inside 7 rows at \(n, d\) = \(2, 8\)$"),
        ("exterior_derivative", 0, r"^d: the block of \(1,\) is not a coefficient-degree-6 "
                                   r"block inside 7 rows at \(n, d\) = \(0, 8\)$"),
    ],
)
def test_a_block_of_the_wrong_coefficient_degree_is_named(monkeypatch, name, n, message):
    # the block of de_1 in Omega^1_8 claims coefficient degree 4, not 6
    _patch_layout(monkeypatch, (1, 8), (1,), lambda off, deg: (off, deg - 2))
    with pytest.raises(ValueError, match=message):
        BUILDERS[name](DifferentialForms(PolynomialAlgebra(8)), n, 8)


@pytest.mark.parametrize("name,n", [("interior_product", 2), ("exterior_derivative", 0)])
def test_a_block_past_the_rows_is_named(monkeypatch, name, n):
    # the block of de_3 in Omega^1_8, one row at offset 5, moved two rows
    # down, ends past the 7 rows
    _patch_layout(monkeypatch, (1, 8), (3,), lambda off, deg: (off + 2, deg))
    symbol = "p" if name == "interior_product" else "d"
    message = (
        r"^%s: the block of \(3,\) is not a coefficient-degree-2 block inside 7 rows "
        r"at \(n, d\) = \(%d, 8\)$" % (symbol, n)
    )
    with pytest.raises(ValueError, match=message):
        BUILDERS[name](DifferentialForms(PolynomialAlgebra(8)), n, 8)


def _short_table(monkeypatch, key):
    real = PolynomialAlgebra.multiplication_table

    def short(self, i, d):
        table = real(self, i, d)
        return table[:-1] if (i, d) == key else table

    monkeypatch.setattr(PolynomialAlgebra, "multiplication_table", short)


def test_a_short_table_is_named_by_p(monkeypatch):
    # p on e_1 de_1 ^ de_2 contracts de_1 through the table of e_1 from
    # degree 2, which has lost its one entry
    _short_table(monkeypatch, (1, 2))
    message = (
        r"^p: the table of e1 into the block of \(2,\) is not the size of the block of "
        r"\(1, 2\) at \(n, d\) = \(2, 8\)$"
    )
    with pytest.raises(ValueError, match=message):
        DifferentialForms(PolynomialAlgebra(8))._contraction(2, 8)


def test_a_short_table_is_named_by_delta(monkeypatch):
    _short_table(monkeypatch, (1, 4))
    message = (
        r"^delta_covariant: the table of e1 from degree 4 does not fill the block of m1 "
        r"at degree 6$"
    )
    with pytest.raises(ValueError, match=message):
        StableCohomology(8).delta_covariant()


def test_a_block_of_the_wrong_degree_is_named_by_delta(monkeypatch):
    # one more generator, in degree 4, sits at the position of m_(bound/2 + 1)
    from mmmcoh.modules import free_module

    real = StableCohomology.twisted_module

    def padded(self):
        return free_module(self.algebra, [*real(self).gen_degrees, 4], coh_offset=-1)

    monkeypatch.setattr(StableCohomology, "twisted_module", padded)
    message = (
        r"^delta_covariant: the table of e5 from degree 0 does not fill the block of m5 "
        r"at degree 4$"
    )
    with pytest.raises(ValueError, match=message):
        StableCohomology(8).delta_covariant()


def test_a_zero_generator_coefficient_is_named_by_the_span(monkeypatch):
    real = stable._kernel_generator_terms

    def zeroed(bound):
        terms = real(bound)
        (l, k, _), *rest = terms[1, 2]
        terms[1, 2] = [(l, k, 0), *rest]
        return terms

    monkeypatch.setattr(stable, "_kernel_generator_terms", zeroed)
    message = (
        r"^the span: the term 0\*e1\*m2 of M\(1,2\) is not a nonzero int on a degree-2 "
        r"block inside 4 rows at degree 6$"
    )
    with pytest.raises(ValueError, match=message):
        StableCohomology(8).verify_generators()


def test_a_table_entry_out_of_range_is_rejected_where_the_table_is_made(monkeypatch):
    # e1^3, the block (1, 3) of degree 6, placed one past the end of its basis
    real = PolynomialAlgebra._block_starts

    def corrupt(self, k, j):
        starts = real(self, k, j)
        return [*starts[:3], 3, *starts[4:]] if (k, j) == (3, 1) else starts

    monkeypatch.setattr(PolynomialAlgebra, "_block_starts", corrupt)
    algebra = PolynomialAlgebra(8)
    with pytest.raises(ValueError, match=r"^the table of e1 from degree 4 is not 2 positions in range\(3\)$"):
        algebra.multiplication_table(1, 4)
    assert algebra.multiplication_table(3, 0) == (2,)
