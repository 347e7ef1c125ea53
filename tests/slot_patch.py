"""Breaking the contraction p in tests.

The certificates read p slot-major, from ``DifferentialForms._contraction``;
a test states its break as a change to the packed matrix p_n instead, and
`patch_p` carries it over: the mutated columns are read back into slots by
position, and the packed view ``interior_product`` reads the patched slots.
"""

from mmmcoh.forms import DifferentialForms, _columns
from mmmcoh.linalg import _matrix


def slots_of(rows, packed, n):
    """The slot record of packed columns of n entries each: entry t of
    column c becomes slot t.  A column of another size has no slot form,
    and raises an AssertionError, which no certificate reads as a failed
    identity."""
    for c, col in enumerate(packed):
        if len(col) != 2 * n:
            raise AssertionError(f"column {c} holds {len(col) // 2} entries, not {n}")
    return (
        rows,
        len(packed),
        [[col[2 * t] for col in packed] for t in range(n)],
        [[col[2 * t + 1] for col in packed] for t in range(n)],
    )


def patch_p(monkeypatch, mutate):
    """Install on ``DifferentialForms._contraction`` the p whose packed p_n
    at internal degree d is ``mutate(self, n, d, m)``, ``m`` the real one
    (a mutation returns ``m`` where it keeps p_n)."""
    real = DifferentialForms._contraction

    def patched(self, n, d):
        p = real(self, n, d)
        m = mutate(self, n, d, _matrix(p[0], p[1], _columns(p)))
        return slots_of(m.rows, m.packed, max(n, 0))

    monkeypatch.setattr(DifferentialForms, "_contraction", patched)
