"""The operators of ``forms`` as matrices, and breaking them, in tests.

The package builds no matrix for p or d: the certificates and the kernel
cross-check read p slot-major, from ``DifferentialForms._contraction``,
and d as the packed columns that ``exterior_derivative`` returns.  The
tests that read a whole operator, or state a break as a change to it,
read it as a matrix instead: `p_matrix` and `d_matrix` are those views,
and `patch_p` and `patch_d` carry a change of the matrix back into the
builder, p's mutated columns read back into slots by position.
"""

from mmmcoh.forms import DifferentialForms, _columns
from mmmcoh.linalg import _matrix


def p_matrix(forms, n, d):
    """The packed matrix of p_n at internal degree d: column c lists its
    entries in slot order, ``(slot_rows[t][c], slot_values[t][c])`` for
    t = 0, 1, ..., with ``int`` values."""
    p = forms._contraction(n, d)
    return _matrix(p[0], p[1], _columns(p))


def d_matrix(forms, n, d):
    """The matrix of d_n: Omega^n_d -> Omega^{n+1}_d, whose packed columns
    ``exterior_derivative`` builds."""
    return _matrix(forms.dim(n + 1, d), forms.dim(n, d), forms.exterior_derivative(n, d))


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


def patch_d(monkeypatch, mutate):
    """Install on ``DifferentialForms.exterior_derivative`` the d whose
    matrix d_n at internal degree d is ``mutate(self, n, d, m)``, ``m`` the
    real one (a mutation returns ``m`` where it keeps d_n)."""
    real = DifferentialForms.exterior_derivative

    def patched(self, n, d):
        m = _matrix(self.dim(n + 1, d), self.dim(n, d), real(self, n, d))
        return mutate(self, n, d, m).packed

    monkeypatch.setattr(DifferentialForms, "exterior_derivative", patched)
