"""The operators of ``forms`` as matrices, and breaking them, in tests.

The package builds no matrix for p or d: the certificates and the kernel
cross-check read p slot-major, from ``DifferentialForms._contraction``,
and d row by row on the pattern of p_{n+1}, as ``exterior_derivative``
returns it.  The tests that read a whole operator, or state a break as a
change to it, read it as a matrix instead: `p_matrix` and `d_matrix` are
those views, and `patch_p` and `patch_d` carry a change of the matrix back
into the builder, p's mutated columns read back into slots by position
and d's mutated rows onto the pattern of p.

`minor_scan` and `square_scan` are the per-column references for the
slot tests of p, `forms._minor_slots` and `forms._square_slots`: each
reads whole packed columns (`columns`) and says whether the identity
holds, whatever the slot order or the values.
"""

from itertools import chain

from mmmcoh.forms import DifferentialForms
from mmmcoh.linalg import SparseMatrix, _matrix


def columns(p):
    """The packed columns of the slot record ``p``: column c is
    ``(slot_rows[0][c], slot_values[0][c], slot_rows[1][c], ...)``."""
    _, cols, slot_rows, slot_values = p
    if not slot_rows:
        return ((),) * cols
    return tuple(zip(*chain.from_iterable(zip(slot_rows, slot_values))))


def minor_scan(down_cols, up_in):
    """Whether every packed column has exactly one entry in an up row (a 1
    of ``up_in``), no two of them in one row; an entry of value 0, which a
    slot list can hold, is no entry."""
    used = bytearray(len(up_in))
    for col in down_cols:
        it = iter(col)
        hit = [r for r, x in zip(it, it) if x and up_in[r]]
        if len(hit) != 1 or used[hit[0]]:
            return False
        used[hit[0]] = 1
    return True


def square_scan(cols, p_down):
    """Whether p_down (packed columns) vanishes on each packed column of
    ``cols``: p(p c) summed in a dict."""
    square = {}
    sget = square.get
    for col in cols:
        it = iter(col)
        for r, x in zip(it, it):
            lt = iter(p_down[r])
            for s, y in zip(lt, lt):
                square[s] = sget(s, 0) + x * y
        if any(square.values()):
            return False
        square.clear()
    return True


def p_matrix(forms, n, d):
    """The packed matrix of p_n at internal degree d: column c lists its
    entries in slot order, ``(slot_rows[t][c], slot_values[t][c])`` for
    t = 0, 1, ..., with ``int`` values."""
    p = forms._contraction(n, d)
    return _matrix(p[0], p[1], columns(p))


def d_matrix(forms, n, d):
    """The matrix of d_n: Omega^n_d -> Omega^{n+1}_d that
    ``exterior_derivative`` builds (`derivative_matrix`)."""
    return derivative_matrix(forms.exterior_derivative(n, d))


def derivative_matrix(derivative):
    """The matrix of a d record ``(p_up, exps)``: row v holds
    (-1)^t (exps[t][v] + 1) in column ``p_up[2][t][v]`` for each slot t.
    Made entry by entry, with no code of the package: two entries in one
    cell add, a 0 is no entry, and each column lists its rows ascending."""
    (cols, rows, slot_cols, _), exps = derivative
    entries = {}
    for t, (reached, found) in enumerate(zip(slot_cols, exps)):
        for v, (u, a) in enumerate(zip(reached, found)):
            entries[v, u] = entries.get((v, u), 0) + (-1) ** t * (a + 1)
    ordered = sorted(entries.items(), key=lambda entry: entry[0][::-1])
    return SparseMatrix(rows, cols, dict(ordered))


def derivative_of(p_up, m):
    """The d record on the pattern ``p_up`` whose matrix is ``m``: the
    value of row v in column ``p_up[2][t][v]`` read back into slot t.  An
    entry off the pattern has no slot, and raises an AssertionError, which
    no certificate reads as a failed identity."""
    entries = m.entries
    exps = []
    for t, reached in enumerate(p_up[2]):
        sign = -1 if t % 2 else 1
        exps.append(tuple(int(sign * entries.pop((v, u), 0)) - 1 for v, u in enumerate(reached)))
    if entries:
        raise AssertionError(f"entries {sorted(entries)[:3]} are off the pattern of p")
    return p_up, exps


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
        m = mutate(self, n, d, _matrix(p[0], p[1], columns(p)))
        return slots_of(m.rows, m.packed, max(n, 0))

    monkeypatch.setattr(DifferentialForms, "_contraction", patched)


def patch_d(monkeypatch, mutate):
    """Install on ``DifferentialForms.exterior_derivative`` the d whose
    matrix d_n at internal degree d is ``mutate(self, n, d, m)``, ``m`` the
    real one (a mutation returns ``m`` where it keeps d_n), on the pattern
    of the p_{n+1} it was built with."""
    real = DifferentialForms.exterior_derivative

    def patched(self, n, d):
        derivative = real(self, n, d)
        m = derivative_matrix(derivative)
        changed = mutate(self, n, d, m)
        return derivative if changed is m else derivative_of(derivative[0], changed)

    monkeypatch.setattr(DifferentialForms, "exterior_derivative", patched)
