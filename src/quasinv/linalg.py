"""Exact linear algebra over Q or Q(zeta_n).

Elimination uses exact field arithmetic with deterministic pivoting: columns
are scanned left to right and the first row with a nonzero entry is chosen,
so bases are reproducible across platforms and runs.
"""

from __future__ import annotations

from fractions import Fraction

from quasinv.fields import Cyclotomic, field_inverse


def _norm_entry(c):
    return Fraction(c) if isinstance(c, int) else c


def _check_field(rows) -> None:
    order = None
    for row in rows:
        for c in row:
            if isinstance(c, Cyclotomic):
                if order is None:
                    order = c.n
                elif c.n != order:
                    raise ValueError("mixed coefficient fields in matrix")


def rref(matrix):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    rows = [[_norm_entry(c) for c in row] for row in matrix]
    _check_field(rows)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        support = [j for j in range(col, ncols) if prow[j]]
        _scale(prow, support)
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _scale(row, support) -> None:
    """Divide `row` in place by its pivot, on its support, unless that is 1."""
    inv = field_inverse(row[support[0]])
    if inv != 1:
        for j in support:
            row[j] = row[j] * inv


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def nullspace(matrix):
    """Basis of the exact kernel of a rectangular matrix.

    One basis vector per free column, in increasing column order, with a 1 in
    the free slot: the standard echelon parametrization, hence deterministic.
    An empty matrix (no rows) over n columns yields the standard basis.
    """
    rows = [list(row) for row in matrix]
    if not rows:
        raise ValueError("cannot infer column count from an empty matrix; pass rows")
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            val = red[r][fc]
            if val:
                vec[pc] = -val
        basis.append(vec)
    return basis


def solve_exact(matrix, rhs):
    """Solve M x = rhs exactly; returns the solution with free variables set
    to zero, or None if inconsistent."""
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    if not rows:
        return []
    ncols = len(matrix[0])
    red, pivots = rref(rows)
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def in_span(vectors, target) -> bool:
    """Exact membership of `target` in the row span of `vectors`."""
    vecs = [v for v in vectors]
    if not vecs:
        return not any(target)
    cols = list(zip(*vecs))
    sol = solve_exact([list(c) for c in cols], list(target))
    return sol is not None


class IncrementalSpan:
    """Row span maintained by incremental elimination; rows are reduced
    against the stored pivot rows in insertion order, so the result is
    deterministic.  Each stored row keeps the list of its nonzero columns,
    and reduction touches only those."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []  # normalized rows, pivot entry 1
        self.pivots = []  # pivot column per row
        self.supports = []  # nonzero columns per row, pivot first

    def reduce(self, vector):
        v = [_norm_entry(c) for c in vector]
        for row, p, support in zip(self.rows, self.pivots, self.supports):
            f = v[p]
            if f:
                for j in support:
                    v[j] = v[j] - f * row[j]
        return v

    def add(self, vector) -> bool:
        """Insert; True when the vector enlarged the span."""
        v = self.reduce(vector)
        support = [j for j, c in enumerate(v) if c]
        if not support:
            return False
        _scale(v, support)
        self.rows.append(v)
        self.pivots.append(support[0])
        self.supports.append(support)
        return True

    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vector) -> bool:
        return not any(self.reduce(vector))
