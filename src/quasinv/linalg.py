"""Exact linear algebra over Q or Q(zeta_n).

`IncrementalSpan` holds the only elimination loop.  A row is reduced
against the stored rows in insertion order, and its pivot is its first
nonzero column after that reduction, so spans are reproducible across
platforms and runs.  `rref` inserts its rows into one span and
back-substitutes; the reduced row echelon form is unique, so it and
everything built on it (`rank`, `nullspace`, `solve_exact`,
`coordinates`) depend only on the row space and the column order.
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


def span_of(vectors, ncols: int) -> "IncrementalSpan":
    """The span of `vectors` in `ncols` coordinates; insertion stops once
    the span is the whole space."""
    _check_field(vectors)
    span = IncrementalSpan(ncols)
    for v in vectors:
        if span.dim() == ncols:
            break
        span.add(v)
    return span


def rref(matrix):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    if not matrix:
        return [], []
    return span_of(matrix, len(matrix[0])).rref()


def _scale(row, support) -> None:
    """Divide `row` in place by its pivot, on its support, unless that is 1."""
    inv = field_inverse(row[support[0]])
    if inv != 1:
        for j in support:
            row[j] = row[j] * inv


def rank(matrix) -> int:
    if not matrix:
        return 0
    return span_of(matrix, len(matrix[0])).dim()


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


def coordinates(vectors, target):
    """Exact coefficients c with sum c_i vectors[i] = target (free ones set
    to zero); ValueError when `target` is outside the span."""
    if not vectors:
        if any(target):
            raise ValueError("element outside span")
        return []
    sol = solve_exact([list(col) for col in zip(*vectors)], list(target))
    if sol is None:
        raise ValueError("element outside span")
    return sol


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

    def rref(self):
        """Back-substitute in place, so that every stored row is zero at
        every other row's pivot, and return (rows, pivot_columns) sorted by
        pivot.  Row i is already zero at the pivots of rows inserted before
        it, and rows are processed in reverse insertion order, so each row
        is final by the time it is subtracted from the earlier ones."""
        rows, pivots, supports = self.rows, self.pivots, self.supports
        touched = set()
        for i in reversed(range(len(rows))):
            row = rows[i]
            if i in touched:
                supports[i] = [j for j, c in enumerate(row) if c]
            for k in range(i):
                f = rows[k][pivots[i]]
                if f:
                    target = rows[k]
                    for j in supports[i]:
                        target[j] = target[j] - f * row[j]
                    touched.add(k)
        order = sorted(range(len(rows)), key=pivots.__getitem__)
        return [rows[i] for i in order], [pivots[i] for i in order]
