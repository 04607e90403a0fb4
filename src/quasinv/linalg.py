"""Exact linear algebra over Q or Q(zeta_n).

`IncrementalSpan` holds the only elimination loop.  It stores each row
sparse, as `{column: entry}` over its nonzero entries, and takes a row
either dense (a list) or sparse (such a dict, or a `SparseRow`).  A row is
reduced against the stored rows in insertion order, and its pivot is its
first nonzero column after that reduction, so spans are reproducible across
platforms and runs.  `rref` inserts its rows into one span and
back-substitutes; the reduced row echelon form is unique, so it and
everything built on it (`rank`, `nullspace`) depend only on the row space
and the column order.  These return dense lists; `rref` and `rank` take
dense rows, `span_of` and `nullspace` also sparse ones with a column count.
The library builds its rows from polynomial terms (`quasi._row`) and never
solves for coordinates: membership reduces against a span, and a linear
relation is a kernel.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from quasinv.fields import Cyclotomic, field_inverse


class SparseRow(dict):
    """A row as `{column: entry}` over its nonzero entries.  Like a dense
    row it iterates over its entries, so `any(row)`, `_check_field` and any
    other reader of a row's entries take either form; `items()` gives the
    columns."""

    __slots__ = ()

    def __iter__(self):
        return iter(self.values())


def _norm_entry(c):
    return Fraction(c) if isinstance(c, int) else c


def _check_field(rows) -> None:
    if len({c.n for row in rows for c in row if isinstance(c, Cyclotomic)}) > 1:
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


def rank(matrix) -> int:
    if not matrix:
        return 0
    return span_of(matrix, len(matrix[0])).dim()


def nullspace(matrix, ncols=None):
    """Basis of the exact kernel of a rectangular matrix, given by dense or
    sparse rows; `ncols` is required for sparse rows or no rows.

    One basis vector per free column, in increasing column order, with a 1 in
    the free slot: the standard echelon parametrization, hence deterministic.
    An empty matrix (no rows) over n columns yields the standard basis.
    """
    if ncols is None:
        if not matrix:
            raise ValueError("cannot infer column count from an empty matrix; pass rows")
        ncols = len(matrix[0])
    span = span_of(matrix, ncols)
    span.back_substitute()
    basis = {}
    for fc in range(ncols):
        if fc not in span._where:
            basis[fc] = vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
    for row, pc in zip(span._rows, span.pivots):
        for j, c in row.items():
            if j != pc:
                basis[j][pc] = -c
    return list(basis.values())


def _subtract(v: dict, f, row: dict, where, queue) -> None:
    """v -= f * row in place, dropping the entries that cancel; each row
    whose pivot column (`where` maps it to the row) becomes nonzero in v is
    pushed on `queue`."""
    for j, c in row.items():
        x = v.get(j)
        if x is None:
            v[j] = -(f * c)
            if j in where:
                heappush(queue, where[j])
        else:
            x = x - f * c
            if x:
                v[j] = x
            else:
                del v[j]


class IncrementalSpan:
    """Row span maintained by incremental elimination; rows are reduced
    against the stored pivot rows in insertion order, so the result is
    deterministic.

    Rows are stored sparse, pivot entry 1.  A stored row is zero at the
    pivots of the rows stored before it, so reducing a vector only visits
    the rows whose pivots it reaches, smallest insertion index first, and
    touches only their nonzero entries.  `rows` and `rref` make the rows
    dense with the zero of their field."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows = []  # {column: entry}, pivot entry 1
        self.pivots = []  # pivot column per row
        self._where = {}  # pivot column -> row index

    def reduce(self, vector) -> dict:
        """`vector` reduced against the stored rows, as `{column: entry}`."""
        items = vector.items() if isinstance(vector, dict) else enumerate(vector)
        v = {j: _norm_entry(c) for j, c in items if c}
        rows, pivots, where = self._rows, self.pivots, self._where
        queue = [where[j] for j in v.keys() if j in where]
        heapify(queue)
        while queue:
            i = heappop(queue)
            f = v.get(pivots[i])
            if f is not None:  # a row pushed twice is visited once
                _subtract(v, f, rows[i], where, queue)
        return v

    def add(self, vector) -> bool:
        """Insert a dense or sparse row; True when it enlarged the span."""
        v = self.reduce(vector)
        if not v:
            return False
        p = min(v.keys())
        if v[p] != 1:
            inv = field_inverse(v[p])
            for j in v.keys():
                v[j] = v[j] * inv
        self._where[p] = len(self._rows)
        self._rows.append(v)
        self.pivots.append(p)
        return True

    def dim(self) -> int:
        return len(self._rows)

    def contains(self, vector) -> bool:
        return not self.reduce(vector)

    @property
    def rows(self):
        """The stored rows, dense, in insertion order."""
        return [self._dense(i) for i in range(len(self._rows))]

    def _dense(self, i: int) -> list:
        one = self._rows[i][self.pivots[i]]
        vec = [one - one] * self.ncols  # the zero of the row's field
        for j, c in self._rows[i].items():
            vec[j] = c
        return vec

    def back_substitute(self) -> None:
        """Make every stored row zero at every other row's pivot, in place.
        Row i is already zero at the pivots of rows inserted before it, and
        rows are processed in reverse insertion order, so each row is final
        by the time it is subtracted from the earlier ones."""
        rows, pivots = self._rows, self.pivots
        for i in reversed(range(len(rows))):
            p = pivots[i]
            for k in range(i):
                f = rows[k].get(p)
                if f is not None:
                    _subtract(rows[k], f, rows[i], {}, None)

    def rref(self):
        """Back-substitute in place and return (rows, pivot_columns), the
        rows dense and sorted by pivot."""
        self.back_substitute()
        order = sorted(range(len(self._rows)), key=self.pivots.__getitem__)
        return [self._dense(i) for i in order], [self.pivots[i] for i in order]
