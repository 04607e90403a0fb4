"""Exact linear algebra over Q or Q(zeta_n), fraction-free.

`IncrementalSpan` holds the only elimination loop, on sparse rows
`{column: entry}`; it takes dense (list) or sparse (dict, `SparseRow`) rows,
all in one field: a row with entries of two cyclotomic orders, or of an order
other than the span's, raises a ValueError.
A row in Q is stored as a primitive integer row with a positive pivot, and a
row with an irrational Cyclotomic entry keeps pivot 1.  A vector v is reduced
against a stored row with pivot entry p by v <- a*v - f*row, where f is v's
entry at the pivot and a = p, both divided by their gcd (Bareiss, Math.
Comp. 22 (1968)); a = 1 against a pivot-1 row, so one loop serves both fields
and rows in Q stay integer.  Vectors are reduced in insertion order and a
row's pivot is its first nonzero column after reduction, so spans are
reproducible.  Fractions and Cyclotomics appear only where entries enter
and on output, in the span's field: `reduce` divides out the scale a vector
accumulated, and `rref` and `nullspace` divide by the pivot entry.  `rref`
gives its rows as `{column: entry}` and `nullspace` its kernel vectors as
dense lists.  The reduced row echelon form is unique, so `rref` and
`nullspace` depend only on the row space and the column order.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from quasinv.fields import Cyclotomic, rational_value

_ONE = Fraction(1)


class SparseRow(dict):
    """A row as `{column: entry}` over its nonzero entries; like a dense row
    it iterates over its entries, and `items()` gives the columns.  Readers
    of the rows handed to `nullspace` (`perfbench/fieldbench.harvest`, the
    row checks in `tests/test_quasi.py`) iterate them for their entries; a
    plain dict would give them the column indices instead."""

    __slots__ = ()

    def __iter__(self):
        return iter(self.values())


def span_of(vectors, ncols: int) -> "IncrementalSpan":
    """The span of `vectors` in `ncols` coordinates; insertion stops once
    the span is the whole space."""
    span = IncrementalSpan()
    for v in vectors:
        if span.dim() == ncols:
            break
        span.add(v)
    return span


def nullspace(matrix, ncols=None):
    """Basis of the exact kernel of dense or sparse rows (`ncols` needed for
    sparse rows or none): one vector per free column, in increasing order,
    with the Fraction 1 in the free slot and the other entries in the span's
    field.  No rows over n columns give the standard basis."""
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
            vec[fc] = _ONE
    for row, pc in zip(span._rows, span.pivots):
        for j, c in row.items():
            if j != pc:
                basis[j][pc] = span._value(-c, row[pc])
    return list(basis.values())


def _clear(v: dict, n: int = 0):
    """Bring the entries of v in Q to ints in place by scaling v with their
    least common denominator; return it and the order of the Cyclotomic
    entries, 0 for none, which must agree with each other and a nonzero n."""
    den = 1
    for j, c in v.items():
        if c.__class__ is not int:
            if c.__class__ is Cyclotomic:
                if n and c.n != n:
                    raise ValueError(f"mixed coefficient fields: Q(zeta_{n}) and Q(zeta_{c.n})")
                n = c.n
            v[j] = c = rational_value(c)
            if c.__class__ is Fraction:
                den = lcm(den, c.denominator)
    if den != 1:
        for j, c in v.items():
            v[j] = c.numerator * (den // c.denominator) if c.__class__ is Fraction else c * den
    return den, n


def normalize_row(v: dict, p) -> None:
    """Scale the nonzero row v with pivot column p in place: to pivot 1 when
    it has an irrational entry, else to a primitive integer row with a
    positive pivot."""
    if len(v) == 1:
        v[p] = 1
        return
    _clear(v)
    if any(c.__class__ is Cyclotomic for c in v.values()):
        inv = _ONE / v[p]
        for j, c in v.items():
            v[j] = rational_value(c * inv)
        return
    g = gcd(*v.values()) if v[p] > 0 else -gcd(*v.values())
    for j, c in v.items():
        v[j] = c // g


def _eliminate(v: dict, row: dict, p, where, queue) -> int:
    """Clear column p of v by v <- a*v - f*row in place and return a: the
    row's pivot entry and f over their gcd for an int f, else a = 1.  Each
    row whose pivot column (`where` maps it to the row) becomes nonzero in v
    is pushed on `queue`."""
    lead, f = row[p], v[p]
    a = 1
    if lead != 1:
        if f.__class__ is int:
            g = gcd(lead, f)
            a, f = lead // g, f // g
            for j, c in v.items():
                v[j] = c * a
        else:
            f = f / lead
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
    return a


class IncrementalSpan:
    """Row span maintained by fraction-free incremental elimination.  A
    stored row is zero at the pivots of the rows stored before it, so
    reducing a vector visits only the rows whose pivots it reaches, in
    insertion order, and touches only their nonzero entries.  Each visit
    multiplies the vector by its lead a; `reduce` divides the product of
    the leads and the entry denominators back out."""

    def __init__(self):
        self._rows = []  # {column: entry}, primitive or pivot entry 1
        self.pivots = []  # pivot column per row
        self._where = {}  # pivot column -> row index
        self._one = None  # the 1 of Q(zeta_n) once a Cyclotomic has entered

    def _reduce(self, vector):
        """(v, scale): `vector` times the positive int `scale`, reduced."""
        items = vector.items() if isinstance(vector, dict) else enumerate(vector)
        v = {j: c for j, c in items if c}
        scale, n = _clear(v, 0 if self._one is None else self._one.n)
        if n and self._one is None:
            self._one = Cyclotomic.zeta(n, 0)
        rows, pivots, where = self._rows, self.pivots, self._where
        queue = [where[j] for j in v.keys() if j in where]
        heapify(queue)
        while queue:
            i = heappop(queue)
            if pivots[i] in v:  # a row pushed twice is visited once
                scale *= _eliminate(v, rows[i], pivots[i], where, queue)
        return v, scale

    def reduce(self, vector) -> dict:
        """`vector` reduced against the stored rows, as `{column: entry}`
        with entries in the span's field."""
        v, scale = self._reduce(vector)
        return {j: self._value(c, scale) for j, c in v.items()}

    def add(self, vector) -> bool:
        """Insert a dense or sparse row; True when it enlarged the span."""
        v = self._reduce(vector)[0]
        if not v:
            return False
        p = min(v.keys())
        normalize_row(v, p)
        self._where[p] = len(self._rows)
        self._rows.append(v)
        self.pivots.append(p)
        return True

    def dim(self) -> int:
        return len(self._rows)

    def contains(self, vector) -> bool:
        return not self._reduce(vector)[0]

    def _value(self, c, den):
        """c / den in the span's field."""
        c = Fraction(c, den) if c.__class__ is int else c / den if den != 1 else c
        return self._one * c if self._one is not None and c.__class__ is not Cyclotomic else c

    def back_substitute(self) -> None:
        """Make every stored row zero at every other row's pivot, in place.
        Row k is already zero at the pivots of the rows inserted before it.
        Rows are processed in reverse insertion order, so each later row
        whose pivot row k holds is final, zero at every other pivot: its
        subtraction clears that entry and makes no other pivot entry."""
        rows, pivots, where = self._rows, self.pivots, self._where
        for k in reversed(range(len(rows))):
            row = rows[k]
            for j in [j for j in row if j in where and j != pivots[k]]:
                if _eliminate(row, rows[where[j]], j, {}, None) != 1:
                    normalize_row(row, pivots[k])

    def rref(self):
        """Back-substitute in place and return (rows, pivot_columns), the
        rows as `{column: entry}` in the span's field with pivot entry 1,
        sorted by pivot."""
        self.back_substitute()
        pivots = sorted(self._where)
        rows = [self._rows[self._where[p]] for p in pivots]
        return [{j: self._value(c, row[p]) for j, c in row.items()}
                for row, p in zip(rows, pivots)], pivots
