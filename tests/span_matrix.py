"""Whole-matrix reduced row echelon form and rank of dense rows, and span
membership in graded layers, read off `IncrementalSpan`s; only tests need
them, the library works on spans and decides membership in Q_m by its
congruences."""

from quasinv.linalg import span_of
from quasinv.poly import monomial_index


def rref(matrix):
    """Reduced row echelon form: (rows, pivot_columns), each row sparse as
    `{column: entry}` with pivot entry 1, sorted by pivot."""
    if not matrix:
        return [], []
    return span_of(matrix, len(matrix[0])).rref()


def rank(matrix) -> int:
    if not matrix:
        return 0
    return span_of(matrix, len(matrix[0])).dim()


def span_membership(layers):
    """The test p -> whether p lies in the span of the graded `layers`
    (`layers[d]` a list of degree-d polynomials), degree by degree; each
    degree's span is built on first use."""
    spans = {}

    def row(p, d, index):
        return {index[e]: c for e, c in p.terms.items() if sum(e) == d}

    def contains(p) -> bool:
        for d in {sum(e) for e in p.terms}:
            index = monomial_index(p.vars, d)
            if d not in spans:
                spans[d] = span_of([row(q, d, index) for q in layers[d]], len(index))
            if not spans[d].contains(row(p, d, index)):
                return False
        return True
    return contains
