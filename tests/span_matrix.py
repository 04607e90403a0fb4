"""Whole-matrix reduced row echelon form and rank of dense rows, read off
one `IncrementalSpan`; only tests need them, the library works on spans."""

from quasinv.linalg import span_of


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
