"""Dense coordinate linear algebra, the reference for the sparse rows of the
library: every vector is a full list over the monomials of one degree, and
coordinates in a basis come from solving a dense system."""

from fractions import Fraction

from quasinv.poly import monomial_index


def dense_inv(c):
    return Fraction(1) / c if isinstance(c, Fraction) else c.inverse()


def dense_rref(matrix):
    """Reduced row echelon form the dense way, the reference for `rref`:
    every pivot row is scaled in full and every elimination runs over all
    columns, zeros included."""
    rows = [[Fraction(c) if isinstance(c, int) else c for c in row] for row in matrix]
    pivots = []
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = dense_inv(rows[r][col])
        rows[r] = [c * inv for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def dense_solve(matrix, rhs):
    """A solution of M x = rhs with the free variables set to zero, or None
    when the system is inconsistent."""
    ncols = len(matrix[0])
    red, pivots = dense_rref([list(r) + [b] for r, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def dense_coordinates(vectors, target):
    """Coefficients c with sum c_i vectors[i] = target (free ones zero);
    ValueError when `target` is outside the span."""
    if not vectors:
        if any(target):
            raise ValueError("element outside span")
        return []
    sol = dense_solve([list(col) for col in zip(*vectors)], list(target))
    if sol is None:
        raise ValueError("element outside span")
    return sol


def coordinate_vector(p, d: int) -> list:
    """Coordinates of a homogeneous degree-d polynomial (or zero) in the
    monomial basis of degree d, in `monomials_of_degree` order."""
    index = monomial_index(p.vars, d)
    vec = [Fraction(0)] * len(index)
    for exp, c in p.terms.items():
        vec[index[exp]] = c
    return vec
