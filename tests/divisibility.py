"""The vanishing order of a polynomial along a linear form, by repeated
exact division; tests compare group actions and hyperplane data with it.
It runs the library's `divide_by_linear`, so it is no independent oracle."""

from quasinv.poly import INFINITE_ORDER, Polynomial, divide_by_linear, linear_coefficients


def divisibility_order(p: Polynomial, alpha: Polynomial):
    """Largest k with alpha^k dividing p exactly, counted as the exact rounds
    of `divide_by_linear` before a nonzero remainder; the infinite sentinel
    for p = 0.  A form that is not linear is refused, also for p = 0."""
    linear_coefficients(alpha)
    if not p:
        return INFINITE_ORDER
    k = 0
    while True:
        p, rem = divide_by_linear(p, alpha)
        if rem:
            return k
        k += 1
