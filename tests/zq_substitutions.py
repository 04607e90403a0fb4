"""Substitutions of ZQSeries that only the tests use: z -> -z, z -> z^2 and
z -> qz, on the coefficient maps (w = 2 * z-exponent, q-exponent) -> c."""

from quasinv.series import ZQSeries


def negate_z(f: ZQSeries) -> ZQSeries:
    """z -> -z; requires integer z-exponents."""
    out = {}
    for (w, s), c in f.coeffs.items():
        if w % 2:
            raise ValueError("z -> -z needs integer z-exponents")
        out[(w, s)] = c if (w // 2) % 2 == 0 else -c
    return ZQSeries(out, f.q_order)


def square_z(f: ZQSeries) -> ZQSeries:
    """z -> z^2."""
    return ZQSeries({(2 * w, s): c for (w, s), c in f.coeffs.items()}, f.q_order)


def shift_q(f: ZQSeries) -> ZQSeries:
    """z -> qz.  The certified q-order drops by the most negative
    z-exponent, since coefficients get pushed below the cut; raises when
    the image has genuinely negative q-exponents and so leaves the
    power-series ring."""
    lo_w, _ = f.w_window()
    out = {}
    new_order = f.q_order + min(0, lo_w // 2)
    for (w, s), c in f.coeffs.items():
        if w % 2:
            raise ValueError("z -> qz needs integer z-exponents")
        s2 = s + w // 2
        if s2 < 0:
            raise ValueError("substitution z -> qz leaves the q-power-series ring")
        if s2 < new_order:
            out[(w, s2)] = c
    return ZQSeries(out, new_order)
