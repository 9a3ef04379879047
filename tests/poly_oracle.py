"""Test-side polynomial oracles over Fraction coefficients.

The package's symbolic route needs only shifts and scaled sums; these
helpers (construction, convolution, Horner evaluation) exist so the tests
can state ring laws and build independent expansions to compare against.
"""

from fractions import Fraction


def poly_from_coeffs(coeffs):
    """Canonical polynomial from ascending int/Fraction coefficients."""
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly_mul(p, q):
    """Exact convolution product."""
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_from_coeffs(out)


def poly_eval(p, x):
    """Value of p at x by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc
