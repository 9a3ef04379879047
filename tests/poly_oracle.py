"""Test-side polynomial oracles over Fraction coefficients.

The package's symbolic route needs only shifts and scaled sums; these
helpers (construction, convolution, Horner evaluation, the formal
derivative) exist so the tests can state ring laws and build independent
expansions to compare against.  ``derivative_collapse_check`` uses them to
cross-check the two symbolic routes by differentiation, and
``backward_difference`` gives the operator-side view of the alternating sum:
its n-fold application to X^n must equal the symbolic expansion.  It shifts
by its own additions-only Taylor shift, not by ``exact.poly_shift`` and
``exact.poly_axpy``, so that check shares no arithmetic with the route.
"""

from fractions import Fraction

from diffwilson.exact import POLY_ZERO, DomainError, poly_axpy
from diffwilson.identity import symbolic_difference_poly, symbolic_lower_power_poly

POLY_ONE = (1,)


def falling_factorial(n, j):
    """n*(n-1)*...*(n-j+1), the product of j descending factors from n."""
    if j < 0:
        raise ValueError(f"falling factorial needs j >= 0, got {j}")
    out = 1
    for k in range(j):
        out *= n - k
    return out


def poly_from_coeffs(coeffs):
    """Canonical polynomial from ascending int/Fraction coefficients."""
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly_is_zero(p):
    """True for the zero polynomial (whose degree is undefined)."""
    return not p


def poly_degree(p):
    """Degree of a nonzero polynomial; the zero polynomial has no degree."""
    if not p:
        raise ValueError("the zero polynomial has no degree")
    return len(p) - 1


def poly_derivative(p):
    """Formal derivative; constants map to the zero polynomial."""
    return poly_from_coeffs([k * c for k, c in enumerate(p)][1:])


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


def _shift_down(p):
    """Coefficients of p(X-1), by repeated synthetic division by X+1.

    Pass k leaves p's coefficient on (X+1)**k at index k, which is the coefficient
    of X**k in p(X-1).  Subtractions only: no product is formed.
    """
    out = list(p)
    for k in range(len(out) - 1):
        for i in range(len(out) - 2, k - 1, -1):
            out[i] -= out[i + 1]
    return out


def backward_difference(p, order):
    """order-fold backward difference, where (del p)(X) = p(X) - p(X-1).

    Runs in the ring of p's coefficients; the result has Fraction coefficients.
    """
    if order < 0:
        raise DomainError(f"order must be non-negative, got {order}")
    for _ in range(order):
        p = [a - b for a, b in zip(p, _shift_down(p))]
    return poly_from_coeffs(p)


def derivative_collapse_check(n, j):
    """Cross-check the j-fold derivative route against the lower-power route.

    Differentiating the expanded alternating sum j times must give the zero
    polynomial, and must equal n(n-1)...(n-j+1) times the expanded
    lower-power sum.  Both sides are computed independently and compared
    exactly.  symbolic_lower_power_poly refuses a j outside 1..n first.
    """
    rhs = poly_axpy(falling_factorial(n, j), symbolic_lower_power_poly(n, j), POLY_ZERO)
    lhs = symbolic_difference_poly(n)
    for _ in range(j):
        lhs = poly_derivative(lhs)
    return poly_is_zero(lhs) and lhs == rhs
