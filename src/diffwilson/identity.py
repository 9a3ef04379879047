"""Alternating difference-sum identities, checked two ways.

The central object is the alternating sum

    sum_{i=0}^{n} (-1)^i * C(n, i) * (x - i)^n

which collapses to the constant n! for every n >= 0, independent of x.
Lowering the exponent to n - j for any 1 <= j <= n makes the same sum
vanish identically.  Each identity is checked along two routes: literal pointwise
evaluation, and symbolic expansion into a polynomial whose coefficients must cancel.
They share no binomial code: the pointwise weights come from ``binomial_row``, the
symbolic ones from ``binomial`` (``math.comb``), and the symbolic route's C(m, j) from
``poly_shift``, which steps its own when it expands (X - 1)^m.
A disagreement between the routes can only be an implementation bug, never rounding.

Both routes run on the integer lattice and convert to Fraction once, when
the result is returned.  Pointwise, x = a/b makes each term
C(n,i) (a - i*b)^m / b^m, so the numerators are summed as ints and the sum
is divided by b^m once.  Symbolically, the moments sum_i (-1)^i C(n,i) i^k
are ints, and so are the coefficients of (X - 1)^m that multiply them.

The routes return sums only; a caller compares them with the closed form,
n! or 0, which it computes once however many points it checks.
"""

from __future__ import annotations

from itertools import accumulate, pairwise, repeat, starmap, tee
from operator import mul
from typing import TYPE_CHECKING, Iterator

from . import exact
from .exact import (
    DomainError,
    Poly,
    binomial,
    binomial_row,
    monomial,
    poly_axpy,
    poly_const,
    poly_shift,
)

if TYPE_CHECKING:
    import random
    from fractions import Fraction

__all__ = [
    "difference_table",
    "eval_difference_sum",
    "eval_lower_power_sum",
    "sample_rationals",
    "symbolic_difference_poly",
    "symbolic_lower_power_poly",
]

SAMPLE_BOUND = 1000  # the largest |component| of a sample_rationals point


def _require_n(n: int) -> None:
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")


def _require_j(n: int, j: int) -> None:
    # n = 0 admits no valid j, so it is rejected here as well.
    if not 1 <= j <= n:
        raise DomainError(f"j must satisfy 1 <= j <= n, got j={j} with n={n}")


def _alternating_sum_at(n: int, exponent: int, x: Fraction | int) -> Fraction:
    # sum_i (-1)^i C(n,i) (x - i)^exponent over the ints, with x = a/b.
    fraction = exact.Fraction
    x = fraction(x)
    a, b = x.numerator, x.denominator
    total = 0
    for i, weight in enumerate(binomial_row(n)):
        term = weight * (a - i * b) ** exponent
        total = total + term if i % 2 == 0 else total - term
    return fraction(total, b**exponent)


def eval_difference_sum(n: int, x: Fraction | int) -> Fraction:
    """The alternating sum at rational x, accumulated literally i = 0..n.

    Equals n! for every x, but no shortcut is taken: each (x - i)^n term
    is computed exactly and summed.
    """
    _require_n(n)
    return _alternating_sum_at(n, n, x)


def eval_lower_power_sum(n: int, j: int, x: Fraction | int) -> Fraction:
    """The alternating sum with exponent lowered to n - j; equals 0 for 1 <= j <= n."""
    _require_j(n, j)
    return _alternating_sum_at(n, n - j, x)


def _alternating_expansion(n: int, exponent: int) -> Poly:
    # sum_i (-1)^i C(n,i) (X - i)^m, m = exponent, with the two sums swapped: the
    # coefficient of X^j is the moment M_(m-j) = sum_i (-1)^i C(n,i) i^(m-j) times the X^j
    # coefficient of (X - 1)^m.  The moments are summed as one polynomial in Y whose row i,
    # C(n,i) (1, i, ..., i^m), is stepped by products with the small int i.
    moments = poly_const(1)  # row 0: 0^k is 0 but for k = 0
    for i in range(1, n + 1):
        row = tuple(accumulate(repeat(i, exponent), mul, initial=binomial(n, i)))
        moments = poly_axpy(-1 if i % 2 else 1, row, moments)
    moments += (0,) * (exponent + 1 - len(moments))
    coeffs = [c * moment for c, moment in zip(poly_shift(monomial(exponent), -1),
                                               reversed(moments))]
    while coeffs and not coeffs[-1]:  # strip trailing zero coefficients
        coeffs.pop()
    return tuple(map(exact.Fraction, coeffs))


def symbolic_difference_poly(n: int) -> Poly:
    """Symbolic expansion of the alternating sum as a polynomial in X.

    All coefficients above degree 0 cancel, leaving the constant n!.
    Callers must treat a non-constant result as a fatal internal error.
    """
    _require_n(n)
    return _alternating_expansion(n, n)


def symbolic_lower_power_poly(n: int, j: int) -> Poly:
    """Symbolic expansion with exponent n - j; must be the zero polynomial."""
    _require_j(n, j)
    return _alternating_expansion(n, n - j)


def difference_table(degree: int, points: int) -> list[Iterator[int]]:
    """Columns of the difference table of x**degree sampled at x = 0..points-1.

    Column 0 holds the sampled values and column m+1 the consecutive differences of
    column m, so column m has points - m entries and column `degree` is constant
    factorial(degree).  A bad degree or point count is refused at the call; the columns
    are lazy iterators, each fed from the one before it, so the table may be read in any
    order and holds what each column reads ahead of the next.  Read column by column,
    that is about two columns; read row by row, row x being next() of columns
    0..min(x, degree), one diagonal (up to 57 in CPython, whose tee frees in blocks).
    """
    if degree < 0:
        raise DomainError(f"degree must be non-negative, got {degree}")
    if points <= degree:
        raise DomainError(f"need at least degree+1 sample points, got points={points}"
                          f" for degree={degree}")
    cols: list[Iterator[int]] = [(x**degree for x in range(points))]
    for m in range(degree):
        cols[m], feed = tee(cols[m])
        cols.append(starmap(int.__rsub__, pairwise(feed)))  # b - a for each pair (a, b)
    return cols


def sample_rationals(rng: random.Random, count: int) -> Iterator[Fraction]:
    """count seeded random rationals with components within SAMPLE_BOUND.

    Numerators are drawn from [-SAMPLE_BOUND, SAMPLE_BOUND] and denominators
    from [1, SAMPLE_BOUND]; canonical reduction can only shrink the components.
    Each point is drawn from rng when it is read, so a caller holds one at a time.
    """
    b, fraction = SAMPLE_BOUND, exact.Fraction
    return (fraction(rng.randint(-b, b), rng.randint(1, b)) for _ in range(count))
