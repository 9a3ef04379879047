"""Alternating difference-sum identities, checked two ways.

The central object is the alternating sum

    sum_{i=0}^{n} (-1)^i * C(n, i) * (x - i)^n

which collapses to the constant n! for every n >= 0, independent of x.
Lowering the exponent to n - j for any 1 <= j <= n makes the same sum
vanish identically.  Each identity is checked along two routes: literal pointwise
evaluation, and symbolic expansion into a polynomial whose coefficients must cancel.
Both use ``binomial_row``: pointwise for the weights, symbolically inside ``poly_shift``,
where the alternating sum cancels a wrong entry, so only the pointwise route catches one.
A disagreement between the routes can only be an implementation bug, never rounding.

Both routes run on the integer lattice and convert to Fraction once, when
the result is returned.  Pointwise, x = a/b makes each term
C(n,i) (a - i*b)^m / b^m, so the numerators are summed as ints and the sum
is divided by b^m once.  Symbolically, X^m shifted by an integer -i has
int coefficients, and so do the binomial weights.

The routes return sums only; a caller compares them with the closed form,
n! or 0, which it computes once however many points it checks.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Iterator

from . import exact
from .exact import (
    POLY_ZERO,
    DomainError,
    Poly,
    binomial,
    binomial_row,
    monomial,
    poly_axpy,
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
    # sum_i (-1)^i C(n,i) (X - i)^exponent with each power expanded via poly_shift.
    acc = POLY_ZERO
    base = monomial(exponent)
    for i in range(n + 1):
        shifted = poly_shift(base, -i)
        weight = binomial(n, i)
        acc = poly_axpy(weight if i % 2 == 0 else -weight, shifted, acc)
    return tuple(map(exact.Fraction, acc))


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


def difference_table(degree: int, points: int) -> Iterator[list[int]]:
    """Columns of the difference table of x**degree sampled at x = 0..points-1.

    Column 0 holds the sampled values; column m+1 holds consecutive
    differences of column m, so column m has points - m entries.  Column
    `degree` is constant factorial(degree).

    A bad degree or point count is refused at the call, which also builds
    column 0; each later column is built when it is read, so a reader that
    drops every column once it is done with it holds at most two.
    """
    if degree < 0:
        raise DomainError(f"degree must be non-negative, got {degree}")
    if points <= degree:
        raise DomainError(
            f"need at least degree+1 sample points, got points={points} for degree={degree}"
        )
    return accumulate(range(degree), lambda c, _: [b - a for a, b in zip(c, c[1:])],
                      initial=[x**degree for x in range(points)])


def sample_rationals(rng: random.Random, count: int) -> Iterator[Fraction]:
    """count seeded random rationals with components within SAMPLE_BOUND.

    Numerators are drawn from [-SAMPLE_BOUND, SAMPLE_BOUND] and denominators
    from [1, SAMPLE_BOUND]; canonical reduction can only shrink the components.
    Each point is drawn from rng when it is read, so a caller holds one at a time.
    """
    b, fraction = SAMPLE_BOUND, exact.Fraction
    return (fraction(rng.randint(-b, b), rng.randint(1, b)) for _ in range(count))
