"""Exact arithmetic core: integers, canonical rationals, dense polynomials.

Integers are plain Python ints, arbitrary-precision natively; n! and C(n, i)
come from ``math``, and ``binomial_row`` builds a whole row by its own
recurrence.  Rationals are ``fractions.Fraction``, which guarantees the
canonical form relied on throughout: reduced to lowest terms, positive
denominator, zero stored as 0/1.  The package reaches it as ``exact.Fraction``,
which imports ``fractions`` (and with it ``decimal``) on first use, so a run
that builds no rational never loads them.  Polynomials are immutable tuples of
coefficients in ascending power order with no trailing zero entries; the zero
polynomial is the empty tuple.  Every operation returns canonical values, so
``==`` on any two results is exact mathematical equality.

``monomial`` builds int coefficients, and ``poly_const`` keeps the type
of its argument.  ``poly_shift`` and ``poly_axpy`` work over whatever
coefficient ring they are given and coerce nothing: int coefficients with
an int shift or scale give int coefficients (int in, int out), and any
Fraction among the inputs makes the affected outputs Fraction.  Integer
work thus skips Fraction's per-operation gcd normalisation; the public
identity results convert to Fraction once, where they are returned.

Serialization contract (consumed by the CLI): integers as decimal strings,
rationals as ``"num/den"`` strings, polynomials as ascending coefficient
arrays of rational strings.

Every refusal in the package, here and in ``identity`` and ``modular``,
raises ``DomainError``, a ``ValueError`` the CLI reports with exit code 2.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DomainError",
    "Poly",
    "POLY_ZERO",
    "binomial",
    "binomial_row",
    "factorial",
    "format_poly",
    "format_rational",
    "monomial",
    "parse_rational",
    "poly_axpy",
    "poly_const",
    "poly_shift",
]

Poly = tuple["Fraction | int", ...]

POLY_ZERO: Poly = ()


class DomainError(ValueError):
    """An argument outside the domain of the function that refused it."""


def __getattr__(name: str):
    # Module attribute hook (PEP 562): only a lookup that misses the module's globals
    # reaches it, so Fraction is imported once and later lookups find it directly.
    if name != "Fraction":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from fractions import Fraction

    globals()["Fraction"] = Fraction
    return Fraction


def factorial(n: int) -> int:
    """n! from ``math.factorial``; factorial(0) == 1."""
    if n < 0:
        raise DomainError(f"factorial is undefined for negative n, got {n}")
    return math.factorial(n)


def binomial(n: int, i: int) -> int:
    """C(n, i) from ``math.comb``; out-of-range i (i < 0 or i > n) gives 0."""
    if n < 0:
        raise DomainError(f"binomial needs n >= 0, got {n}")
    return math.comb(n, i) if i >= 0 else 0


def binomial_row(n: int) -> list[int]:
    """Row n of Pascal's triangle, [C(n,0), ..., C(n,n)], built incrementally.

    By the recurrence C(n,i) = C(n,i-1) * (n-i+1) / i, so the pointwise route's
    weights share no code with binomial()'s ``math.comb``, nor with ``poly_shift``.
    """
    if n < 0:
        raise DomainError(f"binomial row needs n >= 0, got {n}")
    row = [1]
    for i in range(1, n + 1):
        row.append(row[-1] * (n - i + 1) // i)
    return row


_RATIONAL_RE = re.compile(r"\A([+-]?\d+)(?:/([+-]?\d+))?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse 'num' or 'num/den' into a canonical rational.

    Floating-point literals are rejected; every accepted input is exact.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise DomainError(f"not an integer or num/den rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise DomainError("rational denominator must be nonzero")
    return __getattr__("Fraction")(num, den)  # no global Fraction before first use


def format_rational(q: Fraction) -> str:
    """Serialize a rational as 'num/den' (canonical, so den > 0)."""
    return f"{q.numerator}/{q.denominator}"


def format_poly(p: Poly) -> list[str]:
    """Ascending coefficient array of rational strings; [] for the zero polynomial."""
    return [format_rational(c) for c in p]


def poly_const(c: Fraction | int) -> Poly:
    """The constant polynomial c, in the ring of c."""
    return (c,) if c else POLY_ZERO


def monomial(n: int) -> Poly:
    """X**n, with int coefficients."""
    if n < 0:
        raise DomainError(f"monomial needs n >= 0, got {n}")
    return (0,) * n + (1,)


def poly_axpy(a: Fraction | int, p: Poly, q: Poly) -> Poly:
    """a*p + q, coefficientwise, in the ring of a, p and q (int in, int out)."""
    out = list(q) + [0] * (len(p) - len(q))
    for k, c in enumerate(p):
        out[k] += a * c
    while out and not out[-1]:  # strip trailing zero coefficients
        out.pop()
    return tuple(out)


def poly_shift(p: Poly, c: Fraction | int) -> Poly:
    """p(X + c), each (X + c)**k expanded exactly by the binomial theorem.

    Steps its own C(k, j) beside the power of c, in the ring of p and c (int in, int
    out).  The leading coefficient stays, so a canonical p gives a canonical result.
    """
    out = [0] * len(p)
    for k, a in enumerate(p):
        if not a:
            continue
        b, ck = 1, 1  # C(k, j) and c**(k - j), j descending from k
        for j in range(k, -1, -1):
            out[j] += a * b * ck
            b, ck = b * j // (k - j + 1), ck * c
    return tuple(out)
