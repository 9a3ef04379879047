"""Exact core: combinatorics against stdlib oracles, ring laws by property."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from poly_oracle import (
    POLY_ONE,
    falling_factorial,
    poly_degree,
    poly_derivative,
    poly_eval,
    poly_from_coeffs,
    poly_is_zero,
    poly_mul,
)

from diffwilson.exact import (
    POLY_ZERO,
    DomainError,
    binomial,
    binomial_row,
    factorial,
    format_poly,
    format_rational,
    monomial,
    parse_rational,
    poly_axpy,
    poly_const,
    poly_shift,
)

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))
polys = st.lists(rationals, max_size=6).map(poly_from_coeffs)
scalars = rationals


# integers


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (5, 120), (10, 3628800)])
def test_factorial_values(n, expected):
    assert factorial(n) == expected


def test_factorial_matches_stdlib():
    # factorial is math.factorial behind a refusal; the oracle is the plain product.
    for n in range(201):
        assert factorial(n) == math.prod(range(1, n + 1))


def test_domain_error_is_a_value_error():
    # Callers that catch ValueError keep catching every refusal.
    assert issubclass(DomainError, ValueError)


def test_factorial_rejects_negative():
    with pytest.raises(DomainError, match="negative"):
        factorial(-1)


@pytest.mark.parametrize(
    "n,j,expected", [(5, 2, 20), (4, 4, 24), (7, 0, 1), (3, 5, 0), (0, 0, 1)]
)
def test_falling_factorial_values(n, j, expected):
    assert falling_factorial(n, j) == expected


def test_falling_factorial_rejects_negative_j():
    with pytest.raises(ValueError):
        falling_factorial(5, -1)


def test_falling_factorial_full_length_is_factorial():
    for n in range(30):
        assert falling_factorial(n, n) == factorial(n)


@pytest.mark.parametrize(
    "n,i,expected", [(4, 2, 6), (0, 0, 1), (10, 3, 120), (3, 5, 0), (5, -1, 0)]
)
def test_binomial_values(n, i, expected):
    assert binomial(n, i) == expected


def test_binomial_rejects_negative_n():
    with pytest.raises(DomainError):
        binomial(-2, 0)


def test_binomial_matches_stdlib():
    # binomial is math.comb behind a refusal; the oracle is the factorial quotient.
    f = math.factorial
    for n in range(61):
        for i in range(n + 1):
            assert binomial(n, i) == f(n) // (f(i) * f(n - i))


def test_binomial_row_values():
    assert binomial_row(0) == [1]
    assert binomial_row(4) == [1, 4, 6, 4, 1]
    with pytest.raises(DomainError):
        binomial_row(-1)


def test_binomial_row_matches_binomial():
    for n in range(81):
        assert binomial_row(n) == [binomial(n, i) for i in range(n + 1)]


def test_pascal_identity():
    prev = binomial_row(0)
    for n in range(1, 201):
        row = binomial_row(n)
        for i in range(1, n):
            assert row[i] == prev[i - 1] + prev[i]
        prev = row


# rationals


@pytest.mark.parametrize(
    "text,expected",
    [
        ("7", Fraction(7)),
        ("-3/4", Fraction(-3, 4)),
        ("+3/6", Fraction(1, 2)),
        (" 2/4 ", Fraction(1, 2)),
        ("5/-10", Fraction(-1, 2)),
        ("0", Fraction(0)),
        ("4/8", Fraction(1, 2)),
        ("3/-6", Fraction(-1, 2)),
        ("0/5", Fraction(0)),
        ("٣/٤", Fraction(3, 4)),  # Unicode decimal digits, as int() reads them
    ],
)
def test_parse_rational_accepts(text, expected):
    q = parse_rational(text)
    assert q == expected
    assert q.denominator > 0


@pytest.mark.parametrize("text", ["1.5", "a", "1/2/3", "", "1e3", "1 /2", "/3"])
def test_parse_rational_rejects(text):
    with pytest.raises(DomainError, match="not an integer"):
        parse_rational(text)


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(DomainError, match="nonzero"):
        parse_rational("7/0")


def test_rational_make_rejects_zero_denominator():
    # rational_make(1, 0) was inlined into parse_rational; its check stays there.
    with pytest.raises(DomainError, match="nonzero"):
        parse_rational("1/0")


@pytest.mark.parametrize(
    "q,expected",
    [(Fraction(6), "6/1"), (Fraction(-1, 2), "-1/2"), (Fraction(0), "0/1")],
)
def test_format_rational(q, expected):
    assert format_rational(q) == expected


@given(rationals)
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


# polynomials


def test_poly_construction_canonical():
    assert poly_from_coeffs([1, 2, 0]) == (Fraction(1), Fraction(2))
    assert poly_from_coeffs([0, 0]) == POLY_ZERO
    assert poly_const(0) == POLY_ZERO
    assert poly_const(7) == (Fraction(7),)
    assert monomial(0) == POLY_ONE
    assert monomial(3) == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    assert all(type(c) is int for c in monomial(3) + poly_const(7))
    with pytest.raises(DomainError):
        monomial(-1)


def test_poly_degree_and_zero():
    assert poly_is_zero(POLY_ZERO)
    assert not poly_is_zero(POLY_ONE)
    assert poly_degree(monomial(4)) == 4
    with pytest.raises(ValueError, match="zero polynomial"):
        poly_degree(POLY_ZERO)


def test_poly_axpy_examples():
    p = poly_from_coeffs([1, 1])
    q = poly_from_coeffs([2, -1])
    assert poly_axpy(3, p, q) == poly_from_coeffs([5, 2])
    assert poly_axpy(0, p, q) == q
    assert poly_axpy(-1, p, p) == POLY_ZERO
    # Int in, int out; a Fraction scale or coefficient gives Fraction results.
    out = poly_axpy(3, (1, 2), (5, 0, 1))
    assert out == (8, 6, 1) and all(type(c) is int for c in out)
    assert poly_axpy(Fraction(1, 2), (2, 1), (1,)) == (2, Fraction(1, 2))
    assert poly_axpy(3, (Fraction(1, 2),), (0, 1)) == (Fraction(3, 2), 1)


def test_poly_mul_examples():
    one_plus_x = poly_from_coeffs([1, 1])
    one_minus_x = poly_from_coeffs([1, -1])
    assert poly_mul(one_plus_x, one_minus_x) == poly_from_coeffs([1, 0, -1])
    assert poly_mul(one_plus_x, POLY_ZERO) == POLY_ZERO
    assert poly_mul(POLY_ONE, one_plus_x) == one_plus_x


def test_poly_shift_examples():
    # (X - 1)**2 = X**2 - 2X + 1
    assert poly_shift(monomial(2), -1) == poly_from_coeffs([1, -2, 1])
    assert poly_shift(monomial(2), 0) == monomial(2)
    assert poly_shift(poly_const(5), 3) == poly_const(5)
    assert poly_shift(POLY_ZERO, 7) == POLY_ZERO
    # The general loop covers a zero shift and a constant, in the ring of the inputs.
    p = (Fraction(1, 3), Fraction(1, 2))
    assert poly_shift(p, 0) == poly_shift(p, Fraction(0)) == p
    assert poly_shift((Fraction(3, 2),), Fraction(-5, 7)) == (Fraction(3, 2),)
    out = poly_shift((2, 0, 1), 0)
    assert out == (2, 0, 1) and all(type(c) is int for c in out)
    out = poly_shift((0, 0, 1), -2)
    assert out == (4, -4, 1) and all(type(c) is int for c in out)
    # (X + 1/2)**2 from int coefficients; (X - 1)/2 from a Fraction one.
    assert poly_shift((0, 0, 1), Fraction(1, 2)) == (Fraction(1, 4), 1, 1)
    assert poly_shift((0, Fraction(1, 2)), -1) == (Fraction(-1, 2), Fraction(1, 2))


def _strip(coeffs):
    # Canonical form without coercion, so int and Fraction entries stay mixed.
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


mixed = st.one_of(st.integers(-50, 50), rationals)
mixed_polys = st.lists(mixed, max_size=6).map(_strip)


@given(mixed_polys, mixed, mixed)
def test_poly_shift_mixed_agrees_with_eval(p, c, x):
    assert poly_eval(poly_shift(p, c), x) == poly_eval(p, x + c)
    assert poly_shift(p, c) == poly_shift(poly_from_coeffs(p), Fraction(c))


@given(mixed, mixed_polys, mixed_polys, mixed)
def test_poly_axpy_mixed_agrees_with_eval(a, p, q, x):
    out = poly_axpy(a, p, q)
    assert poly_eval(out, x) == a * poly_eval(p, x) + poly_eval(q, x)
    assert out == poly_axpy(Fraction(a), poly_from_coeffs(p), poly_from_coeffs(q))


int_polys = st.lists(st.integers(-50, 50), max_size=6).map(_strip)


@given(int_polys, st.integers(-20, 20), st.integers(-20, 20))
def test_poly_shift_and_axpy_int_in_int_out(p, c, a):
    shifted = poly_shift(p, c)
    scaled = poly_axpy(a, p, shifted)
    assert all(type(v) is int for v in p + shifted + scaled)
    fp = poly_from_coeffs(p)
    assert shifted == poly_shift(fp, Fraction(c))
    assert scaled == poly_axpy(Fraction(a), fp, poly_shift(fp, Fraction(c)))


def test_poly_derivative_examples():
    assert poly_derivative(poly_const(5)) == POLY_ZERO
    assert poly_derivative(poly_from_coeffs([1, 2, 3])) == poly_from_coeffs([2, 6])
    assert poly_derivative(POLY_ZERO) == POLY_ZERO


def test_poly_eval_examples():
    p = poly_from_coeffs([1, 2, 3])
    assert poly_eval(p, 2) == 17
    assert poly_eval(p, Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)
    assert poly_eval(POLY_ZERO, 9) == 0


def test_format_poly():
    assert format_poly(poly_from_coeffs([Fraction(1, 2), -3])) == ["1/2", "-3/1"]
    assert format_poly(POLY_ZERO) == []


@given(polys, polys)
def test_poly_mul_commutative(p, q):
    assert poly_mul(p, q) == poly_mul(q, p)


@given(polys, polys, polys)
def test_poly_mul_associative(p, q, r):
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))


@given(scalars, polys, polys, polys)
def test_poly_axpy_distributes_over_mul(a, p, q, r):
    assert poly_mul(poly_axpy(a, p, q), r) == poly_axpy(a, poly_mul(p, r), poly_mul(q, r))


@given(polys, scalars, scalars)
def test_poly_shift_composes(p, a, b):
    assert poly_shift(poly_shift(p, a), b) == poly_shift(p, a + b)


@given(polys, scalars, scalars)
def test_poly_shift_agrees_with_eval(p, c, x):
    assert poly_eval(poly_shift(p, c), x) == poly_eval(p, x + c)


@given(polys, polys, scalars)
def test_poly_eval_is_ring_homomorphism(p, q, x):
    assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)
    assert poly_eval(poly_axpy(1, p, q), x) == poly_eval(p, x) + poly_eval(q, x)


@given(polys, polys)
def test_poly_derivative_product_rule(p, q):
    lhs = poly_derivative(poly_mul(p, q))
    rhs = poly_axpy(1, poly_mul(poly_derivative(p), q), poly_mul(p, poly_derivative(q)))
    assert lhs == rhs


@given(polys, polys, scalars)
def test_poly_results_are_canonical(p, q, c):
    for out in (poly_mul(p, q), poly_axpy(c, p, q), poly_shift(p, c), poly_derivative(p)):
        assert out == () or out[-1] != 0
