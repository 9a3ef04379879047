"""Identity engine: frozen examples, an independent brute-force oracle,
x-independence, and the symbolic/pointwise/operator route agreement."""

import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from poly_oracle import (
    backward_difference,
    derivative_collapse_check,
    poly_from_coeffs,
    poly_mul,
)

from diffwilson import exact, identity
from diffwilson.exact import POLY_ZERO, DomainError, factorial, monomial, poly_const
from diffwilson.identity import (
    _alternating_expansion,
    _alternating_sum_at,
    difference_table,
    eval_difference_sum,
    eval_lower_power_sum,
    sample_rationals,
    symbolic_difference_poly,
    symbolic_lower_power_poly,
)

rationals = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 1000))


# Negative numerators over large denominators: a wrong power of the
# denominator in the lattice sum changes the value by a large factor.
lattice_points = st.builds(Fraction, st.integers(-10**6, -1), st.integers(10**4, 10**7))


def oracle_sum(n, exponent, x):
    # Independent route: stdlib comb, builtin pow and sum, no shared helpers.
    return sum((-1) ** i * math.comb(n, i) * (x - i) ** exponent for i in range(n + 1))


def pascal_row(n):
    # Row n by Pascal's additive rule, independent of math.comb, which the symbolic
    # route's weights come from.
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row


def oracle_expansion(n, exponent):
    # Independent of poly_shift and of math.comb: each (X - i)**exponent by repeated
    # convolution, weighted by an additive Pascal row, accumulated in Fraction.
    acc = [Fraction(0)] * (exponent + 1)
    for i, weight in enumerate(pascal_row(n)):
        power = (Fraction(1),)
        for _ in range(exponent):
            power = poly_mul(power, (Fraction(-i), Fraction(1)))
        for k, c in enumerate(power):
            acc[k] += (-1) ** i * weight * c
    return poly_from_coeffs(acc)


def all_fractions(poly):
    return type(poly) is tuple and all(type(c) is Fraction for c in poly)


@pytest.mark.parametrize(
    "n,x,expected",
    [
        (0, 5, 1),
        (1, 9, 1),
        (3, 7, 6),
        (3, 0, 6),
        (4, Fraction(1, 2), 24),
        (5, Fraction(-2, 3), 120),
    ],
)
def test_eval_difference_sum_values(n, x, expected):
    assert eval_difference_sum(n, x) == expected


@pytest.mark.parametrize(
    "n,j,x",
    [(3, 1, 2), (3, 3, 2), (4, 2, 5), (1, 1, Fraction(7, 3)), (6, 4, Fraction(-1, 2))],
)
def test_eval_lower_power_sum_is_zero(n, j, x):
    assert eval_lower_power_sum(n, j, x) == 0


def test_eval_difference_sum_rejects_negative_n():
    with pytest.raises(DomainError, match="non-negative"):
        eval_difference_sum(-1, 0)


@pytest.mark.parametrize("n,j", [(0, 1), (3, 0), (3, 4), (5, -1)])
def test_eval_lower_power_sum_rejects_bad_j(n, j):
    with pytest.raises(DomainError, match="1 <= j <= n"):
        eval_lower_power_sum(n, j, 0)


@given(st.integers(0, 25), rationals)
def test_difference_sum_matches_oracle(n, x):
    assert eval_difference_sum(n, x) == oracle_sum(n, n, x) == factorial(n)


@given(st.integers(1, 25), st.data())
def test_lower_power_sum_matches_oracle(n, data):
    j = data.draw(st.integers(1, n))
    x = data.draw(rationals)
    assert eval_lower_power_sum(n, j, x) == oracle_sum(n, n - j, x) == 0


@given(st.integers(0, 20), rationals, rationals)
def test_difference_sum_is_x_independent(n, x1, x2):
    assert eval_difference_sum(n, x1) == eval_difference_sum(n, x2)


@given(st.integers(0, 15), st.integers(1, 5), st.one_of(lattice_points, rationals))
def test_lattice_sum_above_degree_matches_oracle(n, extra, x):
    # Above degree n the sum is a nonconstant polynomial in x, so its value
    # at x shows the b**exponent scaling that n! and 0 would hide.
    assert _alternating_sum_at(n, n + extra, x) == oracle_sum(n, n + extra, x)


def test_symbolic_expansion_above_degree_matches_oracle():
    for n in range(9):
        for exponent in range(n + 1, n + 4):
            poly = _alternating_expansion(n, exponent)
            assert all_fractions(poly)
            assert len(poly) == exponent - n + 1
            assert poly == oracle_expansion(n, exponent)


def stirling2_table(k_max, n_max):
    # S[k][n], Stirling numbers of the second kind, by S(k, n) = n S(k-1, n) + S(k-1, n-1).
    table = [[1] + [0] * n_max]
    for _ in range(k_max):
        prev = table[-1]
        table.append([0] + [n * prev[n] + prev[n - 1] for n in range(1, n_max + 1)])
    return table


def stirling_closed_form(n, m, stirling):
    # A third oracle, in closed form: the coefficient of X^(m-k) in
    # sum_i (-1)^i C(n,i) (X - i)^m is (-1)^k C(m,k) M_k, where the moment
    # M_k = sum_i (-1)^i C(n,i) i^k = (-1)^n n! S(k,n) (Graham, Knuth and Patashnik,
    # Concrete Mathematics, eq. 6.19).  It covers exponents above n without expanding.
    expected = [0] * (m + 1)
    for k, c_mk in enumerate(pascal_row(m)):
        expected[m - k] = (-1) ** (n + k) * c_mk * math.factorial(n) * stirling[k][n]
    return expected


def expansion_coeffs(n, m):
    # The symbolic route's polynomial, padded with zeros to its m + 1 coefficients.
    poly = _alternating_expansion(n, m)
    return list(poly) + [0] * (m + 1 - len(poly))


def test_symbolic_expansion_matches_stirling_closed_form():
    n_max, extra = 40, 6
    stirling = stirling2_table(n_max + extra, n_max)
    mismatches = [(n, m) for n in range(n_max + 1) for m in range(n + extra + 1)
                  if expansion_coeffs(n, m) != stirling_closed_form(n, m, stirling)]
    assert mismatches == []


def test_wrong_shift_binomial_shows_above_degree_n(monkeypatch):
    # The symbolic route takes its signed binomials from one poly_shift of X^m, and the
    # coefficient of X^j is the X^j one of (X - 1)^m times the moment M_(m-j).  Every moment
    # below M_n is 0, so a wrong C(m, 1) cancels at m = n; at m = n + 2 it scales M_(n+1),
    # which is not 0, and the closed form catches it.  The pointwise sums never shift.
    def wrong_shift(p, c):  # p(X + c) for p = X^m, with C(m, 1) one too large
        out = list(exact.poly_shift(p, c))
        out[1] += c ** (len(out) - 2)
        return tuple(out)

    monkeypatch.setattr(identity, "poly_shift", wrong_shift)
    n_max = 12
    stirling = stirling2_table(n_max + 2, n_max)
    for n in range(1, n_max + 1):
        assert eval_difference_sum(n, Fraction(-3, 7)) == factorial(n)
        assert eval_lower_power_sum(n, 1, 5) == 0
        assert expansion_coeffs(n, n + 2) != stirling_closed_form(n, n + 2, stirling)


def test_routes_return_fraction_coefficients():
    polys = [symbolic_difference_poly(n) for n in range(8)]
    polys += [symbolic_lower_power_poly(6, j) for j in range(1, 7)]
    polys += [backward_difference(monomial(5), k) for k in range(7)]
    polys += [backward_difference((0, 0, 0, 1), k) for k in range(3)]
    assert all(all_fractions(p) for p in polys)
    for x in (3, Fraction(-2, 7)):
        assert type(eval_difference_sum(4, x)) is Fraction
        assert type(eval_lower_power_sum(4, 2, x)) is Fraction


def test_symbolic_difference_poly_is_constant_factorial():
    for n in range(31):
        assert symbolic_difference_poly(n) == poly_const(factorial(n))


def test_symbolic_lower_power_poly_is_zero():
    for n in range(1, 21):
        for j in range(1, n + 1):
            assert symbolic_lower_power_poly(n, j) == POLY_ZERO


def test_symbolic_rejects_bad_arguments():
    with pytest.raises(DomainError):
        symbolic_difference_poly(-1)
    with pytest.raises(DomainError):
        symbolic_lower_power_poly(0, 1)
    with pytest.raises(DomainError):
        symbolic_lower_power_poly(4, 5)


def test_routes_share_no_binomial_code(monkeypatch):
    # The symbolic route never reaches binomial_row, the pointwise route's recurrence...
    def unreachable(n):
        raise AssertionError(f"the symbolic route called binomial_row({n})")

    monkeypatch.setattr(exact, "binomial_row", unreachable)
    monkeypatch.setattr(identity, "binomial_row", unreachable)
    for n in range(13):
        assert symbolic_difference_poly(n) == (factorial(n),)
        for j in range(1, n + 1):
            assert symbolic_lower_power_poly(n, j) == ()
    monkeypatch.undo()
    # ...and a wrong C(n, 1) from binomial, the symbolic route's weights, leaves the
    # pointwise sums alone while the symbolic polynomial keeps a term in X.
    monkeypatch.setattr(identity, "binomial", lambda n, i: math.comb(n, i) + (i == 1))
    for n in range(1, 13):
        assert eval_difference_sum(n, Fraction(-3, 7)) == factorial(n)
        assert eval_lower_power_sum(n, 1, 5) == 0
        assert len(symbolic_difference_poly(n)) > 1


def test_backward_difference_examples():
    # del(X**2) = X**2 - (X-1)**2 = 2X - 1
    assert backward_difference(monomial(2), 1) == (Fraction(-1), Fraction(2))
    assert backward_difference(monomial(2), 0) == monomial(2)
    assert backward_difference(poly_const(9), 1) == POLY_ZERO
    with pytest.raises(DomainError):
        backward_difference(monomial(2), -1)


def test_backward_difference_matches_expansion():
    for n in range(26):
        assert backward_difference(monomial(n), n) == symbolic_difference_poly(n)


def test_backward_difference_annihilates_lower_degree():
    for n in range(1, 16):
        assert backward_difference(monomial(n - 1), n) == POLY_ZERO


@pytest.mark.parametrize("n,j", [(1, 1), (3, 1), (4, 4), (7, 3), (10, 5)])
def test_derivative_collapse_check(n, j):
    assert derivative_collapse_check(n, j)


def test_derivative_collapse_rejects_bad_j():
    with pytest.raises(DomainError):
        derivative_collapse_check(3, 0)


def _read_by_columns(table):
    return [list(col) for col in table]


def _read_by_rows(table, points):
    # Row x is next() of columns 0..min(x, degree): entry x - m of each column m.
    rows = [[next(col) for col in table[:x + 1]] for x in range(points)]
    return [[row[m] for row in rows[m:]] for m in range(len(table))]


def _read_round_robin(table):
    # One entry of each column in turn, the last column first, until every one is empty.
    rounds = list(zip_longest(*reversed(table)))
    return [[v for v in col if v is not None] for col in zip(*rounds)][::-1]


def test_difference_table_example():
    table = difference_table(2, 5)
    assert len(table) == 3
    assert _read_by_columns(table) == [[0, 1, 4, 9, 16], [1, 3, 5, 7], [2, 2, 2]]


def test_difference_table_constant_column():
    for degree in range(8):
        cols = _read_by_columns(difference_table(degree, degree + 4))
        assert len(cols) == degree + 1
        assert all(len(cols[m]) == degree + 4 - m for m in range(degree + 1))
        assert cols[degree] == [factorial(degree)] * 4
        # The shortest table, points = degree + 1, ends in the single entry degree!.
        cols = _read_by_columns(difference_table(degree, degree + 1))
        assert [len(col) for col in cols] == list(range(degree + 1, 0, -1))
        assert cols[-1] == [factorial(degree)]


@pytest.mark.parametrize("degree", range(8))
def test_difference_table_reads_alike_in_any_order(degree):
    # Each column is fed from the one before it, so rows, columns and a round robin
    # must read the same table; points = degree + 1 is the shortest one.
    for points in (degree + 1, degree + 2, degree + 9):
        by_columns = _read_by_columns(difference_table(degree, points))
        assert by_columns[0] == [x**degree for x in range(points)]
        assert _read_by_rows(difference_table(degree, points), points) == by_columns
        assert _read_round_robin(difference_table(degree, points)) == by_columns


def test_difference_table_rejects_short_sample():
    with pytest.raises(DomainError, match="degree\\+1 sample points"):
        difference_table(3, 3)
    with pytest.raises(DomainError, match="non-negative"):
        difference_table(-1, 5)


def test_sample_rationals_seeded_and_bounded():
    a = list(sample_rationals(random.Random(7), 20))
    b = list(sample_rationals(random.Random(7), 20))
    assert a == b
    assert len(a) == 20
    for q in a:
        assert abs(q.numerator) <= 1000 and 1 <= q.denominator <= 1000


@settings(max_examples=25)
@given(st.integers(1, 12), st.data())
def test_derivative_route_agrees_on_random_pairs(n, data):
    j = data.draw(st.integers(1, n))
    assert derivative_collapse_check(n, j)
