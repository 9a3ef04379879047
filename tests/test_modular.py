"""Modular kernel: exhaustive small grids against naive oracles, a sieve as
the independent primality reference, and the congruence chain reports."""

import math
import random
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diffwilson.exact import DomainError, factorial
from diffwilson import modular
from diffwilson.modular import (
    alternating_power_sum_at_zero,
    binomial_row_mod,
    factorial_mod,
    fermat_check,
    identity_at_zero_mod,
    mod_pow,
    power_sum_mod,
    smallest_divisor,
    wilson_sweep,
    wilson_test,
)


def sieve(limit):
    """Primality table by Eratosthenes; independent of trial division."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for d in range(2, math.isqrt(limit) + 1):
        if flags[d]:
            flags[d * d :: d] = [False] * len(flags[d * d :: d])
    return flags


PRIME = sieve(50000)
ODD_PRIMES_SMALL = [p for p in range(3, 62) if PRIME[p]]


@pytest.mark.parametrize("base,exp,m,expected", [(3, 4, 5, 1), (2, 10, 1000, 24), (0, 0, 7, 1), (-1, 3, 5, 4)])
def test_mod_pow_values(base, exp, m, expected):
    assert mod_pow(base, exp, m) == expected


def test_mod_pow_matches_naive_grid():
    for m in (2, 3, 5, 7, 10, 97):
        for base in range(-2, m + 3):
            acc = 1 % m
            for exp in range(65):
                assert mod_pow(base, exp, m) == acc
                acc = acc * base % m


def test_mod_pow_rejects_bad_arguments():
    with pytest.raises(DomainError, match="at least 2"):
        mod_pow(2, 3, 1)
    with pytest.raises(DomainError, match="non-negative"):
        mod_pow(2, -1, 5)


@pytest.mark.parametrize("n,m,expected", [(6, 7, 6), (0, 5, 1), (4, 6, 0), (10, 11, 10)])
def test_factorial_mod_values(n, m, expected):
    assert factorial_mod(n, m) == expected


def test_factorial_mod_matches_exact():
    for m in (2, 7, 10, 97, 1000):
        for n in range(31):
            assert factorial_mod(n, m) == math.factorial(n) % m


# A modulus many factors wide is reduced once per block of factors.
@given(st.integers(0, 3000), st.integers(2, 3000), st.integers(1, 400))
@example(0, 2, 400)
@example(1, 5, 16)
@example(3000, 2, 1)
def test_factorial_mod_matches_exact_for_wide_moduli(n, lo, width):
    m = math.prod(range(lo, lo + width))
    assert factorial_mod(n, m) == math.factorial(n) % m


def test_factorial_mod_keeps_one_reduction_per_factor_for_a_narrow_modulus(monkeypatch):
    def no_blocks(values):
        raise AssertionError("a one-factor modulus was reduced in blocks")

    monkeypatch.setattr(modular, "prod", no_blocks)
    assert factorial_mod(939855, 939856) == 0
    assert factorial_mod(1008, 1009) == 1008


def _kempner(m):
    """S(m) = min{k : m | k!}, straight from the definition, over exact factorials."""
    k, f = 1, 1
    while f % m:
        k += 1
        f *= k
    return k


# Narrow composite moduli: 4 (the one composite whose Wilson residue is not 0), prime
# powers, p**2 and 2p, then a seeded sample of every composite up to 5000.
_NARROW_COMPOSITES = [4, 8, 9, 25, 49, 997**2, 2 * 4999] + random.Random(16).sample(
    [m for m in range(4, 5001) if not PRIME[m]], 1000
)


def test_factorial_mod_matches_exact_around_the_kempner_number():
    for m in _NARROW_COMPOSITES:
        s = _kempner(m)
        for n in (s - 2, s - 1, s, s + 1, 2 * s):
            assert factorial_mod(n, m) == math.factorial(n) % m, (n, m)


@pytest.fixture
def taken(monkeypatch):
    """The factors factorial_mod multiplies, each of which comes out of a range."""
    values = []

    def counting_range(*args):
        for i in range(*args):
            values.append(i)
            yield i

    monkeypatch.setattr(modular, "range", counting_range, raising=False)
    return values


@pytest.mark.parametrize("chunk", [1, modular._CHUNK])
def test_factorial_mod_stops_a_narrow_modulus_at_the_kempner_number(
    monkeypatch, taken, chunk
):
    # n is at most m - 1 < 10**6, so a loop that never stops early still ends, and fails.
    # The prime 1009 never reaches 0, and S(1009) = 1009 takes every factor up to n.
    monkeypatch.setattr(modular, "_CHUNK", chunk)
    for m in _NARROW_COMPOSITES[:200] + [1000, 999999, 10**6, 1009]:
        s = _kempner(m)
        for n in (s - 1, m - 1):
            taken.clear()
            assert factorial_mod(n, m) == (math.factorial(n) % m if n < s else 0)
            # The last factor taken ends the chunk of factors that holds S(m).
            assert max(taken) == min(n, 1 + chunk * -(-(s - 1) // chunk)), (n, m)


def test_factorial_mod_stops_a_wide_modulus_in_the_block_holding_the_kempner_number(taken):
    m, n = math.prod(range(1000, 1100)), 3000
    s, k = _kempner(m), m.bit_length() // n.bit_length()
    assert k >= modular._BLOCK_MIN
    assert factorial_mod(n, m) == 0
    assert s <= max(taken) < s + k


def test_factorial_mod_rejects_bad_arguments():
    with pytest.raises(DomainError):
        factorial_mod(5, 0)
    with pytest.raises(DomainError):
        factorial_mod(-1, 5)


def test_smallest_divisor_values():
    assert smallest_divisor(2) is None
    assert smallest_divisor(9) == 3
    assert smallest_divisor(91) == 7
    assert smallest_divisor(97) is None
    with pytest.raises(DomainError, match="n >= 2"):
        smallest_divisor(1)


def test_trial_division_matches_sieve():
    for n in range(2, 2001):
        assert (smallest_divisor(n) is None) == PRIME[n]


def test_smallest_divisor_is_minimal_and_divides():
    for n in range(2, 500):
        d = smallest_divisor(n)
        if d is not None:
            assert n % d == 0
            assert all(n % e for e in range(2, d))


@pytest.mark.parametrize(
    "n,residue,is_prime", [(2, 1, True), (5, 4, True), (6, 0, False), (4, 2, False)]
)
def test_wilson_test_values(n, residue, is_prime):
    v = wilson_test(n)
    assert (v.n, v.wilson_residue, v.is_prime, v.oracle_agrees) == (
        n,
        residue,
        is_prime,
        True,
    )


def test_wilson_test_matches_sieve():
    for n in range(2, 2001):
        v = wilson_test(n)
        assert v.is_prime == PRIME[n]
        assert v.oracle_agrees


def test_wilson_test_rejects_small_n():
    with pytest.raises(DomainError, match="n >= 2"):
        wilson_test(1)


# wilson_test is a one-element wilson_sweep, so the sweep is checked
# against the primitives it is built from, never against wilson_test.


def _assert_sweep_matches_primitives(lo, hi):
    verdicts = list(wilson_sweep(lo, hi))
    assert [v.n for v in verdicts] == list(range(lo, hi + 1))
    for v in verdicts:
        assert v.wilson_residue == factorial_mod(v.n - 1, v.n)
        assert v.is_prime == (smallest_divisor(v.n) is None)
        assert v.oracle_agrees


@given(st.integers(2, 400), st.integers(0, 60))
def test_wilson_sweep_matches_factorial_mod_and_trial_division(lo, width):
    _assert_sweep_matches_primitives(lo, lo + width)


def test_wilson_sweep_at_2_and_4():
    def rows(lo, hi):
        return [
            (v.n, v.wilson_residue, v.is_prime, v.oracle_agrees) for v in wilson_sweep(lo, hi)
        ]

    assert rows(2, 2) == [(2, 1, True, True)]
    # 3! = 6 = 2 (mod 4): the only composite whose residue is not 0.
    assert rows(4, 4) == [(4, 2, False, True)]
    assert rows(2, 6) == [
        (2, 1, True, True),
        (3, 2, True, True),
        (4, 2, False, True),
        (5, 4, True, True),
        (6, 0, False, True),
    ]
    assert rows(4, 9) == [
        (4, 2, False, True),
        (5, 4, True, True),
        (6, 0, False, True),
        (7, 6, True, True),
        (8, 0, False, True),
        (9, 0, False, True),
    ]


def test_wilson_sweep_consults_trial_division_for_every_n(monkeypatch):
    asked = []

    def lying_oracle(n):
        asked.append(n)
        return n if PRIME[n] else None

    monkeypatch.setattr(modular, "smallest_divisor", lying_oracle)
    verdicts = list(wilson_sweep(2, 50))
    assert asked == list(range(2, 51))
    assert not any(v.oracle_agrees for v in verdicts)


def test_wilson_sweep_narrow_high_range():
    # 11 factors near 10**6 leave the prefix on the per-factor path; 32 make its
    # modulus wide enough for the blocked one, the case the blocking exists for.
    _assert_sweep_matches_primitives(999990, 1000000)
    lo, hi = 999000, 999031
    k = math.prod(range(lo, hi + 1)).bit_length() // (lo - 1).bit_length()
    assert k >= modular._BLOCK_MIN
    _assert_sweep_matches_primitives(lo, hi)


def test_wilson_sweep_empty_range_and_bad_start():
    with pytest.raises(DomainError, match=r"empty range: 7\.\.6"):
        next(wilson_sweep(7, 6))
    with pytest.raises(DomainError, match="n >= 2"):
        next(wilson_sweep(1, 5))


def _running_product_sweep(lo, hi):
    """Reference sweep: one running product over lo..hi, reduced once per n."""
    f = math.factorial(lo - 1) % math.prod(range(lo, hi + 1))
    for n in range(lo, hi + 1):
        residue = f % n
        yield (n, residue, residue == n - 1, (residue == n - 1) == PRIME[n])
        f *= n


_POWER_OF_TWO_WIDTHS = [2**k + d for k in range(10) for d in (-1, 0, 1) if 2**k + d > 0]


@given(
    st.one_of(st.just(2), st.integers(2, 3000)),
    st.one_of(st.integers(1, 300), st.sampled_from(_POWER_OF_TWO_WIDTHS)),
)
@example(2, 1)
@example(7, 1)
@example(2, 512)
@example(2, 513)
@example(1000, 511)
def test_wilson_sweep_matches_running_product(lo, width):
    hi = lo + width - 1
    assert [tuple(v) for v in wilson_sweep(lo, hi)] == list(_running_product_sweep(lo, hi))


def test_wilson_sweep_sample_matches_per_n_factorial_mod():
    by_n = {v.n: v for v in wilson_sweep(2, 50000)}
    assert sorted(by_n) == list(range(2, 50001))
    for n in random.Random(2014).sample(range(2, 50001), 64):
        v = by_n[n]
        assert v.wilson_residue == factorial_mod(n - 1, n)
        assert v.is_prime == PRIME[n]
        assert v.oracle_agrees


def test_wilson_sweep_yields_before_the_top_right_reduction(monkeypatch):
    # Every product in the tree comes from modular.prod; record each reduction by one.
    reductions = []

    class Product(int):
        def __rmod__(self, dividend):
            reductions.append((dividend, int(self)))
            return dividend % int(self)

    monkeypatch.setattr(modular, "prod", lambda values: Product(math.prod(values)))
    sweep = wilson_sweep(2, 4097)
    assert next(sweep) == (2, 1, True, True)
    # Only the left spine has been reduced, each time from 1! = 1.
    assert reductions and all(dividend == 1 for dividend, _ in reductions)
    before = len(reductions)
    assert [tuple(v) for v in sweep] == list(_running_product_sweep(2, 4097))[1:]
    half = math.prod(range(2, 4098)).bit_length() // 2
    assert max(m.bit_length() for _, m in reductions[before:]) >= half - 64


def test_wilson_sweep_leaves_are_the_range_itself():
    # The tree's leaf level is range(2, 20002), not a list copy of it.  The traced peak of
    # the first next() reads 1.29-1.33 MB without a copy and 2.01-2.12 MB with one
    # (CPython 3.10-3.13).
    tracemalloc.start()
    try:
        next(wilson_sweep(2, 20001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7e6, peak


def test_binomial_row_mod_example():
    report = binomial_row_mod(5)
    assert report.modulus == 5
    assert [e.residue for e in report.entries] == [1, 4, 1, 4, 1]
    assert [e.expected for e in report.entries] == [1, 4, 1, 4, 1]
    assert report.holds


def test_binomial_row_mod_all_primes():
    for p in range(2, 201):
        if not PRIME[p]:
            continue
        report = binomial_row_mod(p)
        assert report.holds
        assert len(report.entries) == p
        assert all(0 <= e.residue < p for e in report.entries)


def test_binomial_row_mod_rejects_composite_with_witness():
    with pytest.raises(DomainError, match=r"9 is not prime \(divisible by 3\)"):
        binomial_row_mod(9)


def test_fermat_check_all_primes():
    for p in range(2, 201):
        if not PRIME[p]:
            continue
        report = fermat_check(p)
        assert report.holds
        assert len(report.entries) == p - 1
        assert all(e.residue == 1 for e in report.entries)


def test_fermat_check_rejects_composite():
    with pytest.raises(DomainError, match="divisible by 7"):
        fermat_check(49)


def test_power_sum_mod_values():
    report = power_sum_mod(5)
    assert report.entries == (modular.CongruenceEntry(4, 4, 4),)
    assert report.holds
    report = power_sum_mod(3)
    assert report.entries == (modular.CongruenceEntry(2, 2, 2),)


def test_power_sum_mod_residue_is_p_minus_1():
    for p in range(3, 501, 2):
        if not PRIME[p]:
            continue
        report = power_sum_mod(p)
        assert report.holds
        assert report.entries[0].residue == p - 1
        assert report.entries[0].expected == p - 1


def test_power_sum_mod_does_not_read_the_wilson_residue(monkeypatch):
    # Its expected value is the paper's count of p - 1 ones, not (p-1)! mod p.
    honest = {p: power_sum_mod(p) for p in (3, 5, 7, 13)}
    monkeypatch.setattr(modular, "factorial_mod", _one_past_factorial_mod(modular.factorial_mod))
    assert {p: power_sum_mod(p) for p in honest} == honest
    assert identity_at_zero_mod(7).holds is False  # the lie is live where it is read


def test_power_sum_mod_rejects_two_and_composites():
    with pytest.raises(DomainError, match="p - 1 even"):
        power_sum_mod(2)
    with pytest.raises(DomainError, match="divisible by 3"):
        power_sum_mod(15)


@pytest.mark.parametrize("p,expected", [(3, 2), (5, 24), (7, 720)])
def test_alternating_power_sum_at_zero_values(p, expected):
    assert alternating_power_sum_at_zero(p) == expected


def test_alternating_power_sum_equals_factorial():
    for p in ODD_PRIMES_SMALL:
        assert alternating_power_sum_at_zero(p) == factorial(p - 1)


def test_even_exponent_absorbs_inner_sign():
    # (-i)**(p-1) == i**(p-1) for odd p; checked, not assumed.
    for p in ODD_PRIMES_SMALL:
        rewritten = sum(
            (-1) ** i * math.comb(p - 1, i) * i ** (p - 1) for i in range(p)
        )
        assert alternating_power_sum_at_zero(p) == rewritten


def test_alternating_power_sum_matches_difference_sum_at_zero():
    # The difference sum at x = 0, n = p-1, written out with stdlib comb and
    # builtin pow: the package's pointwise route is not on this side.
    for p in ODD_PRIMES_SMALL:
        literal = sum((-1) ** i * math.comb(p - 1, i) * (-i) ** (p - 1) for i in range(p))
        assert alternating_power_sum_at_zero(p) == literal


def test_identity_at_zero_mod_values():
    report = identity_at_zero_mod(5)
    assert report.entries == (modular.CongruenceEntry(0, 4, 4),)
    assert (report.exact_lhs, report.exact_expected) == (24, 24)
    assert report.holds


def test_identity_at_zero_mod_all_small_primes():
    for p in ODD_PRIMES_SMALL:
        report = identity_at_zero_mod(p)
        assert report.holds
        assert report.entries[0].residue == p - 1
        assert report.exact_lhs == report.exact_expected == factorial(p - 1)


def test_identity_at_zero_mod_rejects_bad_p():
    with pytest.raises(DomainError, match="p - 1 even"):
        identity_at_zero_mod(2)
    with pytest.raises(DomainError, match="divisible by 3"):
        identity_at_zero_mod(9)


def test_identity_at_zero_mod_raises_on_arithmetic_break(monkeypatch):
    # A broken exact sum is reported as a violation, not raised.  The lie
    # keeps the sum's residue mod p, so only the exact comparison sees it.
    real = modular.alternating_power_sum_at_zero
    monkeypatch.setattr(modular, "alternating_power_sum_at_zero", lambda p: real(p) + p)
    report = identity_at_zero_mod(5)
    assert report.entries == (modular.CongruenceEntry(0, 4, 4),)
    assert (report.exact_lhs, report.exact_expected) == (29, 24)
    assert report.holds is False


def test_residues_normalized_across_reports():
    for p in (3, 5, 13, 31):
        for report in (
            binomial_row_mod(p),
            fermat_check(p),
            power_sum_mod(p),
            identity_at_zero_mod(p),
        ):
            assert all(0 <= e.residue < p for e in report.entries)
            assert all(0 <= e.expected < p for e in report.entries)


def _row_4_lies_at_2(real):
    # the true row of C(4, i) is (1, 4, 6, 4, 1)
    return lambda n: (1, 4, 7, 4, 1)


def _lie_at_base_3(real):
    return lambda b, e, m: (real(b, e, m) + 2) % m if b == 3 else real(b, e, m)


def _one_past_factorial_mod(real):
    return lambda n, m: (real(n, m) + 1) % m


@pytest.mark.parametrize(
    "report_of,primitive,lie,p,index,entry",
    [
        (binomial_row_mod, "binomial_row", _row_4_lies_at_2, 5, 2, (2, 2, 1)),
        (fermat_check, "mod_pow", _lie_at_base_3, 7, 2, (3, 3, 1)),
        (power_sum_mod, "mod_pow", _lie_at_base_3, 7, 0, (6, 1, 6)),
        (identity_at_zero_mod, "factorial_mod", _one_past_factorial_mod, 7, 0, (0, 6, 0)),
    ],
    ids=["binom", "fermat", "power-sum", "eq1"],
)
def test_congruence_verdict_follows_its_entries(
    monkeypatch, report_of, primitive, lie, p, index, entry
):
    # A lying primitive must surface as a wrong entry and a false verdict.
    honest = report_of(p)
    monkeypatch.setattr(modular, primitive, lie(getattr(modular, primitive)))
    report = report_of(p)
    assert honest.holds is True
    assert report.holds is False
    assert report.entries[index] == entry != honest.entries[index]
    rest = slice(index + 1, None)
    assert report.entries[:index] + report.entries[rest] == (
        honest.entries[:index] + honest.entries[rest]
    )


# Negative controls: the arithmetic of each link of the chain at composite n, with the
# primality guards lifted.  They pin where the derivation uses primality.

COMPOSITES_500 = [n for n in range(4, 501) if not PRIME[n]]


@pytest.fixture
def unguarded(monkeypatch):
    monkeypatch.setattr(modular, "_require_prime", lambda p: None)
    monkeypatch.setattr(modular, "_require_odd_prime", lambda p: None)


def test_binomial_and_fermat_links_fail_at_every_composite(unguarded):
    for n in COMPOSITES_500:
        assert not binomial_row_mod(n).holds, n
        assert not fermat_check(n).holds, n


def test_identity_at_zero_holds_at_every_composite(unguarded):
    # An identity true for every n holds at a composite too.
    for n in (n for n in COMPOSITES_500 if n <= 300):
        assert identity_at_zero_mod(n).holds, n


def test_power_sum_is_n_minus_1_at_odd_primes_only(unguarded):
    # Giuga's conjecture, checked this far.
    for n in range(3, 501):
        report = power_sum_mod(n)
        odd_prime = PRIME[n] and n % 2 == 1
        assert (report.entries[0].residue == n - 1) == odd_prime, n
        assert report.holds == odd_prime, n


def test_alternating_power_sum_is_taken_at_zero(monkeypatch):
    # The identity does not depend on x, so no value can show a sum taken at x = 1.
    calls = []
    real = modular.eval_difference_sum

    def spy(n, x):
        calls.append((n, x))
        return real(n, x)

    monkeypatch.setattr(modular, "eval_difference_sum", spy)
    assert alternating_power_sum_at_zero(13) == factorial(12)
    assert calls == [(12, 0)]
