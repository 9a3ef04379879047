"""Congruences mod a prime and the Wilson factorial primality test.

The chain verified here connects the alternating difference sum to
primality: at x = 0 the sum is an exact integer identity; reducing it mod
an odd prime p turns the binomial weights into an alternating +-1 pattern,
the even power kills the inner signs, and each nonzero base contributes 1
by the Fermat residue, leaving (p-1)! = p-1 (mod p).  Each link in that
chain is a separately checkable report.

Residues are always normalized to [0, m), so every congruence check is a
plain equality of canonical representatives, and ``_congruence`` derives
every report's verdict from its entries and any exact values it carries.
Results are immutable NamedTuples; ``mod_pow`` is the built-in ``pow``
behind two refusals.  Trial division serves as the independent primality
oracle throughout.
"""

from __future__ import annotations

from math import isqrt, prod
from typing import Iterator, NamedTuple

from .exact import DomainError, binomial_row, factorial

__all__ = [
    "CongruenceEntry",
    "CongruenceReport",
    "PrimalityVerdict",
    "alternating_power_sum_at_zero",
    "binomial_row_mod",
    "factorial_mod",
    "fermat_check",
    "identity_at_zero_mod",
    "mod_pow",
    "power_sum_mod",
    "smallest_divisor",
    "trial_division",
    "wilson_sweep",
    "wilson_test",
]


class CongruenceEntry(NamedTuple):
    index: int
    residue: int
    expected: int


class CongruenceReport(NamedTuple):
    """One modular check; holds iff residue == expected for every entry.

    A check that first compares exact integers before reducing them (the
    identity at x = 0) also carries those two values, and holds only if
    they are equal as well.
    """

    check: str
    modulus: int
    entries: tuple[CongruenceEntry, ...]
    holds: bool
    exact_lhs: int | None = None
    exact_expected: int | None = None


class PrimalityVerdict(NamedTuple):
    """Wilson residue verdict: is_prime iff (n-1)! = n-1 (mod n)."""

    n: int
    wilson_residue: int
    is_prime: bool
    oracle_agrees: bool


def _require_modulus(m: int) -> None:
    if m < 2:
        raise DomainError(f"modulus must be at least 2, got {m}")


def mod_pow(base: int, exp: int, m: int) -> int:
    """base**exp mod m in [0, m); a negative exp is refused, not inverted."""
    _require_modulus(m)
    if exp < 0:
        raise DomainError(f"exponent must be non-negative, got {exp}")
    return pow(base, exp, m)


def factorial_mod(n: int, m: int) -> int:
    """n! mod m, reducing after every multiplication; n! is never materialized."""
    _require_modulus(m)
    if n < 0:
        raise DomainError(f"factorial is undefined for negative n, got {n}")
    out = 1
    for i in range(2, n + 1):
        out = out * i % m
    return out


def smallest_divisor(n: int) -> int | None:
    """Smallest divisor d with 2 <= d <= sqrt(n), or None when n is prime."""
    if n < 2:
        raise DomainError(f"primality is tested for integers at least 2 (n >= 2), got {n}")
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return d
    return None


def trial_division(n: int) -> bool:
    """True iff n >= 2 has no divisor d with 2 <= d <= sqrt(n)."""
    return smallest_divisor(n) is None


def wilson_sweep(lo: int, hi: int) -> Iterator[PrimalityVerdict]:
    """Wilson verdicts for every n in lo..hi, in ascending order.

    One running product serves the whole range: f starts as (lo-1)! mod M,
    with M the product of lo..hi, and is multiplied by n after each step.
    Every n divides M, so f mod n is (n-1)! mod n for each n in turn; no n
    is skipped, prime or composite, and trial division checks every one.
    Costs lo-2 multiplications mod M, then one multiplication and one
    reduction per n on an integer of about log2(hi!) bits.  A range that
    starts at 2 has an empty prefix, so M is never formed.
    """
    if lo < 2:
        raise DomainError(
            f"wilson test needs n >= 2 (at least 2, so a range must start at 2), got {lo}"
        )
    if hi < lo:
        return
    f = 1 if lo == 2 else factorial_mod(lo - 1, prod(range(lo, hi + 1)))
    for n in range(lo, hi + 1):
        residue = f % n
        is_prime = residue == n - 1
        yield PrimalityVerdict(
            n=n,
            wilson_residue=residue,
            is_prime=is_prime,
            oracle_agrees=is_prime == trial_division(n),
        )
        f *= n


def wilson_test(n: int) -> PrimalityVerdict:
    """Primality verdict from the factorial residue (n-1)! mod n.

    The residue equals n-1 exactly for primes, so this is a complete (if
    slow, O(n) multiplications) primality test; oracle_agrees records
    whether trial division reaches the same verdict.  It is the
    one-element wilson_sweep, whose prefix is factorial_mod(n-1, n).
    """
    return next(wilson_sweep(n, n))


def _require_prime(p: int) -> None:
    d = smallest_divisor(p)
    if d is not None:
        raise DomainError(f"{p} is not prime (divisible by {d})")


def _require_odd_prime(p: int) -> None:
    if p == 2:
        raise DomainError("p = 2 is excluded: the derivation needs p - 1 even")
    _require_prime(p)


def _congruence(check: str, p: int, entries: tuple, **exact: int) -> CongruenceReport:
    """The report on entries mod p: it holds iff every residue equals its expected
    value and the exact values, where given, are equal."""
    holds = all(e.residue == e.expected for e in entries)
    holds = holds and exact.get("exact_lhs") == exact.get("exact_expected")
    return CongruenceReport(check, p, entries, holds, **exact)


def binomial_row_mod(p: int) -> CongruenceReport:
    """Residues of C(p-1, i) mod p against the alternating pattern (-1)^i.

    Expected residue is 1 for even i and p-1 for odd i (the two collapse
    for p = 2).  Binomials are computed exactly, then reduced.
    """
    _require_prime(p)
    entries = tuple(
        CongruenceEntry(i, b % p, 1 if i % 2 == 0 else p - 1)
        for i, b in enumerate(binomial_row(p - 1))
    )
    return _congruence("binomial-row", p, entries)


def fermat_check(p: int) -> CongruenceReport:
    """Residues i**(p-1) mod p for 1 <= i <= p-1; all must be 1."""
    _require_prime(p)
    entries = tuple(CongruenceEntry(i, mod_pow(i, p - 1, p), 1) for i in range(1, p))
    return _congruence("fermat", p, entries)


def power_sum_mod(p: int) -> CongruenceReport:
    """sum_{i=0}^{p-1} i**(p-1) mod p against (p-1)! mod p, for odd prime p.

    For genuine odd primes both sides equal p-1: the sum is p-1 ones.
    """
    _require_odd_prime(p)
    total = 0
    for i in range(p):
        total = (total + mod_pow(i, p - 1, p)) % p
    entries = (CongruenceEntry(p - 1, total, factorial_mod(p - 1, p)),)
    return _congruence("power-sum", p, entries)


def alternating_power_sum_at_zero(p: int) -> int:
    """Exact integer value of sum_{i=0}^{p-1} (-1)^i C(p-1, i) (-i)**(p-1).

    This is the difference-sum identity instantiated at x = 0 with n = p-1,
    so the value equals (p-1)!.  Each (-i)**(p-1) is computed literally
    (negate, then power); the even-exponent rewrite to i**(p-1) is a claim
    the test suite checks, not an assumption baked in here.
    """
    _require_odd_prime(p)
    row = binomial_row(p - 1)
    total = 0
    for i in range(p):
        term = row[i] * (-i) ** (p - 1)
        total = total + term if i % 2 == 0 else total - term
    return total


def identity_at_zero_mod(p: int) -> CongruenceReport:
    """The x = 0 instance of the difference-sum identity, reduced mod p.

    The exact (unreduced) sum must equal (p-1)!, and its one entry compares
    the sum mod p with factorial_mod(p-1, p).  The report carries both
    exact values and holds only if both comparisons do; a failure of
    either means broken arithmetic, reported as a violation.
    """
    lhs = alternating_power_sum_at_zero(p)
    expected = factorial(p - 1)
    entries = (CongruenceEntry(0, lhs % p, factorial_mod(p - 1, p)),)
    return _congruence("identity-at-zero", p, entries, exact_lhs=lhs, exact_expected=expected)
