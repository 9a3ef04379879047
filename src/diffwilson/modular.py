"""Congruences mod a prime and the Wilson factorial primality test.

The chain verified here connects the alternating difference sum to primality: at x = 0
the sum is an exact integer identity, computed by the identity module's pointwise route;
reducing it mod an odd prime p turns the binomial weights into an alternating +-1
pattern, the even power kills the inner signs, and each nonzero base contributes 1 by
the Fermat residue, leaving (p-1)! = p-1 (mod p).  Each link in that chain is a
separately checkable report.

Residues are always normalized to [0, m), so every congruence check is a
plain equality of canonical representatives, and ``_congruence`` derives
every report's verdict from its entries and any exact values it carries.
Results are immutable NamedTuples; ``mod_pow`` is the built-in ``pow``
behind two refusals.  ``smallest_divisor``, by trial division, serves as the
independent primality oracle throughout.

``wilson_sweep`` gives the factorial residue of every n in a range from one
accumulating remainder tree, walked depth first by recursion; ``wilson_test``
is its one-element case.  CPython 3.11 to 3.13 divides big integers by schoolbook, so
the top of the tree costs time quadratic in the range's width, not quasi-linear.
"""

from __future__ import annotations

from math import isqrt, prod
from typing import Iterator, NamedTuple

from .exact import DomainError, binomial_row, factorial
from .identity import eval_difference_sum

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
    "wilson_sweep",
    "wilson_test",
]


class CongruenceEntry(NamedTuple):
    index: int
    residue: int
    expected: int


class CongruenceReport(NamedTuple):
    """One unnamed modular check; holds iff residue == expected for every entry.

    A check that first compares exact integers before reducing them (the
    identity at x = 0) also carries those two values, and holds only if
    they are equal as well.
    """

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


# Below about 16 factors per block, multiplying a block first costs more than the
# reductions it saves (timed at n = 10**5 and 10**6, CPython 3.11.7).
_BLOCK_MIN = 16
# A narrow modulus is tested for 0 once per chunk of factors: for the prime 999983 a test
# after every factor cost about 7%, one per 1024 factors 1.5%, one per 4096 0.2% (3.11.7).
_CHUNK = 4096


def factorial_mod(n: int, m: int) -> int:
    """n! mod m; n! is never materialized.

    A modulus fewer than _BLOCK_MIN factors of n wide is reduced after every
    multiplication.  A wider one, such as the product of a wilson_sweep range, is reduced
    once per block of k = log2(m) / log2(n) consecutive factors, multiplied together
    first, so the wide modulus divides n/k products instead of n.  A zero product stays 0,
    so the loop returns at the end of the block (or of the _CHUNK factors) where it first
    is: at the Kempner number S(m) = min{k : m | k!}, for most m its largest prime factor.
    """
    _require_modulus(m)
    if n < 0:
        raise DomainError(f"factorial is undefined for negative n, got {n}")
    out = 1
    k = m.bit_length() // max(n, 1).bit_length()
    step = k if k >= _BLOCK_MIN else _CHUNK
    for i in range(2, n + 1, step):
        block = range(i, min(i + step, n + 1))
        if k >= _BLOCK_MIN:
            out = out * prod(block) % m
        else:
            for j in block:
                out = out * j % m
        if not out:
            return 0
    return out


def smallest_divisor(n: int) -> int | None:
    """Smallest divisor d with 2 <= d <= sqrt(n), or None when n is prime."""
    if n < 2:
        raise DomainError(f"primality is tested for integers at least 2 (n >= 2), got {n}")
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return d
    return None


def _descend(levels: list, depth: int, i: int, f: int) -> Iterator[int]:
    """Left to right, the residues at the leaves below node i of levels[depth], given f."""
    if not depth:
        yield f
        return
    below, j = levels[depth - 1], 2 * i
    yield from _descend(levels, depth - 1, j, f % below[j])
    if j + 1 < len(below):  # computed only once the left subtree is exhausted
        yield from _descend(levels, depth - 1, j + 1, f * below[j] % below[j + 1])


def wilson_sweep(lo: int, hi: int) -> Iterator[PrimalityVerdict]:
    """Wilson verdicts for every n in lo..hi, in ascending order.

    An accumulating remainder tree (Costa, Gerbicz and Harvey, "A search for
    Wilson primes", Math. Comp. 83 (2014)) serves the whole range.  One
    product tree over lo..hi holds both the values and the moduli; its leaf
    level is the range lo..hi itself, not a list copy of it.  Walked
    top-down from f = (lo-1)! mod prod(lo..hi), a node over a..b receives
    (a-1)! mod prod(a..b): its left child f % prod(left) and its right child
    f * prod(left) % prod(right), so each leaf n receives (n-1)! mod n.  No
    n is skipped, prime or composite, and smallest_divisor checks every one.
    The walk recurses depth-first, left subtree before right, and computes a
    right child only once the left subtree is exhausted, so verdicts stream
    in ascending order and the first does not wait for the large reductions
    at the top.  The first next() refuses an empty range (hi < lo), then lo < 2.

    Costs factorial_mod(lo-1, prod(lo..hi)) first, at most lo-2 multiplications and
    fewer once prod(lo..hi) divides (lo-1)! (factorial_mod(1, m) = 1 when lo = 2).  The
    tree has about log2(hi-lo+1) levels of about log2(hi!/(lo-1)!) bits each, and the
    walk reduces each level once.  CPython 3.11 to 3.13 divides big integers by
    schoolbook, so the reductions at the top of the tree, and a sweep from 2, still take
    time quadratic in the width of the range: 2..10**4 took 0.06 s, 2..5*10**4 1.0 s.
    """
    if hi < lo:
        raise DomainError(f"empty range: {lo}..{hi}")
    if lo < 2:
        raise DomainError(
            f"wilson test needs n >= 2 (at least 2, so a range must start at 2), got {lo}"
        )
    levels = [range(lo, hi + 1)]  # the leaves, then pairwise products up to the root
    while len(levels[-1]) > 1:
        row = levels[-1]
        levels.append([prod(row[i:i + 2]) for i in range(0, len(row), 2)])
    f = factorial_mod(lo - 1, levels[-1][0])
    for n, f in enumerate(_descend(levels, len(levels) - 1, 0, f), lo):
        is_prime = f == n - 1
        yield PrimalityVerdict(
            n=n,
            wilson_residue=f,
            is_prime=is_prime,
            oracle_agrees=is_prime == (smallest_divisor(n) is None),
        )


def wilson_test(n: int) -> PrimalityVerdict:
    """Primality verdict from the factorial residue (n-1)! mod n.

    The residue equals n-1 exactly for primes, so this is a complete (if slow: n-2
    multiplications for a prime n, about S(n)-1 for a composite, see factorial_mod)
    primality test; oracle_agrees records whether smallest_divisor reaches the same
    verdict.  It is the one-element wilson_sweep, whose prefix is factorial_mod(n-1, n).
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


def _congruence(p: int, entries: tuple, **exact: int) -> CongruenceReport:
    """Holds iff every residue equals its expected value and any exact values are equal."""
    holds = all(e.residue == e.expected for e in entries)
    holds = holds and exact.get("exact_lhs") == exact.get("exact_expected")
    return CongruenceReport(p, entries, holds, **exact)


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
    return _congruence(p, entries)


def fermat_check(p: int) -> CongruenceReport:
    """Residues i**(p-1) mod p for 1 <= i <= p-1; all must be 1."""
    _require_prime(p)
    entries = tuple(CongruenceEntry(i, mod_pow(i, p - 1, p), 1) for i in range(1, p))
    return _congruence(p, entries)


def power_sum_mod(p: int) -> CongruenceReport:
    """sum_{i=0}^{p-1} i**(p-1) mod p against p-1, for odd prime p.

    The paper's count: by Fermat each nonzero base contributes 1, so the sum is p-1 ones.
    """
    _require_odd_prime(p)
    total = sum(mod_pow(i, p - 1, p) for i in range(p)) % p
    return _congruence(p, (CongruenceEntry(p - 1, total, p - 1),))


def alternating_power_sum_at_zero(p: int) -> int:
    """Exact integer value of sum_{i=0}^{p-1} (-1)^i C(p-1, i) (-i)**(p-1).

    This is the difference-sum identity instantiated at x = 0 with n = p-1, so the
    value equals (p-1)!: eval_difference_sum(p - 1, 0), whose term (0 - i*1)**(p-1)
    computes each (-i)**(p-1) literally.  The even-exponent rewrite to i**(p-1) is a
    claim the test suite checks, not an assumption baked in here.
    """
    _require_odd_prime(p)
    return eval_difference_sum(p - 1, 0).numerator


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
    return _congruence(p, entries, exact_lhs=lhs, exact_expected=expected)
