"""Acceptance gate: eight criteria, one printed PASS/FAIL line each, and one for
criterion 8 per launcher of the CLI process.

Every comparison is exact equality; the tolerance is zero everywhere.
Elapsed time per criterion is reported, not asserted.  Run with

    pytest tests/test_acceptance.py -s

to see the lines on passing runs; on failures pytest shows them anyway.
The random seed is drawn once per run and printed, so any failing run
can be reproduced exactly.
"""

import json
import math
import random
import subprocess
import sys
import time

import test_cli
from poly_oracle import backward_difference

from diffwilson.exact import POLY_ZERO, factorial, monomial, parse_rational, poly_const
from diffwilson.identity import (
    eval_difference_sum,
    eval_lower_power_sum,
    sample_rationals,
    symbolic_difference_poly,
    symbolic_lower_power_poly,
)
from diffwilson.modular import (
    alternating_power_sum_at_zero,
    binomial_row_mod,
    fermat_check,
    identity_at_zero_mod,
    power_sum_mod,
    smallest_divisor,
    wilson_sweep,
    wilson_test,
)

SEED = random.SystemRandom().randrange(2**64)

_IDENTITY_VIOLATION_SNIPPET = """
from fractions import Fraction
from unittest import mock
from diffwilson import cli
with mock.patch.object(cli, "eval_difference_sum", lambda n, x: Fraction(0)):
    raise SystemExit(cli.main(["identity", "--n", "3", "--x", "1"]))
"""


def _report(k: int, label: str, ok: bool, t0: float, extra: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {k}: {label}"
    if extra:
        line += f" ({extra})"
    line += f" [{time.perf_counter() - t0:.1f}s]"
    print(line)
    assert ok, line


def _cli(launcher: list[str], args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([*launcher, *args], capture_output=True, text=True)


def test_criterion_1_difference_sum_pointwise():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    for n in range(121):
        target = factorial(n)
        for x in sample_rationals(rng, 25):
            ok = ok and eval_difference_sum(n, x) == target
    _report(
        1,
        "difference sum equals n! at 25 random rationals per n, n <= 120",
        ok,
        t0,
        f"seed={SEED}",
    )


def test_criterion_2_difference_sum_symbolic():
    t0 = time.perf_counter()
    ok = all(
        symbolic_difference_poly(n) == poly_const(factorial(n)) for n in range(201)
    )
    _report(2, "symbolic expansion collapses to the constant n!, n <= 200", ok, t0)


def test_criterion_3_lower_power_sums_vanish():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    for n in range(1, 61):
        for j in range(1, n + 1):
            ok = ok and symbolic_lower_power_poly(n, j) == POLY_ZERO
            for x in sample_rationals(rng, 5):
                ok = ok and eval_lower_power_sum(n, j, x) == 0
    ok = ok and all(symbolic_lower_power_poly(200, j) == POLY_ZERO for j in (1, 100, 200))
    _report(
        3,
        "lower-power sums vanish symbolically and at 5 random points, 1 <= j <= n <= 60,"
        " and symbolically at n = 200 for j in 1, 100, 200",
        ok,
        t0,
        f"seed={SEED}",
    )


def test_criterion_4_operator_equivalence():
    t0 = time.perf_counter()
    ok = all(
        backward_difference(monomial(n), n) == symbolic_difference_poly(n)
        for n in range(61)
    )
    _report(4, "n-fold backward difference of X**n equals the expansion, n <= 60", ok, t0)


def test_criterion_5_wilson_sweep():
    t0 = time.perf_counter()
    primes = 0
    agree = True
    per_n = []
    for n in range(2, 10001):
        v = wilson_test(n)
        per_n.append(v)
        agree = agree and v.oracle_agrees
        primes += v.is_prime
    composites = 9999 - primes
    swept = list(wilson_sweep(2, 10000)) == per_n
    ok = agree and primes == 1229 and composites == 8770 and swept
    _report(
        5,
        "wilson residue agrees with trial division for 2 <= n <= 10000,"
        " per n and in one sweep",
        ok,
        t0,
        f"primes={primes} composites={composites} sweep_equal={swept}",
    )


def test_criterion_6_congruence_chain():
    t0 = time.perf_counter()
    ps = [p for p in range(2, 2001) if smallest_divisor(p) is None]
    ok = all(binomial_row_mod(p).holds and fermat_check(p).holds for p in ps)
    for p in ps[1:]:
        r = power_sum_mod(p)
        ok = ok and r.holds and r.entries[0].residue == p - 1
    for p in ps[1:]:
        if p > 200:
            break
        ok = ok and identity_at_zero_mod(p).holds
        ok = ok and alternating_power_sum_at_zero(p) == factorial(p - 1)
    _report(
        6,
        "congruence chain holds for primes <= 2000, power sum = p-1 for odd p,"
        " exact LHS = (p-1)! for odd p <= 200",
        ok,
        t0,
        f"{len(ps)} primes",
    )


def test_criterion_7_cross_module_consistency():
    t0 = time.perf_counter()
    ok = True
    for p in range(3, 201, 2):
        if smallest_divisor(p) is not None:
            continue
        literal = sum((-1) ** i * math.comb(p - 1, i) * (-i) ** (p - 1) for i in range(p))
        ok = ok and alternating_power_sum_at_zero(p) == literal
    _report(
        7,
        "the chain's x=0 sum equals a literal stdlib sum, odd primes p <= 200",
        ok,
        t0,
    )


def test_criterion_8_cli_contract(launcher):
    t0 = time.perf_counter()
    ok = True

    for fname, argv in test_cli.GOLDEN_CASES:
        proc = _cli(launcher, argv)
        ok = ok and proc.returncode == 0
        ok = ok and proc.stdout == (test_cli.GOLDEN_DIR / fname).read_text()

    proc = _cli(launcher, ["congruence", "binom", "9"])
    ok = ok and proc.returncode == 2 and "divisible by 3" in proc.stderr

    proc = subprocess.run(
        [sys.executable, "-c", _IDENTITY_VIOLATION_SNIPPET],
        capture_output=True,
        text=True,
    )
    ok = ok and proc.returncode == 1 and "status: violated" in proc.stdout

    proc = _cli(launcher, ["wilson-range", "2", "100", "--json"])
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    ok = ok and proc.returncode == 0 and len(rows) == 99
    ok = ok and sum(r["is_prime"] for r in rows) == 25

    proc = _cli(launcher, ["identity", "--n", "4", "--seed", str(SEED), "--json"])
    payload = json.loads(proc.stdout)
    ok = ok and proc.returncode == 0 and payload["rhs"] == "24/1"
    ok = ok and all(parse_rational(r["lhs"]) == 24 for r in payload["results"])

    _report(8, "CLI goldens, exit codes 0/1/2, JSON round-trip, 25 primes to 100", ok, t0,
            " ".join(launcher[1:]))
