"""Command-line surface for the identity and congruence checks.

Usage:
    diffwilson identity --n 3 --x 7
    diffwilson identity --n 5 --trials 10 --seed 42 --symbolic
    diffwilson lower-power --n 3 --j 1 --x 2
    diffwilson wilson 97
    diffwilson wilson-range 2 100
    diffwilson congruence binom 5
    diffwilson difftable --degree 2 --points 5

Every subcommand accepts --json; range sweeps stream line-delimited JSON,
one object per n, in ascending order.  --x, --trials, --seed and
--symbolic belong to identity and lower-power (--trials and --seed only
when --x is omitted), and --max-wilson to wilson and wilson-range; any
other use of them exits 2.
Numeric parameters are exact integers or num/den rationals;
floating-point literals are rejected.  A negative num/den point takes the
= form, --x=-3/7, because argparse reads a separate -3/7 as an option.
Integers serialize as decimal strings and rationals as "num/den" strings,
so values survive any JSON consumer losslessly.

Exit codes: 0 all checks hold; 1 a mathematically guaranteed identity
failed, which signals an implementation bug, never a usage problem;
2 usage error, from argparse or any DomainError (every library and flag
refusal); 141 (128 + SIGPIPE) the reader closed stdout before the output
ended, e.g. ``diffwilson wilson-range 2 200000 | head -2``.  (A "status":
"error" payload value is reserved; usage errors are reported on stderr
instead.)
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Sequence

from .exact import (
    DomainError,
    Poly,
    factorial,
    format_poly,
    format_rational,
    parse_rational,
    poly_const,
)
from .identity import (
    VerificationResult,
    difference_table,
    sample_rationals,
    symbolic_difference_poly,
    symbolic_lower_power_poly,
    verify_difference_sum,
    verify_lower_power_sum,
)
from .modular import (
    PrimalityVerdict,
    binomial_row_mod,
    fermat_check,
    identity_at_zero_mod,
    power_sum_mod,
    wilson_sweep,
    wilson_test,
)

SCHEMA_VERSION = "1"
DEFAULT_TRIALS = 10
DEFAULT_MAX_WILSON = 10**7
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that hung up


def rational(text: str) -> Fraction:
    """argparse converter for exact 'num/den' or integer literals."""
    return parse_rational(text)


def _b(value: bool) -> str:
    return "true" if value else "false"


def _report(
    args: argparse.Namespace,
    check: str,
    params: dict,
    body: dict,
    lines: list[str],
    holds: bool,
) -> int:
    """Print one single-result report, JSON or text, and return its exit code."""
    status = "holds" if holds else "violated"
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION, "check": check, "params": params}
        print(json.dumps({**payload, **body, "holds": holds, "status": status}))
    else:
        print(*lines, f"status: {status}", sep="\n")
    return 0 if holds else 1


def _pick_points(args: argparse.Namespace, params: dict) -> list[Fraction]:
    """Single --x point, or --trials seeded random rationals with the seed echoed."""
    if args.x is not None:
        if args.trials is not None or args.seed is not None:
            raise DomainError("--trials and --seed apply only when --x is omitted")
        return [args.x]
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    if trials < 1:
        raise DomainError(f"--trials must be at least 1, got {trials}")
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().randrange(2**64)
    elif not 0 <= seed < 2**64:
        raise DomainError("--seed must fit in an unsigned 64-bit integer")
    params["trials"] = str(trials)
    params["seed"] = str(seed)
    return sample_rationals(random.Random(seed), trials)


def _cmd_identity(args: argparse.Namespace) -> int:
    params = {"n": str(args.n)}
    points = _pick_points(args, params)
    results = [verify_difference_sum(args.n, x) for x in points]
    poly = symbolic_difference_poly(args.n) if args.symbolic else None
    return _report_sum(args, "identity", params, results, poly)


def _cmd_lower_power(args: argparse.Namespace) -> int:
    params = {"n": str(args.n), "j": str(args.j)}
    points = _pick_points(args, params)
    results = [verify_lower_power_sum(args.n, args.j, x) for x in points]
    poly = symbolic_lower_power_poly(args.n, args.j) if args.symbolic else None
    return _report_sum(args, "lower-power", params, results, poly)


def _report_sum(
    args: argparse.Namespace,
    check: str,
    params: dict,
    results: list[VerificationResult],
    poly: Poly | None,
) -> int:
    """Report identity-style rows; the text header names every param except x."""
    header = " ".join([check] + [f"{k}={v}" for k, v in params.items()])
    rows = [
        (format_rational(r.x), format_rational(r.lhs), format_rational(r.rhs), r.holds)
        for r in results
    ]
    if args.x is not None:  # after the header, which shows x on its row only
        params["x"] = rows[0][0]
    body: dict = {
        "results": [{"x": x, "lhs": lhs, "rhs": rhs, "holds": ok} for x, lhs, rhs, ok in rows]
    }
    if len(rows) == 1:
        body["lhs"] = rows[0][1]
    body["rhs"] = rows[0][2]
    lines = [header]
    lines += [f"x={x}: lhs={lhs} rhs={rhs} holds={_b(ok)}" for x, lhs, rhs, ok in rows]
    holds = all(r.holds for r in results)
    if poly is not None:
        coefficients = format_poly(poly)
        sym_holds = poly == poly_const(results[0].rhs)  # must collapse to the rhs
        body["symbolic"] = {"coefficients": coefficients, "holds": sym_holds}
        joined = ", ".join(coefficients)
        lines.append(f"symbolic: coefficients=[{joined}] holds={_b(sym_holds)}")
        holds = holds and sym_holds
    return _report(args, check, params, body, lines, holds)


def _check_wilson_bound(n: int, bound: int) -> None:
    if n > bound:
        raise DomainError(
            f"n={n} exceeds --max-wilson={bound}: wilson n costs n-2 modular"
            " multiplications, and wilson-range lo hi one multiplication and one"
            " reduction per n on an integer of about log2(hi!) bits (about 15 KB"
            " at hi = 10**4, 2.3 MB at 10**6, 27 MB at 10**7); raise the bound"
            " explicitly if you mean it"
        )


def _verdict(v: PrimalityVerdict) -> tuple[dict, str]:
    """JSON fields and text line of one verdict, each value formatted once."""
    n, residue = str(v.n), str(v.wilson_residue)
    is_prime, agrees = v.is_prime, v.oracle_agrees
    fields = {"n": n, "residue": residue, "is_prime": is_prime, "oracle_agrees": agrees}
    line = f"n={n}: residue={residue} is_prime={_b(is_prime)} oracle_agrees={_b(agrees)}"
    return fields, line


def _cmd_wilson(args: argparse.Namespace) -> int:
    _check_wilson_bound(args.n, args.max_wilson)
    v = wilson_test(args.n)
    fields, line = _verdict(v)
    params = {"n": fields["n"]}
    return _report(args, "wilson", params, fields, [f"wilson {line}"], v.oracle_agrees)


def _cmd_wilson_range(args: argparse.Namespace) -> int:
    lo, hi = args.lo, args.hi
    if hi < lo:
        raise DomainError(f"empty range: {lo}..{hi}")
    _check_wilson_bound(hi, args.max_wilson)
    primes = 0
    all_agree = True
    for v in wilson_sweep(lo, hi):
        primes += v.is_prime
        all_agree = all_agree and v.oracle_agrees
        fields, line = _verdict(v)
        if args.json:
            print(json.dumps({"schema_version": SCHEMA_VERSION, "check": "wilson", **fields}))
        else:
            print(line)
    if not args.json:
        agree = "all" if all_agree else "MISMATCH"
        print(f"primes={primes} composites={hi - lo + 1 - primes} oracle_agrees={agree}")
        print(f"status: {'holds' if all_agree else 'violated'}")
    return 0 if all_agree else 1


_CONGRUENCE_KINDS = {
    "binom": binomial_row_mod,
    "fermat": fermat_check,
    "power-sum": power_sum_mod,
    "eq1": identity_at_zero_mod,
}


def _cmd_congruence(args: argparse.Namespace) -> int:
    report = _CONGRUENCE_KINDS[args.kind](args.p)
    p, modulus = str(args.p), str(report.modulus)
    body: dict = {"modulus": modulus}
    lines = [f"congruence {args.kind} p={p} modulus={modulus}"]
    if report.exact_lhs is not None:
        lhs, expected = str(report.exact_lhs), str(report.exact_expected)
        equal = report.exact_lhs == report.exact_expected
        body.update(exact_lhs=lhs, exact_expected=expected, exact_equal=equal)
        lines.append(f"exact: lhs={lhs} expected={expected} equal={_b(equal)}")
    body["entries"] = []
    for e in report.entries:
        i, residue, expected = str(e.index), str(e.residue), str(e.expected)
        body["entries"].append({"index": i, "residue": residue, "expected": expected})
        lines.append(f"i={i}: residue={residue} expected={expected}")
    params = {"kind": args.kind, "p": p}
    return _report(args, f"congruence-{args.kind}", params, body, lines, report.holds)


def _cmd_difftable(args: argparse.Namespace) -> int:
    degree, points = args.degree, args.points
    cols = difference_table(degree, points)
    expected = factorial(degree)
    holds = all(v == expected for v in cols[degree])
    columns = [[str(v) for v in col] for col in cols]
    d, pts, constant = str(degree), str(points), str(expected)
    body = {"columns": columns, "constant_column": d, "constant_value": constant}
    lines = [f"difftable degree={d} points={pts}"]
    for x in range(points):
        row = " ".join(columns[m][x - m] for m in range(min(x, degree) + 1))
        lines.append(f"x={x}: {row}")
    lines.append(f"column {d}: expected={constant} holds={_b(holds)}")
    return _report(args, "difftable", {"degree": d, "points": pts}, body, lines, holds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffwilson",
        description="Exact checks of alternating difference-sum identities"
        " and the Wilson congruence chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        p.set_defaults(handler=handler)
        return p

    def add_points(p):
        p.add_argument(
            "--x",
            type=rational,
            help="exact evaluation point, integer or num/den (a negative num/den needs"
            " the = form, --x=-3/7); omitted: seeded random points",
        )
        p.add_argument(
            "--trials",
            type=int,
            metavar="K",
            help=f"randomized points when --x is omitted (default {DEFAULT_TRIALS})",
        )
        p.add_argument(
            "--seed",
            type=int,
            metavar="U64",
            help="seed for randomized evaluation points (reproduces a run exactly)",
        )
        p.add_argument(
            "--symbolic", action="store_true", help="also check the symbolic collapse"
        )

    def add_max_wilson(p):
        p.add_argument(
            "--max-wilson",
            type=int,
            default=DEFAULT_MAX_WILSON,
            metavar="BOUND",
            help=f"refuse wilson checks above this n (default {DEFAULT_MAX_WILSON})",
        )

    p = command(
        "identity", _cmd_identity, "alternating difference sum against the factorial constant"
    )
    p.add_argument("--n", type=int, required=True, help="sum order (non-negative)")
    add_points(p)

    p = command(
        "lower-power", _cmd_lower_power, "lowered-exponent alternating sum against zero"
    )
    p.add_argument("--n", type=int, required=True, help="sum order (positive)")
    p.add_argument("--j", type=int, required=True, help="exponent drop, 1 <= j <= n")
    add_points(p)

    p = command("wilson", _cmd_wilson, "factorial-residue primality verdict for one n")
    p.add_argument("n", type=int, help="integer to test, n >= 2")
    add_max_wilson(p)

    p = command(
        "wilson-range", _cmd_wilson_range, "stream factorial-residue verdicts for lo..hi"
    )
    p.add_argument("lo", type=int, help="first n (>= 2)")
    p.add_argument("hi", type=int, help="last n (inclusive)")
    add_max_wilson(p)

    p = command("congruence", _cmd_congruence, "per-index congruence report mod a prime")
    p.add_argument(
        "kind",
        choices=sorted(_CONGRUENCE_KINDS),
        help="binom: binomial row vs alternating pattern; fermat: (p-1)-th powers;"
        " power-sum: power sum vs factorial; eq1: the identity at x=0 reduced mod p",
    )
    p.add_argument("p", type=int, help="prime modulus (odd for power-sum and eq1)")

    p = command(
        "difftable", _cmd_difftable, "difference table of x**degree with its constant column"
    )
    p.add_argument("--degree", type=int, required=True, help="monomial degree")
    p.add_argument("--points", type=int, required=True, help="sample count >= degree+1")

    return parser


@contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift CPython's int/str digit limit (3.10.7 and later) until exit.

    n! passes the default 4300 digits from n = 1559 on, so printing a
    result the checks confirmed would otherwise raise.  The old limit is
    restored on exit, so in-process callers see no global change.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    saved = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def main(argv: Sequence[str] | None = None) -> int:
    # Arguments are parsed under the default limit, which keeps refusing
    # numeric literals too long to convert cheaply.
    args = build_parser().parse_args(argv)
    try:
        with _unlimited_int_digits():
            code = args.handler(args)
        sys.stdout.flush()
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the interpreter's
        # final flush of what is still buffered cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
