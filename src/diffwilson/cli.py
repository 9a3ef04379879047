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
when --x is omitted); any other use of them exits 2.
Numeric parameters are exact integers or num/den rationals;
floating-point literals are rejected.  A negative num/den point takes the
= form, --x=-3/7, because argparse reads a separate -3/7 as an option.
Integers serialize as decimal strings and rationals as "num/den" strings,
so values survive any JSON consumer losslessly.

Each subcommand is one row of COMMANDS.  main prices a request with its
row's cost function and refuses one over BUDGET, which no flag changes,
before the row's handler does any work.

run is the process entry, of ``python -m diffwilson`` and of the installed
``diffwilson`` script alike: it returns main's exit code and then freezes the
heap, so the interpreter's shutdown collections skip what the run left alive.
main(argv) is the in-process API and never touches the garbage collector.

Exit codes: 0 all checks hold; 1 a mathematically guaranteed identity
failed, which signals an implementation bug, never a usage problem;
2 usage error, from argparse or any DomainError (every library, flag and
budget refusal); 3 the report, or the --help text, could not be written,
e.g. stdout on a full device or closed; 141 (128 + SIGPIPE) the reader
closed stdout before the output ended, e.g.
``diffwilson wilson-range 2 200000 | head -2``.  An ``error:`` line that
cannot be written, or has no stderr to go to, leaves code 2 or 3 as it is.
(A "status": "error" payload value is reserved; usage errors go to stderr.)
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import random
import sys
from contextlib import redirect_stdout
from functools import cache, partial
from itertools import chain, islice, tee
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .exact import (
    DomainError,
    factorial,
    format_poly,
    format_rational,
    parse_rational,
    poly_const,
)
from .identity import (
    SAMPLE_BOUND,
    difference_table,
    eval_difference_sum,
    eval_lower_power_sum,
    sample_rationals,
    symbolic_difference_poly,
    symbolic_lower_power_poly,
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

if TYPE_CHECKING:
    from fractions import Fraction

SCHEMA_VERSION = "1"
DEFAULT_TRIALS = 10
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that hung up
# Values per json.dumps call when a report streams an array: 512 scalars of a column, or
# 512 // 4 = 128 identity results and 512 // 3 = 170 congruence entries (see _json_array).
JSON_BATCH = 512


class Cost(NamedTuple):
    """What one request would spend, in the units its budgets count."""

    terms: int = 0  # exact terms summed, points checked and entries built
    bits: int = 0  # the size of the big terms: their count times the largest bit length
    n: int = 0  # the largest n whose Wilson residue is computed (see _range_cost)


# The terms and bits budgets each admit about a second of work (in-process times of main,
# 2-vCPU host, CPython 3.11.7): identity --n 3 --trials 100000 (6.0e5 terms) 2.4 s, identity
# --n 1058 --x 1 --symbolic (1.5e5) 1.0 s, lower-power --n 4303 --j 4302 --x 1 --symbolic
# (1.5e5) 1.2 s, congruence fermat 100003 (1.0e5) 0.52 s; identity --n 3000 --x 1 (1.17e8
# bits) 1.1 s, congruence eq1 3001 (1.17e8) 1.1 s.  The bits of a wilson-range cost more
# (see _range_cost).
BUDGET = Cost(terms=150_000, bits=120_000_000, n=10**7)

_REFUSALS = {
    "terms": "{command} needs {spent} exact terms, over the budget of {limit}",
    "bits": "{command} needs {spent} bits of exact terms, over the budget of {limit}",
    "n": "{command} needs the Wilson residue of n={spent}, over the budget of {limit}",
}


def _sum_cost(args: argparse.Namespace) -> Cost:
    # Per point a/b: n+1 terms C(n, i) (a - i*b)**m, each below 2**n (|a| + n*b)**m, and two
    # more to draw it and compare it with the closed form, computed once per request.  Powers
    # take longer than their size, so they count in bits too.  The symbolic route builds n+1
    # rows C(n,i) (1, i, ..., i^m), each entry a product by the small int i, and its weight
    # C(n,i) from math.comb costs about n/16 such products; eight of them count as one term.
    # An n or j outside the domain costs next to nothing.
    n, j = max(args.n, 0), getattr(args, "j", 0)
    m = n - j if 0 <= j <= n else 0
    if args.x is None:
        points = DEFAULT_TRIALS if args.trials is None else max(args.trials, 0)
        a = b = SAMPLE_BOUND
    else:
        points, a, b = 1, abs(args.x.numerator), args.x.denominator
    bits = points * (n + 1) * (n + m * (a + n * b).bit_length())
    symbolic = args.symbolic * (n + 1) * (m + 1 + n // 16) // 8
    return Cost(terms=points * (n + 3) + symbolic, bits=bits)


def _congruence_cost(args: argparse.Namespace) -> Cost:
    # p entries or terms each: binom's C(p-1, i) are below 2**p, and eq1 sums the
    # identity's terms at x = 0 with n = m = p-1.
    p = max(args.p, 0)
    bits = {"binom": p * p, "eq1": p * (p + p * p.bit_length())}.get(args.kind, 0)
    return Cost(terms=p, bits=bits)


def _table_cost(args: argparse.Namespace) -> Cost:
    # Column m holds points - m entries, each below points**degree.  A degree or point
    # count outside the domain costs nothing, and the library refuses it.
    degree, points = args.degree, args.points
    below_diagonal = degree * (degree + 1) // 2
    entries = (degree + 1) * points - below_diagonal if 0 <= degree < points else 0
    return Cost(terms=entries, bits=entries * degree * (points - 1).bit_length())


def _range_cost(lo: int, hi: int) -> Cost:
    # The remainder tree over lo..hi has about log2(width) levels of at most B bits, B =
    # width*log2(hi), and its top costs time quadratic in B: 2..200000 (6.5e7 bits) took
    # 13 s and 2..330000 (1.2e8) 38 s.  The prefix, (lo-1)! mod the B-bit product of the
    # range, is blocked once the range is about _BLOCK_MIN factors wide, and then takes time
    # proportional to lo*B; a 4096th of that prices its bits as dear as the tree's:
    # 4200000..4205000 (1.2e8 bits) took 36 s.  A narrower range, such as wilson n (the
    # range n..n), multiplies one factor at a time to the first zero product, n-2 for a prime
    # n and about S(n)-1 for a composite; the n budget prices the worst case, a prime: wilson
    # 9999991 is priced 58617 bits and took 0.92 s.  Out of the domain, a range costs nothing.
    if not 2 <= lo <= hi:
        return Cost()
    width = hi - lo + 1
    size = width * hi.bit_length()
    return Cost(bits=size * width.bit_length() + (lo - 2) * size // 4096, n=hi)


def rational(text: str) -> Fraction:
    """argparse converter for exact 'num/den' or integer literals."""
    return parse_rational(text)


def _b(value: bool) -> str:
    return "true" if value else "false"


def _status(holds: bool) -> str:
    return "holds" if holds else "violated"


def _json_pieces(fields: Iterable[tuple[str, object]]) -> Iterator[str]:
    """One JSON object and its newline, in pieces: the text json.dumps gives for the
    object, read from fields one at a time.  A callable value is called when it is reached,
    so it may read what the iterators before it settled.  A value that is an iterator is
    written as an array by _json_array, and every other value whole."""
    import json  # here, not at the top: only a JSON report loads it

    yield "{"
    sep = ""
    for key, value in fields:
        yield f"{sep}{json.dumps(key)}: "
        sep = ", "
        if callable(value):
            value = value()
        if isinstance(value, Iterator):
            yield from _json_array(value, json.dumps)
        else:
            yield json.dumps(value)
    yield "}\n"


def _json_array(items: Iterator, dumps: Callable[[object], str]) -> Iterator[str]:
    """The array of items in pieces.  An item that is itself an iterator is written as a
    nested array, the same way.  Any other item starts a batch that islice cuts from items
    and one dumps call writes, so a batch takes no Python step per value: JSON_BATCH
    scalars, or JSON_BATCH // len(item) lists or dicts as long as this first one (one at
    least).  The items of an array are taken to be alike, all iterators or none: an
    iterator drawn into a batch reaches dumps, which refuses it."""
    yield "["
    comma = ""
    for item in items:
        yield comma
        comma = ", "
        if isinstance(item, Iterator):
            yield from _json_array(item, dumps)
            continue
        leaves = len(item) if isinstance(item, (list, dict)) else 1
        count = JSON_BATCH // max(leaves, 1) or 1  # items in the batch, item included
        yield dumps([item, *islice(items, count - 1)])[1:-1]
    yield "]"


def _report(args: argparse.Namespace, check: str, params: dict, body: dict,
            lines: Iterable[str], holds: Callable[[], bool]) -> bool:
    """Write one single-result report as it is produced and return its verdict.

    body is the report's only record, written as JSON by _json_pieces; its iterators go
    out in batches of about JSON_BATCH values, an iterator of iterators (difftable's
    columns) as nested arrays one after the other, so a reader that hangs up early sees
    a partial object.
    lines, a lazy view of body, is read only for text, one line at a time.
    holds() is called only once the body is written, so a handler may settle the
    verdict from a column as that column streams past; main maps it to exit 0 or 1.
    """
    if args.json:
        record = {"schema_version": SCHEMA_VERSION, "check": check, "params": params,
                  **body, "holds": holds, "status": lambda: _status(holds())}
        sys.stdout.writelines(_json_pieces(record.items()))
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)
        sys.stdout.write(f"status: {_status(holds())}\n")
    return holds()


def _cmd_sum(args: argparse.Namespace) -> bool:
    """identity and lower-power; the text header names every param except x.

    The rows are built and written one at a time.  The first is built before anything
    is written, so every refusal comes first, and a one-point lhs is read from it.
    """
    n, j = args.n, getattr(args, "j", None)
    if j is None:
        params = {"n": str(n)}
        route = partial(eval_difference_sum, n)
        symbolic = partial(symbolic_difference_poly, n)
        closed_form = partial(factorial, n)
    else:
        params = {"n": str(n), "j": str(j)}
        route = partial(eval_lower_power_sum, n, j)
        symbolic = partial(symbolic_lower_power_poly, n, j)
        closed_form = int  # int() is 0
    if args.x is not None:
        if args.trials is not None or args.seed is not None:
            raise DomainError("--trials and --seed apply only when --x is omitted")
        params["x"] = format_rational(args.x)
        trials, points = 1, iter([args.x])
    else:
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
        points = sample_rationals(random.Random(seed), trials)
    x0 = next(points)
    v0 = route(x0)  # refuses a bad n or j
    poly = symbolic() if args.symbolic else None
    closed = closed_form()  # once the routes have refused a negative n
    rhs = format_rational(closed)
    rows_hold = True  # settled as the rows pass

    def row(x: Fraction, v: Fraction) -> dict:
        nonlocal rows_hold
        holds = v == closed
        rows_hold = rows_hold and holds
        return {"x": format_rational(x), "lhs": format_rational(v), "rhs": rhs,
                "holds": holds}

    first = row(x0, v0)
    body: dict = {"results": chain([first], (row(p, route(p)) for p in points))}
    if trials == 1:
        body["lhs"] = first["lhs"]
    body["rhs"] = rhs
    sym_holds = poly is None or poly == poly_const(closed)  # must collapse to the closed form
    if poly is not None:
        body["symbolic"] = {"coefficients": format_poly(poly), "holds": sym_holds}

    def lines() -> Iterator[str]:
        yield " ".join([args.command] + [f"{k}={v}" for k, v in params.items() if k != "x"])
        for r in body["results"]:
            yield f"x={r['x']}: lhs={r['lhs']} rhs={rhs} holds={_b(r['holds'])}"
        if poly is not None:
            joined = ", ".join(body["symbolic"]["coefficients"])
            yield f"symbolic: coefficients=[{joined}] holds={_b(sym_holds)}"
    return _report(args, args.command, params, body, lines(),
                   lambda: rows_hold and sym_holds)


def _verdict_line(v: PrimalityVerdict) -> str:
    return (f"n={v.n}: residue={v.wilson_residue} is_prime={_b(v.is_prime)}"
            f" oracle_agrees={_b(v.oracle_agrees)}")


def _verdict_json(v: PrimalityVerdict) -> str:
    # json.dumps of the wilson payload, written out: every value is a decimal string
    # or a bool, so nothing needs escaping.
    return (f'{{"schema_version": "{SCHEMA_VERSION}", "check": "wilson", "n": "{v.n}",'
            f' "residue": "{v.wilson_residue}", "is_prime": {_b(v.is_prime)},'
            f' "oracle_agrees": {_b(v.oracle_agrees)}}}')


def _cmd_wilson(args: argparse.Namespace) -> bool:
    v = wilson_test(args.n)
    n = str(v.n)
    fields = {"n": n, "residue": str(v.wilson_residue), "is_prime": v.is_prime,
              "oracle_agrees": v.oracle_agrees}
    line = f"wilson {_verdict_line(v)}"
    return _report(args, "wilson", {"n": n}, fields, [line], lambda: v.oracle_agrees)


def _cmd_wilson_range(args: argparse.Namespace) -> bool:
    lo, hi = args.lo, args.hi
    render = _verdict_json if args.json else _verdict_line
    primes = 0
    all_agree = True
    for v in wilson_sweep(lo, hi):
        primes += v.is_prime
        all_agree = all_agree and v.oracle_agrees
        sys.stdout.write(f"{render(v)}\n")
    if not args.json:
        agree = "all" if all_agree else "MISMATCH"
        sys.stdout.write(f"primes={primes} composites={hi - lo + 1 - primes}"
                         f" oracle_agrees={agree}\nstatus: {_status(all_agree)}\n")
    return all_agree


_CONGRUENCE_KINDS = {
    "binom": binomial_row_mod,
    "fermat": fermat_check,
    "power-sum": power_sum_mod,
    "eq1": identity_at_zero_mod,
}


def _cmd_congruence(args: argparse.Namespace) -> bool:
    report = _CONGRUENCE_KINDS[args.kind](args.p)
    p, modulus = str(args.p), str(report.modulus)
    body: dict = {"modulus": modulus}
    if report.exact_lhs is not None:
        lhs, expected = report.exact_lhs, report.exact_expected
        body.update(exact_lhs=str(lhs), exact_expected=str(expected),
                    exact_equal=lhs == expected)
    body["entries"] = ({"index": str(e.index), "residue": str(e.residue),
                        "expected": str(e.expected)} for e in report.entries)

    def lines() -> Iterator[str]:
        yield f"congruence {args.kind} p={p} modulus={modulus}"
        if "exact_equal" in body:
            yield (f"exact: lhs={body['exact_lhs']} expected={body['exact_expected']}"
                   f" equal={_b(body['exact_equal'])}")
        for e in body["entries"]:
            yield "i={index}: residue={residue} expected={expected}".format(**e)
    return _report(args, f"congruence-{args.kind}", {"kind": args.kind, "p": p}, body,
                   lines(), lambda: report.holds)


def _cmd_difftable(args: argparse.Namespace) -> bool:
    degree, points = args.degree, args.points
    cols = difference_table(degree, points)  # refuses a bad degree or points here
    expected = factorial(degree)
    cols[-1], last = tee(cols[-1])  # the verdict's own copy of column `degree`

    @cache  # settled once, after the report; a table of another width never holds
    def holds() -> bool:
        return len(cols) == degree + 1 and all(v == expected for v in last)

    d, pts, constant = str(degree), str(points), str(expected)
    body = {"columns": (map(str, col) for col in cols), "constant_column": d,
            "constant_value": constant}

    def lines() -> Iterator[str]:
        yield f"difftable degree={d} points={pts}"
        for x in range(points):
            yield f"x={x}: " + " ".join(str(next(col)) for col in cols[:x + 1])
        yield f"column {d}: expected={constant} holds={_b(holds())}"
    return _report(args, "difftable", {"degree": d, "points": pts}, body, lines(), holds)


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


_POINTS = (
    _arg("--x", type=rational, help="exact evaluation point, integer or num/den (a negative"
         " num/den needs the = form, --x=-3/7); omitted: seeded random points"),
    _arg("--trials", type=int, metavar="K",
         help=f"randomized points when --x is omitted (default {DEFAULT_TRIALS})"),
    _arg("--seed", type=int, metavar="U64",
         help="seed for randomized evaluation points (reproduces a run exactly)"),
    _arg("--symbolic", action="store_true", help="also check the symbolic collapse"),
)

# One row per subcommand: name, help, handler, cost, then its arguments after --json.
COMMANDS = (
    ("identity", "alternating difference sum against the factorial constant", _cmd_sum,
     _sum_cost, _arg("--n", type=int, required=True, help="sum order (non-negative)"),
     *_POINTS),
    ("lower-power", "lowered-exponent alternating sum against zero", _cmd_sum, _sum_cost,
     _arg("--n", type=int, required=True, help="sum order (positive)"),
     _arg("--j", type=int, required=True, help="exponent drop, 1 <= j <= n"), *_POINTS),
    ("wilson", "factorial-residue primality verdict for one n", _cmd_wilson,
     lambda args: _range_cost(args.n, args.n),
     _arg("n", type=int, help=f"integer to test, 2 <= n <= {BUDGET.n}")),
    ("wilson-range", "stream factorial-residue verdicts for lo..hi", _cmd_wilson_range,
     lambda args: _range_cost(args.lo, args.hi), _arg("lo", type=int, help="first n (>= 2)"),
     _arg("hi", type=int, help=f"last n (inclusive), lo <= hi <= {BUDGET.n}")),
    ("congruence", "per-index congruence report mod a prime", _cmd_congruence,
     _congruence_cost, _arg("kind", choices=sorted(_CONGRUENCE_KINDS),
          help="binom: binomial row vs alternating pattern; fermat: (p-1)-th powers;"
          " power-sum: power sum vs p-1; eq1: the identity at x=0 reduced mod p"),
     _arg("p", type=int, help="prime modulus (odd for power-sum and eq1)")),
    ("difftable", "difference table of x**degree with its constant column", _cmd_difftable,
     _table_cost, _arg("--degree", type=int, required=True, help="monomial degree"),
     _arg("--points", type=int, required=True, help="sample count >= degree+1")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffwilson",
        description="Exact checks of alternating difference-sum identities"
        " and the Wilson congruence chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, cost, *arguments in COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=handler, cost=cost)
    return parser


def _to_devnull(fd: int) -> None:
    """Point fd at devnull, so the interpreter's final flush of what is buffered cannot
    fail again (and exit 120); the devnull descriptor is closed once it is copied."""
    with open(os.devnull, "wb") as null:
        os.dup2(null.fileno(), fd)


def main(argv: Sequence[str] | None = None) -> int:
    # Arguments are parsed under the default limit, which keeps refusing numeric
    # literals too long to convert cheaply; a refusal may quote a cost past it.  The rest
    # runs with CPython's int/str digit limit lifted, as n! passes 4300 digits from
    # n = 1559 on; finally restores it on every exit, so callers see no global change.
    # argparse prints --help itself and exits 0; it is caught here and written by main
    # like a report that holds, so a help that cannot be written exits 3 too.
    shown = io.StringIO()
    try:
        with redirect_stdout(shown):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # a usage error, which argparse has written to stderr
            raise
        args = argparse.Namespace(cost=lambda _: Cost(),
                                  handler=lambda _: sys.stdout.write(shown.getvalue()) >= 0)
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        for unit, spent, limit in zip(Cost._fields, args.cost(args), BUDGET):
            if spent > limit:  # refused before the handler does any work
                raise DomainError(_REFUSALS[unit].format(
                    command=args.command, spent=spent, limit=limit))
        if sys.stdout is None:  # fd 1 was closed before the run started
            raise OSError("stdout is closed")
        holds = args.handler(args)
        sys.stdout.flush()
        return 0 if holds else 1
    except DomainError as exc:
        code, message = 2, exc
    except OSError as exc:  # stdout is closed, its reader hung up or its device is full
        if sys.stdout is not None:
            _to_devnull(sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        code, message = 3, f"cannot write the report: {exc}"
    finally:
        sys.set_int_max_str_digits(saved)
    try:
        if sys.stderr is not None:  # fd 2 is open; print(file=None) would write to stdout
            print(f"error: {message}", file=sys.stderr)
    except OSError:  # stderr cannot be written either, so the code alone tells
        _to_devnull(sys.stderr.fileno())
    return code


def run() -> int:
    """The process entry: main's exit code, or its exception, passes through unchanged.
    The process ends next, so once main has finished every live object is frozen into
    the permanent generation, which no collection scans, shutdown's included; atexit
    handlers and the final flush of stdout and stderr still run."""
    try:
        return main()
    finally:
        gc.freeze()
