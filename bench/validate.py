"""Check one request's exit code and output against values the benchmark
computes itself.

Every expected value is derived here, independently of the package: n! and
x**d from ``math``, primality from the benchmark's own sieve, the residues
from Wilson's theorem ((n-1)! mod n is n-1 for primes, 2 for n = 4 and 0
for every other composite) and from Fermat's little theorem.  Golden
requests must also match ``tests/golden`` byte for byte.

A check is one verified equality: one pointwise point, one symbolic
expansion, one n's Wilson verdict, one congruence entry or one entry of a
difference table's constant column.  Checks are counted only from output
that passed validation.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from workloads import Primes, Request

OK, CRASH, WRONG = "ok", "crash", "wrong"


class Outcome(NamedTuple):
    """``status`` is ok, crash (an exception escaped, exit 1 and no output)
    or wrong (any other mismatch); ``checks`` counts verified equalities."""

    status: str
    checks: int
    detail: str = ""


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


@contextmanager
def unlimited_int_digits():
    """Lift CPython's int/str digit limit while the benchmark formats expected values.

    The limit is restored afterwards, so the program under test still runs
    with the interpreter's default.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _b(flag: bool) -> str:
    return "true" if flag else "false"


def _wilson_residue(n: int, prime: bool) -> int:
    if prime:
        return n - 1
    return 2 if n == 4 else 0


def _check_sum(req: Request, out: str, primes: Primes) -> int:
    n = int(req.opts["n"])
    if req.cmd == "identity":
        value = f"{math.factorial(n)}/1"
        coeffs = [value]
    else:
        value = "0/1"
        coeffs = []
    points = 1 if "x" in req.opts else int(req.opts.get("trials", 10))
    symbolic = "symbolic" in req.opts
    if "json" in req.opts:
        payload = json.loads(out)
        _expect(payload["check"] == req.cmd, "check name")
        results = payload["results"]
        _expect(len(results) == points, f"{len(results)} results, want {points}")
        for r in results:
            _expect(r["lhs"] == value and r["rhs"] == value and r["holds"] is True,
                    f"result {r}")
        if symbolic:
            _expect(payload["symbolic"] == {"coefficients": coeffs, "holds": True},
                    "symbolic collapse")
        _expect(payload["holds"] is True and payload["status"] == "holds", "status")
    else:
        lines = out.splitlines()
        _expect(len(lines) == points + symbolic + 2, f"{len(lines)} lines")
        for line in lines[1 : points + 1]:
            _expect(line.startswith("x=")
                    and line.endswith(f": lhs={value} rhs={value} holds=true"), line)
        if symbolic:
            want = f"symbolic: coefficients=[{', '.join(coeffs)}] holds=true"
            _expect(lines[points + 1] == want, "symbolic line")
        _expect(lines[-1] == "status: holds", "status line")
    return points + symbolic


def _check_wilson(req: Request, out: str, primes: Primes) -> int:
    n = int(req.pos[0])
    prime = primes.is_prime(n)
    residue = _wilson_residue(n, prime)
    if "json" in req.opts:
        payload = json.loads(out)
        _expect(payload["n"] == str(n) and payload["residue"] == str(residue)
                and payload["is_prime"] is prime and payload["oracle_agrees"] is True,
                "verdict")
        _expect(payload["holds"] is True and payload["status"] == "holds", "status")
    else:
        want = (f"wilson n={n}: residue={residue} is_prime={_b(prime)}"
                " oracle_agrees=true\nstatus: holds\n")
        _expect(out == want, "verdict")
    return 1


def _check_wilson_range(req: Request, out: str, primes: Primes) -> int:
    lo, hi = int(req.pos[0]), int(req.pos[1])
    lines = out.splitlines()
    span = range(lo, hi + 1)
    if "json" in req.opts:
        _expect(len(lines) == len(span), f"{len(lines)} lines for {len(span)} n")
        for n, line in zip(span, lines):
            v = json.loads(line)
            prime = primes.is_prime(n)
            _expect(v["n"] == str(n) and v["residue"] == str(_wilson_residue(n, prime))
                    and v["is_prime"] is prime and v["oracle_agrees"] is True,
                    f"verdict for n={n}")
    else:
        _expect(len(lines) == len(span) + 2, f"{len(lines)} lines for {len(span)} n")
        for n, line in zip(span, lines):
            prime = primes.is_prime(n)
            want = (f"n={n}: residue={_wilson_residue(n, prime)} is_prime={_b(prime)}"
                    " oracle_agrees=true")
            _expect(line == want, f"verdict for n={n}")
        count = sum(primes.is_prime(n) for n in span)
        _expect(lines[-2] == f"primes={count} composites={len(span) - count}"
                " oracle_agrees=all", "summary")
        _expect(lines[-1] == "status: holds", "status line")
    return len(span)


def _congruence_expected(kind: str, p: int) -> list[tuple[int, int, int]]:
    if kind == "binom":
        return [(i, 1 if i % 2 == 0 else p - 1, 1 if i % 2 == 0 else p - 1)
                for i in range(p)]
    if kind == "fermat":
        return [(i, 1, 1) for i in range(1, p)]
    if kind == "power-sum":
        return [(p - 1, p - 1, p - 1)]
    return [(0, p - 1, p - 1)]


def _check_congruence(req: Request, out: str, primes: Primes) -> int:
    kind, p = req.pos[0], int(req.pos[1])
    _expect(primes.is_prime(p), f"{p} is not prime")
    entries = _congruence_expected(kind, p)
    exact = str(math.factorial(p - 1)) if kind == "eq1" else None
    if "json" in req.opts:
        payload = json.loads(out)
        _expect(payload["check"] == f"congruence-{kind}"
                and payload["modulus"] == str(p), "header")
        if exact is not None:
            _expect(payload["exact_lhs"] == exact and payload["exact_expected"] == exact
                    and payload["exact_equal"] is True, "exact sum")
        want = [{"index": str(i), "residue": str(r), "expected": str(e)}
                for i, r, e in entries]
        _expect(payload["entries"] == want, "entries")
        _expect(payload["holds"] is True and payload["status"] == "holds", "status")
    else:
        want = [f"congruence {kind} p={p} modulus={p}"]
        if exact is not None:
            want.append(f"exact: lhs={exact} expected={exact} equal=true")
        want += [f"i={i}: residue={r} expected={e}" for i, r, e in entries]
        want.append("status: holds")
        _expect(out == "\n".join(want) + "\n", "report")
    return len(entries)


def _check_difftable(req: Request, out: str, primes: Primes) -> int:
    degree, points = int(req.opts["degree"]), int(req.opts["points"])
    const = str(math.factorial(degree))
    samples = [str(x**degree) for x in range(points)]
    if "json" in req.opts:
        payload = json.loads(out)
        cols = payload["columns"]
        _expect(len(cols) == degree + 1, "column count")
        _expect(cols[0] == samples, "sampled column")
        _expect(cols[degree] == [const] * (points - degree), "constant column")
        _expect(payload["constant_value"] == const, "constant value")
        _expect(payload["holds"] is True and payload["status"] == "holds", "status")
    else:
        lines = out.splitlines()
        _expect(len(lines) == points + 3, f"{len(lines)} lines")
        _expect(lines[0] == f"difftable degree={degree} points={points}", "header")
        for x, line in enumerate(lines[1 : points + 1]):
            row = line.split(" ")
            _expect(row[0] == f"x={x}:" and row[1] == samples[x]
                    and len(row) == min(x, degree) + 2, f"row x={x}")
            _expect(x < degree or row[-1] == const, f"constant entry at x={x}")
        _expect(lines[-2] == f"column {degree}: expected={const} holds=true", "column")
        _expect(lines[-1] == "status: holds", "status line")
    return points - degree


_CHECKERS = {
    "identity": _check_sum,
    "lower-power": _check_sum,
    "wilson": _check_wilson,
    "wilson-range": _check_wilson_range,
    "congruence": _check_congruence,
    "difftable": _check_difftable,
}


class Validator:
    """Judges outcomes for one checkout: its primes and its golden files."""

    def __init__(self, primes: Primes, golden_dir: Path):
        self.primes = primes
        self.golden_dir = golden_dir
        self._golden: dict[str, str] = {}

    def golden_text(self, name: str) -> str:
        if name not in self._golden:
            self._golden[name] = (self.golden_dir / name).read_bytes().decode()
        return self._golden[name]

    def check(self, req: Request, code: int, out: str, err: str) -> Outcome:
        if req.expect == "usage":
            if code == 2 and not out and err.strip():
                return Outcome(OK, 0)
            return self._failure(code, out, err, f"usage error exited {code}")
        if code != 0:
            return self._failure(code, out, err, f"exit code {code}")
        if req.expect != "ok" and out != self.golden_text(req.expect):
            return Outcome(WRONG, 0, f"differs from golden {req.expect}")
        try:
            with unlimited_int_digits():
                return Outcome(OK, _CHECKERS[req.cmd](req, out, self.primes))
        except (Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
            return Outcome(WRONG, 0, f"{type(exc).__name__}: {exc}"[:300])

    @staticmethod
    def _failure(code: int, out: str, err: str, what: str) -> Outcome:
        tail = err.strip().splitlines()[-1:] if err.strip() else []
        detail = f"{what}: {tail[0][:200]}" if tail else what
        crashed = code == 1 and not out and "Traceback (most recent call last)" in err
        return Outcome(CRASH if crashed else WRONG, 0, detail)
