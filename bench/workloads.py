"""Seeded request lists for the three benchmark workloads.

A run replays one request list, pass after pass; it is built from
``random.Random(f"{workload}:{seed}")``, so the same seed always gives the
same list.  Every randomised request carries an explicit ``--seed``.

Sizes are drawn by stratified sampling: a class of k requests takes one
value from each of k equal slices of its range.  Each list then covers the
range evenly, and the spread between seeds reflects the program rather than
the luck of the draw.  The classes that do most of a list's work (the
symbolic identity requests, and every class of the wilson workload) draw
only from the middle fifth of each slice, so that the work of a list, and
where its p90 falls, hardly depend on the seed.

Workloads (requests per list in brackets):

identity [45]
    7 x ``identity --n N --trials 25 --seed S --symbolic --json``,
    2 x ``lower-power --n N --j J --trials 5 --seed S --symbolic --json``,
    36 x pointwise-only ``identity --n N --trials 1 --seed S``; N in [100, 200],
    J in [1, N].  The ``exact`` polynomial and ``Fraction`` code and the
    ``identity`` routes do the work; ``modular`` stays idle.  The pointwise
    route takes about a third of route time, so a gain on one route that
    costs the other shows in ``wall_s``.  The nine symbolic requests are
    the top 20% of latencies, so p90 falls in the middle of them.
wilson [25]
    1 x ``wilson-range 2 N --json`` with N in [9950, 10050], 8 x ``wilson n``
    with n in [10^4, 10^6], 4 x each of ``congruence binom|fermat|power-sum p``
    with prime p <= 2000 and 4 x ``congruence eq1 p`` with prime p <= 1000.
    ``modular`` does the work; ``identity`` stays idle.  The congruence half
    uses ``binomial_row`` and ``mod_pow`` rather than the factorial sweep, so
    a batched-sweep gain that slows the chain shows.
cli [50]
    The 15 golden argv of ``tests/golden``, 18 small seeded requests (every
    subcommand, twice as text and once with ``--json``), 10 usage errors that
    must exit 2, and 7 large-output requests: ``difftable --degree 100 --points
    1000 --json`` (21 MB), ``wilson-range 2 3000`` as text and as JSON, and
    ``identity --n N --x 1`` and ``congruence eq1 p`` on both sides of
    CPython's 4300-digit int-to-str limit.  Start-up, argparse and
    serialization dominate.  The two requests above the limit crash in the
    program as it stands; they stay in the mix and count as failures.  The
    large requests are 14% of the list: the three dearest lie above p90, and
    p90 falls in the middle of the four cheaper ones (the two wilson-range and
    the two eq1 requests, of about the same cost), rather than in the
    start-up noise of the short requests or on the edge between two kinds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("identity", "wilson", "cli")

# Golden files of tests/golden and the argv that produce them, byte for byte.
GOLDEN = {
    "identity_n3_x7_symbolic.txt": ("identity", "--n", "3", "--x", "7", "--symbolic"),
    "identity_n3_x7_symbolic.json": (
        "identity", "--n", "3", "--x", "7", "--symbolic", "--json",
    ),
    "identity_n4_seed42_trials3.txt": (
        "identity", "--n", "4", "--seed", "42", "--trials", "3",
    ),
    "lower_power_n3_j1_x2.txt": ("lower-power", "--n", "3", "--j", "1", "--x", "2"),
    "lower_power_n4_j2_x5_symbolic.json": (
        "lower-power", "--n", "4", "--j", "2", "--x", "5", "--symbolic", "--json",
    ),
    "wilson_5.txt": ("wilson", "5"),
    "wilson_6.json": ("wilson", "6", "--json"),
    "wilson_range_2_12.txt": ("wilson-range", "2", "12"),
    "wilson_range_2_5.json": ("wilson-range", "2", "5", "--json"),
    "congruence_binom_5.txt": ("congruence", "binom", "5"),
    "congruence_fermat_7.txt": ("congruence", "fermat", "7"),
    "congruence_power_sum_5.txt": ("congruence", "power-sum", "5"),
    "congruence_eq1_5.json": ("congruence", "eq1", "5", "--json"),
    "difftable_2_5.txt": ("difftable", "--degree", "2", "--points", "5"),
    "difftable_2_5.json": ("difftable", "--degree", "2", "--points", "5", "--json"),
}

# One untimed warm-up per subcommand, taken from the goldens so it is checked too.
WARMUPS = (
    "identity_n3_x7_symbolic.txt",
    "lower_power_n3_j1_x2.txt",
    "wilson_5.txt",
    "wilson_range_2_12.txt",
    "congruence_binom_5.txt",
    "difftable_2_5.txt",
)

U64 = 2**64


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what it must produce.

    ``expect`` is ``"ok"`` (exit 0 with valid output), ``"usage"`` (exit 2,
    nothing on stdout) or a golden file name (exit 0, stdout equal to it).
    ``pos`` and ``opts`` are the parsed form of ``argv`` that the validator
    reads; flags without a value map to True.
    """

    label: str
    cmd: str
    argv: tuple[str, ...]
    pos: tuple[int | str, ...] = ()
    opts: dict = field(default_factory=dict)
    expect: str = "ok"


def make(label: str, cmd: str, *pos, **opts) -> Request:
    """A request that must exit 0 with valid output."""
    argv = [cmd, *map(str, pos)]
    for name, value in opts.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif str(value).startswith("-"):  # argparse would take -3/7 for an option
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, str(value)]
    return Request(label, cmd, tuple(argv), tuple(pos), opts)


def golden(name: str) -> Request:
    """A request whose stdout must equal ``tests/golden/<name>``."""
    argv = GOLDEN[name]
    cmd, rest = argv[0], list(argv[1:])
    pos, opts = [], {}
    while rest:
        tok = rest.pop(0)
        if tok.startswith("--"):
            opts[tok[2:].replace("-", "_")] = (
                True if not rest or rest[0].startswith("--") else rest.pop(0)
            )
        else:
            pos.append(int(tok) if tok.isdigit() else tok)
    return Request("golden", cmd, argv, tuple(pos), opts, expect=name)


def usage(*argv: str) -> Request:
    """A request that must be refused as a usage error."""
    return Request("usage-error", argv[0] if argv else "", tuple(argv), expect="usage")


class Primes:
    """Sieve of Eratosthenes up to ``limit``: the benchmark's own primality oracle."""

    def __init__(self, limit: int):
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\0\0"
        for d in range(2, int(limit**0.5) + 1):
            if sieve[d]:
                sieve[d * d :: d] = bytes(len(range(d * d, limit + 1, d)))
        self.limit = limit
        self._sieve = sieve

    def is_prime(self, n: int) -> bool:
        if n > self.limit:
            raise ValueError(f"{n} is above the sieve limit {self.limit}")
        return bool(self._sieve[n])

    def between(self, lo: int, hi: int) -> list[int]:
        return [p for p in range(lo, hi + 1) if self._sieve[p]]


PRIME_LIMIT = 10**6


# Share of each slice that the draws of the heavy classes come from.
HEAVY_SPREAD = 0.2


def strata(rng: random.Random, lo: int, hi: int, k: int, spread: float = 1.0) -> list[int]:
    """One integer from each of k equal slices of [lo, hi], in slice order,
    drawn from the middle ``spread`` share of the slice."""
    width = (hi - lo + 1) / k
    return [lo + int(width * (i + 0.5 + spread * (rng.random() - 0.5))) for i in range(k)]


def strata_of(rng: random.Random, values: list[int], k: int,
              spread: float = 1.0) -> list[int]:
    """One element from each of k equal slices of a sorted list."""
    idx = strata(rng, 0, len(values) - 1, k, spread)
    return [values[i] for i in idx]


def _seed(rng: random.Random) -> int:
    return rng.randrange(U64)


def _rational(rng: random.Random) -> str:
    return f"{rng.randint(-50, 50)}/{rng.randint(1, 50)}"


def identity_requests(rng: random.Random, primes: Primes, tiny: bool) -> list[Request]:
    lo, hi = (8, 16) if tiny else (100, 200)
    n_sym, n_low, n_pw = (1, 1, 1) if tiny else (7, 2, 36)
    reqs = [
        make("identity-symbolic", "identity", n=n, trials=25, seed=_seed(rng),
             symbolic=True, json=True)
        for n in strata(rng, lo, hi, n_sym, HEAVY_SPREAD)
    ]
    fracs = strata(rng, 0, 999, n_low, HEAVY_SPREAD)
    rng.shuffle(fracs)
    for n, f in zip(strata(rng, lo, hi, n_low, HEAVY_SPREAD), fracs):
        j = 1 + f * n // 1000
        reqs.append(
            make("lower-power-symbolic", "lower-power", n=n, j=j, trials=5,
                 seed=_seed(rng), symbolic=True, json=True)
        )
    reqs += [
        make("identity-pointwise", "identity", n=n, trials=1, seed=_seed(rng))
        for n in strata(rng, lo, hi, n_pw)
    ]
    return reqs


def wilson_requests(rng: random.Random, primes: Primes, tiny: bool) -> list[Request]:
    sweep_hi = rng.randint(200, 300) if tiny else rng.randint(9950, 10050)
    reqs = [make("wilson-range", "wilson-range", 2, sweep_hi, json=True)]
    n_hi = 2000 if tiny else 10**6
    count = 2 if tiny else 8
    for i, n in enumerate(strata(rng, 10 if tiny else 10**4, n_hi, count, HEAVY_SPREAD)):
        fmt = {"json": True} if i % 2 else {}
        reqs.append(make("wilson", "wilson", n, **fmt))
    per_kind = 1 if tiny else 4
    small = primes.between(3, 100 if tiny else 1000)
    large = primes.between(3, 100 if tiny else 2000)
    binom = strata_of(rng, large, per_kind, HEAVY_SPREAD)
    # fermat mirrors binom across the range: both list p entries, so the
    # number of checks in a list hardly depends on the seed.
    fermat = [large[len(large) - 1 - large.index(p)] for p in binom]
    for kind, ps in (("binom", binom), ("fermat", fermat),
                     ("power-sum", strata_of(rng, large, per_kind, HEAVY_SPREAD)),
                     ("eq1", strata_of(rng, small, per_kind, HEAVY_SPREAD))):
        for i, p in enumerate(ps):
            fmt = {"json": True} if i % 2 else {}
            reqs.append(make(f"congruence-{kind}", "congruence", kind, p, **fmt))
    return reqs


def _small_cli(rng: random.Random, primes: Primes, fmt: dict) -> list[Request]:
    """One small request per subcommand variant, in the given output format."""
    n = rng.randint(0, 25)
    m = rng.randint(1, 25)
    j = rng.randint(1, m)
    lo = rng.randint(2, 50)
    deg = rng.randint(0, 8)
    kind = rng.choice(("binom", "fermat", "power-sum", "eq1"))
    p = rng.choice(primes.between(3, 50))
    point = (
        {"x": _rational(rng)}
        if rng.random() < 0.5
        else {"trials": rng.randint(1, 5), "seed": _seed(rng)}
    )
    return [
        make("small-identity", "identity", n=n, **point,
             **({"symbolic": True} if rng.random() < 0.5 else {}), **fmt),
        make("small-lower-power", "lower-power", n=m, j=j, **point,
             **({"symbolic": True} if rng.random() < 0.5 else {}), **fmt),
        make("small-wilson", "wilson", rng.randint(2, 20000), **fmt),
        make("small-wilson-range", "wilson-range", lo, lo + rng.randint(0, 30), **fmt),
        make("small-congruence", "congruence", kind, p, **fmt),
        make("small-difftable", "difftable", degree=deg, points=deg + rng.randint(1, 20),
             **fmt),
    ]


def _usage_errors(rng: random.Random, primes: Primes) -> list[Request]:
    n = rng.randint(3, 50)
    composite = rng.choice([c for c in range(4, 200) if not primes.is_prime(c)])
    return [
        usage("wilson", "1"),
        usage("wilson", str(n + 100), "--max-wilson", str(n)),
        usage("wilson-range", str(n + 10), str(n)),
        usage("wilson-range", "1", str(n)),
        usage("identity", "--n", str(-n), "--x", "1"),
        usage("identity", "--n", str(n), "--x", f"{n}.5"),
        usage("identity", "--n", str(n), "--trials", "0", "--seed", "1"),
        usage("identity", "--n", str(n), "--seed", "-1"),
        usage("identity", "--n", str(n), "--seed", str(U64 + n)),
        usage("identity"),
        usage("lower-power", "--n", str(n), "--j", str(n + 1), "--x", "1"),
        usage("lower-power", "--n", "0", "--j", "0", "--x", "1"),
        usage("difftable", "--degree", str(n), "--points", str(n)),
        usage("difftable", "--degree", "-1", "--points", "3"),
        usage("congruence", "binom", str(composite)),
        usage("congruence", "eq1", "2"),
        usage("congruence", "power-sum", "2"),
        usage("congruence", "fermat", "1"),
        usage("congruence", "nope", "5"),
        usage("frobnicate"),
    ]


def cli_requests(rng: random.Random, primes: Primes, tiny: bool) -> list[Request]:
    reqs = [golden(name) for name in GOLDEN]
    for fmt in ({}, {"json": True}, {}):
        reqs += _small_cli(rng, primes, fmt)
    reqs += rng.sample(_usage_errors(rng, primes), 4 if tiny else 10)
    # Both sides of the 4300-digit limit: n! and (p-1)! have more than 4300
    # digits from n = 1559 and p = 1567 on.
    reqs += [
        make("large-difftable", "difftable",
             degree=20 if tiny else 100, points=100 if tiny else 1000, json=True),
        make("large-wilson-range", "wilson-range", 2, 300 if tiny else 3000),
        make("large-wilson-range", "wilson-range", 2, 300 if tiny else 3000, json=True),
        make("large-identity", "identity", n=rng.randint(1540, 1558), x=1),
        make("over-limit-identity", "identity", n=rng.randint(1559, 1575), x=1),
        make("large-eq1", "congruence", "eq1", rng.choice(primes.between(1540, 1559))),
        make("over-limit-eq1", "congruence", "eq1", rng.choice(primes.between(1567, 1583))),
    ]
    return reqs


_GENERATORS = {
    "identity": identity_requests,
    "wilson": wilson_requests,
    "cli": cli_requests,
}


def request_list(workload: str, seed: int, primes: Primes,
                 tiny: bool = False) -> list[Request]:
    """The request list of a run of ``workload`` under ``seed``, in replay order."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = _GENERATORS[workload](rng, primes, tiny)
    rng.shuffle(reqs)
    return reqs
