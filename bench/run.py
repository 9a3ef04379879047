"""diffwilson benchmark: end-to-end CLI runs and a traced per-layer replay.

Run from the root of a checkout:

    python3 bench/run.py --workload identity --seed 1 --seconds 20 --trace 0

``--trace 0`` runs each request as ``python -m diffwilson <argv>`` in a
child process, one at a time in a closed loop (the next request starts when
the previous child has exited), and reports the end-to-end metrics.  Its
times are given at a fixed reference speed of the machine (see
``REFERENCE_S``); the raw times are on the run line.
``--trace 1`` replays the same requests in-process through
``diffwilson.cli.main`` with timing spans wrapped around the package's
public functions (see ``spans.py``) and reports the per-layer metrics.

Both modes replay the run's seeded request list (see ``workloads.py``),
pass after pass, until ``--seconds`` have passed, and validate every output
(see ``validate.py``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run: Python version, CPU count, git SHA (when the checkout is
a git repository), a digest of ``src/`` and the request composition.

``failed`` counts requests whose exit code or output differs from what the
request should produce; ``correct`` is false when any of them produced a
wrong result rather than a crash (an exception escaping the program).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, call_main
from validate import OK, WRONG, Outcome, Validator
from workloads import PRIME_LIMIT, WARMUPS, WORKLOADS, Primes, golden, request_list

ROOT = Path.cwd()
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"

MIN_PASSES = 3  # so that each request's median is taken over three runs of it or more
MIN_SAMPLES = 100  # latencies in the percentiles, so that ten lie beyond p90
IMPORT_REPS = 5
REQUEST_TIMEOUT_S = 120.0
# Load from other tenants of a shared host slows everything on it alike, by
# up to half and for minutes at a time, far longer than a run.  So every
# end-to-end time is scaled by REFERENCE_S over the time of the launcher's
# reference loop, measured just before and just after the request (before
# and after each warm-up for set-up): it reads as the time the request
# would take at the speed where the loop takes REFERENCE_S.  This is that
# loop's time on an unloaded 2-vCPU Intel Xeon virtual machine, CPython 3.11.
REFERENCE_S = 3.3e-3
SCRATCH_DIR = ".bench_tmp"  # children's output files, removed at the end of a run
DEADLINE_S = 160.0  # no new pass starts if it would end after this

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "checks_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# Per-layer metrics from the first traced pass (counts) or the median over
# traced passes (times).  Each group names the end-to-end metric and
# workload it should move.
PER_LAYER = {
    # symbolic route: wall_s and req_p90_ms on identity; no change elsewhere
    "exact.poly_shift.calls": "count",
    "exact.poly_shift.self_s": "s",
    "exact.poly_axpy.calls": "count",
    "exact.poly_axpy.self_s": "s",
    "identity.symbolic.calls": "count",
    "identity.symbolic.self_s": "s",
    "identity.symbolic.total_s": "s",
    # pointwise route (terms = sum of n+1 over calls): wall_s on identity
    "identity.pointwise.calls": "count",
    "identity.pointwise.terms": "count",
    "identity.pointwise.self_s": "s",
    "exact.binomial.calls": "count",
    "exact.binomial.self_s": "s",
    # Wilson sweep (mults = sum of n over calls): wall_s and checks_per_s on
    # wilson; no change on identity
    "modular.factorial_mod.calls": "count",
    "modular.factorial_mod.mults": "count",
    "modular.factorial_mod.self_s": "s",
    "modular.smallest_divisor.calls": "count",
    "modular.smallest_divisor.self_s": "s",
    "modular.wilson_test.total_s": "s",
    # congruence chain: wall_s on wilson
    "modular.mod_pow.calls": "count",
    "modular.mod_pow.self_s": "s",
    "exact.binomial_row.calls": "count",
    "exact.binomial_row.self_s": "s",
    "modular.congruence.total_s": "s",
    # eq1 computes these twice today: wall_s on cli and wilson
    "modular.alternating_power_sum_at_zero.calls": "count",
    "exact.factorial.calls": "count",
    # start-up and parsing: req_p50_ms on cli
    "cli.import_ms": "ms",
    "cli.parse_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    # formatting and output: wall_s and peak_rss_mb on cli
    "exact.format_rational.calls": "count",
    "exact.format_rational.self_s": "s",
    "exact.format_poly.self_s": "s",
    "identity.difference_table.self_s": "s",
    "cli.out_bytes": "bytes",
    # exceptions escaping main other than usage errors: ok_frac on cli
    "cli.crashes": "count",
    # traced replay / untraced replay - 1: the cost of tracing itself
    "trace.overhead_frac": "frac",
}

# Spans that must fire on each workload, or the traced run fails: a span
# that stays at zero means a namespace was left unpatched.
REQUIRED_SPANS = {
    "identity": ("exact.poly_shift", "exact.poly_axpy", "identity.symbolic",
                 "identity.pointwise", "exact.binomial"),
    "wilson": ("modular.factorial_mod", "modular.smallest_divisor", "modular.wilson_test",
               "modular.mod_pow", "exact.binomial_row", "modular.congruence",
               "modular.alternating_power_sum_at_zero", "exact.factorial"),
    "cli": ("modular.alternating_power_sum_at_zero", "exact.factorial", "cli.main",
            "cli.parse", "exact.format_rational", "exact.format_poly",
            "identity.difference_table"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result; reported on stderr, exit 1."""


@dataclass
class Child:
    code: int
    out: str
    err: str
    latency_s: float
    cpu_s: float
    rss_kb: int
    ref_s: float  # the reference loop's time around this child

    @property
    def scale(self) -> float:
        return REFERENCE_S / self.ref_s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """The ``launcher.py`` process that starts every child of a run.

    ``run`` hands it a list of interpreter argument lists, which it runs one
    at a time, and returns the list's wall time, the time the reference
    loops took (which the wall time leaves out), and each child's exit code,
    output, latency (spawn to exit), CPU time, peak RSS and reference time.
    """

    def __init__(self):
        self.dir = ROOT / SCRATCH_DIR / str(os.getpid())
        self.dir.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
            text=True)

    def run(self, arg_lists: list) -> tuple[float, float, list[Child]]:
        job = {"dir": str(self.dir), "timeout": REQUEST_TIMEOUT_S, "requests": arg_lists}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the launcher exited early")
        done = json.loads(line)
        children = []
        for i, c in enumerate(done["children"]):
            out, err = self.dir / f"{i}.out", self.dir / f"{i}.err"
            children.append(Child(c["code"], out.read_bytes().decode(errors="replace"),
                                  err.read_bytes().decode(errors="replace"),
                                  c["latency"], c["cpu"], c["rss_kb"], c["ref"]))
            out.unlink()
            err.unlink()
        return done["wall"], done["spent"], children

    def run_cli(self, argvs) -> tuple[float, float, list[Child]]:
        return self.run([["-m", "diffwilson", *argv] for argv in argvs])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        for path in self.dir.iterdir():
            path.unlink()
        self.dir.rmdir()
        try:
            self.dir.parent.rmdir()
        except OSError:  # another run in this checkout still uses it
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "diffwilson").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_checkout() -> None:
    if not (SRC / "diffwilson" / "cli.py").is_file():
        raise BenchError(f"no diffwilson sources under {SRC}; run from a checkout root")
    if not GOLDEN_DIR.is_dir():
        raise BenchError(f"no golden files at {GOLDEN_DIR}")


@dataclass
class Setup:
    primes: Primes
    validator: Validator
    reqs: list
    seconds: float  # at the reference speed
    raw_s: float


def set_up(workload: str, seed: int, tiny: bool, launcher: Launcher) -> Setup:
    """Request generation, plus one warm-up invocation per subcommand."""
    t0 = time.perf_counter()
    primes = Primes(PRIME_LIMIT)
    validator = Validator(primes, GOLDEN_DIR)
    reqs = request_list(workload, seed, primes, tiny)
    warmups = [golden(name) for name in WARMUPS]
    _, spent, children = launcher.run_cli(r.argv for r in warmups)
    for req, child in zip(warmups, children):
        outcome = validator.check(req, child.code, child.out, child.err)
        if outcome.status != OK:
            raise BenchError(f"warm-up {' '.join(req.argv)} failed: {outcome.detail}")
    raw = time.perf_counter() - t0 - spent
    scale = statistics.mean(c.scale for c in children)
    return Setup(primes, validator, reqs, raw * scale, raw)


def _passes(reqs: list, seconds: float, min_passes: int, min_requests: int, started: float):
    """Yield pass numbers while another pass over ``reqs`` still fits in
    ``seconds`` from the start of the first, and until ``min_passes`` passes
    and ``min_requests`` requests have run, or until the deadline (counted
    from ``started``, the start of the run) is near."""
    index, longest = 0, 0.0
    measured = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        yield index
        index += 1
        now = time.perf_counter()
        longest = max(longest, now - t0)
        enough = index >= min_passes and index * len(reqs) >= min_requests
        if now + longest - measured > seconds and enough:
            return
        if now + longest - started > DEADLINE_S:
            return


@dataclass
class Tally:
    """Outcomes over every request of a run."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    shown: int = 0
    failed_by_label: Counter = field(default_factory=Counter)

    def add(self, reqs, outcomes: list[Outcome]) -> int:
        """Count a list's outcomes, report the first failures; returns its checks."""
        for req, o in zip(reqs, outcomes):
            self.attempted += 1
            if o.status == OK:
                continue
            self.failed += 1
            self.wrong += o.status == WRONG
            self.failed_by_label[req.label] += 1
            if self.shown < 10:
                print(f"{o.status}: {' '.join(req.argv)}: {o.detail}", file=sys.stderr)
                self.shown += 1
        return sum(o.checks for o in outcomes)


def end_to_end(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    started = time.perf_counter()
    with Launcher() as launcher:
        setups = [set_up(workload, seed, tiny, launcher)]
        reqs = setups[0].reqs
        walls, checks, latencies, cpus, raw, rss = [], [], [], [], [], []
        tally = Tally()
        floor = (1, 0) if tiny else (MIN_PASSES, MIN_SAMPLES)
        for _ in _passes(reqs, seconds, *floor, started):
            wall, _, children = launcher.run_cli(r.argv for r in reqs)
            outcomes = [setups[0].validator.check(r, c.code, c.out, c.err)
                        for r, c in zip(reqs, children)]
            checks.append(tally.add(reqs, outcomes))
            walls.append(wall)
            latencies.append([c.latency_s * c.scale for c in children])
            cpus.append([c.cpu_s * c.scale for c in children])
            raw.append([c.latency_s for c in children])
            rss += [c.rss_kb for c in children]
            # Set up again between passes, so the median spans the whole run.
            setups.append(set_up(workload, seed, tiny, launcher))
    # The list's wall and CPU time sum each request's median over the passes.
    wall_s = sum(map(statistics.median, zip(*latencies)))
    pooled = [x for lat in latencies for x in lat]
    deciles = statistics.quantiles(pooled, n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(s.seconds for s in setups),
        "wall_s": wall_s,
        "cpu_s": sum(map(statistics.median, zip(*cpus))),
        "checks_per_s": min(checks) / wall_s,
        "req_p50_ms": deciles[4] * 1e3,
        "req_p90_ms": deciles[8] * 1e3,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": max(rss) / 1024,
    }
    raw_deciles = statistics.quantiles([x for lat in raw for x in lat], n=10, method="inclusive")
    details = {
        "passes": len(walls),
        "latency_samples": len(pooled),
        "beyond_p90": sum(x > deciles[8] for x in pooled),
        "checks_per_pass": checks,
        "raw": {
            "setup_s": statistics.median(s.raw_s for s in setups),
            "wall_s": sum(map(statistics.median, zip(*raw))),
            "req_p50_ms": raw_deciles[4] * 1e3,
            "req_p90_ms": raw_deciles[8] * 1e3,
            "pass_walls_s": walls,
        },
    }
    return _result(workload, seed, reqs, tally,
                   {k: (v, END_TO_END[k]) for k, v in metrics.items()}, details)


def _replay(cli, reqs, validator: Validator):
    """Replay a list in-process; returns (seconds in main, outcomes, stdout bytes, crashes)."""
    seconds, outcomes, out_bytes, crashes = 0.0, [], 0, 0
    for req in reqs:
        code, out, err, dt, crashed = call_main(cli.main, req.argv)
        seconds += dt
        out_bytes += len(out.encode())
        crashes += crashed
        outcomes.append(validator.check(req, code, out, err))
    return seconds, outcomes, out_bytes, crashes


def fresh_import_ms(launcher: Launcher) -> float:
    """Median time to import diffwilson.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import diffwilson.cli;"
            " print((time.perf_counter() - t) * 1e3); print(diffwilson.__file__)")
    times = []
    for child in launcher.run([["-c", code]] * IMPORT_REPS)[2]:
        lines = child.out.split()
        if child.code != 0 or len(lines) != 2 or not Path(lines[1]).is_relative_to(SRC):
            raise BenchError(f"fresh import failed or left the checkout: {child.err[-300:]}")
        times.append(float(lines[0]))
    return statistics.median(times)


def _load_package():
    sys.path.insert(0, str(SRC))
    import diffwilson  # noqa: F401 - loads every module the spans patch
    import diffwilson.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"diffwilson imported from {cli.__file__}, not from {SRC}")
    return cli


def _layer_values(stats: dict, out_bytes: int, crashes: int) -> dict:
    values = {}
    for name, s in stats.items():
        values[f"{name}.calls"] = s.calls
        values[f"{name}.self_s"] = s.self_s
        values[f"{name}.total_s"] = s.total_s
    values["identity.pointwise.terms"] = stats["identity.pointwise"].work
    values["modular.factorial_mod.mults"] = stats["modular.factorial_mod"].work
    values["cli.parse_s"] = stats["cli.parse"].total_s
    values["cli.out_bytes"] = out_bytes
    values["cli.crashes"] = crashes
    return values


def traced(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    started = time.perf_counter()
    with Launcher() as launcher:
        setup = set_up(workload, seed, tiny, launcher)
        import_ms = fresh_import_ms(launcher)
    cli = _load_package()
    tracer = Tracer()
    passes, ratios = [], []
    tally = Tally()
    reqs = setup.reqs
    for index in _passes(reqs, seconds, 1, 0, started):
        walls = {}
        # Alternate which replay goes first, so drift does not bias the overhead.
        for traced_pass in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.reset()
                with tracer.installed():
                    wall, outcomes, out_bytes, crashes = _replay(cli, reqs, setup.validator)
                passes.append(_layer_values(tracer.stats, out_bytes, crashes))
            else:
                wall, outcomes, _, _ = _replay(cli, reqs, setup.validator)
            walls[traced_pass] = wall
            tally.add(reqs, outcomes)
        ratios.append(walls[True] / walls[False])
    first = passes[0]
    silent = [n for n in REQUIRED_SPANS[workload] if first[f"{n}.calls"] == 0]
    if silent:
        raise BenchError(f"spans never fired on {workload}: {', '.join(silent)}")
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "cli.import_ms":
            value = import_ms
        elif name == "trace.overhead_frac":
            value = statistics.median(ratios) - 1
        elif unit == "s":
            value = statistics.median(p[name] for p in passes)
        else:  # counts come from the first traced pass, so they repeat exactly per seed
            value = first[name]
        metrics[name] = (value, unit)
    return _result(workload, seed, setup.reqs, tally, metrics, {"passes": len(passes)})


def _result(workload, seed, reqs, tally: Tally, metrics, details) -> dict:
    run = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "requests_per_list": len(reqs),
        "composition": dict(sorted(Counter(r.label for r in reqs).items())),
        "requests": tally.attempted,
        "failed_by_label": dict(tally.failed_by_label),
        **details,
    }
    return {
        "run": run,
        "result": {
            "correct": tally.wrong == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        run = traced if args.trace else end_to_end
        out = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("# run " + json.dumps(out["run"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
