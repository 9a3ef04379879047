"""Smoke check of the benchmark itself.

Run from the root of a checkout:

    python3 bench/smoke.py

Runs every workload at a tiny size in both modes, asserts that each metric
named in BENCHMARK.json is emitted with its unit, and feeds corrupted
outputs to the validator to show that each one counts as a failure, so the
correctness check cannot pass vacuously.  Also checks that a traced run
fails when a required span never fires.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
from validate import OK, Validator
from workloads import PRIME_LIMIT, WORKLOADS, Primes, golden, make, usage


def check_metrics(spec: dict) -> None:
    for name, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[name]}
        assert declared == metrics, f"BENCHMARK.json {name} differs from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for mode, expected in ((run.end_to_end, run.END_TO_END), (run.traced, run.PER_LAYER)):
            result = mode(workload, seed=7, seconds=0, tiny=True)["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, f"{workload} {mode.__name__}: {set(got) ^ set(expected)}"
            assert result["attempted"] >= 1
            assert result["correct"], f"{workload} {mode.__name__}: wrong output"
            print(f"ok {workload} {mode.__name__}: {result['attempted']} requests,"
                  f" {result['failed']} failed")


def check_corruption_is_caught() -> None:
    validator = Validator(Primes(PRIME_LIMIT), run.GOLDEN_DIR)
    cases = [
        make("t", "identity", n=5, trials=3, seed=1, symbolic=True, json=True),
        make("t", "wilson-range", 2, 40),
        make("t", "congruence", "eq1", 11, json=True),
        make("t", "difftable", degree=3, points=9),
        golden("wilson_6.json"),
    ]
    with run.Launcher() as launcher:
        _, _, children = launcher.run_cli(req.argv for req in cases)
    for req, child in zip(cases, children):
        assert validator.check(req, child.code, child.out, child.err).status == OK, req.argv
        # Change one digit of the last number in the output.
        i = max(i for i, c in enumerate(child.out) if c.isdigit())
        bad = child.out[:i] + str((int(child.out[i]) + 1) % 10) + child.out[i + 1 :]
        outcome = validator.check(req, child.code, bad, child.err)
        assert outcome.status != OK, f"corrupted output accepted: {req.argv}"
        tally = run.Tally()
        tally.add([req], [outcome])
        assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
        print(f"ok corrupted {' '.join(req.argv)}: {outcome.detail[:60]}")
    # A usage request that exits 0, and an ok request that exits 2, both fail.
    assert validator.check(make("t", "wilson", 5), 2, "", "error: x").status != OK
    assert validator.check(usage("wilson", "1"), 0, "", "").status != OK


def check_silent_span_fails() -> None:
    """A span that never fires (an unpatched namespace) fails the traced run."""
    saved = run.REQUIRED_SPANS["identity"]
    run.REQUIRED_SPANS["identity"] = saved + ("modular.factorial_mod",)
    try:
        run.traced("identity", seed=7, seconds=0, tiny=True)
    except run.BenchError as exc:
        print(f"ok silent span: {exc}")
    else:
        raise AssertionError("a span that never fired went unnoticed")
    finally:
        run.REQUIRED_SPANS["identity"] = saved


def main() -> int:
    run.check_checkout()
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_corruption_is_caught()
    check_silent_span_fails()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
