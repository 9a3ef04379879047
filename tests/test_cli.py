"""CLI contract: golden files for both output modes, the three exit codes,
JSON round-trips, and seeded reproducibility.

Exit code 1 means a guaranteed identity failed, which correct arithmetic
cannot produce, so those paths are driven by monkeypatched verifiers.
"""

import argparse
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffwilson import cli, exact, identity, modular
from diffwilson.exact import DomainError, parse_rational
from diffwilson.modular import PrimalityVerdict

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("identity_n3_x7_symbolic.txt", ["identity", "--n", "3", "--x", "7", "--symbolic"]),
    (
        "identity_n3_x7_symbolic.json",
        ["identity", "--n", "3", "--x", "7", "--symbolic", "--json"],
    ),
    ("identity_n4_seed42_trials3.txt", ["identity", "--n", "4", "--seed", "42", "--trials", "3"]),
    ("lower_power_n3_j1_x2.txt", ["lower-power", "--n", "3", "--j", "1", "--x", "2"]),
    (
        "lower_power_n4_j2_x5_symbolic.json",
        ["lower-power", "--n", "4", "--j", "2", "--x", "5", "--symbolic", "--json"],
    ),
    ("wilson_5.txt", ["wilson", "5"]),
    ("wilson_6.json", ["wilson", "6", "--json"]),
    ("wilson_range_2_12.txt", ["wilson-range", "2", "12"]),
    ("wilson_range_2_5.json", ["wilson-range", "2", "5", "--json"]),
    ("congruence_binom_5.txt", ["congruence", "binom", "5"]),
    ("congruence_fermat_7.txt", ["congruence", "fermat", "7"]),
    ("congruence_power_sum_5.txt", ["congruence", "power-sum", "5"]),
    ("congruence_eq1_5.json", ["congruence", "eq1", "5", "--json"]),
    ("difftable_2_5.txt", ["difftable", "--degree", "2", "--points", "5"]),
    ("difftable_2_5.json", ["difftable", "--degree", "2", "--points", "5", "--json"]),
]


@pytest.mark.parametrize("fname,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(capsys, fname, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / fname).read_text()


def test_json_lines_parse_in_every_golden():
    for fname, _ in GOLDEN_CASES:
        if fname.endswith(".json"):
            for line in (GOLDEN_DIR / fname).read_text().splitlines():
                payload = json.loads(line)
                assert payload["schema_version"] == "1"


# exit code 0 and value consistency


def test_identity_json_round_trip(capsys):
    assert cli.main(["identity", "--n", "6", "--seed", "123", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["check"] == "identity"
    assert payload["params"] == {"n": "6", "trials": "10", "seed": "123"}
    assert payload["rhs"] == "720/1"
    assert len(payload["results"]) == 10
    for r in payload["results"]:
        assert parse_rational(r["lhs"]) == 720
        assert parse_rational(r["x"]).denominator <= 1000
    assert payload["status"] == "holds"


def test_text_and_json_agree_on_points(capsys):
    assert cli.main(["identity", "--n", "5", "--seed", "99"]) == 0
    text = capsys.readouterr().out
    assert cli.main(["identity", "--n", "5", "--seed", "99", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    xs_text = [line.split(":")[0] for line in text.splitlines() if line.startswith("x=")]
    assert xs_text == ["x=" + r["x"] for r in payload["results"]]


JSON_ONLY = [
    ["identity", "--n", "4", "--x", "2", "--symbolic"],
    ["lower-power", "--n", "4", "--j", "2", "--trials", "3", "--seed", "1", "--symbolic"],
    ["congruence", "eq1", "13"],
    ["difftable", "--degree", "3", "--points", "6"],
]


@pytest.mark.parametrize("argv", JSON_ONLY, ids=[" ".join(a) for a in JSON_ONLY])
def test_json_mode_formats_no_text_line(capsys, monkeypatch, argv):
    # The text report is a lazy view of the JSON body, so --json formats none of its lines.
    assert cli.main(argv + ["--json"]) == 0
    expected = capsys.readouterr().out

    def no_text(value):
        raise AssertionError("a text line was formatted in JSON mode")

    monkeypatch.setattr(cli, "_b", no_text)
    assert cli.main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == expected


# The report writer: batched json.dumps calls give the text one json.dumps call gives.

_ESCAPED = st.sampled_from('"\\/\n\t\x00\x7fé€😀')  # escapes and non-ASCII
_TEXT = st.text(_ESCAPED | st.characters(blacklist_categories=("Cs",)), max_size=8)
_SCALARS = st.none() | st.booleans() | st.integers(-10**30, 10**30) | _TEXT
_ITEMS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=8,
)
# Lengths on both sides of a batch boundary, in items and in the leaves of list items.
_AROUND_A_BATCH = [0, 1, 2, cli.JSON_BATCH - 1, cli.JSON_BATCH, cli.JSON_BATCH + 1,
                   2 * cli.JSON_BATCH + 1]


@st.composite
def _arrays(draw):
    """A short list of any items, or a long one of scalars or of columns of scalars."""
    if draw(st.booleans()):
        return draw(st.lists(_ITEMS, max_size=6))
    pattern = draw(st.lists(_SCALARS, min_size=1, max_size=3))
    sizes = st.sampled_from(_AROUND_A_BATCH) | st.integers(0, 3)
    if draw(st.booleans()):
        return [pattern[i % len(pattern)] for i in range(draw(sizes))]
    return [[pattern[i % len(pattern)] for i in range(size)]
            for size in draw(st.lists(sizes, max_size=3))]


def _streamed(value, depth):
    """A list as an iterator at depth 1, and with its items as iterators too at depth 2
    when every item is a list (the writer takes an array's items to be all iterators or
    all plain); json.dumps itself cannot encode an iterator."""
    if not depth or not isinstance(value, list):
        return value
    if depth == 2 and all(isinstance(item, list) for item in value):
        return iter([iter(item) for item in value])
    return iter(value)


# Every length around a batch, as a column of distinct values, streamed flat and nested,
# and as rows of three leaves each.
_BATCH_EDGES = [
    field
    for size in _AROUND_A_BATCH
    for field in [
        (f"column {size}", list(map(str, range(size))), 1),
        (f"columns {size}", [list(map(str, range(size))), [], ["x"] * size], 2),
        (f"rows {size}", [{"x": str(i), "lhs": str(-i), "holds": True} for i in range(size)],
         1),
    ]
]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_TEXT, _ITEMS | _arrays(), st.integers(0, 2)), max_size=6,
                unique_by=lambda field: field[0]))
@example(_BATCH_EDGES)
def test_json_pieces_match_one_json_dumps(fields):
    streamed = [(k, _streamed(v, depth)) for k, v, depth in fields]
    text = "".join(cli._json_pieces(streamed))
    assert text == json.dumps({k: v for k, v, _ in fields}) + "\n"


def test_json_pieces_calls_a_callable_once_the_iterator_before_it_is_exhausted():
    # _report's verdict fields are callables that read what the columns before them settled.
    seen = []

    def column():
        yield from (1, 2)
        seen.append("exhausted")

    def verdict():
        seen.append("called")
        return len(seen)

    text = "".join(cli._json_pieces([("column", column()), ("holds", verdict)]))
    assert seen == ["exhausted", "called"]
    assert text == '{"column": [1, 2], "holds": 2}\n'


@pytest.mark.parametrize(
    "argv,row",
    [
        (["identity", "--n", "3"], "x=-3/7: lhs=6/1 rhs=6/1 holds=true"),
        (["lower-power", "--n", "3", "--j", "1"], "x=-3/7: lhs=0/1 rhs=0/1 holds=true"),
    ],
    ids=["identity", "lower-power"],
)
def test_negative_rational_point_in_equals_form(capsys, argv, row):
    # A separate "-3/7" reads as an option to argparse; "--x=-3/7" is the documented form.
    assert cli.main(argv + ["--x=-3/7"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == row


def test_unseeded_run_reports_reproducing_seed(capsys):
    assert cli.main(["identity", "--n", "2", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert "seed=" in header
    seed = header.rsplit("seed=", 1)[1]
    assert cli.main(["identity", "--n", "2", "--trials", "2", "--seed", seed]) == 0
    assert capsys.readouterr().out == out


def test_wilson_range_counts_primes_to_100(capsys):
    assert cli.main(["wilson-range", "2", "100", "--json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 99
    assert [int(r["n"]) for r in rows] == list(range(2, 101))
    assert sum(r["is_prime"] for r in rows) == 25
    assert all(r["oracle_agrees"] for r in rows)


def test_wilson_range_text_summary(capsys):
    assert cli.main(["wilson-range", "2", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "primes=25 composites=74 oracle_agrees=all"
    assert lines[-1] == "status: holds"


def _per_n_wilson_range(lo, hi, as_json):
    """wilson-range output rendered from exact factorials and trial division per n."""
    lines, primes = [], 0
    for n in range(lo, hi + 1):
        residue = math.factorial(n - 1) % n
        is_prime = modular.smallest_divisor(n) is None
        assert (residue == n - 1) == is_prime
        primes += is_prime
        if as_json:
            payload = {
                "schema_version": "1",
                "check": "wilson",
                "n": str(n),
                "residue": str(residue),
                "is_prime": is_prime,
                "oracle_agrees": True,
            }
            lines.append(json.dumps(payload))
        else:
            flag = "true" if is_prime else "false"
            lines.append(f"n={n}: residue={residue} is_prime={flag} oracle_agrees=true")
    if not as_json:
        lines.append(f"primes={primes} composites={hi - lo + 1 - primes} oracle_agrees=all")
        lines.append("status: holds")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_wilson_range_matches_per_n_rendering(capsys, as_json):
    argv = ["wilson-range", "2", "3000"] + (["--json"] if as_json else [])
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == _per_n_wilson_range(2, 3000, as_json)


def _difftable_rendering(degree, points, as_json):
    """difftable output built from x**degree and repeated differences."""
    cols = [[x**degree for x in range(points)]]
    for _ in range(degree):
        cols.append([b - a for a, b in zip(cols[-1], cols[-1][1:])])
    constant = math.factorial(degree)
    assert cols[degree] == [constant] * (points - degree)
    if as_json:
        payload = {
            "schema_version": "1",
            "check": "difftable",
            "params": {"degree": str(degree), "points": str(points)},
            "columns": [[str(v) for v in col] for col in cols],
            "constant_column": str(degree),
            "constant_value": str(constant),
            "holds": True,
            "status": "holds",
        }
        return json.dumps(payload) + "\n"
    lines = [f"difftable degree={degree} points={points}"]
    for x in range(points):
        diffs = [cols[m][x - m] for m in range(min(x, degree) + 1)]
        lines.append(f"x={x}: " + " ".join(map(str, diffs)))
    lines.append(f"column {degree}: expected={constant} holds=true")
    lines.append("status: holds")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_difftable_matches_repeated_differences(capsys, as_json):
    # The second table's columns cross a JSON batch: 1025, ..., 1022 values.
    for degree, points in [(7, 30), (3, 2 * cli.JSON_BATCH + 1)]:
        argv = ["difftable", "--degree", str(degree), "--points", str(points)]
        assert cli.main(argv + (["--json"] if as_json else [])) == 0
        assert capsys.readouterr().out == _difftable_rendering(degree, points, as_json)


def test_congruence_large_prime_holds(capsys):
    for kind in ("binom", "fermat", "power-sum", "eq1"):
        assert cli.main(["congruence", kind, "101", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert payload["check"] == f"congruence-{kind}"


def test_congruence_eq1_computes_the_exact_sum_once(capsys, monkeypatch):
    calls = []
    real = modular.alternating_power_sum_at_zero

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(modular, "alternating_power_sum_at_zero", counted)
    monkeypatch.setattr(cli, "alternating_power_sum_at_zero", counted, raising=False)
    assert cli.main(["congruence", "eq1", "13", "--json"]) == 0
    assert calls == [13]
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact_lhs"] == payload["exact_expected"] == str(math.factorial(12))


def test_identity_request_computes_the_closed_form_once(capsys, monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return math.factorial(n)

    for module in (cli, identity):
        monkeypatch.setattr(module, "factorial", counted, raising=False)
    assert cli.main(["identity", "--n", "6", "--trials", "10", "--seed", "1", "--json"]) == 0
    assert calls == [6]
    payload = json.loads(capsys.readouterr().out)
    assert [row["rhs"] for row in payload["results"]] == ["720/1"] * 10


@pytest.mark.parametrize(
    "argv,route",
    [
        (["identity", "--n", "7", "--x", "1"], "eval_difference_sum"),
        (["identity", "--n", "7", "--x", "1", "--json"], "eval_difference_sum"),
        (["lower-power", "--n", "7", "--j", "2", "--trials", "1", "--seed", "3", "--json"],
         "eval_lower_power_sum"),
    ],
    ids=["identity-text", "identity-json", "lower-power-json"],
)
def test_one_point_sum_is_formatted_once(monkeypatch, argv, route):
    # The one-point report's lhs is read from its one row, not formatted a second time.
    values, formatted = [], []
    evaluate, format_rational = getattr(cli, route), cli.format_rational

    def evaluated(*args):
        values.append(evaluate(*args))
        return values[-1]

    def counted(q):
        formatted.append(q)
        return format_rational(q)

    monkeypatch.setattr(cli, route, evaluated)
    monkeypatch.setattr(cli, "format_rational", counted)
    assert cli.main(argv) == 0
    assert len(values) == 1
    assert sum(q is values[0] for q in formatted) == 1


# Results past CPython's 4300-digit int/str limit.


@contextmanager
def _int_digit_limit(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "argv,value",
    [
        (["identity", "--n", "1559", "--x", "1", "--json"], math.factorial(1559)),
        (["congruence", "eq1", "1567", "--json"], math.factorial(1566)),
    ],
    ids=["identity-n1559", "eq1-p1567"],
)
def test_results_past_the_int_digit_limit(capsys, argv, value):
    with _int_digit_limit(4300):
        assert cli.main(argv) == 0
        assert sys.get_int_max_str_digits() == 4300  # lifted only while main runs
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "holds"
    with _int_digit_limit(0):
        digits = str(value)
    if argv[0] == "identity":
        assert payload["lhs"] == payload["rhs"] == f"{digits}/1"
    else:
        assert payload["exact_lhs"] == payload["exact_expected"] == digits
        assert payload["exact_equal"] is True


@pytest.mark.parametrize(
    "argv,code",
    [
        (["identity", "--n", "3", "--x", "1"], 1),  # a violation, from the broken route below
        (["identity", "--n", "-1", "--x", "1"], 2),  # a library DomainError
        (["identity", "--n", "3", "--trials", "0"], 2),  # a CLI flag refusal
        (["congruence", "fermat", "1000000007"], 2),  # a budget refusal
    ],
    ids=["violation", "library-refusal", "flag-refusal", "budget-refusal"],
)
def test_int_digit_limit_restored_on_every_exit(capsys, monkeypatch, argv, code):
    seen = []

    def broken(n, x):
        seen.append(sys.get_int_max_str_digits())
        return Fraction(0)

    if code == 1:
        monkeypatch.setattr(cli, "eval_difference_sum", broken)
    with _int_digit_limit(4300):
        assert cli.main(argv) == code
        assert sys.get_int_max_str_digits() == 4300
    assert seen == ([0] if code == 1 else [])  # lifted while the handler ran
    assert capsys.readouterr().err.startswith("error: ") == (code == 2)


def test_entry_point_runs(launcher):
    proc = subprocess.run([*launcher, "wilson", "7"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "is_prime=true" in proc.stdout
    proc = subprocess.run([*launcher, "--help"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: diffwilson ")


def test_closed_pipe_exits_141_without_traceback(launcher):
    proc = subprocess.Popen(
        [*launcher, "wilson-range", "2", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    try:
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert head == [
        "n=2: residue=1 is_prime=true oracle_agrees=true\n",
        "n=3: residue=2 is_prime=true oracle_agrees=true\n",
    ]
    assert stderr == ""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141


def test_closed_pipe_mid_json_report_exits_141_without_traceback(launcher):
    # A single-result report is written as it is produced, so the reader sees the start
    # of the object before it hangs up.
    proc = subprocess.Popen(
        [*launcher, "difftable", "--degree", "100", "--points", "1000", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    try:
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert head.startswith(b'{"schema_version": "1", "check": "difftable", "params": ')
    assert stderr == b""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE


UNWRITTEN_REPORTS = [
    ["wilson", "5"],
    ["wilson-range", "2", "5"],
    ["difftable", "--degree", "2", "--points", "5", "--json"],
]
UNWRITTEN_IDS = ["wilson", "wilson-range", "difftable-json"]


@pytest.mark.skipif(sys.platform != "linux", reason="/dev/full is a Linux device")
@pytest.mark.parametrize("argv", UNWRITTEN_REPORTS, ids=UNWRITTEN_IDS)
def test_failed_write_exits_3_without_traceback(launcher, argv):
    # Every write to /dev/full fails with ENOSPC: the report cannot be written, which is
    # neither a violation (1) nor a closed pipe (141).
    with open("/dev/full", "w") as full:
        proc = subprocess.run([*launcher, *argv], stdout=full, stderr=subprocess.PIPE,
                              text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child before exec")
@pytest.mark.parametrize("argv", UNWRITTEN_REPORTS, ids=UNWRITTEN_IDS)
def test_closed_stdout_exits_3_without_traceback(launcher, argv):
    # With fd 1 closed, sys.stdout is None: nothing can be written, so nothing is computed.
    proc = subprocess.run([*launcher, *argv], stderr=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.close(1))
    assert proc.returncode == 3
    assert proc.stderr == "error: cannot write the report: stdout is closed\n"


CLOSED_STDERR_REFUSALS = [
    ["congruence", "binom", "9"],
    ["congruence", "binom", "9", "--json"],
    ["wilson", "20000000"],  # over the n budget
    ["identity", "--n", "3", "--trials", "1000000", "--json"],  # over the terms budget
]


@pytest.mark.skipif(os.name != "posix", reason="closes fd 2 in the child before exec")
@pytest.mark.parametrize("argv", CLOSED_STDERR_REFUSALS,
                         ids=["text", "json", "n-budget", "terms-budget"])
def test_refusal_with_closed_stderr_writes_nothing(launcher, argv):
    # With fd 2 closed, sys.stderr is None, and print(file=None) would put the error
    # line on stdout, where a reader takes it for the report; the code alone must tell.
    proc = subprocess.run([*launcher, *argv], stdout=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (2, "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd") or not os.path.exists("/dev/full"),
                    reason="counts the entries of /proc/self/fd, writes to /dev/full")
def test_unwritten_report_leaves_no_descriptor_open(capsys):
    # main points the unwritable stdout at devnull; the devnull descriptor it opened for
    # that must be closed again, or each in-process run leaks one.
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        with open("/dev/full", "w") as full, redirect_stdout(full):
            assert cli.main(["wilson", "5"]) == 3
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err.count("error: cannot write the report: ") == 3


STDERR_FULL = pytest.mark.parametrize(
    "argv,stdout_full,code",
    [
        (["wilson", "1"], False, 2),
        (["congruence", "binom", "9"], False, 2),
        (["wilson", "5"], True, 3),
    ],
    ids=["wilson-refused", "congruence-refused", "wilson-both-full"],
)


def _buffered_env():
    """The environment without PYTHONUNBUFFERED: a failed write then fails again at exit."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _exit_code_with_stderr_full(argv, stdout_full, env=None):
    with open("/dev/full", "w") as full:
        return subprocess.run(argv, stdout=full if stdout_full else subprocess.DEVNULL,
                              stderr=full, env=env).returncode


@pytest.mark.skipif(sys.platform != "linux", reason="/dev/full is a Linux device")
@STDERR_FULL
def test_unwritable_stderr_keeps_the_exit_code(launcher, argv, stdout_full, code):
    # The error line cannot be written either; the code alone must still tell.
    assert _exit_code_with_stderr_full([*launcher, *argv], stdout_full) == code


@pytest.mark.skipif(sys.platform != "linux", reason="/dev/full is a Linux device")
@STDERR_FULL
def test_unwritable_buffered_stderr_keeps_the_exit_code(launcher, argv, stdout_full, code):
    assert _exit_code_with_stderr_full([*launcher, *argv], stdout_full, _buffered_env()) == code


def _help_texts():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [([], parser.format_help())] + [
        ([name], p.format_help()) for name, p in sub.choices.items()]


def test_help_is_written_by_main(capsys):
    for prefix, text in _help_texts():
        assert cli.main([*prefix, "--help"]) == 0, prefix
        assert capsys.readouterr() == (text, ""), prefix


@pytest.mark.skipif(sys.platform != "linux", reason="/dev/full is a Linux device")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_unwritable_help_exits_3(launcher, unbuffered):
    # Unbuffered, the write itself fails; buffered, the flush after it does.
    env = _buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([*launcher, "--help"], stdout=full, stderr=subprocess.PIPE,
                              text=True, env=env)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: cannot write the report: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Exception ignored" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child before exec")
def test_help_to_closed_stdout_exits_3(launcher):
    # argparse alone would print the help to stderr instead and exit 0.
    proc = subprocess.run([*launcher, "--help"], stderr=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.close(1))
    assert proc.returncode == 3
    assert proc.stderr == "error: cannot write the report: stdout is closed\n"


BIG_REPORTS = [
    ["difftable", "--degree", "100", "--points", "1000", "--json"],  # 21.5 MB of JSON
    ["congruence", "fermat", "100003", "--json"],  # 5.3 MB, 100002 entries
    ["identity", "--n", "0", "--trials", "50000", "--seed", "1", "--json"],  # 3.0 MB, 50000 rows
]


# A child's ru_maxrss counts the resident size of the process it was forked from, so the
# child is started from this small process rather than from the test run.
_PEAK_RSS_KIB = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("argv", BIG_REPORTS, ids=[" ".join(a) for a in BIG_REPORTS])
def test_big_json_report_peaks_under_40_mb(launcher, argv):
    # A report built whole before it is written peaks near 80 MB.
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_KIB, *launcher, *argv],
                          capture_output=True, text=True)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib / 1024 < 40, peak_kib


def _traced_peak(argv):
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


# Traced peaks of main in MB (10**6 bytes) under CPython 3.10.13, 3.11.7, 3.12.1 and
# 3.13.0.  The difftable text reads the lazy table by rows, one diagonal at a time: 1.15,
# 0.85, 1.12, 1.09.  Its JSON streams each column in batches: 0.95, 0.94, 1.03, 0.86, and
# 1.28, 1.27, 1.41, 1.24 with each column listed whole.  Rows and entries go out in
# batches of about JSON_BATCH values, not JSON_BATCH items, which would double the
# identity peak: 0.34, 0.33, 0.28, 0.33; congruence: 0.76, 0.73, 0.73, 0.76.
TRACED_PEAK_BOUNDS = [
    (["difftable", "--degree", "100", "--points", "1000"], 1.2e6),
    (["difftable", "--degree", "100", "--points", "1000", "--json"], 1.15e6),
    (["identity", "--n", "0", "--trials", "50000", "--seed", "1", "--json"], 0.4e6),
    (["congruence", "binom", "1999", "--json"], 0.8e6),
]


@pytest.mark.parametrize("argv,bound", TRACED_PEAK_BOUNDS,
                         ids=[" ".join(argv) for argv, _ in TRACED_PEAK_BOUNDS])
def test_streamed_report_traced_peak(argv, bound):
    assert _traced_peak(argv) < bound


# exit code 1: violations, reachable only through broken verifiers


def test_identity_violation_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "eval_difference_sum", lambda n, x: Fraction(0))
    assert cli.main(["identity", "--n", "3", "--x", "1"]) == 1
    out = capsys.readouterr().out
    assert "holds=false" in out
    assert out.endswith("status: violated\n")


def test_identity_symbolic_violation_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "symbolic_difference_poly", lambda n: ())
    assert cli.main(["identity", "--n", "3", "--x", "1", "--symbolic", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["symbolic"]["holds"] is False
    assert payload["status"] == "violated"


def test_identity_symbolic_violation_text_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "symbolic_difference_poly", lambda n: ())
    assert cli.main(["identity", "--n", "3", "--x", "1", "--symbolic"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "x=1/1: lhs=6/1 rhs=6/1 holds=true",
        "symbolic: coefficients=[] holds=false",
        "status: violated",
    ]


def test_binomial_row_fault_is_caught_pointwise_only(capsys, monkeypatch):
    # binomial_row gives only the pointwise route its weights: the symbolic route takes
    # binomial's, and poly_shift steps its own C(k, j).  So a wrong entry of the row is
    # caught pointwise, against the closed form n!, and the symbolic route still holds.
    correct = exact.binomial_row

    def faulty(m):
        row = correct(m)
        if m > 2:
            row[1] += 1
        return row

    monkeypatch.setattr(exact, "binomial_row", faulty)
    monkeypatch.setattr(identity, "binomial_row", faulty)
    assert cli.main(["identity", "--n", "4", "--x", "3", "--symbolic"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "x=3/1: lhs=8/1 rhs=24/1 holds=false",
        "symbolic: coefficients=[24/1] holds=true",
        "status: violated",
    ]


def test_lower_power_violation_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "eval_lower_power_sum", lambda n, j, x: Fraction(5))
    assert cli.main(["lower-power", "--n", "3", "--j", "1", "--x", "1"]) == 1


LATER_ROW_FAILS = [
    ("eval_difference_sum", ["identity", "--n", "4", "--trials", "5", "--seed", "1"]),
    ("eval_lower_power_sum",
     ["lower-power", "--n", "4", "--j", "2", "--trials", "5", "--seed", "1"]),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("route,argv", LATER_ROW_FAILS, ids=["identity", "lower-power"])
def test_violation_in_a_later_row_exits_1(capsys, monkeypatch, route, argv, as_json):
    # Only the third point is off by one, so a verdict settled from the first row
    # alone, or from the last, would read holds.
    real, calls = getattr(cli, route), []

    def third_off_by_one(*args):
        calls.append(args)
        return real(*args) + (len(calls) == 3)

    monkeypatch.setattr(cli, route, third_off_by_one)
    assert cli.main(argv + ["--json"] * as_json) == 1
    out = capsys.readouterr().out
    assert len(calls) == 5
    if as_json:
        payload = json.loads(out)
        assert [r["holds"] for r in payload["results"]] == [True, True, False, True, True]
        assert list(payload)[-2:] == ["holds", "status"]
        assert (payload["holds"], payload["status"]) == (False, "violated")
    else:
        assert out.count("holds=false") == 1
        assert out.splitlines()[3].endswith("holds=false")
        assert out.endswith("status: violated\n")


def test_wilson_oracle_mismatch_exits_1(capsys, monkeypatch):
    fake = PrimalityVerdict(n=6, wilson_residue=0, is_prime=False, oracle_agrees=False)
    monkeypatch.setattr(cli, "wilson_test", lambda n: fake)
    monkeypatch.setattr(cli, "wilson_sweep", lambda lo, hi: iter([fake]))
    assert cli.main(["wilson", "6"]) == 1
    assert "status: violated" in capsys.readouterr().out
    assert cli.main(["wilson-range", "6", "6"]) == 1
    assert "oracle_agrees=MISMATCH" in capsys.readouterr().out
    assert cli.main(["wilson-range", "6", "6", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["oracle_agrees"] is False


def test_congruence_violation_exits_1(capsys, monkeypatch):
    from diffwilson.modular import CongruenceEntry, CongruenceReport

    broken = CongruenceReport(
        modulus=5,
        entries=(CongruenceEntry(0, 2, 1),),
        holds=False,
    )
    monkeypatch.setitem(cli._CONGRUENCE_KINDS, "binom", lambda p: broken)
    assert cli.main(["congruence", "binom", "5"]) == 1
    assert "status: violated" in capsys.readouterr().out
    assert cli.main(["congruence", "binom", "5", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is False
    assert payload["status"] == "violated"


def test_congruence_eq1_broken_exact_sum_exits_1(capsys, monkeypatch):
    # Each lie adds p = 5 and so keeps the residue mod p; only the exact comparison
    # sees it, whether it sits in the chain's x = 0 link or in the pointwise route
    # that link calls.
    real_link, real_route = modular.alternating_power_sum_at_zero, modular.eval_difference_sum
    lies = [
        ("alternating_power_sum_at_zero", lambda p: real_link(p) + p),
        ("eval_difference_sum", lambda n, x: real_route(n, x) + n + 1),
    ]
    for name, lie in lies:
        with monkeypatch.context() as patch:
            patch.setattr(modular, name, lie)
            assert cli.main(["congruence", "eq1", "5", "--json"]) == 1, name
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert (payload["exact_lhs"], payload["exact_expected"]) == ("29", "24")
        assert payload["exact_equal"] is False
        assert payload["entries"] == [{"index": "0", "residue": "4", "expected": "4"}]
        assert (payload["holds"], payload["status"]) == (False, "violated")
        assert captured.err == ""


def test_difftable_violation_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "difference_table", lambda d, p: [iter([0, 1]), iter([7])])
    assert cli.main(["difftable", "--degree", "1", "--points", "2"]) == 1
    assert "holds=false" in capsys.readouterr().out
    assert cli.main(["difftable", "--degree", "1", "--points", "2", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is False
    assert payload["status"] == "violated"


STREAMED_TABLES = {
    "last column wrong": lambda d, p: [iter([0, 1, 4]), iter([1, 3]), iter([2, 3])],
    "too few columns": lambda d, p: [iter([0, 1, 4]), iter([1, 3])],
    "too few columns, the last one constant": lambda d, p: [iter([2, 2, 2])],
}
# The text rows of each table above, read by rows as degree 2 with 3 points.
STREAMED_ROWS = {
    "last column wrong": ["x=0: 0", "x=1: 1 1", "x=2: 4 3 2"],
    "too few columns": ["x=0: 0", "x=1: 1 1", "x=2: 4 3"],
    "too few columns, the last one constant": ["x=0: 2", "x=1: 2", "x=2: 2"],
}


@pytest.mark.parametrize("name", STREAMED_TABLES, ids=STREAMED_TABLES)
def test_streamed_difftable_violation_exits_1(capsys, monkeypatch, name):
    # holds is settled from column `degree` once the report is written, then written last;
    # a table without that column never holds.
    table = STREAMED_TABLES[name]
    monkeypatch.setattr(cli, "difference_table", table)
    assert cli.main(["difftable", "--degree", "2", "--points", "3", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == [[str(v) for v in col] for col in table(2, 3)]
    assert list(payload.items())[-2:] == [("holds", False), ("status", "violated")]
    # Text reads the same table by rows, and comes to the same verdict.
    assert cli.main(["difftable", "--degree", "2", "--points", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == [
        *STREAMED_ROWS[name], "column 2: expected=2 holds=false", "status: violated"]
    assert captured.err == ""


# exit code 2: usage errors on stderr

OVER_BUDGET = [
    ["difftable", "--degree", "2", "--points", "100000000"],
    ["congruence", "fermat", "1000000007"],
    ["congruence", "binom", "1000003"],
    ["congruence", "eq1", "100003"],
    ["identity", "--n", "3", "--trials", "100000000"],
    ["identity", "--n", "200000", "--x", "1"],
    ["identity", "--n", "3000", "--x", "1", "--symbolic"],
    ["identity", "--n", "-1", "--trials", "200000", "--seed", "1"],
]
# A wide remainder tree, and a prefix (lo-1)! reduced modulo a wide product.
OVER_BUDGET_SWEEPS = [
    ["wilson-range", "2", "10000000"],
    ["wilson-range", "2", "400000"],
    ["wilson-range", "9000000", "9100000"],
]


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["identity", "--n", "-1", "--x", "0"], "non-negative"),
        (["identity", "--n", "3", "--trials", "0"], "--trials must be at least 1"),
        (["identity", "--n", "3", "--seed", "-5"], "unsigned 64-bit"),
        (["lower-power", "--n", "3", "--j", "5", "--x", "1"], "1 <= j <= n"),
        (["lower-power", "--n", "0", "--j", "1", "--x", "1"], "1 <= j <= n"),
        (["wilson", "1"], "at least 2"),
        (["wilson", "10000001"], "over the budget"),
        (["wilson-range", "5", "4"], "empty range"),
        (["wilson-range", "1", "4"], "start at 2"),
        (["congruence", "binom", "9"], "divisible by 3"),
        (["congruence", "power-sum", "2"], "p - 1 even"),
        (["congruence", "eq1", "2"], "p - 1 even"),
        (["congruence", "binom", "1"], "at least 2"),
        (["difftable", "--degree", "2", "--points", "2"], "at least degree+1"),
        (["difftable", "--degree", "-1", "--points", "3"], "non-negative"),
        # refused by the library alone, through DomainError
        (["congruence", "fermat", "1"], "at least 2"),
        (["congruence", "eq1", "9"], "divisible by 3"),
        (["identity", "--n", "-2", "--trials", "3", "--seed", "1", "--symbolic"], "non-negative"),
        (["lower-power", "--n", "3", "--j", "0", "--trials", "2", "--seed", "1"], "1 <= j <= n"),
        (["wilson-range", "0", "3"], "start at 2"),
        # --trials and --seed have no effect beside --x
        (["identity", "--n", "3", "--x", "1", "--seed", "5", "--trials", "4"], "--x is omitted"),
        (["lower-power", "--n", "3", "--j", "1", "--x", "2", "--trials", "4"], "--x is omitted"),
        # over budget, refused before any work starts
        *[(argv, "over the budget") for argv in OVER_BUDGET],
        # a cost past the 4300-digit int/str limit is still quoted in the refusal
        (["identity", "--n", "9" * 4300], "over the budget"),
        (["lower-power", "--n", "9" * 4300, "--j", "1", "--x", "1"], "over the budget"),
        (["difftable", "--degree", "1", "--points", "9" * 4300], "over the budget"),
        *[(argv, "over the budget") for argv in OVER_BUDGET_SWEEPS],
        # a range outside the domain is refused as before, whatever its width
        (["wilson-range", "1", "10000000"], "start at 2"),
        (["wilson-range", "10000000", "2"], "empty range"),
        (["wilson-range", "1", "20000000"], "start at 2"),
        (["wilson-range", "20000000", "19999999"], "empty range"),
        (["wilson-range", "0", "10000001"], "start at 2"),
    ],
)
def test_usage_errors_exit_2(capsys, argv, fragment):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert fragment in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["identity", "--n", "3", "--x", "7/0"],
        ["identity", "--n", "3", "--x", "1.5"],
        ["congruence", "nope", "5"],
        ["identity"],
        [],
        # each subcommand refuses the flags it does not read
        ["wilson", "5", "--seed", "1"],
        ["wilson-range", "2", "5", "--trials", "3"],
        ["congruence", "binom", "5", "--max-wilson", "9"],
        ["difftable", "--degree", "2", "--points", "5", "--x", "1"],
        ["identity", "--n", "3", "--x", "1", "--max-wilson", "5"],
        # no flag lifts the n budget
        ["wilson", "5", "--max-wilson", "9"],
        ["wilson-range", "2", "5", "--max-wilson", "9"],
    ],
)
def test_argparse_rejections_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert "error" in capsys.readouterr().err


# Values for the contract test: small ints, extremes past every budget, num/den built
# from both, and malformed literals.  Medium values are left out on purpose: 10**5 is
# admitted at about half a second.
_SMALL = st.integers(-5, 60)
_INTS = (_SMALL | st.sampled_from([10**9, 10**40, -10**40])).map(str)
_RATIOS = st.builds("{}/{}".format, _INTS, _INTS)
_VALUES = _INTS | _RATIOS | st.sampled_from(["1.5", "1/0", "abc", ""])
_WELL_FORMED = {int: _INTS, cli.rational: _INTS | _RATIOS}
_OPTIONS = {flags[0] for row in cli.COMMANDS for flags, _ in row[4:] if flags[0][0] == "-"}


@st.composite
def _argv(draw):
    """argv for one COMMANDS row: every positional, each option present or not (a
    required one always), and --json or not.  Half the draws are well formed; in the
    rest any argument may take any value, and one option of another row may follow."""
    name, _, _, _, *arguments = draw(st.sampled_from(cli.COMMANDS))
    clean = draw(st.booleans())
    argv, own = [name], set()
    for flags, kwargs in arguments:
        flag = flags[0]
        own.add(flag)
        if flag[0] == "-" and not kwargs.get("required") and not draw(st.booleans()):
            continue
        if kwargs.get("action") == "store_true":
            argv.append(flag)
            continue
        choices = kwargs.get("choices")
        values = st.sampled_from(choices) if choices else _WELL_FORMED[kwargs["type"]]
        values = values if clean else values | _VALUES
        value = draw(values)
        if flag[0] != "-":
            argv.append(value)
        else:
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.booleans()):
        argv.append("--json")
    if not clean and draw(st.booleans()):
        argv += [draw(st.sampled_from(sorted(_OPTIONS - own))), draw(_VALUES)]
    return argv


@settings(deadline=None, max_examples=300)
@given(_argv())
def test_every_row_exits_0_or_2_on_drawn_argv(argv):
    # No exception but argparse's SystemExit may leave main.
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())


def test_plain_value_error_escapes_main(monkeypatch):
    # Only DomainError is a usage error; any other ValueError is a fault.
    def broken(n, x):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "eval_difference_sum", broken)
    with pytest.raises(ValueError, match="internal fault") as excinfo:
        cli.main(["identity", "--n", "3", "--x", "1"])
    assert not isinstance(excinfo.value, DomainError)


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["identity", "--n", "3", "--x", "1/0"], "invalid rational value: '1/0'"),
        (["wilson", "10000001"], "over the budget"),
        (["identity", "--n", "3000", "--x", "1", "--symbolic"], "over the budget"),
        (["wilson", "5", "--max-wilson", "9"], "unrecognized arguments: --max-wilson 9"),
    ],
    ids=["zero-denominator", "n-budget", "terms-budget", "removed-flag"],
)
def test_refusal_exits_2_without_traceback(launcher, argv, fragment):
    proc = subprocess.run([*launcher, *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert fragment in proc.stderr
    assert "Traceback" not in proc.stderr


def _never(*args):
    raise AssertionError("work started on a request over budget")


class _Started(Exception):
    """Raised by a stubbed library entry point: main let the request through."""


def _started(*args):
    raise _Started


def _stub_entry_points(monkeypatch, stub):
    # Every library call a handler makes first, so stub runs before any work does.
    for name in (
        "sample_rationals",
        "eval_difference_sum",
        "eval_lower_power_sum",
        "symbolic_difference_poly",
        "symbolic_lower_power_poly",
        "difference_table",
        "wilson_test",
        "wilson_sweep",
    ):
        monkeypatch.setattr(cli, name, stub)
    for kind in cli._CONGRUENCE_KINDS:
        monkeypatch.setitem(cli._CONGRUENCE_KINDS, kind, stub)


@pytest.mark.parametrize("argv", OVER_BUDGET + OVER_BUDGET_SWEEPS,
                         ids=[" ".join(a) for a in OVER_BUDGET + OVER_BUDGET_SWEEPS])
def test_over_budget_is_refused_before_any_work(capsys, monkeypatch, argv):
    _stub_entry_points(monkeypatch, _never)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# The largest request of each shape that the benchmark and the tests run.
ADMITTED = [
    ["identity", "--n", "200", "--trials", "25", "--seed", "1", "--symbolic", "--json"],
    ["lower-power", "--n", "200", "--j", "1", "--trials", "5", "--seed", "1", "--symbolic"],
    ["identity", "--n", "1575", "--x", "1"],
    ["congruence", "eq1", "1583"],
    ["congruence", "binom", "1999"],
    ["congruence", "fermat", "1999"],
    ["congruence", "power-sum", "1999"],
    ["difftable", "--degree", "100", "--points", "1000", "--json"],
    ["wilson-range", "2", "10050", "--json"],
    ["wilson-range", "2", "200000"],
    ["wilson-range", "999000", "1000000"],
    ["wilson-range", "10000000", "10000000"],  # a one-n range costs what wilson n does
    ["wilson", "1000000"],
]


@pytest.mark.parametrize("argv", ADMITTED, ids=[" ".join(a) for a in ADMITTED])
def test_requests_in_use_are_within_budget(capsys, monkeypatch, argv):
    # main's own budget rule admits the request: its handler reaches the library.
    _stub_entry_points(monkeypatch, _started)
    with pytest.raises(_Started):
        cli.main(argv)
    assert capsys.readouterr().err == ""


# The widest request of each shape that each budgeted unit admits (see cli.BUDGET), and
# the next one, which it refuses.  The widest symbolic requests are about a second of work
# each; the last of them costs almost only math.comb's weights C(n, i), and n = 10000
# about 10 s of them.
BUDGET_EDGES = [
    # terms
    (["identity", "--n", "1058", "--x", "1", "--symbolic"], True),
    (["identity", "--n", "1059", "--x", "1", "--symbolic"], False),
    (["lower-power", "--n", "1947", "--j", "1461", "--x", "1", "--symbolic"], True),
    (["lower-power", "--n", "1948", "--j", "1462", "--x", "1", "--symbolic"], False),
    (["lower-power", "--n", "4303", "--j", "4302", "--x", "1", "--symbolic"], True),
    (["lower-power", "--n", "4304", "--j", "4303", "--x", "1", "--symbolic"], False),
    (["lower-power", "--n", "10000", "--j", "9990", "--x", "1", "--symbolic"], False),
    (["congruence", "fermat", "150000"], True),
    (["congruence", "fermat", "150001"], False),
    (["congruence", "power-sum", "150000"], True),
    (["congruence", "power-sum", "150001"], False),
    (["difftable", "--degree", "0", "--points", "150000"], True),
    (["difftable", "--degree", "0", "--points", "150001"], False),
    # bits; ten default points at n = 755 is the one edge that sees n + 2 for n + 1
    (["identity", "--n", "755", "--seed", "1"], True),
    (["identity", "--n", "756", "--seed", "1"], False),
    (["identity", "--n", "3037", "--x", "1"], True),
    (["identity", "--n", "3038", "--x", "1"], False),
    (["lower-power", "--n", "3038", "--j", "1", "--x", "1"], True),
    (["lower-power", "--n", "3039", "--j", "1", "--x", "1"], False),
    (["congruence", "binom", "10954"], True),
    (["congruence", "binom", "10955"], False),
    (["congruence", "eq1", "3038"], True),
    (["congruence", "eq1", "3039"], False),
    (["difftable", "--degree", "100", "--points", "1130"], True),
    (["difftable", "--degree", "100", "--points", "1131"], False),
    # bits of a wilson-range: its remainder tree, then the prefix (lo-1)! of a high range
    (["wilson-range", "2", "332410"], True),
    (["wilson-range", "2", "332411"], False),
    (["wilson-range", "4219986", "4224986"], True),
    (["wilson-range", "4219987", "4224987"], False),
    # n
    (["wilson", "10000000"], True),
    (["wilson", "10000001"], False),
    (["wilson-range", "10000001", "10000001"], False),
    (["wilson-range", "2", "10000001"], False),
]


@pytest.mark.parametrize("argv,admitted", BUDGET_EDGES,
                         ids=[" ".join(argv) for argv, _ in BUDGET_EDGES])
def test_budget_edges(capsys, monkeypatch, argv, admitted):
    # Each priced unit on both sides of its edge; no request reaches any work.
    _stub_entry_points(monkeypatch, _started)
    if admitted:
        with pytest.raises(_Started):
            cli.main(argv)
    else:
        assert cli.main(argv) == 2
        assert "over the budget" in capsys.readouterr().err


FLAGS = {
    "identity": {"--json", "--n", "--x", "--trials", "--seed", "--symbolic"},
    "lower-power": {"--json", "--n", "--j", "--x", "--trials", "--seed", "--symbolic"},
    "wilson": {"--json", "n"},
    "wilson-range": {"--json", "lo", "hi"},
    "congruence": {"--json", "kind", "p"},
    "difftable": {"--json", "--degree", "--points"},
}


def test_each_subcommand_takes_exactly_its_flags():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {s for a in p._actions if a.dest != "help" for s in a.option_strings or [a.dest]}
        for name, p in sub.choices.items()
    }
    assert got == FLAGS
