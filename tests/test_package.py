"""The package root re-exports exactly the public names of its modules; the
result records are immutable value tuples; the CLI starts without
``dataclasses`` or ``inspect``, and loads ``json`` and ``fractions`` only in the runs
that use them; no source line is wider than 94 columns."""

import pathlib
import subprocess
import sys

import pytest

import diffwilson
from diffwilson import exact, identity, modular


def test_root_exports_every_module_name_once():
    modules = (exact, identity, modular)
    expected = [name for mod in modules for name in mod.__all__] + ["__version__"]
    assert diffwilson.__all__ == expected
    assert len(set(diffwilson.__all__)) == len(diffwilson.__all__)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(diffwilson, name) is getattr(mod, name), name
    assert isinstance(diffwilson.__version__, str)


RECORDS = [
    (modular.CongruenceEntry, ("index", "residue", "expected"), (2, 1, 1), {}),
    (
        modular.CongruenceReport,
        ("modulus", "entries", "holds", "exact_lhs", "exact_expected"),
        (5, (modular.CongruenceEntry(0, 4, 4),), True, 24, 24),
        {"exact_lhs": None, "exact_expected": None},
    ),
    (
        modular.PrimalityVerdict,
        ("n", "wilson_residue", "is_prime", "oracle_agrees"),
        (5, 4, True, True),
        {},
    ),
]


@pytest.mark.parametrize(
    "cls,fields,values,defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_result_records_are_immutable_value_tuples(cls, fields, values, defaults):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    a = cls(**dict(zip(fields, values)))
    b = cls(*values)
    assert a == b and hash(a) == hash(b)
    assert a == values and tuple(a) == values
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    code = (
        "import sys, argparse, json, fractions, random, re, typing, contextlib\n"
        "before = set(sys.modules)\n"
        "import diffwilson.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "diffwilson.cli" in added
    assert not added & {"dataclasses", "inspect"}


# Runs main in a fresh interpreter and reports, on stderr, which of the modules that
# load on first use it loaded.
_LAZY_PROBE = """
import sys
before = set(sys.modules)
import diffwilson.cli
if sys.argv[1:]:
    diffwilson.cli.main(sys.argv[1:])
added = set(sys.modules) - before
print(*sorted(added & {"json", "fractions", "decimal"}), file=sys.stderr)
"""


LAZY_CASES = [
    ([], set()),
    (["wilson", "5"], set()),
    (["wilson-range", "2", "12", "--json"], set()),
    (["congruence", "binom", "7"], set()),
    (["difftable", "--degree", "2", "--points", "5"], set()),
    (["wilson", "5", "--json"], {"json"}),
    (["identity", "--n", "3", "--x", "7"], {"fractions", "decimal"}),
]


@pytest.mark.parametrize(
    "argv,loads", LAZY_CASES, ids=[" ".join(argv) or "import" for argv, _ in LAZY_CASES]
)
def test_cli_loads_json_and_fractions_only_when_used(argv, loads):
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stderr.split()) == loads


def test_exact_fraction_loads_on_first_use():
    code = (
        "import sys\n"
        "from diffwilson import exact\n"
        "print('fractions' in sys.modules)\n"
        "print(exact.Fraction is sys.modules['fractions'].Fraction)\n"
        "try:\n"
        "    exact.Fractions\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False",
        "True",
        "module 'diffwilson.exact' has no attribute 'Fractions'",
    ]


def test_source_lines_fit_94_columns():
    source = pathlib.Path(diffwilson.__file__).parent
    wide = [
        f"{path.name}:{number}"
        for path in sorted(source.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 94
    ]
    assert wide == []
