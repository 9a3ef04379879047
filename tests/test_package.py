"""The package root re-exports exactly the public names of its modules; the
result records are immutable value tuples; the CLI starts without
``dataclasses`` or ``inspect``; no source line is wider than 94 columns."""

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


def test_source_lines_fit_94_columns():
    source = pathlib.Path(diffwilson.__file__).parent
    wide = [
        f"{path.name}:{number}"
        for path in sorted(source.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 94
    ]
    assert wide == []
