"""Timing spans wrapped around the package's public functions, from outside.

Nothing in the package changes: ``Tracer.installed()`` swaps each named
function for a timing wrapper in every namespace that holds it (the
defining module, every module that imported it with ``from .x import``,
the package root, and module-level dicts such as the CLI's table of
congruence report functions), and puts the originals back on exit.

Spans nest.  Each span name accumulates a call count, an inclusive time and
a self time (inclusive minus the inclusive time of the spans directly
beneath it), plus a per-call work count where one is defined.
"""

from __future__ import annotations

import functools
import io
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

MODULES = ("diffwilson", "diffwilson.exact", "diffwilson.identity",
           "diffwilson.modular", "diffwilson.cli")


def _sum_terms(n, *args, **kwargs):
    return n + 1


def _factorial_mults(n, *args, **kwargs):
    return n


# span name -> (module, function names, per-call work count or None)
SPANS = {
    "exact.poly_shift": ("diffwilson.exact", ("poly_shift",), None),
    "exact.poly_axpy": ("diffwilson.exact", ("poly_axpy",), None),
    "exact.binomial": ("diffwilson.exact", ("binomial",), None),
    "exact.binomial_row": ("diffwilson.exact", ("binomial_row",), None),
    "exact.factorial": ("diffwilson.exact", ("factorial",), None),
    "exact.format_rational": ("diffwilson.exact", ("format_rational",), None),
    "exact.format_poly": ("diffwilson.exact", ("format_poly",), None),
    "identity.symbolic": (
        "diffwilson.identity",
        ("symbolic_difference_poly", "symbolic_lower_power_poly"),
        None,
    ),
    "identity.pointwise": (
        "diffwilson.identity",
        ("eval_difference_sum", "eval_lower_power_sum"),
        _sum_terms,
    ),
    "identity.difference_table": ("diffwilson.identity", ("difference_table",), None),
    "modular.factorial_mod": ("diffwilson.modular", ("factorial_mod",), _factorial_mults),
    "modular.smallest_divisor": ("diffwilson.modular", ("smallest_divisor",), None),
    "modular.wilson_test": ("diffwilson.modular", ("wilson_test",), None),
    "modular.mod_pow": ("diffwilson.modular", ("mod_pow",), None),
    "modular.congruence": (
        "diffwilson.modular",
        ("binomial_row_mod", "fermat_check", "power_sum_mod", "identity_at_zero_mod"),
        None,
    ),
    "modular.alternating_power_sum_at_zero": (
        "diffwilson.modular", ("alternating_power_sum_at_zero",), None,
    ),
    "cli.main": ("diffwilson.cli", ("main",), None),
    # build_parser, plus parse_args on the parser it returns.
    "cli.parse": ("diffwilson.cli", ("build_parser",), None),
}


@dataclass
class SpanStats:
    calls: int = 0
    work: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregated nested spans for one replay; ``reset`` starts a new one."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._children: list[float] = []  # child time per open span

    def reset(self) -> None:
        self.stats = {name: SpanStats() for name in SPANS}
        self._children = []

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._children
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                s = self.stats[name]
                s.calls += 1
                s.total_s += dt
                s.self_s += dt - child
                if work is not None:
                    s.work += work(*args, **kwargs)
                if stack:
                    stack[-1] += dt

        return wrapper

    def _parser_wrapper(self, build_parser):
        timed_build = self.wrap("cli.parse", build_parser)

        @functools.wraps(build_parser)
        def wrapper(*args, **kwargs):
            parser = timed_build(*args, **kwargs)
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every namespace that holds a traced function; restore on exit."""
        mods = [sys.modules[m] for m in MODULES]
        wrappers = {}
        for name, (module, funcs, work) in SPANS.items():
            for func in funcs:
                orig = getattr(sys.modules[module], func)
                if name == "cli.parse":
                    wrappers[id(orig)] = (orig, self._parser_wrapper(orig))
                else:
                    wrappers[id(orig)] = (orig, self.wrap(name, orig, work))
        undo = []
        for mod in mods:
            containers = [vars(mod)] + [v for v in vars(mod).values() if type(v) is dict]
            for container in containers:
                for key, value in list(container.items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        container[key] = hit[1]
                        undo.append((container, key, value))
        try:
            yield
        finally:
            for container, key, value in undo:
                container[key] = value


def call_main(main, argv) -> tuple[int, str, str, float, bool]:
    """Run ``main(argv)`` with stdout and stderr captured in memory.

    Returns exit code, stdout, stderr, the seconds spent inside ``main`` and
    whether it crashed.  An exception escaping ``main`` (other than the
    ``SystemExit`` of a usage error) is a crash, reported as the interpreter
    would report it: exit code 1 with the traceback on stderr.
    """
    crashed = False
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter()
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # noqa: BLE001 - a crash of the program under test is data
        code, crashed = 1, True
        err.write(traceback.format_exc())
    finally:
        dt = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), dt, crashed
