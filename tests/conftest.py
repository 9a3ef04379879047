"""A per-test watchdog: a test that runs past LIMIT seconds ends the run.

A fault that loops forever, such as a remainder tree that never reaches its
root, would otherwise hang the suite until an outer job limit kills it.
faulthandler's timer runs in its own thread, so no replay loop can swallow it
the way it can swallow an exception raised by a signal handler: at the limit it
writes every thread's traceback to the real stderr and exits the process.
"""

import faulthandler
import os

import pytest

LIMIT = 300  # seconds; the slowest test, the benchmark smoke run, takes about 20

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Capture is suspended here, so fd 2 is still the terminal or the CI log.
    config.stash[_STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _watchdog(pytestconfig):
    faulthandler.dump_traceback_later(LIMIT, exit=True, file=pytestconfig.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
