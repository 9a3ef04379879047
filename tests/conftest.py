"""Shared fixtures: a per-test watchdog, and the two launchers of the CLI process.

The watchdog: a test that runs past LIMIT seconds ends the run.  A fault that loops
forever, such as a remainder tree that never reaches its root, would otherwise hang the
suite until an outer job limit kills it.  faulthandler's timer runs in its own thread, so
no replay loop can swallow it the way it can swallow an exception raised by a signal
handler: at the limit it writes every thread's traceback to the real stderr and exits the
process.
"""

import faulthandler
import os
import pathlib
import re
import sys

import pytest

LIMIT = 300  # seconds; the slowest test, the benchmark smoke run, takes about 20

_STDERR_FD = pytest.StashKey[int]()
_PYPROJECT = pathlib.Path(__file__).parent.parent / "pyproject.toml"


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


@pytest.fixture(scope="session")
def _console_script(tmp_path_factory):
    """The console script pip installs, shaped like its setuptools wrapper and read from
    the one line under [project.scripts], so a broken entry point fails here too."""
    name, module, function = re.search(
        r'^\[project\.scripts\]\n(\S+) = "([\w.]+):(\w+)"$', _PYPROJECT.read_text(), re.M
    ).groups()
    script = tmp_path_factory.mktemp("bin") / name
    script.write_text(f"import sys\nfrom {module} import {function}\n"
                      f"if __name__ == '__main__':\n    sys.exit({function}())\n")
    return str(script)


@pytest.fixture(params=["module", "script"])
def launcher(request):
    """The argv that starts the diffwilson process, once per way a user starts it.  A
    warning is an error in it, as it is in the suite."""
    if request.param == "module":
        start = ["-m", "diffwilson"]
    else:
        start = [request.getfixturevalue("_console_script")]
    return [sys.executable, "-W", "error", *start]
