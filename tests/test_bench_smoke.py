"""The benchmark's own smoke check, run as part of the suite.

``bench/smoke.py`` runs every workload at a tiny size, end to end and
traced, and fails when a span the traced run requires never fires.  Running
it here makes a refactor that silences such a span fail the suite.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SMOKE = ROOT / "bench" / "smoke.py"


@pytest.mark.skipif(not SMOKE.is_file(), reason="no bench/ in this checkout")
def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(SMOKE)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: all checks passed" in proc.stdout
