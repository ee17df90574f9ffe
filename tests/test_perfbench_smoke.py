"""The benchmark's tiny-size smoke check passes against this checkout.

The traced benchmark wraps library functions by module attribute name
(perfbench/spans.py), so renaming or removing one of them breaks it; this
test catches that in the ordinary test run.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_benchmark_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
