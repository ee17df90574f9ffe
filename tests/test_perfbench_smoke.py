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


def test_every_traced_name_exists(monkeypatch):
    """Each module attribute the tracer would wrap exists, checked without
    installing the wrappers, so a renamed or deleted name fails in well under
    a second."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import spans

    plan = spans._patch_plan(spans.Tracer("names"))
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in plan if not hasattr(owner, attr)]
    assert plan and missing == []
