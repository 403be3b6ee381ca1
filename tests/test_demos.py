"""Smoke test: the quick demos run to completion against the current API.

Demos 04 and 05 train real models for tens of seconds each, so they are
left out here to keep the suite fast; run them by hand after API changes.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script", ["01_metric_audit.py", "02_normalizer_gradients.py", "03_synthetic_cohorts.py"]
)
def test_demo_runs(script):
    r = subprocess.run([sys.executable, str(DEMOS / script)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout
