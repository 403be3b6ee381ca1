"""Smoke test: the quick demos run to completion against the current API.

Demos 04 and 05 train real models for tens of seconds each, so they are
not run here. Every demo's imports from the package are checked instead,
so removing a name a slow demo uses fails this file at once.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_imports_exist(script):
    tree = ast.parse((DEMOS / script).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "fin_equity"
        for alias in node.names
    ]
    assert imported, f"{script} imports nothing from fin_equity"
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (
            f"{script}: {module}.{name} does not exist"
        )


@pytest.mark.parametrize(
    "script", ["01_metric_audit.py", "02_normalizer_gradients.py", "03_synthetic_cohorts.py"]
)
def test_demo_runs(script):
    r = subprocess.run([sys.executable, str(DEMOS / script)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout
