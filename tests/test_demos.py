"""Smoke test of the narrative demos: they must run against the current API."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize(
    "name",
    ["01_roll_existence.py", "02_bloch_spectra.py", "03_stability_map.py", "04_amplitude_system.py"],
)
def test_demo_runs(name):
    # -W error: the demos meet the same warning policy as the test suite
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / name)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_dynamic_rates_demo_imports_exist():
    # the integration demo takes too long for tier-1; check only its imports
    tree = ast.parse((DEMOS / "05_dynamic_rates.py").read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "conslaw"
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
