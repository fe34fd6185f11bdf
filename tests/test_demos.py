"""Smoke test of the narrative demos and the README's library tour: they must run against the current API."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


def run_python(*args):
    """``python -W error *args`` with the package on the path: the same warning policy as the test suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error", *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize(
    "name",
    ["01_roll_existence.py", "02_bloch_spectra.py", "03_stability_map.py", "04_amplitude_system.py"],
)
def test_demo_runs(name):
    run_python(str(DEMOS / name))


def test_readme_tour_runs():
    # The one unindented python block of the README; the indented ones are
    # probes quoted in its numerical notes.
    tours = re.findall(r"^```python\n(.*?)^```$", (DEMOS.parent / "README.md").read_text(), flags=re.M | re.S)
    assert len(tours) == 1
    run_python("-c", tours[0])


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
