"""The package and its demo scripts run from a plain source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_from_checkout(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


def test_import_leaves_sympy_out():
    """sympy is a test oracle only; the library never imports it."""
    code = "import sys, galedisc; print('sympy' in sys.modules)"
    out = run_from_checkout("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


@pytest.mark.parametrize(
    "script", ["degree_demo.py", "implicitize_demo.py", "transfer_demo.py"]
)
def test_demo_script_runs(script):
    out = run_from_checkout(str(ROOT / "scripts" / script))
    assert out.returncode == 0, out.stderr
