"""The demos run from a checkout and print their headline results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo,lines",
    [
        ("01_magic_function_tour.py", ["g(0)    = 1.000000000000000"]),
        ("02_certify_inequalities.py", ["target A: certified", "target B: certified"]),
        ("03_e8_density_bound.py", ["Delta_8       <= 0.253669508  -- attained by E8, so equality holds."]),
    ],
)
def test_demo_runs(tmp_path, demo, lines):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # run where a demo may write its figure without touching the checkout
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    for line in lines:
        assert any(row.startswith(line) for row in out), line
