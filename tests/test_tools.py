"""The measuring tools under tools/: a run on the repository against itself."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _interleave(parent, change, call="eval_g"):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "interleave.py"), str(parent), str(change),
                           "--call", call, "--calls", "4", "--seed", "3"],
                          capture_output=True, text=True, timeout=300)


def test_interleave_runs_the_repository_against_itself():
    """Both sides load as their own packages, return the same bits, and the
    report names each side's time and bytecodes and the per-pair ratio."""
    for call in ("eval_g", "numeric_value", "certify_sign"):
        proc = _interleave(ROOT, ROOT, call)
        assert proc.returncode == 0, proc.stderr
        counts = re.findall(r"^(parent|change) .* (\d+) bytecodes per call$", proc.stdout, re.M)
        assert [side for side, _ in counts] == ["parent", "change"] and counts[0][1] == counts[1][1], proc.stdout
        assert "ratio change / parent: median" in proc.stdout


def test_interleave_fails_where_the_bits_differ(tmp_path):
    """A checkout whose error estimate differs returns other bits: exit 1."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    radial = tmp_path / "src" / "e8magic" / "radial.py"
    text = radial.read_text()
    radial.write_text(text.replace("_QUAD_TOL = 1e-12", "_QUAD_TOL = 2e-12", 1))
    proc = _interleave(ROOT, tmp_path)
    assert proc.returncode == 1 and "!=" in proc.stderr, (proc.stdout, proc.stderr)
