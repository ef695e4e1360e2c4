"""The import surface: each fresh process loads only the layers its verb uses.

numpy is 0.14 s of a 0.25 s `import e8magic.cli`, so a top-level import of it
in the exact layers would put that cost back on every `certify` and `series`
process.  scipy.special (0.35 s) is loaded by no module of the package, not
even by the two Bessel diagnostics; only the tests use it, as a reference.
These tests run fresh interpreters (the CLI through runpy, as
`python -m e8magic.cli` does) and read `sys.modules` at their end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import e8magic

SRC = Path(__file__).resolve().parent.parent / "src"

# a probe runs its body, then writes the exit code, the heavy packages and
# the e8magic modules loaded to the file named by its first argument
_PROLOGUE = """
import json, sys
out, code = sys.argv.pop(1), 0
"""
_REPORT = """
loaded = sorted({m.partition(".")[0] for m in sys.modules} & {"numpy", "scipy"})
loaded += sorted(m for m in sys.modules if m.startswith("e8magic."))
open(out, "w").write(json.dumps([code, loaded]))
"""
# the CLI, reading the probe's remaining arguments as `python -m e8magic.cli`
_RUN_CLI = """
import runpy
try:
    runpy.run_module("e8magic.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
"""


def _fresh(tmp_path, body: str, *argv: str) -> tuple[int, set[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("E8MAGIC_CACHE_DIR", None)
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", _PROLOGUE + body + _REPORT, str(out), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and out.is_file(), proc.stderr
    code, loaded = json.loads(out.read_text())
    return code, set(loaded)


@pytest.mark.parametrize(
    "argv,lean",
    [
        (["certify", "--target", "A"], True),
        (["series", "--form", "phi_0", "--format", "json"], True),
        (["lattice", "--max-norm", "40", "--poisson", "1.2"], True),
        (["eval", "--function", "g", "--r", "1.0"], False),
        (["plot", "--function", "A", "--range", "0.5:2", "--samples", "3"], False),
        (["bound"], True),
        (["selfcheck"], False),
    ],
)
def test_verbs_load_only_their_layers(tmp_path, argv, lean):
    """certify, series, lattice and bound load neither numpy nor the radial
    layer; no verb loads scipy."""
    code, loaded = _fresh(tmp_path, _RUN_CLI, *argv)
    assert code == 0
    assert "scipy" not in loaded
    if lean:
        assert not loaded & {"numpy", "e8magic.radial"}


def test_bare_import_loads_no_numpy(tmp_path):
    """Only the exact layers; radial and e8 wait for their first name."""
    _, loaded = _fresh(tmp_path, "import e8magic\n")
    assert loaded == {"e8magic.rigor", "e8magic.qseries", "e8magic.modforms", "e8magic.certify"}


def test_qseries_loads_no_rigor(tmp_path):
    """The series layer bounds its tails in floats: importing it alone (the
    package's own ``__init__`` imports every exact layer, so the probe stands
    in a bare package for it) loads no ``e8magic.rigor``."""
    body = (
        "import types\n"
        f"package = types.ModuleType('e8magic'); package.__path__ = [{str(SRC / 'e8magic')!r}]\n"
        "sys.modules['e8magic'] = package\n"
        "import e8magic.qseries\n"
    )
    _, loaded = _fresh(tmp_path, body)
    assert loaded == {"e8magic.qseries"}


def test_importing_radial_computes_no_quadrature_rule(tmp_path):
    """The Gauss-Legendre rule (an eigenvalue solve) waits for the first
    quadrature, which computes it once."""
    body = (
        "import numpy.polynomial.legendre as legendre\n"
        "rules, leggauss = [], legendre.leggauss\n"
        "legendre.leggauss = lambda n: rules.append(n) or leggauss(n)\n"
        "import e8magic.radial as radial\n"
        "code = [len(rules)]\n"
        "for _ in range(2):\n"
        "    radial._adaptive_gl(lambda x: (x, 0 * x), 0.0, 1.0, 1.0)\n"
        "code.append(len(rules))\n"
    )
    code, _ = _fresh(tmp_path, body)
    assert code == [0, 1]


def test_the_probe_sees_scipy_once_it_is_imported(tmp_path):
    """The checks for scipy can fail: a probe that imports it sees it."""
    _, loaded = _fresh(tmp_path, "import scipy.special\n")
    assert "scipy" in loaded


def test_the_bessel_diagnostics_load_no_scipy(tmp_path):
    """The Hankel oracle's J_3 and the Rademacher sum's I_nu are computed in
    numpy and math."""
    body = (
        "from e8magic import FormId, hankel_fourier_oracle, rademacher_coefficient\n"
        "hankel_fourier_oracle('a', 1.0)\n"
        "rademacher_coefficient(FormId.J, 1, 5)\n"
    )
    _, loaded = _fresh(tmp_path, body)
    assert "scipy" not in loaded


def test_every_public_name_resolves():
    from e8magic import density_bound, eval_g

    assert callable(eval_g) and callable(density_bound)
    for name in e8magic.__all__:
        assert getattr(e8magic, name) is not None, name
    assert set(e8magic.__all__) <= set(dir(e8magic))
    with pytest.raises(AttributeError):
        e8magic.no_such_name  # noqa: B018
