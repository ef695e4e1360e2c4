"""The import surface: each fresh process loads only the layers its verb uses.

numpy takes 76-110 ms to import, against 33-41 ms for the whole of
`import e8magic.cli` (`python -X importtime`, 8 runs each, 2-vCPU VM), so a
top-level import of it in the exact layers would at least double that cost
for every `certify` and `series` process.  dataclasses, with the inspect,
ast, dis and tokenize it imports, takes 7-11 ms, and a frozen dataclass of
seven fields 1.0-1.1 ms to build against 0.11-0.17 ms for a
`typing.NamedTuple`: the package builds its records as NamedTuples and
small slotted classes, and no verb loads dataclasses (`import e8magic.cli`
took 36-54 ms while the layers used it).  `import e8magic` loads no
submodule: importing `certify` and `rigor` with it put 0.057-0.061 s on the
benchmark's `cold-eval` `setup_s` (0.0008 s without; medians of 10
alternated pairs, 2-vCPU VM).  hashlib, which only `series` uses, loads
OpenSSL's libcrypto: 3-4 ms of import time and 3.6 MB of RSS over a bare
interpreter.  scipy.special (0.29-0.38 s) is loaded by no module of the
package, not even by the two Bessel diagnostics; only the tests use it, as a
reference.  These tests run fresh interpreters (the CLI through runpy, as
`python -m e8magic.cli` does) and read `sys.modules` at their end.
"""

import ast
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from importlib import import_module
from pathlib import Path

import pytest

import e8magic

SRC = Path(__file__).resolve().parent.parent / "src"

# a probe runs its body, then writes the exit code, the heavy packages (and
# _hashlib, OpenSSL's libcrypto, and dataclasses and inspect) and the e8magic
# modules loaded to the file named by its first argument
_PROLOGUE = """
import json, sys
out, code = sys.argv.pop(1), 0
"""
_REPORT = """
loaded = sorted({m.partition(".")[0] for m in sys.modules} & {"numpy", "scipy", "_hashlib", "dataclasses", "inspect"})
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


_SERIES = {"modforms", "qseries"}
_CERTIFY = _SERIES | {"certify", "rigor"}
# the layers of the package each verb below loads (plot of A: the certifier's
# numeric_value); the float layer qfloat only where a verb evaluates in floats
_VERB_LAYERS = {
    "certify": _CERTIFY,
    "series": _SERIES,
    "lattice": _SERIES | {"e8"},
    "eval": _SERIES | {"radial", "qfloat"},
    "plot": _CERTIFY | {"qfloat"},
    "bound": _SERIES | {"e8"},
    "selfcheck": _CERTIFY | {"radial", "e8", "qfloat"},
}


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
    """Each verb loads exactly its layers of the package; certify, series,
    lattice and bound load no float layer and no numpy; series alone loads
    libcrypto (hashlib, for its documents' sha256); no verb loads scipy."""
    code, loaded = _fresh(tmp_path, _RUN_CLI, *argv)
    assert code == 0
    layers = _VERB_LAYERS[argv[0]]
    assert {m for m in loaded if m.startswith("e8magic.")} == {f"e8magic.{layer}" for layer in layers}
    assert ("_hashlib" in loaded) == (argv[0] == "series")
    assert "scipy" not in loaded
    if lean:
        assert "numpy" not in loaded


@pytest.mark.parametrize("argv,lean", [
    (["certify", "--target", "B"], True),
    (["series", "--form", "psi_I", "--format", "json"], True),
    (["lattice", "--max-norm", "24"], True),
    (["bound"], True),
    (["eval", "--function", "a", "--r", "2.0"], False),
    (["plot", "--function", "B", "--range", "1:2", "--samples", "2"], False),
    (["selfcheck"], False),
])
def test_no_verb_loads_dataclasses(tmp_path, argv, lean):
    """The package builds its records without dataclasses (whose import
    brings inspect, ast, dis and tokenize); the verbs that load no numpy load
    no inspect either (numpy itself imports it)."""
    code, loaded = _fresh(tmp_path, _RUN_CLI, *argv)
    assert code == 0
    assert "dataclasses" not in loaded
    if lean:
        assert "inspect" not in loaded


def test_bare_import_loads_no_numpy(tmp_path):
    """No submodule: every public name waits for its first use."""
    _, loaded = _fresh(tmp_path, "import e8magic\n")
    assert loaded == set()


def test_qseries_loads_no_rigor(tmp_path):
    """The series layer bounds its tails in floats: importing it loads no
    ``e8magic.rigor``."""
    _, loaded = _fresh(tmp_path, "import e8magic.qseries\n")
    assert loaded == {"e8magic.qseries"}


def test_qseries_imports_no_numpy():
    """The exact kernel imports numpy nowhere, not even inside a function or
    for type checking: float evaluation lives in ``qfloat``."""
    tree = ast.parse((SRC / "e8magic" / "qseries.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    assert [name for name in imported if name.partition(".")[0] == "numpy"] == []


@pytest.mark.parametrize("argv", [
    ["certify", "--target", "A"],
    ["series", "--form", "phi_0", "--format", "json"],
    ["lattice"],
    ["bound"],
])
def test_the_exact_verbs_run_where_numpy_cannot_be_imported(tmp_path, argv):
    """With numpy unimportable (a None entry in sys.modules makes every import
    of it raise ImportError), certify, series, lattice and bound still exit 0."""
    code, loaded = _fresh(tmp_path, "sys.modules['numpy'] = None\n" + _RUN_CLI, *argv)
    assert code == 0
    assert "e8magic.qfloat" not in loaded


@pytest.mark.parametrize("argv", [
    ["eval", "--function", "g", "--r", "1.0"],
    ["plot", "--function", "A", "--range", "0.5:2", "--samples", "3"],
    ["plot", "--function", "g", "--range", "0.5:2", "--samples", "3"],
    ["selfcheck"],
])
def test_the_float_verbs_exit_4_where_numpy_cannot_be_imported(tmp_path, argv):
    """A float verb run where numpy cannot be imported has valid input that
    it cannot evaluate: it exits 4 (numerical failure) with one line naming
    numpy and the extra that installs it, and no traceback."""
    body = "sys.modules['numpy'] = None\nimport io\nsys.stderr = io.StringIO()\n" + _RUN_CLI
    body += "code = [code, sys.stderr.getvalue()]\n"
    (code, stderr), _ = _fresh(tmp_path, body, *argv)
    assert code == 4
    assert stderr == "error: numerical failure: this verb evaluates in floats with numpy, which cannot be imported; install the float extra, e8magic[float]\n"


def test_selfcheck_runs_its_exact_checks_where_numpy_cannot_be_imported(tmp_path):
    """selfcheck with numpy unimportable still passes the checks that need no
    floats (the golden expansions, both certificates and the density bound),
    and prints them, before its float checks exit 4."""
    body = "sys.modules['numpy'] = None\nimport io\nsys.stdout = io.StringIO()\n" + _RUN_CLI
    body += "code = [code, sys.stdout.getvalue()]\n"
    (code, stdout), loaded = _fresh(tmp_path, body, "selfcheck")
    assert code == 4
    assert [line.split("  ")[:2] for line in stdout.splitlines()] == [["PASS", name] for name in (
        "golden expansion j", "golden expansion phi_0", "golden expansion psi_I", "golden expansion psi_S",
        "certificate A", "certificate B", "density bound pi^4/384",
    )]
    assert "e8magic.qfloat" not in loaded


def test_the_growth_diagnostics_run_where_numpy_cannot_be_imported(tmp_path):
    """The circle-method sum and the coefficient-growth check of the five
    forms the certificates' hypotheses name run with numpy unimportable, and
    load the exact catalog and nothing else of the package."""
    body = (
        "sys.modules['numpy'] = None\n"
        "from e8magic.growth import coefficient_bound_check, rademacher_coefficient\n"
        "from e8magic.modforms import FormId\n"
        "code = [rademacher_coefficient(FormId.J, 1, 50)]\n"
        "code += [coefficient_bound_check(FormId(f), 50).passed for f in sys.argv[1:]]\n"
    )
    forms = ("phi_0", "phi_-2", "phi_-4", "psi_I", "psi_S")
    code, loaded = _fresh(tmp_path, body, *forms)
    assert abs(code[0] - 196884) < 1e-6 * 196884
    assert code[1:] == [True] * len(forms)
    layers = {m for m in loaded if m.startswith("e8magic.")}
    assert layers == {"e8magic.growth", "e8magic.modforms", "e8magic.qseries"}


def _code_lines(path: Path) -> int:
    """Non-blank lines outside docstrings and comments."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def test_the_proof_path_is_no_larger_than_the_readme_states():
    """The modules the certify verb loads besides cli and __init__ hold at most
    the code lines README states, so any growth of the code a reader of the
    proof must trust shows up as a diff of that figure."""
    readme = (SRC.parent / "README.md").read_text()
    stated = re.search(r"The proof path is ([\d,]+) code lines", readme)
    assert stated, "README states no size of the proof path"
    count = sum(_code_lines(SRC / "e8magic" / f"{layer}.py") for layer in _VERB_LAYERS["certify"])
    assert count <= int(stated[1].replace(",", ""))


def test_the_package_is_no_larger_than_the_readme_states():
    """Every module of the package together holds at most the code lines
    README states, counted as for the proof path, so any net growth of the
    package shows up as a diff of that figure."""
    readme = (SRC.parent / "README.md").read_text()
    stated = re.search(r"The package is ([\d,]+) code lines", readme)
    assert stated, "README states no size of the package"
    count = sum(_code_lines(path) for path in (SRC / "e8magic").glob("*.py"))
    assert count <= int(stated[1].replace(",", ""))


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


@pytest.mark.parametrize("fn,built", [("a", {"phi"}), ("b", {"psi"}), ("g", {"phi", "psi"})])
def test_importing_radial_builds_no_series(tmp_path, fn, built):
    """radial does no exact work at import, and a pass builds the forms of its
    own integrand alone: a pass of a builds no psi form, one of b no phi (or
    varphi) form, and one of g, whose integrand A (and its scale c_a) reads
    both a and b, builds both."""
    body = (
        "import e8magic.modforms as modforms\n"
        "import e8magic.radial as radial\n"
        "code = [len(modforms._CACHE)]\n"
        f"radial.eval_{fn}(1.0)\n"
        "code.append(sorted({form.value for form, _ in modforms._CACHE}))\n"
    )
    (cached_at_import, forms), _ = _fresh(tmp_path, body)
    assert cached_at_import == 0
    assert {family for family in ("phi", "psi") if any(family in form for form in forms)} == built


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


# the public names, by their defining module
PUBLIC_NAMES = {
    "certify": ("Certificate", "ExpPolyModel", "ModelTerm", "build_model", "certify_sign", "numeric_value"),
    "modforms": ("FormId", "build_form", "eval_form", "verify_transform"),
    "growth": ("rademacher_coefficient",),
    "qseries": ("QSeries", "TruncationError"),
    "qfloat": ("EvalResult",),
    "rigor": ("Interval", "enclose_fraction", "ia_exp_poly"),
    "radial": ("RadialValue", "contour_eval", "eval_a", "eval_b", "eval_g", "eval_g_deriv",
               "hankel_fourier_oracle"),
    "e8": ("DensityBoundReport", "LatticePoint", "PoissonReport", "ShellTable", "density_bound",
           "enumerate_shells", "magic_poisson_check", "poisson_check", "shell_vectors"),
}


def test_the_public_surface_is_pinned():
    """33 names, each the object its module defines, bound by a star import
    and listed by dir()."""
    names = sorted(name for group in PUBLIC_NAMES.values() for name in group)
    assert len(names) == 33
    assert e8magic.__all__ == names
    for module, group in PUBLIC_NAMES.items():
        defining = import_module(f"e8magic.{module}")
        for name in group:
            value = getattr(e8magic, name)
            assert value is getattr(defining, name), name
            assert value.__module__ == defining.__name__, name
    namespace: dict = {}
    exec("from e8magic import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
    assert set(names) <= set(dir(e8magic))
