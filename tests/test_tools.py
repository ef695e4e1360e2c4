"""The measuring tools under tools/: a run on the repository against itself."""

import ast
import importlib.util
import json
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


def _interpreters(checkout):
    return subprocess.run([sys.executable, str(checkout / "tools" / "interpreters.py"), sys.executable],
                          capture_output=True, text=True, timeout=300)


def test_interpreters_reproduces_the_goldens_under_this_interpreter():
    """One JSON line for the one interpreter given, whose digests are the
    goldens of ``perfbench/goldens.json``; no pyenv is needed."""
    proc = _interpreters(ROOT)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    line, = map(json.loads, proc.stdout.splitlines())
    goldens = json.loads((ROOT / "perfbench" / "goldens.json").read_text())
    assert line["python"] == sys.executable and line["differ"] == []
    assert {name: line["sha256"][name] for name in goldens} == goldens
    assert len(line["sha256"]["bound.stdout"]) == 64


def test_interpreters_fails_where_a_certificate_moves(tmp_path):
    """A checkout whose leaf envelope splits at another constant writes other
    certificate bytes: exit 1, naming both certificates and nothing else."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    for part in ("tools/interpreters.py", "perfbench/goldens.json"):
        (tmp_path / part).parent.mkdir(exist_ok=True)
        shutil.copy(ROOT / part, tmp_path / part)
    certify = tmp_path / "src" / "e8magic" / "certify.py"
    certify.write_text(certify.read_text().replace("LEAF_SPLIT = Fraction(1, 2)", "LEAF_SPLIT = Fraction(5, 8)", 1))
    proc = _interpreters(tmp_path)
    assert proc.returncode == 1, (proc.stdout, proc.stderr)
    line, = map(json.loads, proc.stdout.splitlines())
    assert line["differ"] == ["certify.A.stdout", "certify.B.out"]


def _statement_lines(path) -> set[int]:
    """The lines some statement spans, functions' docstrings left out (a
    module's or a class's is stored as ``__doc__``): an estimate of the
    executable lines independent of the compiler's line table."""
    tree = ast.parse(path.read_text())
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and ast.get_docstring(node) is not None}
    return {line for node in ast.walk(tree) if isinstance(node, ast.stmt) and id(node) not in docstrings
            for line in range(min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())]),
                              node.end_lineno + 1)}


def test_linecov_reports_the_lines_a_selection_leaves_unrun():
    """On a few shell tests and one CLI probe: valid JSON, pytest's exit 0,
    exit 1 for the lines left unrun, and every line reported is a non-blank,
    non-comment line of a statement with its text.  The CLI runs only in the
    probe's subprocess, and its lines on that path count; growth, which no
    selected test imports, is reported whole."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "linecov.py"), "-q", "-p", "no:cacheprovider",
         "tests/test_e8.py", "-k", "shell and not magic or exit_4 and argv0",
         "tests/test_imports.py"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["pytest_exit"] == 0 and doc["wall_s"] > 0
    package = ROOT / "src" / "e8magic"
    assert set(doc["modules"]) == {path.name for path in package.glob("*.py")}
    unrun = {name: {entry["line"] for entry in module["unrun"]} for name, module in doc["modules"].items()}
    for name, module in doc["modules"].items():
        source = (package / name).read_text().splitlines()
        statements = _statement_lines(package / name)
        for entry in module["unrun"]:
            text = source[entry["line"] - 1].strip()
            assert entry["source"] == text and text and not text.startswith("#"), (name, entry)
            assert entry["line"] in statements, (name, entry)
        assert len(unrun[name]) <= module["executable"]
    total = doc["total"]
    assert total["unrun"] == sum(map(len, unrun.values())) and total["executable"] > total["unrun"]
    assert len(unrun["growth.py"]) == doc["modules"]["growth.py"]["executable"]
    cli = (package / "cli.py").read_text().splitlines()
    ran = [n for n, text in enumerate(cli, 1) if "which cannot be imported" in text]
    assert ran and not unrun["cli.py"] & set(ran) and unrun["cli.py"]
    shells = (package / "e8.py").read_text().splitlines()
    walk = [n for n, text in enumerate(shells, 1) if "e4 = eisenstein(4, max_norm // 2 + 1)" in text]
    assert walk and not unrun["e8.py"] & set(walk)


def test_each_mutant_targets_text_that_occurs_once_in_src():
    """Every mutant of ``tools/mutants.py`` changes text that occurs exactly
    once in ``src/``, in the module it names, and names an existing test
    file to kill it; no mutant is run here."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    sources = {path.name: path.read_text() for path in (ROOT / "src" / "e8magic").glob("*.py")}
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert sources[m.module].count(m.target) == 1, m.name
        assert sum(text.count(m.target) for text in sources.values()) == 1, m.name
        assert m.mutated != m.target and (ROOT / m.killer).is_file(), m.name
