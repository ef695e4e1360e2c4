"""The benchmark's hold on the package: every e8magic name that a script
under perfbench/ imports, or reads as an attribute of such an import, still
resolves, and every command line it runs still parses.  The scripts are
parsed, not run; strings such as metric names are not attribute reads and
are skipped by the parse."""

import ast
import importlib
from pathlib import Path

import pytest

from e8magic.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def _is_package(module: str) -> bool:
    return module == "e8magic" or module.startswith("e8magic.")


def _uses(path: Path) -> set[tuple[str, str]]:
    """(module, dotted name) for each ``from e8magic[.module] import name``
    and each attribute chain read off a name bound by such an import (or by
    ``import e8magic``)."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # local name -> (module, dotted name in it; "" for the module itself)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_package(node.module or ""):
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_package(alias.name):
                    module = alias.name if alias.asname else alias.name.partition(".")[0]
                    bound[alias.asname or module] = (module, "")
    uses = {ref for ref in bound.values() if ref[1]}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in bound:
            module, name = bound[base.id]
            uses.add((module, ".".join(filter(None, [name, *reversed(chain)]))))
    return uses


def _resolve(module: str, dotted: str) -> None:
    """Look dotted up in module as ``from module import first`` and attribute
    reads would, importing a submodule where the module has no such attribute."""
    first, *rest = dotted.split(".")
    obj = importlib.import_module(module)
    obj = getattr(obj, first) if hasattr(obj, first) else importlib.import_module(f"{module}.{first}")
    for attr in rest:
        obj = getattr(obj, attr)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_every_package_name_the_benchmark_uses_resolves(path):
    missing = []
    for module, dotted in sorted(_uses(path)):
        try:
            _resolve(module, dotted)
        except (AttributeError, ImportError) as exc:
            missing.append(f"{module}: {dotted} ({exc})")
    assert not missing, missing


def test_the_parse_sees_imports_and_attribute_reads():
    """Names the benchmark is known to use: an import, attribute reads of an
    imported module and of an imported class; a metric name, which is only a
    string, is not among them."""
    uses = set().union(*map(_uses, SCRIPTS))
    assert {("e8magic.modforms", "build_form"), ("e8magic", "certify.NEAR_INFINITY"),
            ("e8magic.qseries", "QSeries.loads"), ("e8magic", "radial.contour_eval")} <= uses
    assert ("e8magic", "radial.eval_g_first") not in uses


# the shapes of the command lines that perfbench/workloads.py runs
_BENCHMARK_ARGV = [
    *(["eval", "--function", fn, "--r", "1.25", *deriv]
      for fn in ("a", "b", "g", "ghat") for deriv in ((), ("--deriv",))),
    ["selfcheck"],
    *(["series", "--form", form, "--order", "200", "--format", "json"] for form in ("phi_0", "psi_S")),
    *(["certify", "--target", target, *out] for target in "AB" for out in ((), ("--out", "cert.json"))),
    ["certify", "--target", "A", "--tstar", "inf"],
]


@pytest.mark.parametrize("argv", _BENCHMARK_ARGV, ids=" ".join)
def test_every_command_line_the_benchmark_runs_parses(argv):
    """A choices list that drops a value the benchmark passes fails here, not
    in a benchmark run; eval's --deriv on a and b parses and is refused by the
    verb."""
    args = build_parser().parse_args(argv)
    assert args.verb == argv[0]
