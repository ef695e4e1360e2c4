"""Line coverage of the package's source under the tier-1 suite.

    python3 tools/linecov.py                      # the whole tier-1 suite
    python3 tools/linecov.py tests/test_e8.py -k shell -p no:cacheprovider

Runs pytest from the root of the repository, as the tier-1 command does
(``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``, or
with the pytest arguments given instead), under a ``sys.settrace`` line
tracer.  The tracer loads into every Python process through a temporary
``sitecustomize.py`` placed first on ``PYTHONPATH``; the tests that start
subprocesses extend that variable rather than replace it, so the CLI
processes they run are counted too.  Each process writes the lines it ran in
``src/e8magic`` when it exits.

The executable lines of a module are the line numbers of ``co_lines()`` of
its compiled code, nested code objects included.  It prints one JSON
document: per module the executable count and the lines that never ran (the
number, the source text, the enclosing function, and whether that is a
``__repr__``), the totals, pytest's exit code and the wall time.  pytest's
own output goes to stderr.  It exits 1 if pytest failed or a line outside a
``__repr__`` never ran, and 0 otherwise.

One limit: a process that installs its own trace function (``tools/interleave.py``
counts bytecodes that way) stops recording from that point on.  A process
that ends by ``os._exit`` or a signal records nothing.

Stdlib only.  The tracer makes the suite about three times slower, so this
runs outside tier-1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "e8magic"
TIER1 = ["-q", "--continue-on-collection-errors"]

# the tracer every process loads at start-up: it reads its package directory
# and output directory from the environment
_SITECUSTOMIZE = '''
import atexit, os, sys, threading

_PACKAGE = os.environ["LINECOV_PACKAGE"]
_OUT = os.environ["LINECOV_OUT"]
_HITS = {}  # real path -> set of lines run
_LOCAL = {}  # co_filename -> the local tracer of its file, None outside the package


def _local_for(filename):
    path = os.path.realpath(filename)
    if not path.startswith(_PACKAGE):
        return None
    add = _HITS.setdefault(path, set()).add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local

    local.add = add
    return local


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    local = _LOCAL.get(filename, _trace)
    if local is _trace:
        local = _LOCAL[filename] = _local_for(filename)
    if local is not None:
        local.add(frame.f_lineno)  # the first line of the call
    return local


@atexit.register
def _write():
    import json

    path = os.path.join(_OUT, f"{os.getpid()}-{os.urandom(8).hex()}.json")
    with open(path, "x") as fh:
        json.dump({name: sorted(lines) for name, lines in _HITS.items()}, fh)


sys.settrace(_trace)
threading.settrace(_trace)
'''


def executable_lines(path: Path) -> dict[int, str]:
    """Line number -> qualified name of the innermost code object holding it,
    over every line that ``co_lines()`` of the compiled module names."""
    lines: dict[int, str] = {}
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:  # a parent before its children: the innermost name wins
        code = stack.pop()
        name = getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line:
                lines[line] = name
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def report(hits: dict[str, set[int]], pytest_exit: int, wall_s: float) -> dict:
    """The JSON document of a run, from the lines run per real path."""
    modules, executable, unrun, outside_repr = {}, 0, 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text().splitlines()
        ran = hits.get(os.path.realpath(path), set())
        missing = [
            {"line": n, "source": source[n - 1].strip(), "function": lines[n],
             "repr": "__repr__" in lines[n].split(".")}
            for n in sorted(set(lines) - ran)
        ]
        modules[path.name] = {"executable": len(lines), "unrun": missing}
        executable += len(lines)
        unrun += len(missing)
        outside_repr += sum(not m["repr"] for m in missing)
    return {
        "pytest_exit": pytest_exit,
        "wall_s": round(wall_s, 1),
        "total": {"executable": executable, "unrun": unrun, "unrun_outside_repr": outside_repr},
        "modules": modules,
    }


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="linecov-") as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(site), "src", env.get("PYTHONPATH")]))
        env["LINECOV_PACKAGE"] = os.path.realpath(PACKAGE) + os.sep
        env["LINECOV_OUT"] = str(out)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", *(argv or TIER1)], cwd=ROOT, env=env,
                              stdout=sys.stderr)
        wall = time.perf_counter() - start
        hits: dict[str, set[int]] = {}
        for record in out.iterdir():
            for name, lines in json.loads(record.read_text()).items():
                hits.setdefault(name, set()).update(lines)
    doc = report(hits, proc.returncode, wall)
    print(json.dumps(doc, indent=1))
    return 1 if proc.returncode or doc["total"]["unrun_outside_repr"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
