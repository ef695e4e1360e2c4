"""The proof path's output digests under each local Python interpreter.

    python3 tools/interpreters.py                  # every pyenv CPython >= 3.10
    python3 tools/interpreters.py /usr/bin/python3.12 ...

Runs the CLI of this checkout (``PYTHONPATH=src``, no series cache) under each
interpreter and hashes what ``perfbench/goldens.json`` pins: the stdout of
``certify --target A``, the ``--out`` file of ``certify --target B``, and the
JSON documents of ``series --form phi_0`` and ``--form psi_S`` at
``--order 200``.  It hashes ``bound``'s stdout too, which no golden pins.  It
writes nothing in the checkout.  With no interpreter given it takes every
``$PYENV_ROOT/versions/X.Y.Z/bin/python3`` with X.Y >= 3.10 (``PYENV_ROOT``
defaults to ``~/.pyenv``), in version order.

It prints one JSON line per interpreter: its path and version, each sha256,
and the names of those that differ.  It exits 1 if any digest differs from
its golden, or ``bound``'s from the first interpreter's, or if a command
fails (its digest is then null); 0 otherwise.  The proof path needs no
numpy, so an interpreter without it runs every command.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text())

# digest name -> CLI arguments; "{out}" is a file in a temporary directory
COMMANDS = {
    "certify.A.stdout": ["certify", "--target", "A"],
    "certify.B.out": ["certify", "--target", "B", "--out", "{out}"],
    "series.phi_0.200": ["series", "--form", "phi_0", "--order", "200", "--format", "json"],
    "series.psi_S.200": ["series", "--form", "psi_S", "--order", "200", "--format", "json"],
    "bound.stdout": ["bound"],
}


def pyenv_pythons() -> list[str]:
    """Every pyenv CPython >= 3.10, by version."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for entry in versions.glob("*"):
        match = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", entry.name)
        exe = entry / "bin" / "python3"
        if match and (int(match[1]), int(match[2])) >= (3, 10) and exe.is_file():
            found.append((tuple(map(int, match.groups())), str(exe)))
    return [exe for _, exe in sorted(found)]


def digests(python: str) -> dict:
    """The interpreter's version and the sha256 of each command's output."""
    env = {k: v for k, v in os.environ.items() if k != "E8MAGIC_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                             capture_output=True, text=True, env=env).stdout.strip()
    shas = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out.json")
        for name, argv in COMMANDS.items():
            argv = [arg.replace("{out}", str(out)) for arg in argv]
            proc = subprocess.run([python, "-m", "e8magic.cli", *argv], capture_output=True, cwd=tmp, env=env)
            data = out.read_bytes() if "--out" in argv and proc.returncode == 0 else proc.stdout
            shas[name] = hashlib.sha256(data).hexdigest() if proc.returncode == 0 else None
    return {"python": python, "version": version, "sha256": shas}


def main(argv: list[str]) -> int:
    pythons = argv or pyenv_pythons()
    if not pythons:
        print("no interpreter given and none found under pyenv", file=sys.stderr)
        return 1
    failed, first_bound = False, None
    for python in pythons:
        line = digests(python)
        shas = line["sha256"]
        first_bound = first_bound or shas["bound.stdout"]
        expected = {**GOLDENS, "bound.stdout": first_bound}
        line["differ"] = [name for name, sha in shas.items() if sha is None or sha != expected[name]]
        failed = failed or bool(line["differ"])
        print(json.dumps(line, sort_keys=True), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
