"""Record the sha256 goldens every benchmark run compares against.

    python3 perfbench/record_goldens.py

Writes perfbench/goldens.json from fresh CLI processes: the certificate JSON
for targets A (stdout) and B (--out file), and the order-200 series documents
for phi_0 and psi_S.  Re-record only for a deliberate change of these outputs.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import ROOT, check_checkout, child_env

SERIES = ("phi_0", "psi_S")
SERIES_ORDER = "200"


def cli(*argv: str) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "e8magic.cli", *argv], capture_output=True,
                          env=child_env(), cwd=ROOT, check=True)
    return proc.stdout


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    check_checkout()
    goldens = {"certify.A.stdout": sha(cli("certify", "--target", "A"))}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "b_cert.json"
        cli("certify", "--target", "B", "--out", str(out))
        goldens["certify.B.out"] = sha(out.read_bytes())
    for form in SERIES:
        goldens[f"series.{form}.{SERIES_ORDER}"] = sha(
            cli("series", "--form", form, "--order", SERIES_ORDER, "--format", "json"))
    path = Path(__file__).parent / "goldens.json"
    path.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(path.read_text(), end="")


if __name__ == "__main__":
    main()
