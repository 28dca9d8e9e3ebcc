"""Import guard: the package never loads scipy.optimize.

Importing it cost a fresh process about 0.35 s of CPU and 20 MB of resident
memory (2-vCPU Xeon, scipy 1.17); the eigenpair matching uses an exact numpy
search instead.
"""

import subprocess
import sys
from pathlib import Path

import mzdmd

PACKAGE_DIR = Path(mzdmd.__file__).resolve().parent


def test_fresh_import_does_not_load_scipy_optimize():
    code = "import sys, mzdmd, mzdmd.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE_DIR.parent,
    ).stdout
    assert out.strip() == "False"


def test_no_source_file_names_scipy_optimize():
    offenders = [
        str(path.relative_to(PACKAGE_DIR))
        for path in sorted(PACKAGE_DIR.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        and b"scipy.optimize" in path.read_bytes()
    ]
    assert offenders == []
