"""The documents name what exists and run as written: every function and
check that the derivation in ``mzdmd.objectives`` names is present, and
the README's Python blocks run."""

import ast
import re
import subprocess
import sys
from pathlib import Path

from mzdmd import objectives
from mzdmd.selfcheck import CHECKS

ROOT = Path(__file__).resolve().parent.parent


def derivation_rows(doc):
    """(title, functions, checks) of each numbered step of a derivation
    written as ``objectives``' module docstring writes it."""
    for row in re.split(r"^(?=\d+\. )", doc, flags=re.M)[1:]:
        title = re.match(r"\d+\. ([\w -]+)", row).group(1)
        computed = re.search(r"computed by: (.*?)checked by:", row, re.S).group(1)
        checked = re.search(r"checked by: (.*)", row, re.S).group(1)
        yield title, re.split(r"[,\s]+", computed.strip()), re.split(r"[,\s]+", checked.strip())


def defined_in(path, qualname):
    """Whether the file at ``path``, from the repository root, defines the
    function or class ``qualname``, each part nested in the one before."""
    body = ast.parse((ROOT / path).read_text()).body
    for name in qualname:
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def resolves_function(name):
    """A function as ``file::name``, or as a dotted name in ``objectives``."""
    path, _, qualname = name.rpartition("::")
    if path:
        return defined_in(path, qualname.split("::"))
    obj = objectives
    for part in name.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def resolves_check(name):
    """A check as ``file::Test...`` or ``file::[Class::]test_...``, or as
    the function of a ``selfcheck.CHECKS`` row."""
    path, *qualname = name.split("::")
    if qualname:
        return qualname[-1].startswith(("test_", "Test")) and defined_in(path, qualname)
    return name in {check.deviation.__name__ for check in CHECKS}


def test_derivation_names_only_functions_and_checks_that_exist():
    rows = list(derivation_rows(objectives.__doc__))
    assert [title for title, _, _ in rows] == [
        "Kernel recursion in the eigenbasis", "Operator form", "Memory columns", "Block chain",
        "Objectives", "First order", "Gradient",
    ]
    for title, functions, checks in rows:
        assert functions and checks, title
        assert [name for name in functions if not resolves_function(name)] == [], title
        assert [name for name in checks if not resolves_check(name)] == [], title


def test_a_renamed_check_or_function_does_not_resolve():
    assert not resolves_check("cayley_forms")
    assert not resolves_check("tests/test_objectives.py::TestMemoryKernels::test_no_such_test")
    assert not resolves_check("tests/test_objectives.py::_naive_objective")
    assert not resolves_function("linalg.no_such_function")
    assert not resolves_function("tests/memory_kernels.py::no_such_oracle")


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", block],
            capture_output=True, text=True, cwd=ROOT / "src",
        )
        assert result.returncode == 0, result.stderr
