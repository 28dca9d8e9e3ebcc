"""Import guards: the package never loads scipy.optimize, loads
scipy.linalg only on its first matrix exponential, and looks up no home
directory.

Importing scipy.optimize cost a fresh process about 0.35 s of CPU and 20 MB
of resident memory (2-vCPU Xeon, scipy 1.17); the eigenpair matching uses an
exact numpy search instead.  Importing scipy.linalg on top of numpy costs
0.30 s of CPU and 29 MB (0.46 s and 55 MB against 0.16 s and 27 MB for numpy
alone), so importing the package, building a config, simulating, plain DMD
and the Monte Carlo projection leave it unloaded, and only the memory-aware
fits load it, on their first ``linalg.expm``.  Their outputs must not depend
on how many CPUs scipy's BLAS sees when it loads.
"""

import ast
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mzdmd

PACKAGE_DIR = Path(mzdmd.__file__).resolve().parent


def run_fresh(code: str, *args, cwd=PACKAGE_DIR.parent, env=None) -> str:
    """Run ``code`` in a fresh interpreter that imports mzdmd from this
    checkout, in ``cwd`` and under ``env`` (this process's environment when
    None), and return what it printed."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        check=True,
        cwd=cwd,
        env=env,
    ).stdout


def test_fresh_import_does_not_load_scipy_optimize():
    code = "import sys, mzdmd, mzdmd.cli; print('scipy.optimize' in sys.modules)"
    assert run_fresh(code).strip() == "False"


def test_no_source_file_names_scipy_optimize():
    offenders = [
        str(path.relative_to(PACKAGE_DIR))
        for path in sorted(PACKAGE_DIR.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        and b"scipy.optimize" in path.read_bytes()
    ]
    assert offenders == []


def test_import_and_build_config_do_not_load_scipy():
    code = (
        "import sys, mzdmd, mzdmd.cli\n"
        "mzdmd.config.build_config({'n_u': 2, 'method': 'mz-dmd'})\n"
        "print('scipy' in sys.modules)"
    )
    assert run_fresh(code).strip() == "False"


def test_import_and_build_config_do_not_build_the_stepper():
    # the compiled RK4 stepper is built and loaded on first use, and the
    # modules only its build needs stay unloaded until then
    code = (
        "import sys, mzdmd, mzdmd.cli\n"
        "mzdmd.config.build_config({'n_u': 2})\n"
        "print(mzdmd.oscillator._rk4_kernel.cache_info().misses, 'subprocess' in sys.modules)"
    )
    assert run_fresh(code).split() == ["0", "False"]


# a user with no home directory: HOME unset and no passwd entry for the uid,
# as a container run under an arbitrary uid or a systemd DynamicUser service;
# the child imports the package and runs a sigma 1 projection in its cwd
NO_PASSWD_ENTRY_PROJECTION = (
    "import json, pwd\n"
    "def no_entry(uid):\n"
    "    raise KeyError(f'getpwuid(): uid not found: {uid}')\n"
    "pwd.getpwuid = no_entry\n"
    "import mzdmd, mzdmd.cli\n"
    "from mzdmd.config import build_config\n"
    "from mzdmd.harness import run_experiment\n"
    "run_experiment(build_config({'t_max': 2.0, 'n_points': 21, 'n_mc': 8,\n"
    "    'method': 'projection', 'output_dir': 'out'}))\n"
    "print(json.load(open('out/report.json'))['environment']['rk4'])"
)


def _environment(**variables):
    """This process's environment without HOME, mzdmd importable from this
    checkout, and ``variables`` set."""
    env = {name: value for name, value in os.environ.items() if name != "HOME"}
    return {**env, "PYTHONPATH": str(PACKAGE_DIR.parent), **variables}


def test_import_and_projection_need_no_home_directory(tmp_path):
    # the kernel's cache lives under the home directory: without one the
    # projection steps in numpy, and nothing is built under a literal "~"
    stepper = run_fresh(NO_PASSWD_ENTRY_PROJECTION, cwd=tmp_path, env=_environment())
    assert stepper.strip() == "numpy"
    assert not (tmp_path / "~").exists()


def test_a_home_directory_holds_the_kernel(tmp_path):
    # the positive control of the test above: the same child, given a home,
    # builds the kernel into it
    if shutil.which("cc") is None:
        pytest.skip("no C compiler `cc` on PATH to build the compiled stepper")
    home = tmp_path / "home"
    stepper = run_fresh(NO_PASSWD_ENTRY_PROJECTION, cwd=tmp_path, env=_environment(HOME=str(home)))
    assert stepper.strip() == "compiled"
    assert len(list((home / ".cache" / "mzdmd").glob("rk4-*.so"))) == 1


def test_projection_and_dmd_runs_do_not_load_scipy(tmp_path):
    code = (
        "import contextlib, sys\n"
        "from mzdmd.cli import main\n"
        "from mzdmd.config import build_config\n"
        "from mzdmd.harness import run_experiment\n"
        "with contextlib.redirect_stdout(sys.stderr):\n"
        "    assert main(['simulate', '--out', sys.argv[1] + '/simulate']) == 0\n"
        "print('simulate', 'scipy' in sys.modules)\n"
        "for method in ('projection', 'dmd'):\n"
        "    run_experiment(build_config({'t_max': 6.0, 'n_points': 61, 'n_mc': 8,\n"
        "        'method': method, 'output_dir': sys.argv[1] + '/' + method}))\n"
        "    print(method, 'scipy' in sys.modules)"
    )
    assert run_fresh(code, tmp_path).split() == ["simulate", "False", "projection", "False", "dmd", "False"]
    assert (tmp_path / "simulate" / "measurement.csv").is_file()
    assert (tmp_path / "projection" / "projection.csv").is_file()
    assert (tmp_path / "dmd" / "dmd.csv").is_file()


def test_every_name_the_traced_benchmark_wraps_resolves():
    # perfbench/spans.py's TARGETS names the (module, attribute) pairs whose
    # calls a traced benchmark run times; one renamed or inlined away here
    # would fail only the benchmark
    tree = ast.parse((PACKAGE_DIR.parents[1] / "perfbench" / "spans.py").read_text())
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    names = [(row.elts[0].value, row.elts[1].value) for row in targets.elts]
    missing = [f"mzdmd.{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(f"mzdmd.{module}"), attr)]
    assert len(names) > 1 and missing == []


def test_memory_fits_are_timed_after_scipy_loads(tmp_path):
    # the first memory-aware fit of a run must not be charged scipy's
    # one-time load: scipy.linalg is in place when its fit is entered
    code = (
        "import sys\n"
        "from mzdmd import harness\n"
        "from mzdmd.config import build_config\n"
        "seen, method = [], harness.METHODS['mz-dmd']\n"
        "def fit(cfg, snapshots):\n"
        "    seen.append('scipy.linalg' in sys.modules)\n"
        "    return method.fit(cfg, snapshots)\n"
        "harness.METHODS['mz-dmd'] = method._replace(fit=fit)\n"
        "harness.run_experiment(build_config({'t_max': 6.0, 'n_points': 61, 'n_mc': 8, 'n_u': 2,\n"
        "    'method': 'all', 'output_dir': sys.argv[1]}))\n"
        "print(*seen)"
    )
    assert run_fresh(code, tmp_path).split() == ["True"]


def test_first_expm_loads_scipy_linalg_with_the_same_bits():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from mzdmd import linalg\n"
        "a = np.random.default_rng(3).standard_normal((4, 3, 3))\n"
        "print('scipy' in sys.modules)\n"
        "ours = linalg.expm(a)\n"
        "print('scipy.linalg' in sys.modules)\n"
        "import scipy.linalg\n"
        "print(ours.tobytes() == scipy.linalg.expm(a).tobytes())\n"
        "print(linalg.expm(a[0]).tobytes() == scipy.linalg.expm(a[0]).tobytes())"
    )
    assert run_fresh(code).split() == ["False", "True", "True", "True"]


def imported_modules(nodes):
    """(line, module names) of each import statement among the ``ast``
    ``nodes``; a relative import's name keeps its leading dots."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, ["." * node.level + (node.module or "")]


def test_no_source_file_imports_scipy_at_module_level():
    offenders = [
        f"{path.relative_to(PACKAGE_DIR)}:{lineno}"
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for lineno, names in imported_modules(ast.parse(path.read_text()).body)
        if any(name == "scipy" or name.startswith("scipy.") for name in names)
    ]
    assert offenders == []


def test_oscillator_imports_only_errors_from_the_package():
    # the simulator is a leaf: the measurement and the fits build on it, so
    # no import anywhere in the module, function bodies included, reaches them
    tree = ast.parse((PACKAGE_DIR / "oscillator.py").read_text())
    package = [name for _, names in imported_modules(ast.walk(tree)) for name in names
               if name.startswith(".") or name.split(".")[0] == "mzdmd"]
    assert package == [".errors"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_fit_outputs_do_not_depend_on_cpus_at_first_expm(tmp_path):
    # one interpreter pins itself to a single CPU after importing the package
    # and before its first expm, as a benchmark that pins its process does,
    # so scipy's BLAS loads seeing one CPU; the other keeps every CPU
    code = (
        "import os, sys\n"
        "from mzdmd.config import build_config\n"
        "from mzdmd.harness import run_experiment\n"
        "if sys.argv[2] == 'pin':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "print('scipy' in sys.modules)\n"
        "for method in ('mz-dmd', 't-model'):\n"
        "    run_experiment(build_config({'t_max': 6.0, 'n_points': 61, 'n_mc': 8, 'n_u': 2,\n"
        "        'method': method, 'output_dir': sys.argv[1] + '/' + method}))\n"
        "print(len(os.sched_getaffinity(0)), 'scipy.linalg' in sys.modules)"
    )
    pinned = run_fresh(code, tmp_path / "pinned", "pin").split()
    free = run_fresh(code, tmp_path / "free", "free").split()
    assert pinned == ["False", "1", "True"] and free[::2] == ["False", "True"]
    csvs = sorted(p.relative_to(tmp_path / "free") for p in (tmp_path / "free").rglob("*.csv"))
    assert len(csvs) == 6
    for rel in csvs:
        assert (tmp_path / "pinned" / rel).read_bytes() == (tmp_path / "free" / rel).read_bytes(), rel
