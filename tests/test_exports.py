"""Exported names resolve, and each layer loads only the layers it uses."""

import ast
import importlib
import json
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fcmlab

from test_cli import base_spec, deficient_overrides, write_spec

MODULES = ["fcmlab"] + sorted(
    info.name
    for info in pkgutil.iter_modules(fcmlab.__path__, "fcmlab.")
    if info.name != "fcmlab.__main__"
)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def benchmark_imports():
    """``(file, module, name)`` of every ``from fcmlab... import name`` under ``benchmarks/``."""
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fcmlab":
                yield from ((path.name, node.module, alias.name) for alias in node.names)


@pytest.mark.parametrize("file, module, name", list(benchmark_imports()))
def test_benchmark_imports_resolve(file, module, name):
    # The benchmark calls the library API directly; a moved name would
    # otherwise break only its traced pass.
    found = importlib.import_module(module)
    assert hasattr(found, name) or importlib.util.find_spec(f"{module}.{name}") is not None


def run_child(code: str, *args: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout's fcmlab."""
    src = str(Path(fcmlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr


def test_package_cli_and_fileio_load_no_scipy():
    run_child(
        "import sys, fcmlab, fcmlab.cli, fcmlab.fileio\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded'"
    )


def test_fileio_loads_no_solver_or_diagnosis():
    run_child(
        "import sys, fcmlab.fileio\n"
        "loaded = {'fcmlab.estimator', 'fcmlab.identifiability'} & set(sys.modules)\n"
        "assert not loaded, loaded"
    )


def test_reproduce_list_and_an_unknown_name_load_no_scipy():
    run_child(
        "import contextlib, io, sys\n"
        "from fcmlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [main(['reproduce', '--list']), main(['reproduce', '--name', 'no-such'])]\n"
        "assert codes == [0, 2], codes\n"
        "loaded = {'scipy', 'fcmlab.estimator', 'fcmlab.identifiability'} & set(sys.modules)\n"
        "assert not loaded, loaded"
    )


def test_simulate_and_downsample_load_no_scipy(tmp_path):
    spec = write_spec(tmp_path)
    run_child(
        "import sys\n"
        "from fcmlab.cli import main\n"
        "spec, out = sys.argv[1:]\n"
        "codes = [main(['simulate', '--spec', spec, '--out', out]),\n"
        "         main(['downsample', '--design', out + '/manifest.json', '--U', '0.25',\n"
        "               '--out', out + '/rows.csv'])]\n"
        "assert codes == [0, 0], codes\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded'",
        str(spec),
        str(tmp_path / "design"),
    )


def test_fit_loads_no_scipy(tmp_path):
    # On a rank-deficient design: the truncated and ridge fits succeed,
    # and the direct fit refuses with exit 3.
    spec = write_spec(tmp_path, **deficient_overrides())
    run_child(
        "import contextlib, io, sys\n"
        "from fcmlab.cli import main\n"
        "spec, out = sys.argv[1:]\n"
        "fit = ['fit', '--design', out + '/manifest.json', '--out', out + '/fit.json']\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [main(['simulate', '--spec', spec, '--out', out]),\n"
        "             main([*fit, '--solver', 'svd']),\n"
        "             main([*fit, '--solver', 'ridge', '--lambda', '1e-6']),\n"
        "             main(fit)]\n"
        "assert codes == [0, 0, 0, 3], codes\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded'",
        str(spec),
        str(tmp_path / "design"),
    )


@pytest.mark.parametrize(
    "covariate, orders",
    [
        # A damped sinusoid, of order 2: a few Cholesky pivots explain its
        # embedding Gram, so its singular values settle it.
        ({"kind": "self_similar", "params": {"terms": [{"a": -0.5, "b": 3.0}]}}, [2, 2, 2]),
        # Broadband noise: the certificate settles every curve.
        (base_spec()["covariates"][0], [None, None, None]),
    ],
    ids=["self_similar", "filtered_noise"],
)
def test_diagnose_loads_no_scipy(tmp_path, covariate, orders):
    spec = write_spec(tmp_path, covariates=[covariate])
    run_child(
        "import contextlib, io, json, sys\n"
        "from fcmlab.cli import main\n"
        "spec, out, orders = sys.argv[1:]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['simulate', '--spec', spec, '--out', out]),\n"
        "             main(['diagnose', '--design', out + '/manifest.json', '--out', out + '/d.json',\n"
        "                   '--residuals-csv', out + '/r.csv'])]\n"
        "assert codes == [0, 0], codes\n"
        "entries = json.load(open(out + '/d.json'))['covariates']\n"
        "assert [e['estimated_order'] for e in entries] == json.loads(orders), entries\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded'",
        str(spec),
        str(tmp_path / "design"),
        json.dumps(orders),
    )
