"""Static check of the package sources: no module imports a name it never
uses (the package re-exports from ``__init__`` only), and ``__all__``
lists exactly what ``__init__`` imports.  Neither importing the package
nor factoring loads the ``scipy.linalg`` package: LAPACK's extension
loads from its file, and a later ``import scipy.linalg`` shares it.  No
command loads ``numpy.random``: every seeded draw comes from
``fields.SplitMix64``.  No module names ``scipy.optimize``, and neither
a command nor a ball or simplex solve loads it."""

import ast
import os
import subprocess
import sys

import pytest

import tangenteq

PACKAGE_DIR = os.path.dirname(tangenteq.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE_DIR)
                 if f.endswith(".py") and f != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nimport sys\nsys.exit()\n") \
        == [(1, "os")]
    assert _unused_imports("from a import b as c, d\nd()\n") == [(1, "c")]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as fh:
        assert _unused_imports(fh.read()) == []


def test_all_lists_every_name_the_package_imports():
    with open(os.path.join(PACKAGE_DIR, "__init__.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(tangenteq.__all__) == len(set(tangenteq.__all__))
    assert set(tangenteq.__all__) == imported | {"__version__"}


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


_UNLOADED = ("assert 'scipy.linalg' not in sys.modules, 'scipy.linalg'\n"
             "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse'\n")


def test_importing_the_package_leaves_lapack_unloaded(tmp_path):
    # LAPACK's extension loads at the first factorization, from its file:
    # neither then nor in a whole solve does scipy.linalg's package (and
    # scipy.sparse with it) load
    _run_fresh("import sys, tangenteq, tangenteq.cli\n"
               "assert 'scipy.linalg._flapack' not in sys.modules\n"
               + _UNLOADED +
               "info = tangenteq.operators.dgttrf([1.0, 1.0], [2.0] * 3,"
               " [1.0, 1.0])[-1]\n"
               "assert info == 0\n"
               "assert 'scipy.linalg._flapack' in sys.modules\n"
               + _UNLOADED)
    config = os.path.join(os.path.dirname(__file__), "..", "configs",
                          "neumann_linear.cfg")
    _run_fresh("import sys\n"
               "from tangenteq.cli import run_cli\n"
               "assert run_cli(['solve', %r, '--out', %r]) == 0\n"
               % (config, str(tmp_path)) + _UNLOADED)


def test_scipy_linalg_imported_after_a_factorization_shares_its_routines():
    _run_fresh("import numpy as np, tangenteq\n"
               "lu = tangenteq.operators.dgttrf([1.0, 2.0], [4.0] * 3,"
               " [1.0, 3.0])\n"
               "import scipy.linalg\n"
               "from scipy.linalg import lapack\n"
               "assert lapack.dgttrf is tangenteq.operators._lapack().dgttrf\n"
               "b = np.array([[1.0], [-2.0], [0.5]])\n"
               "x, info = lapack.dgttrs(*lu[:-1], b)\n"
               "y, _ = tangenteq.operators.dgttrs(*lu[:-1], b)\n"
               "assert info == 0 and x.tobytes() == y.tobytes()\n"
               "assert np.allclose(scipy.linalg.solve(np.diag([4.0] * 3)"
               " + np.diag([1.0, 2.0], -1) + np.diag([1.0, 3.0], 1), b), x)\n")


def test_no_module_names_numpy_random():
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as fh:
            assert "np.random" not in fh.read(), module


def test_no_module_names_scipy_optimize():
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as fh:
            assert "scipy.optimize" not in fh.read(), module


def test_no_command_loads_numpy_random(tmp_path):
    # numpy.random imports secrets, and secrets OpenSSL's _hashlib; nor
    # does a command, a ball solve or a simplex solve load scipy.optimize
    from tangenteq.cli import _COMMANDS
    config_dir = os.path.join(os.path.dirname(__file__), "..", "configs")
    configs = sorted(os.path.join(config_dir, f)
                     for f in os.listdir(config_dir) if f.endswith(".cfg"))
    assert len(configs) == 8
    _run_fresh("import contextlib, io, os, sys\n"
               "import numpy as np\n"
               "from tangenteq import (Ball, Grid1D, OperatorSpec, Simplex,"
               " assemble, make_nonlinearity, resolvent_iterate)\n"
               "from tangenteq.cli import run_cli\n"
               "with contextlib.redirect_stdout(io.StringIO()), \\\n"
               "        contextlib.redirect_stderr(io.StringIO()):\n"
               "    codes = [run_cli([cmd, cfg, '--out', os.path.join(%r,"
               " os.path.basename(cfg) + cmd)]) for cfg in %r for cmd in %r]\n"
               "# every applicable pair but the three designed failures\n"
               "assert codes.count(0) == 26, codes\n"
               "relay = make_nonlinearity('heaviside', {}, seed=3)\n"
               "lo, hi = relay.evaluate_grid(np.linspace(0, 1, 5),"
               " np.full((5, 1), 0.5), np.zeros((5, 1)))\n"
               "assert (lo == -1.0).all() and (hi == 1.0).all()\n"
               "for body in (Ball(np.zeros(2), 1.0), Simplex(1.0, 2)):\n"
               "    op = assemble(OperatorSpec(components=2),"
               " Grid1D(1.0, 21))\n"
               "    field = make_nonlinearity('linear', {'a': 0.5,"
               " 'b': -1.0}, components=2)\n"
               "    rep = resolvent_iterate(op, field, body,"
               " np.full((21, 2), 0.25))\n"
               "    assert rep.status == 'converged', rep.status\n"
               "for name in ('numpy.random', 'secrets', '_hashlib',"
               " 'scipy.optimize'):\n"
               "    assert name not in sys.modules, name\n"
               % (str(tmp_path), configs, sorted(_COMMANDS)))
