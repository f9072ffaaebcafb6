"""Static check of the package sources: no module imports a name it never
uses (the package re-exports from ``__init__`` only), and ``__all__``
lists exactly what ``__init__`` imports.  Importing the package leaves
``scipy.linalg`` unloaded until the first factorization."""

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


def test_importing_the_package_leaves_lapack_unloaded():
    script = ("import sys, tangenteq, tangenteq.cli\n"
              "assert 'scipy.linalg' not in sys.modules\n"
              "info = tangenteq.operators.dgttrf([1.0, 1.0], [2.0] * 3,"
              " [1.0, 1.0])[-1]\n"
              "assert info == 0\n"
              "assert 'scipy.linalg' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
