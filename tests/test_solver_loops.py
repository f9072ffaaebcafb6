"""Static check of ``equilibrium``: one iteration driver owns every loop.

The solvers differ only in the step map, the state they select at, an
extra acceptance test and a post-check; the sweep loop itself, with its
stopping rule and final measures, is written once in ``_drive``.
"""

import ast
import inspect

from tangenteq import equilibrium

DRIVER = "_drive"


def _functions_with_loops(source):
    """Names of the outermost functions and classes holding a ``for`` or
    ``while`` statement (comprehensions are not statements)."""
    tree = ast.parse(source)
    return sorted(node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and any(isinstance(inner, (ast.For, ast.While,
                                             ast.AsyncFor))
                          for inner in ast.walk(node)))


def test_the_check_sees_nested_loops():
    source = ("def a():\n    def b():\n        while True:\n"
              "            pass\n"
              "def c():\n    return [x for x in ()]\n"
              "class D:\n    def e(self):\n        for x in ():\n"
              "            pass\n")
    assert _functions_with_loops(source) == ["D", "a"]


def test_only_the_driver_loops():
    source = inspect.getsource(equilibrium)
    assert _functions_with_loops(source) == [DRIVER]
    loops = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.For, ast.While, ast.AsyncFor))]
    assert len(loops) == 1
