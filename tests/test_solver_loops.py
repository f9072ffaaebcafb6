"""Static checks of where the solver loops live.

In ``equilibrium`` one iteration driver owns every loop: the solvers
differ only in the step map, the state they select at, an extra
acceptance test and a post-check; the sweep loop itself, with its
stopping rule and final measures, is written once in ``_drive``.

In ``convex`` a lifted body works on all grid nodes at once: no
``NodewiseBody`` method loops over rows; the one Dykstra loop is
``_dykstra_select``, and a row loop survives only in the ``ConvexBody``
defaults for a body without row-batched projections.
"""

import ast
import inspect

from tangenteq import convex, equilibrium

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


_ROW_LOOPS = (ast.For, ast.While, ast.AsyncFor, ast.ListComp, ast.SetComp,
              ast.DictComp, ast.GeneratorExp)


def _methods_with_row_loops(cls):
    """Names of the methods of ``cls`` holding a loop or a comprehension."""
    tree = ast.parse(inspect.getsource(cls))
    return sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and any(isinstance(inner, _ROW_LOOPS)
                          for inner in ast.walk(node)))


def test_the_row_loop_check_sees_comprehensions():
    assert _methods_with_row_loops(convex.ConvexBody) == [
        "project_rows", "tangent_project_rows"]


def test_no_nodewise_body_method_loops_over_rows():
    assert _methods_with_row_loops(convex.NodewiseBody) == []
