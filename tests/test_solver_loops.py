"""Static checks of where the solver loops live.

In ``equilibrium`` one iteration driver owns every loop: the solvers
differ only in the step map, the state they select at, an extra
acceptance test and a post-check; the sweep loop itself, with its
stopping rule and final measures, is written once in ``_drive``.

In ``problems`` every sampled hypothesis check draws its states in
batched array calls: the module holds no generator, and no verifier
loops over its samples.

In ``fields`` nothing loops: the probe table and the relay hull work on
whole arrays, a probe grid reaches the table only through the memoised
offsets (it draws no rays itself), and no method of a
``NonlinearityField`` subclass (the ones in ``problems`` included) holds
a comprehension.  Fields evaluate on rows only: ``evaluate`` is written
once, on ``NonlinearityField``, as the one-row case of
``evaluate_grid``; no field keeps a scalar twin
(``_value``, ``_rows``, a second envelope check), each field class calls
each of its functions at one site, through ``_call``, and
``StateShiftedField`` in ``problems`` defines only ``evaluate_grid``.

In ``convex`` a lifted body works on all grid nodes at once: no
``NodewiseBody`` method loops over rows and the one Dykstra loop is
``_dykstra_select``.  Bodies implement only their row methods, and
``ConvexBody`` builds the rest on them without a loop; only
``HalfspaceIntersection`` loops over rows, one least-distance program
per row, and the other bodies loop only to list their faces.
"""

import ast
import inspect

import pytest

from tangenteq import convex, equilibrium, fields, problems

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
    assert _methods_with_row_loops(convex.HalfspaceIntersection) == [
        "project_rows", "supporting_halfspaces", "tangent_project_rows"]


@pytest.mark.parametrize("cls, face_listings", [
    (convex.ConvexBody, []),
    (convex.Box, ["supporting_halfspaces"]),
    (convex.Ball, ["outer_gap", "supporting_halfspaces"]),
    (convex.Simplex, ["supporting_halfspaces"]),
], ids=["ConvexBody", "Box", "Ball", "Simplex"])
def test_closed_form_bodies_hold_no_row_loop(cls, face_listings):
    assert _methods_with_row_loops(cls) == face_listings


def test_no_nodewise_body_method_loops_over_rows():
    assert _methods_with_row_loops(convex.NodewiseBody) == []


_VERIFIERS = ("_sampled_item", "_box_face_items", "_ball_items",
              "verify_tangency", "verify_bernstein")


def test_verifiers_draw_whole_arrays():
    tree = ast.parse(inspect.getsource(problems))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Yield, ast.YieldFrom))]
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    looping = [name for name in _VERIFIERS
               if any(isinstance(inner, (ast.For, ast.While, ast.AsyncFor))
                      for inner in ast.walk(defs[name]))]
    assert looping == []


def test_ray_draws_hold_no_loop():
    # nor does anything else in ``fields``: the table, the hull, the probe
    tree = ast.parse(inspect.getsource(fields))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.For, ast.While, ast.AsyncFor))]


def _called_names(function):
    """The names ``function`` calls, as ``name(...)`` or ``x.name(...)``."""
    tree = ast.parse(inspect.getsource(function))
    return {inner.func.id if isinstance(inner.func, ast.Name)
            else inner.func.attr
            for inner in ast.walk(tree) if isinstance(inner, ast.Call)
            and isinstance(inner.func, (ast.Name, ast.Attribute))}


def test_probe_grids_take_the_memoised_offsets():
    called = _called_names(fields._probe_grid)
    assert "_probe_offsets" in called
    assert not {"default_rng", "_probe_table", "unit_ball_rays"} & called
    assert hasattr(fields._probe_offsets, "cache_info")
    assert "default_rng" in _called_names(fields._probe_table)


def _field_classes(cls=fields.NonlinearityField):
    return [cls] + [sub for child in cls.__subclasses__()
                    for sub in _field_classes(child)]


def test_no_field_method_holds_a_comprehension():
    classes = _field_classes()
    assert {cls.__name__ for cls in classes} >= {
        "NonlinearityField", "SingleValued", "IntervalValued",
        "FilippovHull", "StateShiftedField"}
    assert {cls.__name__: _methods_with_row_loops(cls)
            for cls in classes} == {cls.__name__: [] for cls in classes}


def _methods(tree):
    """Method names of every class in ``tree``, by class name."""
    return {node.name: [inner.name for inner in node.body
                        if isinstance(inner, ast.FunctionDef)]
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def _calls_of(node, name):
    return [inner for inner in ast.walk(node)
            if isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name) and inner.func.id == name]


def test_fields_evaluate_on_rows_only():
    tree = ast.parse(inspect.getsource(fields))
    methods = _methods(tree)
    assert [cls for cls, names in methods.items()
            if "evaluate" in names] == ["NonlinearityField"]
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)]
    assert names.count("evaluate") == 1
    assert not {"_value", "_rows", "_check_grid_bound"} & set(names)
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    for cls, functions in (("SingleValued", 1), ("IntervalValued", 2),
                           ("FilippovHull", 1)):
        # each function is called through ``_call`` alone, at one site
        assert len(_calls_of(classes[cls], "_call")) == functions
        assert not [inner for inner in ast.walk(classes[cls])
                    if isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in ("g", "g_lo", "g_hi")]

    methods = _methods(ast.parse(inspect.getsource(problems)))
    assert not [cls for cls, names in methods.items() if "_value" in names]
    assert methods["StateShiftedField"] == ["__init__", "evaluate_grid"]
