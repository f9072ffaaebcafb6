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

In ``convex`` a lifted constraint works on all grid nodes at once: no
sweep method of ``ConvexBody`` (a body is its own lift) or
``MovingBox`` (the one nodewise box) loops over rows, and no selection
iterates: the only loop statement is the column sum of ``_row_sums``.
Bodies implement only their row methods, and ``ConvexBody`` builds the
rest on them without a loop, in a comprehension or otherwise.  No module
of the package lifts a constraint in two steps: every ``.lift(`` call
passes the node and component counts, and nothing calls ``.broadcast(``.
A ``Box`` is a ``MovingBox`` of one row: ``convex`` never tiles bounds
(no ``np.tile``), and no module tells the two apart in one
``isinstance`` tuple.

Every row norm and row sum in the package goes through ``convex``'s one
row-sum rule (``_row_sums``, ``_row_norms``), so a one-point measure and
its grid kernel round alike: nothing calls ``np.linalg.norm``, and
nothing sums along rows with ``np.sum``, ``np.add.reduce`` or ``.sum``
(an integer count along rows is ``np.count_nonzero``).

Every number an entry point takes is guarded by the one check of its
kind in ``errors``: no ``raise`` in the numerical modules carries a
message of its own that a number "must be positive", "must be finite"
or "must be an integer".
"""

import ast
import inspect
from pathlib import Path

import pytest

import tangenteq
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


class _RowLoops:
    """A body whose methods loop over rows in each way the check looks
    for, and one that does not."""

    def listed(self, X):
        return [x for x in X]

    def keyed(self, X):
        return {i: x for i, x in enumerate(X)}

    def summed(self, X):
        return sum(x for x in X)

    def walked(self, X):
        while X:
            X = X[1:]

    def whole(self, X):
        return X + 1.0


def test_the_row_loop_check_sees_comprehensions():
    assert _methods_with_row_loops(_RowLoops) == [
        "keyed", "listed", "summed", "walked"]


def test_no_selection_iterates():
    assert _functions_with_loops(inspect.getsource(convex)) == ["_row_sums"]


@pytest.mark.parametrize("cls", [
    convex.ConvexBody, convex.Box, convex.Ball, convex.Simplex,
], ids=["ConvexBody", "Box", "Ball", "Simplex"])
def test_closed_form_bodies_hold_no_row_loop(cls):
    assert _methods_with_row_loops(cls) == []


def test_no_sweep_method_of_a_lifted_constraint_loops_over_rows():
    for cls in (convex.ConvexBody, convex.MovingBox):
        assert _methods_with_row_loops(cls) == []


def _package_trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(Path(tangenteq.__file__).parent.glob("*.py"))}


def _box_pair_checks(tree):
    """Lines of the ``isinstance`` calls whose class tuple names both
    ``Box`` and ``MovingBox``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _dotted(node.func) == "isinstance" and len(node.args) == 2
            and isinstance(node.args[1], ast.Tuple)
            and {"Box", "MovingBox"} <= {_dotted(e).rsplit(".", 1)[-1]
                                         for e in node.args[1].elts}]


def test_the_box_pair_check_sees_every_form():
    source = ("isinstance(C, (Box, MovingBox))\n"
              "isinstance(C, (Ball, convex.MovingBox, convex.Box))\n"
              "isinstance(C, MovingBox)\n"
              "isinstance(C, (Box, Ball))\n")
    assert _box_pair_checks(ast.parse(source)) == [1, 2]


def test_a_box_is_one_row_of_the_one_nodewise_box():
    trees = _package_trees()
    assert {name: _box_pair_checks(tree) for name, tree in trees.items()
            if _box_pair_checks(tree)} == {}
    assert not [node.lineno for node in ast.walk(trees["convex.py"])
                if isinstance(node, ast.Call)
                and _dotted(node.func) in ("np.tile", "numpy.tile")]


def _method_calls(name):
    """``(file, line, argument count)`` of every ``.name(...)`` call in
    the package source."""
    calls = []
    for path in sorted(Path(tangenteq.__file__).parent.glob("*.py")):
        calls += [(path.name, node.lineno,
                   len(node.args) + len(node.keywords))
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == name]
    return calls


def test_a_constraint_lifts_in_one_call():
    assert _method_calls("broadcast") == []
    lifts = _method_calls("lift")
    assert lifts and [call for call in lifts if call[2] != 2] == []


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
    assert not {"SplitMix64", "_probe_table", "unit_ball_rays"} & called
    assert hasattr(fields._probe_offsets, "cache_info")
    assert "SplitMix64" in _called_names(fields._probe_table)


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


def _dotted(node):
    """``a.b.c`` for an attribute chain on a name, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) \
        if isinstance(node, ast.Name) else ""


def _row_reductions(source):
    """``(line, callee)`` of each call that takes a norm by
    ``np.linalg.norm`` or a sum along rows (axis 1 or -1) by ``np.sum``,
    ``np.add.reduce`` or a ``.sum`` method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name.endswith("linalg.norm"):
            found.append((node.lineno, name))
            continue
        if name in ("np.sum", "numpy.sum", "np.add.reduce"):
            axis = node.args[1:2]
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr == "sum":
            axis = node.args[:1]
        else:
            continue
        axis += [kw.value for kw in node.keywords if kw.arg == "axis"]
        if any(_literal(a) in (1, -1) for a in axis):
            found.append((node.lineno, name or node.func.attr))
    return found


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def test_the_row_reduction_check_sees_every_form():
    source = ("a = np.linalg.norm(x)\n"
              "b = numpy.linalg.norm(x, axis=0)\n"
              "c = np.sum(x, axis=1)\n"
              "d = np.sum(x, 1)\n"
              "e = np.add.reduce(x, axis=-1)\n"
              "f = (x * x).sum(axis=1)\n"
              "g = x.sum(-1)\n"
              "h = np.sum(x, axis=0) + x.sum()\n"
              "i = np.count_nonzero(x, axis=1)\n")
    assert [line for line, _ in _row_reductions(source)] == [
        1, 2, 3, 4, 5, 6, 7]


def test_every_row_norm_and_sum_takes_the_one_row_rule():
    found = {path.name: _row_reductions(path.read_text())
             for path in sorted(Path(tangenteq.__file__).parent.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


# the phrases of the number checks in ``errors``, and the modules that
# take numbers through them
_NUMBER_RULES = ("must be positive", "must be finite", "must be an integer")
_NUMBER_MODULES = ("operators", "equilibrium", "convex", "fields", "miranda",
                   "problems")


def _hand_written_guards(source):
    """``(line, phrase)`` of each ``raise`` whose message holds a string
    literal with one of the number checks' phrases."""
    return [(node.lineno, phrase)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise) and node.exc is not None
            for inner in ast.walk(node.exc)
            if isinstance(inner, ast.Constant) and isinstance(inner.value, str)
            for phrase in _NUMBER_RULES if phrase in inner.value]


def test_the_guard_check_sees_every_raised_rule():
    source = ("raise ValueError('h must be positive')\n"
              "raise InvalidSpec('%s must be finite' % (name,))\n"
              "raise E('n must be an '\n        'integer, got %r' % (n,))\n"
              "message = 'h must be positive'\n"
              "raise E('diffusion must be strictly positive')\n"
              "check_positive(h=h)\n")
    assert _hand_written_guards(source) == [
        (1, "must be positive"), (2, "must be finite"),
        (3, "must be an integer")]


@pytest.mark.parametrize("module", _NUMBER_MODULES)
def test_numbers_are_guarded_only_by_the_checks_in_errors(module):
    path = Path(tangenteq.__file__).parent / ("%s.py" % module)
    assert _hand_written_guards(path.read_text()) == []
