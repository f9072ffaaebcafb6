"""Whole-grid field evaluation: ``evaluate_grid`` against one-row calls."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangenteq import (Ball, Box, BoundViolated, FilippovHull, Grid1D,
                       IntervalValued, NodewiseBox, OperatorSpec, SingleValued,
                       SolverConfig, StateShiftedField, assemble,
                       make_nonlinearity, resolvent_iterate,
                       verify_bernstein, verify_tangency, viability_simulate)

_PARAMS = {
    "linear": {"a": 0.5, "b": -1.0},
    "logistic": {"r": 2.0, "theta": 0.4},
    "constant": {"lo": -0.25, "hi": 0.75},
    "heaviside": {"threshold": 0.5, "delta": 0.05, "samples": 16},
    "tabulated": {},
}
_REALS = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
_NEAR_JUMP = st.sampled_from((0.45, 0.48, 0.5, 0.52, 0.55))


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "table.csv"
    path.write_text("-1.0,0.5\n0.0,0.0\n0.5,0.25\n2.0,-1.0\n")
    return str(path)


def _catalog(name, N, table, bound=None, seed=0):
    params = dict(_PARAMS[name], path=table) if name == "tabulated" \
        else _PARAMS[name]
    return make_nonlinearity(name, params, components=N, bound=bound,
                             seed=seed)


@st.composite
def grid_states(draw):
    N = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    values = st.one_of(_REALS, _NEAR_JUMP)
    xs = np.array(draw(st.lists(_REALS, min_size=m, max_size=m)))
    U = np.array(draw(st.lists(values, min_size=m * N, max_size=m * N)))
    P = np.array(draw(st.lists(_REALS, min_size=m * N, max_size=m * N)))
    return xs, U.reshape(m, N), P.reshape(m, N)


def _row_loop(field, xs, U, P):
    """``field`` on one state at a time: one-row ``evaluate_grid`` calls,
    stacked."""
    rows = [field.evaluate_grid(xs[j:j + 1], U[j:j + 1], P[j:j + 1])
            for j in range(len(xs))]
    return tuple(np.concatenate(side) for side in zip(*rows))


def _assert_same_boxes(grid_boxes, row_boxes):
    for got, want in zip(grid_boxes, row_boxes):
        assert got.shape == want.shape
        assert np.all(got == want)


def _outcome(fn):
    try:
        return fn()
    except BoundViolated as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_PARAMS)), states=grid_states(),
       c=st.sampled_from((0.0, 0.5, -1.25)), seed=st.integers(0, 3))
def test_grid_evaluation_equals_the_row_loop(table, name, states, c, seed):
    xs, U, P = states
    field = _catalog(name, U.shape[1], table, seed=seed)
    _assert_same_boxes(field.evaluate_grid(xs, U, P),
                       _row_loop(field, xs, U, P))
    shifted = StateShiftedField(field, c)
    _assert_same_boxes(shifted.evaluate_grid(xs, U, P),
                       _row_loop(shifted, xs, U, P))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(("linear", "logistic", "constant")),
       states=grid_states(), level=st.sampled_from((0.0, 0.3, 0.75, 1.5)),
       by_position=st.booleans())
def test_grid_envelope_breach_names_the_row_loop_node(name, states, level,
                                                      by_position):
    xs, U, P = states
    bound = (lambda x: level + 0.5 * abs(x)) if by_position else level
    field = _catalog(name, U.shape[1], None, bound=bound)
    got = _outcome(lambda: field.evaluate_grid(xs, U, P))
    want = _outcome(lambda: _row_loop(field, xs, U, P))
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_boxes(got, want)


def _wrong_fields():
    """Two-component fields whose function returns three components per
    state."""
    def g(x, u, p):
        return np.zeros((len(u), 3))

    def ok(x, u, p):
        return np.zeros(np.shape(u))

    return {"single": SingleValued(g, 2),
            "interval": IntervalValued(g, ok, 2),
            "hull": FilippovHull(g, 0.05, sample_count=4, components=2)}


@pytest.mark.parametrize("name", ["single", "interval", "hull"])
def test_shape_errors_name_what_the_field_returned(name):
    xs, U = np.arange(3.0), np.zeros((3, 2))
    # a hull calls its function on the centres and the probes together
    rows = 3 * 5 if name == "hull" else 3
    with pytest.raises(ValueError, match=r"^field returned shape \(%d, 3\), "
                       r"expected \(%d, 2\)$" % (rows, rows)):
        _wrong_fields()[name].evaluate_grid(xs, U, U)
    rows = 5 if name == "hull" else 1
    with pytest.raises(ValueError, match=r"^field returned shape \(%d, 3\), "
                       r"expected \(%d, 2\)$" % (rows, rows)):
        _wrong_fields()[name].evaluate(0.5, [0.0, 0.0], [0.0, 0.0])


def test_a_result_without_rows_is_one_value_for_every_row():
    xs, U = np.zeros(3), np.array([[0.1], [0.5], [0.9]])
    # written for one state, it looks at the first row only
    per_state = SingleValued(
        lambda x, u, p: 0.0 if np.atleast_1d(u)[0] < 0.4 else 1.0)
    lo, hi = per_state.evaluate_grid(xs, U, U)
    assert lo.tolist() == hi.tolist() == [[0.0], [0.0], [0.0]]
    rowwise = SingleValued(lambda x, u, p: np.where(u < 0.4, 0.0, 1.0))
    assert rowwise.evaluate_grid(xs, U, U)[0].tolist() == [[0.0], [1.0],
                                                           [1.0]]
    pair = np.array([1.0, 2.0])
    lo, _ = SingleValued(lambda x, u, p: pair, components=2).evaluate_grid(
        xs, np.zeros((3, 2)), np.zeros((3, 2)))
    assert lo.tolist() == [[1.0, 2.0]] * 3
    # the value box is the field's own array, not the function's
    full = np.ones((3, 2))
    lo, hi = SingleValued(lambda x, u, p: full, components=2).evaluate_grid(
        xs, np.zeros((3, 2)), np.zeros((3, 2)))
    assert not np.shares_memory(lo, full) and lo.flags.writeable


@pytest.mark.parametrize("shape", [(3, 3), (2, 2), (1, 3, 2), (3, 2, 1),
                                   (1, 1, 1)])
def test_a_result_of_another_shape_or_more_dims_is_refused(shape):
    field = SingleValued(lambda x, u, p: np.zeros(shape), components=2)
    with pytest.raises(ValueError, match=r"^field returned shape %s, "
                       r"expected \(3, 2\)$" % re.escape(str(shape))):
        field.evaluate_grid(np.zeros(3), np.zeros((3, 2)), np.zeros((3, 2)))


def test_evaluate_is_the_one_row_grid_call():
    seen = []

    def g(x, u, p):
        seen.append((np.shape(x), np.shape(u), np.shape(p)))
        return 0.5 - u

    val = SingleValued(g, components=2).evaluate(
        0.5, [1.0, 2.0], [0.0, 0.0])
    assert seen == [((1, 1), (1, 2), (1, 2))]
    assert val.lo.tolist() == val.hi.tolist() == [-0.5, -1.5]


def test_a_callable_envelope_is_called_once_on_the_positions():
    seen = []

    def bound(x):
        seen.append(np.shape(x))
        return 1.0 + x

    field = SingleValued(lambda x, u, p: u, bound=bound)
    xs, U = np.linspace(0.0, 1.0, 7), np.full((7, 1), 0.9)
    field.evaluate_grid(xs, U, np.zeros((7, 1)))
    assert seen == [(7,)]
    U[2] = 1.5
    with pytest.raises(BoundViolated, match="envelope 1.33333 at x=0.333333$"):
        field.evaluate_grid(xs, U, np.zeros((7, 1)))


class _CountingGrid:
    """A field function that counts its calls and their rows."""

    def __init__(self, g):
        self.g = g
        self.rows = []

    def __call__(self, x, u, p):
        self.rows.append(len(u))
        return self.g(x, u, p)


def test_vectorized_sweep_calls_the_field_once_per_sweep():
    n = 1001
    op = assemble(OperatorSpec(bc="dirichlet"), Grid1D(1.0, n))
    g = _CountingGrid(lambda x, u, p: 0.5 - u)
    field = SingleValued(g)
    rep = resolvent_iterate(op, field, Box([0.0], [1.0]), np.full(n, 0.5),
                            SolverConfig(max_iter=5))
    assert rep.failure is None and rep.iterations == 5
    # one call per sweep plus one for the final tangency residual
    assert g.rows == [n] * (rep.iterations + 1)


def test_vectorized_gate_calls_the_field_once_per_item():
    g = _CountingGrid(lambda x, u, p: 0.5 - u)
    rep = verify_tangency(SingleValued(g, components=2),
                          Box([0.0, 0.0], [1.0, 1.0]), Grid1D(1.0, 11),
                          samples=300)
    assert rep.passed and len(rep.items) == 4
    assert g.rows == [300] * 4

    g = _CountingGrid(lambda x, u, p: -u)
    rep = verify_tangency(SingleValued(g, components=2),
                          Ball(np.zeros(2), 1.0), Grid1D(1.0, 11),
                          samples=250)
    assert rep.passed and [i.name for i in rep.items] == ["sphere"]
    assert g.rows == [250]

    g = _CountingGrid(lambda x, u, p: -u)
    rep = verify_bernstein(SingleValued(g, components=2),
                           R=1.0, a=0.0, b=2.0, c=0.0, samples=200)
    assert rep.passed and len(rep.items) == 3
    assert g.rows == [200] * 3


def test_batched_hull_calls_g_once_per_grid_on_centres_and_probes():
    g = _CountingGrid(lambda x, u, p: np.where(u < 0.5, 1.0, -1.0))
    hull = FilippovHull(g, 0.05, sample_count=32)
    lo, hi = hull.evaluate_grid(np.zeros(3), np.array([[0.0], [0.5], [1.0]]),
                                np.zeros((3, 1)))
    assert g.rows == [3 * 33]
    assert lo.tolist() == [[1.0], [-1.0], [-1.0]]
    assert hi.tolist() == [[1.0], [1.0], [-1.0]]


def test_relay_simulation_calls_g_once_per_sweep():
    n = 101
    op = assemble(OperatorSpec(bc="neumann"), Grid1D(1.0, n))
    relay = make_nonlinearity("heaviside", {}, seed=5)
    g = _CountingGrid(relay.g)
    relay.g = g
    u0 = np.random.default_rng(5).random(n)
    rep = viability_simulate(op, relay, Box([0.0], [1.0]), u0, 1.0, 0.05)
    assert rep.status == "completed"
    assert rep.max_constraint_distance == 0.0
    # one call per step plus one for the terminal measure
    assert g.rows == [n * 65] * 21


def test_relay_simulation_projects_and_applies_once_per_step(monkeypatch):
    n = 101
    op = assemble(OperatorSpec(bc="neumann"), Grid1D(1.0, n))
    relay = make_nonlinearity("heaviside", {}, seed=5)
    projections, applies = [], []
    project, apply = NodewiseBox.project, op.apply

    def counted_project(self, U):
        projections.append(1)
        return project(self, U)

    def counted_apply(U):
        applies.append(1)
        return apply(U)

    monkeypatch.setattr(NodewiseBox, "project", counted_project)
    monkeypatch.setattr(op, "apply", counted_apply)
    u0 = np.random.default_rng(5).random(n)
    rep = viability_simulate(op, relay, Box([0.0], [1.0]), u0, 1.0, 0.05)
    assert rep.status == "completed" and rep.steps == 20
    # one per state: the start and the state each step makes, which the
    # selection, the distance of the state a step leaves, the final
    # distances and the terminal measure reuse
    assert len(projections) == 1 + 20
    # per step: the resolvent's guard, since no sweep measures a residual
    # the run throws away; then the terminal measure
    assert len(applies) == 20 + 1


def test_converged_solve_projects_its_final_state_once(monkeypatch):
    n = 101
    op = assemble(OperatorSpec(bc="neumann"), Grid1D(1.0, n))
    linear = make_nonlinearity("linear", _PARAMS["linear"])
    projected = []
    project = NodewiseBox.project

    def counted_project(self, U):
        projected.append(np.array(U))
        return project(self, U)

    monkeypatch.setattr(NodewiseBox, "project", counted_project)
    rep = resolvent_iterate(op, linear, Box([0.0], [1.0]), np.full(n, 0.2),
                            SolverConfig(h0=0.5, max_iter=400))
    assert rep.status == "converged" and rep.iterations == 32
    # the start and its projection, per sweep the lifted state and the
    # state the step makes, and the lift's distance at each checkpoint;
    # the acceptance test, the constraint violation and the final
    # tangency reuse the last projection
    assert len(rep.bound_checks) == 2
    assert len(projected) == 2 + 2 * 32 + 2
    assert not np.array_equal(projected[-1], projected[-2])


def test_body_simulation_projects_once_per_step():
    n = 41
    op = assemble(OperatorSpec(bc="neumann", components=2), Grid1D(1.0, n))
    field = SingleValued(lambda x, u, p: 0.5 - u, components=2)
    ball = Ball(np.zeros(2), 1.0)
    calls = []
    project_rows = ball.project_rows

    def counted(X):
        calls.append(1)
        return project_rows(X)

    ball.project_rows = counted
    rep = viability_simulate(op, field, ball, np.zeros((n, 2)), 1.0, 0.05)
    assert rep.status == "completed" and rep.steps == 20
    assert len(calls) == 1 + 20


@pytest.mark.parametrize("cross, breach, error", [(2, 1, BoundViolated),
                                                  (1, 2, ValueError)])
def test_interval_grid_raises_what_the_row_loop_meets_first(cross, breach,
                                                            error):
    lo = np.zeros((4, 1))
    hi = np.ones((4, 1))
    lo[cross] = 2.0
    hi[breach] = 5.0
    field = IntervalValued(lambda x, u, p: lo, lambda x, u, p: hi,
                           bound=3.0)
    with pytest.raises(error):
        field.evaluate_grid(np.arange(4.0), np.zeros((4, 1)),
                            np.zeros((4, 1)))
