"""Whole-grid field evaluation: ``evaluate_grid`` against the row loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangenteq import (Box, BoundViolated, FilippovHull, Grid1D,
                       IntervalValued, OperatorSpec, SingleValued,
                       SolverConfig, StateShiftedField, assemble,
                       make_nonlinearity, resolvent_iterate,
                       verify_tangency)

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
    vals = [field.evaluate(xs[j], U[j], P[j]) for j in range(len(xs))]
    return (np.array([v.lo for v in vals]), np.array([v.hi for v in vals]))


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
    assert field.vectorized
    _assert_same_boxes(field.evaluate_grid(xs, U, P),
                       _row_loop(field, xs, U, P))
    shifted = StateShiftedField(field, c)
    _assert_same_boxes(shifted.evaluate_grid(xs, U, P),
                       _row_loop(shifted, xs, U, P))


@settings(max_examples=40, deadline=None)
@given(states=grid_states(), seed=st.integers(0, 3))
def test_batched_hull_keeps_the_scalar_draw_stream(states, seed):
    xs, U, P = states
    hull = _catalog("heaviside", U.shape[1], None, seed=seed)
    scalar = FilippovHull(hull.g, hull.delta, sample_count=hull.sample_count,
                          components=hull.components,
                          base_seed=hull.base_seed)
    assert not scalar.vectorized
    _assert_same_boxes(hull.evaluate_grid(xs, U, P),
                       scalar.evaluate_grid(xs, U, P))


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


def test_unflagged_callable_goes_through_the_row_fallback():
    seen = []

    def g(x, u, p):
        seen.append((np.ndim(x), np.shape(u)))
        return 0.5 - u

    field = SingleValued(g, components=2)
    xs = np.linspace(0.0, 1.0, 5)
    U = np.arange(10.0).reshape(5, 2)
    lo, hi = field.evaluate_grid(xs, U, np.zeros((5, 2)))
    assert seen == [(0, (2,))] * 5
    assert np.array_equal(lo, 0.5 - U) and np.array_equal(hi, 0.5 - U)


class _CountingGrid:
    """A vectorized field function that counts its calls and their rows."""

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
    field = SingleValued(g, vectorized=True)
    rep = resolvent_iterate(op, field, Box([0.0], [1.0]), np.full(n, 0.5),
                            SolverConfig(max_iter=5))
    assert rep.failure is None and rep.iterations == 5
    # one call per sweep plus one for the final tangency residual
    assert g.rows == [n] * (rep.iterations + 1)


def test_vectorized_gate_calls_the_field_once_per_item():
    g = _CountingGrid(lambda x, u, p: 0.5 - u)
    rep = verify_tangency(SingleValued(g, components=2, vectorized=True),
                          Box([0.0, 0.0], [1.0, 1.0]), Grid1D(1.0, 11),
                          samples=300)
    assert rep.passed and len(rep.items) == 4
    assert g.rows == [300] * 4


def test_batched_hull_calls_g_once_per_state_on_centre_and_probes():
    g = _CountingGrid(lambda x, u, p: np.where(u < 0.5, 1.0, -1.0))
    hull = FilippovHull(g, 0.05, sample_count=32, vectorized=True)
    lo, hi = hull.evaluate_grid(np.zeros(3), np.array([[0.0], [0.5], [1.0]]),
                                np.zeros((3, 1)))
    assert g.rows == [33] * 3
    assert lo.tolist() == [[1.0], [-1.0], [-1.0]]
    assert hi.tolist() == [[1.0], [1.0], [-1.0]]


@pytest.mark.parametrize("cross, breach, error", [(2, 1, BoundViolated),
                                                  (1, 2, ValueError)])
def test_interval_grid_raises_what_the_row_loop_meets_first(cross, breach,
                                                            error):
    lo = np.zeros((4, 1))
    hi = np.ones((4, 1))
    lo[cross] = 2.0
    hi[breach] = 5.0
    field = IntervalValued(lambda x, u, p: lo, lambda x, u, p: hi,
                           bound=3.0, vectorized=True)
    xs = np.arange(4.0)
    with pytest.raises(error):
        field.evaluate_grid(xs, np.zeros((4, 1)), np.zeros((4, 1)))
    rows = IntervalValued(lambda x, u, p: lo[int(x)],
                          lambda x, u, p: hi[int(x)], bound=3.0)
    with pytest.raises(error):
        rows.evaluate_grid(xs, np.zeros((4, 1)), np.zeros((4, 1)))
