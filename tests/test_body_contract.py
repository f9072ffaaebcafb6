"""The contract every convex body offers the grid solvers: ``lift(n, N)``,
``select`` and ``overshoot``."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from tangenteq import (CONE_TOL, Ball, EmptyIntersection, Grid1D,
                       IntervalValued, OperatorSpec, Simplex, SingleValued,
                       SolverConfig, assemble, resolvent_iterate,
                       tangent_selection)
from tangenteq.convex import _box_distances, _cone_gaps

_VALUES = (-1.0, -0.5, -1e-4, 0.0, 1e-4, 0.5, 1.0)
_COORDS = (-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5)


@st.composite
def body_problems(draw):
    """A non-box body, states on, inside and outside it, and value boxes."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        center = draw(st.lists(st.sampled_from((-0.5, 0.0, 0.5)),
                               min_size=dim, max_size=dim))
        body = Ball(center, draw(st.sampled_from((0.5, 1.0))))
    else:
        body = Simplex(draw(st.sampled_from((0.5, 1.0))), dim)
    n = draw(st.integers(1, 3))
    N = body.dim
    rows = []
    for _ in range(n):
        point = np.array(draw(st.lists(st.sampled_from(_COORDS),
                                       min_size=N, max_size=N)))
        rows.append(body.project(point) if draw(st.booleans()) else point)
    pairs = [sorted(draw(st.lists(st.sampled_from(_VALUES), min_size=2,
                                  max_size=2)))
             for _ in range(n * N)]
    vlo = np.array([p[0] for p in pairs]).reshape(n, N)
    vhi = np.array([p[1] for p in pairs]).reshape(n, N)
    return body, np.array(rows), vlo, vhi


def _cone_rows(body, w, tol=CONE_TOL):
    """The tangent cone of ``body`` at ``w`` as ``{v: C v <= 0, E v = 0}``,
    with the faces within ``tol`` of ``w`` active."""
    none = np.zeros((0, body.dim))
    if isinstance(body, Ball):
        r = w - body.center
        nr = np.linalg.norm(r)
        return none if body.radius - nr > tol else (r / nr)[None], none
    return -np.eye(body.dim)[w <= tol], np.ones((1, body.dim))


def _shortest_admissible(C, E, lo, hi, slack=1e-14):
    """The shortest ``v`` with ``lo <= v <= hi``, ``C v <= 0`` and
    ``E v = 0`` (to ``slack``), or None, by enumerating active sets.

    By KKT the optimum is the least-norm solution of its active
    constraints taken as equations, and each such solution that is
    feasible is admissible, so the shortest feasible one is the optimum.
    """
    N = lo.size
    A = np.vstack([np.eye(N), -np.eye(N), C])
    b = np.concatenate([hi, -lo, np.zeros(len(C))])
    best = None
    for size in range(N + 1):
        for S in itertools.combinations(range(len(A)), size):
            if any(i + N in S for i in S if i < N):
                continue    # both bounds of one coordinate
            M = np.vstack([A[list(S)], E])
            rhs = np.concatenate([b[list(S)], np.zeros(len(E))])
            v = np.linalg.lstsq(M, rhs, rcond=None)[0] if len(M) \
                else np.zeros(N)
            if (np.all(np.abs(M @ v - rhs) <= slack)
                    and np.all(A @ v - b <= slack)
                    and np.all(np.abs(E @ v) <= slack)
                    and (best is None or v @ v < best @ best)):
                best = v
    return best


def _scalar_selection(body, u, lo, hi):
    """The minimal tangent value at one node by active-set enumeration:
    the per-row reference for the batched selection.

    Raises EmptyIntersection when the node has no admissible value.
    """
    y = _shortest_admissible(*_cone_rows(body, u), lo, hi)
    if y is None:
        raise EmptyIntersection("no admissible tangent value")
    return y


def _node_selection(body, U, vlo, vhi, j):
    return _scalar_selection(body, body.project(U[j]), vlo[j], vhi[j])


@settings(max_examples=120, deadline=None)
@given(body_problems())
def test_lifted_rows_are_the_single_node_selections(problem):
    body, U, vlo, vhi = problem
    lifted = body.lift(U.shape[0], body.dim)
    V, miss = lifted.select(U, vlo, vhi)
    assume(miss is None)
    for j in range(U.shape[0]):
        want = _node_selection(body, U, vlo, vhi, j)
        assert np.max(np.abs(V[j] - want), initial=0.0) <= 1e-12
        assert np.all(V[j] >= vlo[j] - CONE_TOL)
        assert np.all(V[j] <= vhi[j] + CONE_TOL)
        assert body.tangent_cone_contains(body.project(U[j]), V[j]).contains
    assert lifted.tangency(U, V) <= 1e-12
    # one node through the public single-node entry point
    one = tangent_selection(IntervalValued(
        lambda x, u, p: vlo[:1], lambda x, u, p: vhi[:1],
        components=body.dim), body, 0.0, U[0], np.zeros(body.dim))
    assert np.array_equal(one, V[0])


@settings(max_examples=120, deadline=None)
@given(body_problems())
def test_a_miss_names_the_first_empty_node(problem):
    body, U, vlo, vhi = problem
    V, miss = body.lift(*U.shape).select(U, vlo, vhi)
    assume(miss is not None)
    assert V is None
    node, reason = miss
    for j in range(node):
        _node_selection(body, U, vlo, vhi, j)
    with pytest.raises(EmptyIntersection):
        _node_selection(body, U, vlo, vhi, node)
    with pytest.raises(EmptyIntersection) as exc:
        tangent_selection(IntervalValued(
            lambda x, u, p: vlo[node:node + 1],
            lambda x, u, p: vhi[node:node + 1],
            components=body.dim), body, 0.0, U[node], np.zeros(body.dim))
    assert str(exc.value) == reason
    assert reason.startswith("no admissible tangent value: cone gap ")


def _infeasibility(C, E, lo, hi):
    """The least ``s >= 0`` by which the bounds, ``C v <= 0`` and
    ``E v = 0`` must all be relaxed to meet: a linear program."""
    N = lo.size
    rows = np.vstack([np.eye(N), -np.eye(N), C, E, -E])
    A = np.hstack([rows, -np.ones((len(rows), 1))])
    b = np.concatenate([hi, -lo, np.zeros(len(C) + 2 * len(E))])
    return linprog(np.eye(N + 1)[N], A_ub=A, b_ub=b,
                   bounds=[(None, None)] * N + [(0.0, None)]).fun


_REALS = st.floats(-1.5, 1.5)
_SHARES = st.floats(0.0, 1.0)


@st.composite
def exact_problems(draw, kind):
    """A ball or simplex of dimension 1 to 4, one state and a
    value box: a single point, an interval about a point, or a box that
    reaches from a tangent value towards the origin."""
    dim = draw(st.integers(1, 4))

    def reals(size, values=_REALS):
        return np.array(draw(st.lists(values, min_size=size,
                                      max_size=size)))
    if kind == "ball":
        body = Ball(reals(dim, st.floats(-0.5, 0.5)),
                    draw(st.floats(0.25, 1.5)))
    else:
        body = Simplex(draw(st.floats(0.25, 1.5)), dim)
    u = reals(dim, st.floats(-3.0, 3.0))
    v = reals(dim)
    if draw(st.booleans()) and draw(st.booleans()):
        return body, u, v, v
    if draw(st.booleans()):
        return body, u, v - reals(dim, _SHARES), v + reals(dim, _SHARES)
    # from a tangent value towards the origin by a share of each
    # coordinate: the box meets the cone, and its shortest value is
    # seldom tangent
    v = body.tangent_project(body.project(u), v)
    w = v * reals(dim, _SHARES)
    return body, u, np.minimum(v, w), np.maximum(v, w)


def _assert_the_selection_is_exact(body, u, lo, hi):
    w = body.project(u)
    cone = _cone_rows(body, w)
    best = _shortest_admissible(*cone, lo, hi)
    if best is None:
        # a box missing the cone by at most 10 tol may be taken as met
        assume(_infeasibility(*cone, lo, hi) > 10.0 * CONE_TOL)
    V, miss = body.select(u[None], lo[None], hi[None])
    assert (miss is None) == (best is not None)
    if miss is None:
        assert _cone_gaps(body, w[None], V)[0] <= 1e-12
        assert _box_distances(V, lo[None], hi[None])[0] <= CONE_TOL
        assert np.linalg.norm(V[0]) <= np.linalg.norm(best) + 1e-12


@pytest.mark.parametrize("kind", ["ball", "simplex"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_selection_is_exact_where_the_box_meets_the_cone(kind, data):
    _assert_the_selection_is_exact(*data.draw(exact_problems(kind)))


@pytest.mark.parametrize("body, u, vlo, vhi, want", [
    # the root lies past every finite breakpoint
    (Ball([0.0, 0.0], 1.0), [0.6, 0.8], [0.5, -np.inf], [np.inf, np.inf],
     [0.5, -0.375]),
    (Simplex(1.0, 2), [1.0, 0.0], [-np.inf, 0.5], [np.inf, np.inf],
     [-0.5, 0.5]),
], ids=["ball", "simplex"])
def test_a_value_box_unbounded_on_one_side_still_selects(body, u, vlo, vhi,
                                                         want):
    V, miss = body.select(np.array([u]), np.array([vlo]), np.array([vhi]))
    assert miss is None
    assert np.max(np.abs(V[0] - want)) <= 1e-12


def test_lift_rejects_a_component_count_other_than_the_body_dimension():
    with pytest.raises(ValueError, match="constraint dimension 2 != "
                                         "components 3"):
        Ball([0.0, 0.0], 1.0).lift(5, 3)


def test_ball_sweep_evaluates_the_field_once_per_node():
    # the start projects onto the boundary, where the cone takes part
    n = 11
    op = assemble(OperatorSpec(bc="neumann", components=2), Grid1D(1.0, n))
    rows = []

    def g(x, u, p):
        rows.append(len(u))
        return 0.5 - u

    field = SingleValued(g, components=2)
    rep = resolvent_iterate(op, field, Ball([0.0, 0.0], 1.0),
                            np.ones((n, 2)), SolverConfig(max_iter=6))
    assert rep.failure is None and rep.iterations == 6
    # one call on every node per sweep, plus one for the final tangency
    # residual
    assert rows == [n] * (rep.iterations + 1)

