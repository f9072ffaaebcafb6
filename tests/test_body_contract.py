"""The contract every convex body offers the grid solvers: ``lift(n, N)``,
``select`` and ``overshoot``."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_convex import _simplex_cone_bisection

from tangenteq import (CONE_TOL, Ball, EmptyIntersection, Grid1D,
                       HalfspaceIntersection, IntervalValued, OperatorSpec,
                       Simplex, SingleValued, SolverConfig, assemble,
                       invariance_audit, resolvent_iterate,
                       tangent_selection)

_VALUES = (-1.0, -0.5, -1e-4, 0.0, 1e-4, 0.5, 1.0)
_COORDS = (-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5)


def _triangle():
    """``x >= 0, y >= 0, x + y <= 1`` with its certificate point."""
    return HalfspaceIntersection([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                                 [0.0, 0.0, 1.0], [0.25, 0.25])


@st.composite
def body_problems(draw):
    """A non-box body, states on, inside and outside it, and value boxes."""
    kind = draw(st.sampled_from(("ball", "simplex", "halfspaces")))
    if kind == "halfspaces":
        body = _triangle()
    else:
        dim = draw(st.integers(1, 3))
        if kind == "ball":
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


def _scalar_selection(body, u, lo, hi, gap_tol, cone=None, tol=CONE_TOL,
                      max_iter=5000):
    """The minimal tangent value at one node by a scalar Dykstra loop
    over ``cone(u, z)``, by default ``body.tangent_project``: the per-row
    reference for the batched selection, with the same stall rule,
    messages and a-posteriori check.

    Raises EmptyIntersection when the node has no admissible value.
    """
    cone = cone or (lambda u, z: body.tangent_project(u, z, tol=tol))
    projectors = [lambda z: np.clip(z, lo, hi), lambda z: cone(u, z)]
    y = np.zeros(lo.size)
    corr = [np.zeros_like(y) for _ in projectors]
    gaps = []
    gap = np.inf
    for i in range(max_iter):
        outs = []
        for k, proj in enumerate(projectors):
            z = y + corr[k]
            y = proj(z)
            corr[k] = z - y
            outs.append(y)
        b, y = outs
        gap = float(np.linalg.norm(b - y))
        gaps.append(gap)
        if gap <= gap_tol:
            break
        if i >= 50 and gaps[i - 50] - gap < 1e-14 and gap > gap_tol:
            raise EmptyIntersection(
                "alternating projections stalled at gap %.3g" % gap)
    if gap > gap_tol:
        raise EmptyIntersection(
            "no admissible tangent value found (gap %.3g)" % gap)
    check_tol = max(tol, 100.0 * gap_tol)
    assert body.tangent_cone_contains(u, y, tol=check_tol).contains
    assert np.linalg.norm(y - np.clip(y, lo, hi)) <= check_tol
    return y


def _node_selection(body, U, vlo, vhi, j, gap_tol, cone=None):
    return _scalar_selection(body, body.project(U[j]), vlo[j], vhi[j],
                             gap_tol, cone)


@settings(max_examples=120, deadline=None)
@given(body_problems(), st.sampled_from((1e-10, CONE_TOL)))
def test_lifted_rows_are_the_single_node_selections(problem, gap_tol):
    body, U, vlo, vhi = problem
    lifted = body.lift(U.shape[0], body.dim)
    V, miss = lifted.select(U, vlo, vhi, gap_tol=gap_tol)
    assume(miss is None)
    check_tol = max(CONE_TOL, 100.0 * gap_tol)
    for j in range(U.shape[0]):
        if isinstance(body, Simplex):
            # against the loop over the bisected cone projection
            want = _node_selection(
                body, U, vlo, vhi, j, gap_tol,
                lambda u, z: _simplex_cone_bisection(body, u, z))
            assert np.max(np.abs(V[j] - want)) <= 1e-12
        else:
            want = _node_selection(body, U, vlo, vhi, j, gap_tol)
            assert np.array_equal(V[j], want)
        assert np.all(V[j] >= vlo[j] - 100.0 * gap_tol)
        assert np.all(V[j] <= vhi[j] + 100.0 * gap_tol)
        assert body.tangent_cone_contains(body.project(U[j]), V[j],
                                          tol=check_tol).contains
    assert lifted.tangency(U, V, tol=check_tol) <= check_tol
    # one node through the public single-node entry point
    one = tangent_selection(IntervalValued(
        lambda x, u, p: vlo[0], lambda x, u, p: vhi[0],
        components=body.dim), body, 0.0, U[0], np.zeros(body.dim),
        gap_tol=gap_tol)
    assert np.array_equal(one, V[0])


@settings(max_examples=120, deadline=None)
@given(body_problems(), st.sampled_from((1e-10, CONE_TOL)))
def test_a_miss_names_the_first_empty_node(problem, gap_tol):
    body, U, vlo, vhi = problem
    V, miss = body.lift(*U.shape).select(U, vlo, vhi, gap_tol=gap_tol)
    assume(miss is not None)
    assert V is None
    node, reason = miss
    for j in range(node):
        _node_selection(body, U, vlo, vhi, j, gap_tol)
    with pytest.raises(EmptyIntersection) as exc:
        _node_selection(body, U, vlo, vhi, node, gap_tol)
    assert str(exc.value) == reason


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


def test_invariance_audit_keeps_a_halfspace_body():
    op = assemble(OperatorSpec(bc="neumann", components=2), Grid1D(1.0, 21))
    rep = invariance_audit(op, _triangle(), [1e-2, 0.5])
    assert rep.passed
