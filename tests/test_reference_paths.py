"""The sweep's array paths against the forms they replaced, byte for byte.

``_reference_select`` is the Dykstra selection loop as it stood before it
left in the iteration where every row is done: that iteration still
wrote the stall ring, tested for stalls, compacted the rows and took one
more pass.  ``_row_major_probe_grid`` builds the probe grid state-first,
drawing the probe table at every call.  The current code must return the
same bytes, and raise where they raise.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangenteq import (CONE_TOL, Ball, Box, Grid1D, OperatorSpec, Simplex,
                       TangentEqError, assemble, make_nonlinearity,
                       viability_simulate)
from tangenteq import fields
from tangenteq.convex import (_SELECT_MAX_ITER, _STALL_WINDOW, _clip,
                              _dykstra_select, _row_norms)
from tangenteq.fields import _probe_grid, _probe_table


def _reference_select(body, X, vlo, vhi, tol, gap_tol):
    """``_dykstra_select`` with the bookkeeping in every iteration."""
    n = X.shape[0]
    V = np.empty_like(X)
    failed = {}
    rows = np.arange(n)
    x, lo, hi = X, vlo, vhi
    y = np.zeros_like(X)
    corr_box = np.zeros_like(X)
    corr_cone = np.zeros_like(X)
    gaps = np.empty((_STALL_WINDOW + 1, n))
    gap = np.full(n, np.inf)
    for i in range(_SELECT_MAX_ITER):
        if rows.size == 0:
            break
        z = y + corr_box
        b = _clip(z, lo, hi)
        corr_box = z - b
        z = b + corr_cone
        y = body.tangent_project_rows(x, z, tol)
        corr_cone = z - y
        gap = _row_norms(b - y)
        gaps[i % gaps.shape[0]] = gap
        done = gap <= gap_tol
        stalled = ~done & (i >= _STALL_WINDOW) & (
            gaps[(i + 1) % gaps.shape[0]] - gap < 1e-14)
        V[rows[done]] = y[done]
        for k in np.flatnonzero(stalled):
            failed[int(rows[k])] = ("alternating projections stalled at "
                                    "gap %.3g" % gap[k])
        live = ~(done | stalled)
        if failed:
            live &= rows < min(failed)
        if not np.all(live):
            rows, x, lo, hi = rows[live], x[live], lo[live], hi[live]
            y, corr_box, corr_cone = y[live], corr_box[live], corr_cone[live]
            gaps, gap = gaps[:, live], gap[live]
    short = gap > gap_tol
    for k in np.flatnonzero(short):
        failed[int(rows[k])] = ("no admissible tangent value found "
                                "(gap %.3g)" % gap[k])
    V[rows[~short]] = y[~short]

    first = min(failed, default=n)
    check_tol = max(tol, 100.0 * gap_tol)
    cone_gap = _row_norms(V[:first] - body.tangent_project_rows(
        X[:first], V[:first], tol))
    box_gap = _row_norms(V[:first] - _clip(V[:first], vlo[:first],
                                           vhi[:first]))
    if np.any(~(cone_gap <= check_tol) | (box_gap > check_tol)):
        raise TangentEqError("selection failed its a-posteriori validation")
    if failed:
        return None, (first, failed[first])
    return V, None


def _selection_outcome(select, body, X, vlo, vhi, gap_tol):
    try:
        V, miss = select(body, X, vlo, vhi, CONE_TOL, gap_tol)
    except TangentEqError:
        return "raised"
    return (None if V is None else (V.shape, V.tobytes())), miss


class _Counted:
    """``body`` with its cone projections counted."""

    def __init__(self, body):
        self.body, self.calls = body, 0

    def tangent_project_rows(self, X, V, tol=CONE_TOL):
        self.calls += 1
        return self.body.tangent_project_rows(X, V, tol)


_COORDS = st.one_of(st.floats(-1.5, 1.5),
                    st.sampled_from((-1.0, 0.0, 0.6, 0.8, 1.0)))
_VALUES = st.one_of(st.floats(-1.0, 1.0),
                    st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)))


def _body(kind, dim):
    if kind == "ball":
        return Ball(np.zeros(dim), 1.0)
    if kind == "simplex":
        return Simplex(1.0, dim)
    return Box(-np.ones(dim), np.ones(dim))


@st.composite
def selection_problems(draw):
    """A body, states in it (outside points projected onto its boundary)
    and value boxes, some rows a single point."""
    kind = draw(st.sampled_from(("ball", "simplex", "box")))
    dim = draw(st.integers(2, 4) if kind == "simplex" else st.integers(1, 3))
    body = _body(kind, dim)
    n = draw(st.integers(1, 6))
    size = n * dim
    X = body.project_rows(np.array(draw(st.lists(
        _COORDS, min_size=size, max_size=size))).reshape(n, dim))
    a = np.array(draw(st.lists(_VALUES, min_size=size, max_size=size)))
    b = np.array(draw(st.lists(_VALUES, min_size=size, max_size=size)))
    point = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    vlo = np.minimum(a, b).reshape(n, dim)
    vhi = np.where(point[:, None], vlo, np.maximum(a, b).reshape(n, dim))
    return body, X, vlo, vhi


# on the unit circle at (0.6, 0.8) the cone is a slanted halfplane, which
# the box [0.1, 1] x [-1, 1] meets after many Dykstra iterations; the
# point value (0.5, 0) at (1, 0) points out of the disc, so that node
# stalls; the node after it stops early, the one before is done at once
_SEVERAL = (Ball(np.zeros(2), 1.0),
            np.array([[0.0, 0.0], [0.6, 0.8], [1.0, 0.0], [0.6, 0.8]]),
            np.array([[0.2, 0.2], [0.1, -1.0], [0.5, 0.0], [0.1, -1.0]]),
            np.array([[0.2, 0.2], [1.0, 1.0], [0.5, 0.0], [1.0, 1.0]]))
# a simplex face: at (1, 0, 0) the directions must keep the zeros
_FACE = (Simplex(1.0, 3), np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]),
         np.array([[-0.3, -0.4, 0.1], [0.2, -0.5, -0.2]]),
         np.array([[0.4, 0.3, 0.1], [0.6, 0.5, 0.3]]))


def test_the_fixed_cases_take_several_iterations_and_miss():
    body, X, vlo, vhi = _SEVERAL
    counted = _Counted(body)
    V, miss = _dykstra_select(counted, X, vlo, vhi, CONE_TOL, 1e-10)
    assert V is None and miss[0] == 2 and "stalled" in miss[1]
    assert counted.calls > _STALL_WINDOW
    counted = _Counted(_FACE[0])
    V, miss = _dykstra_select(counted, *_FACE[1:], CONE_TOL, 1e-10)
    assert miss is None and counted.calls > 3


@settings(max_examples=200, deadline=None)
@given(selection_problems(), st.sampled_from((1e-10, CONE_TOL)))
@example(_SEVERAL, 1e-10)
@example((_SEVERAL[0], _SEVERAL[1][:2], _SEVERAL[2][:2], _SEVERAL[3][:2]),
         CONE_TOL)
@example(_FACE, 1e-10)
def test_the_selection_is_the_reference_loop_byte_for_byte(problem, gap_tol):
    body, X, vlo, vhi = problem
    assert (_selection_outcome(_dykstra_select, body, X, vlo, vhi, gap_tol)
            == _selection_outcome(_reference_select, body, X, vlo, vhi,
                                  gap_tol))


class _RecheckDisagrees:
    """The unit disc, whose second cone projection moves node 1 off the
    first one's answer."""

    dim = 2

    def __init__(self):
        self.disc, self.calls = Ball(np.zeros(2), 1.0), 0

    def tangent_project_rows(self, X, V, tol=CONE_TOL):
        self.calls += 1
        Y = self.disc.tangent_project_rows(X, V, tol)
        if self.calls == 2:
            Y[1] += 1.0
        return Y


def test_a_failed_check_names_its_node_state_gaps_and_tolerance():
    X = np.array([[0.0, 0.0], [0.6, 0.8], [0.0, 0.5]])
    V = np.array([[0.5, 0.5], [-0.3, 0.1], [0.25, 0.0]])
    body = _RecheckDisagrees()
    message = ("selection failed its a-posteriori validation at node 1, "
               "state [0.6 0.8]: cone gap 1.41, box gap 0, check_tol 1e-08")
    with pytest.raises(TangentEqError, match="^%s$" % re.escape(message)):
        _dykstra_select(body, X, V, V, CONE_TOL, 1e-10)
    assert body.calls == 2


def _row_major_probe_grid(seed, count, radius, xs, U, P):
    """The probe grid state-first: every state's row plus each row of a
    freshly drawn, scaled probe table."""
    S = np.column_stack([xs, U, P])
    dim = S.shape[1]
    offsets = np.vstack([np.zeros(dim),
                         radius * _probe_table(seed, count, dim)])
    probes = (S[:, None, :] + offsets).reshape(-1, dim)
    k = np.shape(U)[1]
    return probes[:, 0], probes[:, 1:1 + k], probes[:, 1 + k:]


@st.composite
def probed_grids(draw):
    """States of probe dimension 1 to 3: a position, ``k`` values and
    ``q`` gradient components."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, 2))
    q = draw(st.integers(0, 2 - k))
    reals = st.floats(-2.0, 2.0)
    xs = np.array(draw(st.lists(reals, min_size=m, max_size=m)))
    U = np.array(draw(st.lists(reals, min_size=m * k, max_size=m * k)))
    P = np.array(draw(st.lists(reals, min_size=m * q, max_size=m * q)))
    return xs, U.reshape(m, k), P.reshape(m, q)


@settings(max_examples=150, deadline=None)
@given(probed_grids(), st.integers(1, 70), st.integers(0, 5),
       st.sampled_from((1e-3, 0.05, 0.7)))
@example((np.zeros(1), np.zeros((1, 0)), np.zeros((1, 0))), 70, 0, 0.05)
@example((np.array([0.5, -0.0]), np.array([[0.5, -0.0], [1.0, 2.0]]),
          np.zeros((2, 0))), 1, 3, 0.7)
def test_the_probe_grid_is_the_row_major_build(grid, count, seed, radius):
    want = _row_major_probe_grid(seed, count, radius, *grid)
    got = _probe_grid(seed, count, radius, *grid)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert (np.ascontiguousarray(a).tobytes()
                == np.ascontiguousarray(b).tobytes())


def test_the_cached_offsets_are_read_only_and_shared():
    offsets = fields._probe_offsets(0, 64, 0.05, 3)
    assert offsets.shape == (3, 65) and not offsets.flags.writeable
    with pytest.raises(ValueError):
        offsets[0, 1] = 1.0
    assert fields._probe_offsets(0, 64, 0.05, 3) is offsets


def test_a_relay_simulation_draws_its_probe_table_once(monkeypatch):
    n = 101
    op = assemble(OperatorSpec(bc="neumann"), Grid1D(1.0, n))
    relay = make_nonlinearity("heaviside", {}, seed=5)
    u0 = np.random.default_rng(5).random(n)
    draws = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        draws.append(args)
        return default_rng(*args, **kwargs)

    fields._probe_offsets.cache_clear()
    monkeypatch.setattr(np.random, "default_rng", counted)
    rep = viability_simulate(op, relay, Box([0.0], [1.0]), u0, 1.0, 0.05)
    assert rep.status == "completed" and rep.steps == 20
    # 21 hull evaluations, one per step and the terminal measure
    assert len(draws) == 1


def test_a_seed_that_is_not_an_integer_is_refused():
    field = fields.SingleValued(lambda x, u, p: u)
    for seed in (None, 0.5, [1, 2]):
        with pytest.raises(TypeError):
            fields.semicontinuity_probe(field, 0.0, 0.5, 0.0, 0.1, seed=seed)
