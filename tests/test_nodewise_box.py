"""Property tests for ``MovingBox``, the one nodewise box the grid
solvers share."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pytest

from tangenteq import (CONE_TOL, Box, EmptyIntersection, IntervalValued,
                       MovingBox, selection_on_intervals, tangent_selection)
from tangenteq.convex import _clip, _face_cone, _shortest_in

_VALUES = (-1.0, -0.5, -1e-4, 0.0, 1e-4, 0.5, 1.0)
# where a state component sits relative to its interval
_PLACES = ("lo", "hi", "inside", "below", "above")


@st.composite
def box_problems(draw):
    """A Box, states that touch, cross or miss its faces, and value boxes."""
    n = draw(st.integers(1, 4))
    N = draw(st.integers(1, 3))
    lo = np.array(draw(st.lists(st.sampled_from((-1.0, 0.0, 0.5)),
                                min_size=N, max_size=N)))
    width = np.array(draw(st.lists(st.sampled_from((0.0, 0.5, 1.0)),
                                   min_size=N, max_size=N)))
    hi = lo + width
    offset = {"lo": lambda k: lo[k], "hi": lambda k: hi[k],
              "inside": lambda k: 0.5 * (lo[k] + hi[k]),
              "below": lambda k: lo[k] - 0.25, "above": lambda k: hi[k] + 0.25}
    U = np.array([[offset[draw(st.sampled_from(_PLACES))](k) for k in range(N)]
                  for _ in range(n)])
    pairs = [sorted(draw(st.lists(st.sampled_from(_VALUES), min_size=2,
                                  max_size=2)))
             for _ in range(n * N)]
    vlo = np.array([p[0] for p in pairs]).reshape(n, N)
    vhi = np.array([p[1] for p in pairs]).reshape(n, N)
    return Box(lo, hi), U, vlo, vhi


def _node_selection(box, U, vlo, vhi, j):
    field = IntervalValued(lambda x, u, p: vlo[j:j + 1],
                           lambda x, u, p: vhi[j:j + 1],
                           components=U.shape[1])
    return tangent_selection(field, box, 0.0, U[j], np.zeros(U.shape[1]))


def _smallest_tangent_value(box, u, lo, hi, k):
    """Smallest |y| over the candidates 0, lo, hi of component ``k`` that
    are admissible and tangent by ``Box.tangent_project``, or None."""
    best = None
    for y in (0.0, lo, hi):
        e = np.zeros(box.dim)
        e[k] = y
        if lo <= y <= hi and box.tangent_project(u, e)[k] == y:
            best = y if best is None or abs(y) < abs(best) else best
    return best


@settings(max_examples=150, deadline=None)
@given(box_problems())
def test_lifted_rows_match_the_single_node_selection(problem):
    box, U, vlo, vhi = problem
    lifted = box.lift(*U.shape)
    V, miss = lifted.select(U, vlo, vhi)
    assume(miss is None)
    for j in range(U.shape[0]):
        v = _node_selection(box, U, vlo, vhi, j)
        assert np.array_equal(V[j], v)
        u = box.project(U[j])
        for k in range(box.dim):
            # the value grid is coarse, so exact minimal values exist
            want = _smallest_tangent_value(box, u, vlo[j, k], vhi[j, k], k)
            assert want is not None and V[j, k] == want
    assert lifted.tangency(U, V) == 0.0


@settings(max_examples=150, deadline=None)
@given(box_problems())
def test_failure_witness_is_the_first_empty_node(problem):
    box, U, vlo, vhi = problem
    V, miss = box.lift(*U.shape).select(U, vlo, vhi)
    assume(miss is not None)
    assert V is None
    node, reason = miss
    for j in range(node):
        _node_selection(box, U, vlo, vhi, j)
    try:
        _node_selection(box, U, vlo, vhi, node)
    except EmptyIntersection as exc:
        assert str(exc) == reason
    else:
        raise AssertionError("node %d has a tangent value" % node)


_coords = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def boxes_and_states(draw):
    n = draw(st.integers(1, 5))
    N = draw(st.integers(1, 3))

    def grid():
        return np.array(draw(st.lists(_coords, min_size=n * N,
                                      max_size=n * N))).reshape(n, N)

    a, b = grid(), grid()
    return MovingBox(np.minimum(a, b), np.maximum(a, b)), grid(), grid()


@settings(max_examples=200, deadline=None)
@given(boxes_and_states())
def test_projection_is_an_idempotent_contraction(case):
    box, U, W = case
    PU, PW = box.project_rows(U), box.project_rows(W)
    assert np.all((box.alpha <= PU) & (PU <= box.beta))
    assert np.array_equal(box.project_rows(PU), PU)
    assert np.all(box.distances(PU) == 0.0)
    gap = np.linalg.norm(PU - PW, axis=1)
    assert np.all(gap <= np.linalg.norm(U - W, axis=1) * (1 + 1e-12))


@settings(max_examples=150, deadline=None)
@given(box_problems())
def test_constant_moving_box_selects_like_the_box(problem):
    # the box itself, its lift and the box of its bounds on every node
    box, U, vlo, vhi = problem
    n, N = U.shape
    moving = MovingBox(np.tile(box.lo, (n, 1)), np.tile(box.hi, (n, 1)))
    a, b = box.lift(n, N), moving.lift(n, N)
    assert np.array_equal(a.project_rows(U), b.project_rows(U))
    assert np.array_equal(box.project_rows(U), b.project_rows(U))
    (Va, miss_a), (Vb, miss_b), (Vc, miss_c) = (
        K.select(U, vlo, vhi) for K in (a, b, box))
    assert miss_a == miss_b == miss_c
    if miss_a is None:
        assert np.array_equal(Va, Vb) and np.array_equal(Va, Vc)
        assert a.tangency(U, Va) == b.tangency(U, Vb) == box.tangency(U, Vc)


_SPECIAL = np.array([-np.inf, -1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, np.inf,
                     np.nan])


def test_the_clip_kernels_equal_np_clip():
    # every ordered pair of special values as bounds, every value as state
    lo, hi, U = (a.reshape(-1, 1) for a in np.meshgrid(
        _SPECIAL, _SPECIAL, _SPECIAL, indexing="ij"))
    keep = ~(lo > hi)[:, 0]
    # MovingBox refuses non-finite bounds, so its kernel is called directly
    lo, hi, U = lo[keep], hi[keep], U[keep]
    assert np.array_equal(_clip(U, lo, hi), np.clip(U, lo, hi),
                          equal_nan=True)
    v, _ = selection_on_intervals(U, U, lo, hi)
    ilo, ihi = np.maximum(U, lo), np.minimum(U, hi)
    assert np.array_equal(v, np.clip(0.0, ilo, np.maximum(ilo, ihi)),
                          equal_nan=True)


def test_the_box_selection_is_the_interval_rule_on_its_face_cones():
    # every special value as state and as value bounds, on the faces of
    # [0, 1] and off them; the masked face cones give the interval rule's
    # bytes and its first miss
    W, vlo, vhi = (a.reshape(-1, 1) for a in np.meshgrid(
        np.append(_SPECIAL, CONE_TOL), _SPECIAL, _SPECIAL, indexing="ij"))
    box = MovingBox(0.0, 1.0).lift(len(W), 1)
    want, empty = selection_on_intervals(vlo, vhi, *_face_cone(W, 0.0, 1.0))
    assert box._select_at(W, vlo, vhi)[1][0] == np.argwhere(empty)[0][0]
    keep = ~empty[:, 0]
    V, miss = box._select_at(W[keep], vlo[keep], vhi[keep])
    assert miss is None and V.tobytes() == want[keep].tobytes()


def test_value_bounds_broadcast_over_the_nodes_and_components():
    box = MovingBox(np.zeros((3, 2)), np.ones((3, 2)))
    U = np.array([[0.0, 0.5], [1.0, 0.5], [0.5, 1.0]])
    want = box.select(U, np.full((3, 2), -1.0), np.full((3, 2), 0.5))[0]
    for lo, hi in ((np.full((3, 1), -1.0), np.full((3, 1), 0.5)),
                   (np.full(2, -1.0), np.full(2, 0.5)), (-1.0, 0.5)):
        assert np.array_equal(box.select(U, lo, hi)[0], want)


def test_a_miss_with_broadcast_value_bounds_names_its_values():
    # component 1 sits on its lower face, where [-2, -1] meets no
    # nonnegative value
    box = MovingBox(np.zeros((3, 1)), np.ones((3, 1))).lift(3, 2)
    W = np.array([[0.5, 0.0]] * 3)
    want = (None, (0, "component 1: values [-2, -1] miss the face cone"))
    assert box.select(W, np.full((3, 2), -2.0), np.full((3, 2), -1.0)) \
        == want
    for lo, hi in ((np.full((3, 1), -2.0), np.full((3, 1), -1.0)),
                   (np.full(2, -2.0), np.full(2, -1.0)), (-2.0, -1.0)):
        assert box.select(W, lo, hi) == want


@pytest.mark.parametrize("size", [22, 7])
def test_bounds_with_another_row_count_than_the_grid_raise(size):
    # 22 flat entries on 11 nodes used to be read as two columns
    moving = MovingBox(np.zeros(size), np.linspace(0.0, 1.0, size))
    for N in (1, 2):
        with pytest.raises(ValueError, match="^bounds have %d rows for 11 "
                                             "grid nodes$" % size):
            moving.lift(11, N)


def test_one_row_bounds_hold_on_every_node():
    moving = MovingBox(np.zeros((1, 2)), np.ones((1, 2))).lift(4, 2)
    assert moving.alpha.shape == moving.beta.shape == (1, 2)
    U = np.array([[-1.0, 0.5], [2.0, 0.25], [0.5, -3.0], [1.0, 1.5]])
    assert np.array_equal(moving.project_rows(U), np.clip(U, 0.0, 1.0))
    assert np.array_equal(Box([0.0, 0.0], [1.0, 1.0]).lift(4, 2).alpha,
                          moving.alpha)


@pytest.mark.parametrize("query", [
    lambda K: K.distance([2.0]), lambda K: K.project([2.0]),
    lambda K: K.contains([0.5]), lambda K: K.tangent_project([0.5], [1.0]),
    lambda K: K.tangent_cone_contains([0.5], [1.0]),
], ids=["distance", "project", "contains", "tangent_project",
        "tangent_cone_contains"])
def test_a_one_point_query_needs_bounds_of_one_row(query):
    # five rows of bounds are five nodes, not five bounds on one point
    with pytest.raises(ValueError, match="^bounds have 5 rows for 1 grid "
                                         "nodes$"):
        query(MovingBox(np.zeros(5), np.ones(5)))
    assert query(MovingBox(np.zeros(1), np.ones(1))) is not None


def test_an_outside_point_takes_the_cone_at_its_projection():
    # [0.2] projects to the degenerate face 0.5, where only 0 is tangent
    assert np.array_equal(Box([0.5], [0.5]).tangent_project([0.2], [1.0]),
                          [0.0])
    W = np.array([[0.2], [0.7], [-1.0]])
    lifted = MovingBox(np.full(3, 0.5), np.full(3, 0.5)).lift(3, 1)
    assert np.array_equal(lifted.tangent_project_rows(W, np.ones((3, 1))),
                          np.zeros((3, 1)))


def test_one_column_bounds_stay_one_column_on_every_component():
    moving = MovingBox(np.zeros(4), np.ones(4)).lift(4, 3)
    assert moving.alpha.shape == moving.beta.shape == (4, 1)
    U = np.array([[-1.0, 0.5, 2.0]] * 4)
    assert np.array_equal(moving.project_rows(U), [[0.0, 0.5, 1.0]] * 4)
    with pytest.raises(ValueError, match="constraint dimension 2 != "
                                         "components 3"):
        MovingBox(np.zeros((4, 2)), np.ones((4, 2))).lift(4, 3)


def _select_at_with_face_work(box, W, vlo, vhi):
    """The box selection with face work on every grid: the face cones met
    with the value boxes at every entry, the reference the no-face path
    of ``MovingBox._select_at`` must give the bytes of."""
    lower, upper = W - box.alpha <= CONE_TOL, box.beta - W <= CONE_TOL
    ilo, ihi = np.empty(lower.shape), np.empty(upper.shape)
    ilo[...], ihi[...] = vlo, vhi
    np.maximum(ilo, 0.0, out=ilo, where=lower)
    np.minimum(ihi, 0.0, out=ihi, where=upper)
    if vlo is vhi:
        V, empty = np.maximum(ilo, ihi), ilo > ihi + CONE_TOL
    else:
        V, empty = _shortest_in(ilo, ihi)
    if empty.any():
        j, k = np.argwhere(empty)[0]
        lo, hi = np.broadcast_arrays(vlo, vhi, empty)[:2]
        return None, (int(j), "component %d: values [%.6g, %.6g] miss "
                      "the face cone" % (k, lo[j, k], hi[j, k]))
    return V, None


_ENTRIES = (-np.inf, -1.0, -0.5, -0.0, 0.0, 1e-300, 0.5, 1.0, np.inf, np.nan)
# where a state entry sits: mostly strictly inside, so that many grids
# have no entry at a face
_AT = ("inside", "inside", "inside", "lo", "hi", "lo+tol", "hi-tol",
       "lo+2tol", "hi-2tol", "nan", "-inf", "inf")


@st.composite
def no_face_selections(draw):
    """A lifted box with bounds of one row or ``n``, a state with entries
    inside, at, exactly ``CONE_TOL`` and ``2 CONE_TOL`` from and past its
    faces, and value bounds of one array or two (crossed or not), at
    ``(n, N)`` or broadcast."""
    n, N = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rows = draw(st.sampled_from((1, n)))
    cols = draw(st.sampled_from((1, N)))
    lo = np.array(draw(st.lists(st.sampled_from((-1.0, 0.0, 0.5)),
                                min_size=rows * cols,
                                max_size=rows * cols))).reshape(rows, cols)
    width = np.array(draw(st.lists(st.sampled_from((0.0, 0.25, 1.0)),
                                   min_size=rows * cols,
                                   max_size=rows * cols))).reshape(rows, cols)
    box = MovingBox(lo, lo + width).lift(n, N)
    a, b = (np.broadcast_to(x, (n, N)) for x in (box.alpha, box.beta))
    place = {"inside": lambda j, k: 0.5 * (a[j, k] + b[j, k]),
             "lo": lambda j, k: a[j, k], "hi": lambda j, k: b[j, k],
             "lo+tol": lambda j, k: a[j, k] + CONE_TOL,
             "hi-tol": lambda j, k: b[j, k] - CONE_TOL,
             "lo+2tol": lambda j, k: a[j, k] + 2.0 * CONE_TOL,
             "hi-2tol": lambda j, k: b[j, k] - 2.0 * CONE_TOL,
             "nan": lambda j, k: np.nan, "-inf": lambda j, k: -np.inf,
             "inf": lambda j, k: np.inf}
    W = np.array([[place[draw(st.sampled_from(_AT))](j, k) for k in range(N)]
                  for j in range(n)])
    shape = draw(st.sampled_from(((n, N), (n, 1), (N,), ())))
    size = int(np.prod(shape))

    def values():
        return np.array(draw(st.lists(st.sampled_from(_ENTRIES),
                                      min_size=size,
                                      max_size=size))).reshape(shape)

    vlo = values()
    if draw(st.booleans()):
        return box, W, vlo, vlo
    vhi = values()
    if draw(st.booleans()):
        vlo, vhi = np.fmin(vlo, vhi), np.fmax(vlo, vhi)
    return box, W, vlo, vhi


@settings(max_examples=400, deadline=None)
@given(no_face_selections())
# boxes crossed by less than CONE_TOL keep their lower end, not
# clip(0, lo, hi)
@example((MovingBox(0.0, 1.0).lift(3, 1), np.full((3, 1), 0.5),
          np.array([[1e-300], [0.0], [-1e-12]]),
          np.array([[0.0], [-0.0], [-2e-12]])))
def test_a_selection_with_no_row_at_a_face_keeps_its_bytes(case):
    box, W, vlo, vhi = case
    want = _select_at_with_face_work(box, W, vlo, vhi)
    V, miss = box._select_at(W, vlo, vhi)
    assert miss == want[1]
    if miss is None:
        assert V.shape == want[0].shape == W.shape
        assert V.dtype == want[0].dtype and V.tobytes() == want[0].tobytes()
        assert V is not vlo and not np.shares_memory(V, vlo)
        assert not np.shares_memory(V, vhi)


def test_a_box_of_one_array_at_no_face_is_its_value_at_the_state_shape():
    # a read-only [y, y] with no state entry at a face comes back as a new,
    # writeable array of the same bytes; a broadcast y at the state's shape
    box = MovingBox(0.0, 1.0).lift(3, 2)
    W = np.full((3, 2), 0.5)
    y = np.array([[-0.0, np.nan], [np.inf, 1.0], [-np.inf, 0.25]])
    y.flags.writeable = False
    V, miss = box._select_at(W, y, y)
    assert miss is None and V is not y and V.flags.writeable
    assert V.tobytes() == y.tobytes()
    col = np.array([[2.0], [-0.0], [3.0]])
    V, miss = box._select_at(W, col, col)
    assert miss is None and V.tobytes() == np.repeat(col, 2, axis=1).tobytes()
