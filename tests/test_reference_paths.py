"""Kernels against the forms they replaced, byte for byte.

``_row_major_probe_grid`` builds the probe grid state-first, drawing the
probe table at every call.  ``_full_ball_projection``,
``_full_ball_cone`` and ``_full_simplex_cone`` run the boundary algebra
on every row, interior rows included.  ``_column_apply`` multiplies the
stencil's bands as ``(n, 1)`` columns into every state.
``_rebuilt_hull`` probes the positions with the states at every call and
takes the hull across the middle axis.  ``_wall_bands`` builds the
stencil's bands with one formula per wall, and ``_unit_draw`` draws unit
vectors and unit-ball rays as each once did on its own.  A value box
``[y, y]`` given as one array must select, and measure its equation
residual, as the same box given as two arrays.  The current code must
return the same bytes.
``_pivot_projection`` is the classical pivot rule of the simplex
projection on every row, an oracle: the rows that take the face rule
with every coordinate active get ``_full_simplex_cone``'s bytes, and
every row must lie within a few ulps of the oracle.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangenteq import (Ball, Box, FilippovHull, Grid1D, MovingBox,
                       OperatorSpec, Simplex, StateShiftedField, assemble,
                       make_nonlinearity, resolvent_iterate, verify_bernstein,
                       verify_tangency, viability_simulate)
from tangenteq import convex, equilibrium, fields
from tangenteq.convex import _positive_part, _row_dots, _row_norms, _row_sums
from tangenteq.fields import _probe_grid, _probe_table


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
    u0 = fields.SplitMix64(5).random(n)
    draws = []

    class Counted(fields.SplitMix64):
        def __init__(self, seed):
            draws.append(seed)
            super().__init__(seed)

    fields._probe_offsets.cache_clear()
    monkeypatch.setattr(fields, "SplitMix64", Counted)
    rep = viability_simulate(op, relay, Box([0.0], [1.0]), u0, 1.0, 0.05)
    assert rep.status == "completed" and rep.steps == 20
    # 21 hull evaluations, one per step and the terminal measure
    assert len(draws) == 1


def test_a_seed_that_is_not_an_integer_is_refused():
    field = fields.SingleValued(lambda x, u, p: u)
    for seed in (None, 0.5, [1, 2], 2.0):
        with pytest.raises(TypeError, match=r"^seed must be an integer"):
            fields.semicontinuity_probe(field, 0.0, 0.5, 0.0, 0.1, seed=seed)
        with pytest.raises(TypeError, match=r"^base_seed must be an integer"):
            fields.FilippovHull(lambda x, u, p: u, 0.1, base_seed=seed)
    assert fields.FilippovHull(lambda x, u, p: u, 0.1,
                               base_seed=np.int64(2)).base_seed == 2


def test_a_negative_seed_is_refused_where_it_enters():
    field = fields.SingleValued(lambda x, u, p: u)
    with pytest.raises(ValueError, match=r"^seed must be non-negative, "
                                         r"got -1$"):
        fields.semicontinuity_probe(field, 0.0, 0.5, 0.0, 0.1, seed=-1)
    with pytest.raises(ValueError, match=r"^base_seed must be non-negative"):
        fields.FilippovHull(lambda x, u, p: u, 0.1, base_seed=-1)
    grid = Grid1D(1.0, 11)
    with pytest.raises(ValueError, match=r"^seed must be non-negative"):
        verify_tangency(field, Box([0.0], [1.0]), grid, samples=4, seed=-1)
    with pytest.raises(ValueError, match=r"^seed must be non-negative"):
        verify_bernstein(lambda x, u, p: -u, 1.0, 0.0, 1.0, 1.0, samples=4,
                         seed=-1)


def _full_ball_projection(ball, X):
    """Every row scaled by ``radius / max(|x - c|, radius)``, and the
    inside rows then taken from ``X``."""
    R = X - ball.center
    nr = _row_norms(R)
    scale = ball.radius / np.maximum(nr, ball.radius)
    return np.where((nr <= ball.radius)[:, None], X,
                    ball.center + scale[:, None] * R)


def _full_ball_cone(ball, X, V, tol):
    """Every row less the positive part of its outward normal component,
    with a zero normal more than ``tol`` inside the sphere."""
    R = X - ball.center
    nr = _row_norms(R)
    inner = ball.radius - nr > tol
    normal = np.where(inner[:, None], 0.0,
                      R / np.where(inner, 1.0, nr)[:, None])
    return V - _positive_part(_row_dots(normal, V))[:, None] * normal


def _full_simplex_cone(act, V, s=0.0):
    """The active-set solve on every row, rows without an active
    coordinate included: the projection onto ``{sum w = s, w_i >= 0 where
    act}``, the simplex's cone at a point whose zeros are ``act`` when
    ``s = 0``, the simplex of mass ``s`` when every coordinate is
    active."""
    n_act = np.count_nonzero(act, axis=1)[:, None]
    n_free = V.shape[1] - n_act
    k = np.arange(1, V.shape[1] + 1)
    top = -np.sort(np.where(act, -V, np.inf), axis=1)
    within = k <= n_act
    free_sum = _row_sums(np.where(act, 0.0, V))[:, None] - s
    lam_k = (free_sum + np.cumsum(np.where(within, top, 0.0), axis=1)) \
        / (n_free + k)
    lam_0 = free_sum / np.maximum(n_free, 1)
    lam = np.max(np.where(within, lam_k, lam_0), axis=1)[:, None]
    W = V - lam
    return np.where(act, np.maximum(W, 0.0), W)


def _same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# entries that sit on a rule's edge, then ordinary ones
_EDGES = st.sampled_from((0.0, -0.0, 1e-9, -1e-9, 1.0, np.nan))
_ENTRIES = st.one_of(_EDGES, st.floats(-3.0, 3.0))


@st.composite
def ball_rows(draw):
    """A ball of dimension 1 to 4 and rows inside it, on or near its
    sphere and outside it, a row with a NaN among them; ``tol`` is drawn, or is
    exactly how far one row lies inside the sphere, and the radius is
    drawn, or is exactly one row's distance from the centre."""
    dim, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    center = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=dim,
                                    max_size=dim)))
    radius = draw(st.floats(0.25, 2.0))
    D = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m * dim,
                               max_size=m * dim))).reshape(m, dim)
    D[_row_norms(D) == 0.0, 0] = 1.0
    reach = np.array(draw(st.lists(st.one_of(
        st.sampled_from((0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5)),
        st.floats(0.0, 2.0)), min_size=m, max_size=m)))
    X = center + (radius * reach / _row_norms(D))[:, None] * D
    if draw(st.booleans()):
        X[draw(st.integers(0, m - 1)), draw(st.integers(0, dim - 1))] = np.nan
    V = np.array(draw(st.lists(_ENTRIES, min_size=m * dim,
                               max_size=m * dim))).reshape(m, dim)
    nr = _row_norms(X - center)
    j = draw(st.integers(0, m - 1))
    if draw(st.booleans()) and np.isfinite(nr[j]) and nr[j] > 0.0:
        radius = float(nr[j])
    tol = draw(st.sampled_from((0.0, 1e-9, 1e-3, None)))
    if tol is None:
        tol = float(radius - nr[j]) if np.isfinite(nr[j]) else 1e-9
    return Ball(center, radius), X, V, tol


@settings(max_examples=300, deadline=None)
@given(ball_rows())
@example((Ball([0.0, 0.0], 1.0), np.array([[0.6, 0.8], [0.3, 0.0],
                                           [np.nan, 0.5], [2.0, 0.0]]),
          np.array([[1.0, -0.0], [-0.0, 2.0], [0.5, 0.5], [1.0, 1.0]]),
          1e-9))
# a row exactly on the sphere stays, although c + (x - c) is not x
@example((Ball([1.0], float(_row_norms(np.array([[0.1 - 1.0]]))[0])),
          np.array([[0.1], [3.0]]), np.array([[-1.0], [1.0]]), 0.0))
def test_ball_kernels_are_the_full_row_forms(case):
    ball, X, V, tol = case
    _same_bytes(ball.project_rows(X), _full_ball_projection(ball, X))
    _same_bytes(ball.tangent_project_rows(X, V, tol),
                _full_ball_cone(ball, X, V, tol))


@st.composite
def simplex_rows(draw):
    """Rows of dimension 1 to 4 whose entries sit on the zero-face rule's
    edge (exactly ``tol``, zero, ``-0.0``, NaN) or anywhere near it."""
    dim, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    tol = draw(st.sampled_from((0.0, 1e-9, 1e-3)))
    entries = st.one_of(st.just(tol), _ENTRIES)
    X = np.array(draw(st.lists(entries, min_size=m * dim,
                               max_size=m * dim))).reshape(m, dim)
    V = np.array(draw(st.lists(_ENTRIES, min_size=m * dim,
                               max_size=m * dim))).reshape(m, dim)
    return Simplex(1.0, dim), X, V, tol


@settings(max_examples=300, deadline=None)
@given(simplex_rows())
@example((Simplex(1.0, 3), np.array([[0.2, 0.3, 0.5], [1e-9, 0.5, 0.5],
                                     [np.nan, 0.5, 0.5], [0.0, -0.0, 1.0]]),
          np.array([[-0.0, 1.0, -1.0], [-1.0, 0.5, 0.5], [1.0, 2.0, -0.0],
                    [-1.0, -2.0, 3.0]]), 1e-9))
def test_simplex_cone_is_the_full_row_form(case):
    simplex, X, V, tol = case
    _same_bytes(simplex.tangent_project_rows(X, V, tol),
                _full_simplex_cone(X <= tol, V))


def _pivot_projection(X, s):
    """The sort-based pivot rule on every row, rows inside the simplex
    included."""
    u = np.sort(X, axis=1)[:, ::-1]
    cssv = np.cumsum(u, axis=1) - s
    idx = np.arange(1, X.shape[1] + 1)
    rho = X.shape[1] - 1 - np.argmax((u * idx > cssv)[:, ::-1], axis=1)
    theta = cssv[np.arange(X.shape[0]), rho] / (rho + 1.0)
    return np.maximum(X - theta[:, None], 0.0)


_EPS = np.finfo(float).eps


@st.composite
def simplex_projection_rows(draw):
    """Rows of dimension 1 to 5: on the simplex up to roundoff or shifted
    off its plane, with one entry exactly at the shift ``theta`` of the
    others (dyadic entries make that exact where ``dim - 1`` is a power of
    two), with ``0.0``, ``-0.0``, ``1e-9`` and NaN entries, and anywhere
    outside."""
    dim, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(("inner", "theta", "edges")))
        if kind == "inner":
            w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=dim,
                                       max_size=dim)))
            row = w / np.sum(w) + draw(st.one_of(
                st.sampled_from((0.0, 2e-14, -2e-14)), st.floats(-0.2, 2.0)))
        elif kind == "theta" and dim > 1:
            rest = [k / 8.0 for k in draw(st.lists(
                st.integers(-24, 24), min_size=dim - 1, max_size=dim - 1))]
            at = (sum(rest) - 1.0) / (dim - 1)
            rest.insert(draw(st.integers(0, dim - 1)), at)
            row = np.array(rest)
        else:
            row = np.array(draw(st.lists(_ENTRIES, min_size=dim,
                                         max_size=dim)))
        rows.append(row)
    return Simplex(1.0, dim), np.array(rows)


@settings(max_examples=300, deadline=None)
@given(simplex_projection_rows())
@example((Simplex(1.0, 3), np.array([
    [0.2, 0.3, 0.5], [1.0, 0.5, 0.25], [-0.0, 0.5, 0.5], [0.0, 0.0, 1.0],
    [np.nan, 0.5, 0.5], [3.0, -1.0, 0.25], [0.4, 0.4, 0.4]])))
@example((Simplex(1.0, 1), np.array([[0.25], [-0.0], [np.nan]])))
def test_simplex_projection_is_the_pivot_rule_or_its_closed_form(case):
    simplex, X = case
    mass = simplex.total_mass
    taken, face = [], convex._face_rows

    def recorded(act, V, s=0.0):
        taken.append((act.copy(), V.copy(), s))
        return face(act, V, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convex, "_face_rows", recorded)
        got = simplex.project_rows(X)
    theta = (_row_sums(X) - mass) / X.shape[1]
    closed = np.all(X - theta[:, None] > 0.0, axis=1)
    # exactly the rows with an entry at or below theta take the face rule,
    # once, with every coordinate active and the simplex's mass
    assert len(taken) == int(not closed.all())
    for act, V, s in taken:
        assert act.all() and s == mass
        _same_bytes(V, X[~closed])
    everything = np.ones(X.shape, dtype=bool)
    _same_bytes(got[~closed], _full_simplex_cone(everything, X, mass)[~closed])
    # the other rows are x - theta, which sums in the row's own order
    _same_bytes(got[closed], (X - theta[:, None])[closed])
    _assert_the_pivot_projection(got, X, mass)


def _assert_the_pivot_projection(got, X, s):
    """``got`` is the classical pivot rule's projection of ``X`` onto
    ``{u >= 0, sum u = s}`` within ``4 eps max(1, |x|)``, NaN on the same
    rows, and on every other row nonnegative, summing to ``s`` within a
    few eps, and ``x`` less one common shift on its positive entries."""
    want = _pivot_projection(X, s)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(X).any(axis=1)
    got, want, X = got[ok], want[ok], X[ok]
    scale = np.maximum(1.0, np.max(np.abs(X), axis=1, initial=0.0))
    assert np.all(np.abs(got - want) <= 4.0 * _EPS * scale[:, None])
    assert np.all(got >= 0.0)
    assert np.all(np.abs(_row_sums(got) - s)
                  <= 2.0 * X.shape[1] * _EPS * (scale + s))
    shift, pos = X - got, got > 0.0
    spread = np.max(np.where(pos, shift, -np.inf), axis=1) \
        - np.min(np.where(pos, shift, np.inf), axis=1)
    # a row sums to s > 0, so it has a positive entry
    assert np.all(spread <= 4.0 * _EPS * scale)


def test_a_simplex_solve_inside_the_simplex_takes_no_pivot(monkeypatch):
    # the simplex job of the nonbox_relay benchmark: its states keep every
    # coordinate far from zero, so every projection is the closed form and
    # every cone projection the hyperplane's
    calls = []
    face = convex._face_rows

    def counted(act, V, s=0.0):
        calls.append(len(V))
        return face(act, V, s)

    monkeypatch.setattr(convex, "_face_rows", counted)
    op = assemble(OperatorSpec(d=1.0, bc="neumann", components=3),
                  Grid1D(1.0, 51))
    field = make_nonlinearity("linear", {"a": 1.0 / 3.0, "b": -1.0},
                              components=3)
    e = -np.log1p(-fields.SplitMix64(3).random((51, 3)))
    rep = resolvent_iterate(op, field, Simplex(1.0, 3),
                            e / _row_sums(e)[:, None])
    assert rep.status == "converged" and rep.iterations > 10
    assert calls == []
    # a row with an entry at its shift takes the pivot, alone
    Y = Simplex(1.0, 3).project_rows(np.array([[0.2, 0.3, 0.5],
                                               [1.0, 0.5, 0.25]]))
    assert calls == [1]
    assert Y[1].tolist() == [0.75, 0.25, 0.0]


def _column_apply(op, U):
    """``A U`` with the bands as ``(n, 1)`` columns, broadcast over every
    column of the state."""
    U = np.asarray(U, dtype=float)
    flat = U.reshape(op.grid.n, -1)
    sub, diag, sup = op.sub[:, None], op.diag[:, None], op.sup[:, None]
    if op.grid.periodic:
        out = np.empty_like(flat)
        np.multiply(sub[1:], flat[:-1], out=out[1:])
        np.multiply(sub[0], flat[-1], out=out[0])
        out += diag * flat
        out[:-1] += sup[:-1] * flat[1:]
        out[-1] += sup[-1] * flat[0]
    else:
        out = diag * flat
        out[:-1] += sup[:-1] * flat[1:]
        out[1:] += sub[1:] * flat[:-1]
        if op.spec.bc == "dirichlet":
            out[0] = 0.0
            out[-1] = 0.0
    return out.reshape(U.shape)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("neumann", "dirichlet", "periodic")),
       st.integers(1, 3), st.integers(3, 9), st.sampled_from((0.0, 0.3)),
       st.sampled_from((None, 0.0, 0.7)), st.data())
def test_the_stencil_bands_give_the_column_products(bc, N, n, gamma, shift,
                                                    data):
    spec = OperatorSpec(d=lambda x: 1.0 + 0.4 * np.sin(2 * np.pi * x),
                        gamma=gamma, bc=bc, shift=shift, components=N)
    op = assemble(spec, Grid1D(1.0, n, periodic=bc == "periodic"))
    # the state's width, then stacked and extra-axis column counts
    for shape in ((n, N), (n,), (n, N + 1), (n, N, 2), (n, 0)):
        size = int(np.prod(shape))
        U = np.array(data.draw(st.lists(_ENTRIES, min_size=size,
                                        max_size=size))).reshape(shape)
        _same_bytes(op.apply(U), _column_apply(op, U))


def _rebuilt_hull(hull, xs, U, P):
    """The relay hull as it was built: the positions probed with the
    states at every call, and each state's hull taken across the middle
    axis of ``(states, probes, N)``."""
    S = np.concatenate((xs[None], U.T, P.T))
    offsets = fields._probe_offsets(hull.base_seed, hull.sample_count,
                                    hull.delta, S.shape[0])
    probes = (S[:, :, None] + offsets[:, None, :]).reshape(S.shape[0], -1)
    k, N = U.shape[1], hull.components
    y = np.empty((probes.shape[1], N))
    y[...] = np.asarray(hull.g(probes[0][:, None], probes[1:1 + k].T,
                               probes[1 + k:].T), dtype=float)
    y = y.reshape(len(xs), -1, N)
    # a zero end is +0.0, whichever zero the reduction kept
    return (np.minimum.reduce(y, axis=1) + 0.0,
            np.maximum.reduce(y, axis=1) + 0.0)


def _same_or_nan(got, want):
    """The bytes of ``want`` wherever it is a number, NaN where it is NaN
    (whatever the NaN's sign)."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


# values where a sign, an infinity, a subnormal or a NaN could tell two
# forms apart, then ordinary ones
_SPECIALS = st.sampled_from((0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                             2.0 ** -1030, np.nan))
_VALUES = st.one_of(_SPECIALS, st.floats(-3.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2), st.integers(0, 3), st.integers(0, 2),
       st.integers(1, 9), st.sampled_from((1e-3, 0.05, 0.7)), st.data())
@example(1, 1, 1, 4, 0.05, None)
# both ends zero, -0.0 where the middle-axis reduce and the contiguous one
# kept different zeros
@example(2, 0, 0, 8, 0.001, "zeros")
def test_the_hull_is_the_rebuilt_form_on_every_node_array(N, k, q, count,
                                                          delta, data):
    # one value per component, a signed zero and a NaN among them, picked
    # by the sign of a sum over every probe coordinate
    if data is None:
        off, on = np.zeros(N), -np.zeros(N)
    elif data == "zeros":
        off, on = np.zeros(N), np.array([0.0, -0.0])
    else:
        off, on = (np.array(data.draw(st.lists(_VALUES, min_size=N,
                                               max_size=N)))
                   for _ in range(2))

    def g(x, u, p):
        s = x[:, 0] + u.sum(axis=1) + p.sum(axis=1)
        return np.where((s < 0.5)[:, None], off, on)

    hull = FilippovHull(g, delta, sample_count=count, components=N,
                        base_seed=7)
    grids = [Grid1D(1.0, m).nodes for m in (3, 5)]
    writable = np.linspace(0.0, 1.0, 3)
    rng = fields.SplitMix64(count)
    # a grid swapped for another and back, then a writable node array,
    # which changes between two calls
    for xs in (grids[0], grids[1], grids[0], writable, writable):
        U = rng.random((len(xs), k)) - 0.25
        P = rng.random((len(xs), q)) - 0.25
        for got, want in zip(hull.evaluate_grid(xs, U, P),
                             _rebuilt_hull(hull, xs, U, P)):
            _same_or_nan(got, want)
        writable += 0.3


def test_a_read_only_node_array_keeps_its_probe_positions():
    hull = make_nonlinearity("heaviside", {}, seed=2)
    xs, U = Grid1D(1.0, 5).nodes, np.full((5, 1), 0.5)
    hull.evaluate_grid(xs, U, U)
    nodes, _, X = hull._positions
    assert nodes is xs and not X.flags.writeable
    hull.evaluate_grid(xs, U + 0.1, U)
    assert hull._positions[2] is X
    # a writable array is probed afresh and leaves the kept positions
    hull.evaluate_grid(xs.copy(), U, U)
    assert hull._positions[2] is X
    # a hull whose probe table changes probes its nodes afresh
    hull.delta = 0.2
    for got, want in zip(hull.evaluate_grid(xs, U, U),
                         _rebuilt_hull(hull, xs, U, U)):
        _same_bytes(got, want)
    assert hull._positions[2] is not X


def test_a_hull_keeps_positions_only_for_the_probe_table_of_their_width():
    # the probe table, and so the positions, change with 1 + k + q
    def g(x, u, p):
        return (x - 0.5) * (u[:, :1] - 0.3)

    hull = FilippovHull(g, 0.2, sample_count=64)
    xs = Grid1D(1.0, 5).nodes
    U = np.full((5, 1), 0.3)
    for q in (1, 3, 1, 2, 2, 0, 3):
        P = np.zeros((5, q))
        for got, want in zip(hull.evaluate_grid(xs, U, P),
                             _rebuilt_hull(hull, xs, U, P)):
            _same_bytes(got, want)
    for k in (2, 1, 3):
        U, P = np.full((5, k), 0.3), np.zeros((5, 1))
        for got, want in zip(hull.evaluate_grid(xs, U, P),
                             _rebuilt_hull(hull, xs, U, P)):
            _same_bytes(got, want)
    # positions kept for the last width serve that width again
    X = hull._positions[2]
    hull.evaluate_grid(xs, U + 0.1, P)
    assert hull._positions[2] is X


def test_ball_kernels_keep_their_bytes_as_the_state_shape_changes():
    centre = np.array([0.3, -0.2])
    ball = Ball(centre, 0.8)
    # the ball keeps a read-only copy of its centre
    centre[0] = 5.0
    assert ball.center.tolist() == [0.3, -0.2]
    with pytest.raises(ValueError, match="read-only"):
        ball.center[0] = 5.0
    rng = fields.SplitMix64(4)
    # the lifted shape, others, and back
    for n in (7, 7, 3, 1, 0, 7):
        X = 2.0 * rng.random((n, 2)) - 1.0
        V = rng.random((n, 2)) - 0.5
        _same_bytes(ball.project_rows(X), _full_ball_projection(ball, X))
        _same_bytes(ball.tangent_project_rows(X, V, 1e-3),
                    _full_ball_cone(ball, X, V, 1e-3))
        # the centre the kernels subtract is held at the state's shape
        assert ball._centres[1].shape == (n, 2)
    # a new centre is taken up at once
    ball.center = np.array([-0.3, 0.2])
    _same_bytes(ball.project_rows(X), _full_ball_projection(ball, X))


@st.composite
def one_array_boxes(draw):
    """A box, a nodewise box, a ball or a simplex of dimension 1 to 5,
    lifted to 1 to 6 nodes, its states at the projections of drawn ones
    (so on faces too), value rows ``y`` and a tolerance, zero among
    them."""
    kind = draw(st.sampled_from(("box", "moving", "ball", "simplex")))
    n, N = draw(st.integers(1, 6)), draw(st.integers(1, 5))

    def grid(shape, values=st.floats(-2.0, 2.0)):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(values, min_size=size,
                                      max_size=size))).reshape(shape)
    if kind in ("box", "moving"):
        a, b = grid((2, N) if kind == "box" else (2, n, N))
        body = (Box if kind == "box" else MovingBox)(np.minimum(a, b),
                                                     np.maximum(a, b))
    elif kind == "ball":
        body = Ball(grid(N, st.floats(-1.0, 1.0)),
                    draw(st.floats(0.25, 2.0)))
    else:
        body = Simplex(draw(st.floats(0.25, 2.0)), N)
    K = body.lift(n, N)
    return K, K.project_rows(grid((n, N), st.floats(-3.0, 3.0))), \
        grid((n, N), _VALUES), draw(st.sampled_from((1e-9, 0.0, 1e-3)))


@settings(max_examples=400, deadline=None)
@given(one_array_boxes())
def test_a_one_array_box_selects_as_its_two_arrays(case):
    K, W, y, tol = case
    got = K._select_at(W, y, y, tol)
    want = K._select_at(W, y, y.copy(), tol)
    assert (got[0] is None) == (want[0] is None)
    if got[0] is None:
        assert got[1] == want[1]
    else:
        _same_or_nan(got[0], want[0])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("neumann", "dirichlet", "periodic")),
       st.integers(1, 5), st.integers(3, 6), st.data())
def test_a_one_array_box_has_the_equation_residual_of_its_two_arrays(
        bc, N, n, data):
    op = assemble(OperatorSpec(bc=bc, components=N),
                  Grid1D(1.0, n, periodic=bc == "periodic"))
    AU, y = (np.array(data.draw(st.lists(_VALUES, min_size=n * N,
                                         max_size=n * N))).reshape(n, N)
             for _ in range(2))
    got = equilibrium._equation_residual(op, AU, y, y)
    want = equilibrium._equation_residual(op, AU, y, y.copy())
    assert got == want or np.isnan(got) and np.isnan(want)


def test_a_single_valued_box_is_one_read_only_array():
    xs, U = Grid1D(1.0, 4).nodes, np.full((4, 2), 0.25)
    field = make_nonlinearity("linear", {"a": 0.5, "b": -1.0}, components=2)
    for f in (field, StateShiftedField(field, 2.0)):
        lo, hi = f.evaluate_grid(xs, U, U)
        assert lo is hi and not lo.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            lo[0, 0] = 1.0
    assert StateShiftedField(field, 2.0).evaluate_grid(xs, U, U)[0].tolist() \
        == [[0.5 - 0.25 - 2.0 * 0.25] * 2] * 4
    # an interval base keeps its two arrays
    box = make_nonlinearity("constant", {"lo": -1.0, "hi": 1.0}, components=2)
    lo, hi = StateShiftedField(box, 2.0).evaluate_grid(xs, U, U)
    assert lo is not hi and lo.tolist() == [[-1.5] * 2] * 4 \
        and hi.tolist() == [[0.5] * 2] * 4


def test_single_valued_sweeps_take_no_box_gap_and_no_zero_clip(monkeypatch):
    # the simplex and ball jobs of the nonbox_relay benchmark: every value
    # box is [y, y], so each shortest value is y and every box gap is the
    # cone gap
    calls = []
    box_distances, clip = convex._box_distances, convex._clip

    def counted_distances(Y, lo, hi):
        calls.append("box gap")
        return box_distances(Y, lo, hi)

    def counted_clip(x, lo, hi, *args, **kwargs):
        if np.ndim(x) == 0 and x == 0.0:
            calls.append("clip(0, ...)")
        return clip(x, lo, hi, *args, **kwargs)

    monkeypatch.setattr(convex, "_box_distances", counted_distances)
    monkeypatch.setattr(convex, "_clip", counted_clip)
    rng = fields.SplitMix64(11)
    e = -np.log1p(-rng.random((51, 3)))
    d = rng.standard_normal((201, 2))
    for body, a, u0 in (
            (Simplex(1.0, 3), 1.0 / 3.0, e / _row_sums(e)[:, None]),
            (Ball(np.zeros(2), 1.0), 0.5,
             rng.random((201, 1)) ** 0.5 * d / _row_norms(d)[:, None])):
        N, n = u0.shape[1], u0.shape[0]
        op = assemble(OperatorSpec(d=1.0, bc="neumann", components=N),
                      Grid1D(1.0, n))
        field = make_nonlinearity("linear", {"a": a, "b": -1.0},
                                  components=N)
        rep = resolvent_iterate(op, field, body, u0)
        assert rep.status == "converged" and rep.iterations > 10
    assert calls == []
    # a two-array box still measures both gaps
    Simplex(1.0, 2).select(np.array([[0.5, 0.5]]), np.zeros((1, 2)),
                           np.ones((1, 2)))
    assert calls == ["clip(0, ...)", "box gap"]


def test_a_resolvent_returns_c_ordered_states():
    for N in (1, 3):
        op = assemble(OperatorSpec(components=N), Grid1D(1.0, 11))
        for u in op._resolvent(0.5, np.ones((11, N))):
            assert u.flags.c_contiguous


def _wall_bands(op):
    """The stencil's bands ``(sub, diag, sup)`` with one formula per wall:
    on a periodic grid every row from the edges and their roll, otherwise
    the inner rows, then the Neumann rows."""
    n, dx, g, dm = op.grid.n, op.grid.dx, op.gamma_nodes, op.d_mid
    if op.grid.periodic:
        dp = np.roll(dm, 1)
        return (dp / dx ** 2 + g / (2 * dx),
                -(dm + dp) / dx ** 2 - op.shift,
                dm / dx ** 2 - g / (2 * dx))
    sub, diag, sup = np.zeros(n), np.zeros(n), np.zeros(n)
    j = np.arange(1, n - 1)
    sub[j] = dm[j - 1] / dx ** 2 + g[j] / (2 * dx)
    sup[j] = dm[j] / dx ** 2 - g[j] / (2 * dx)
    diag[j] = -(dm[j] + dm[j - 1]) / dx ** 2 - op.shift
    if op.spec.bc == "neumann":
        sup[0] = 2.0 * dm[0] / dx ** 2
        diag[0] = -2.0 * dm[0] / dx ** 2 - op.shift
        sub[-1] = 2.0 * dm[-1] / dx ** 2
        diag[-1] = -2.0 * dm[-1] / dx ** 2 - op.shift
    return sub, diag, sup


@pytest.mark.filterwarnings("ignore:dx=")
@pytest.mark.parametrize("bc", ("neumann", "dirichlet", "periodic"))
def test_the_stencil_row_is_the_per_wall_formulas(bc):
    for n, d, gamma, shift in itertools.product(
            (3, 4, 5, 11), (1.0, lambda x: 1.0 + 0.4 * np.sin(7.0 * x)),
            (0.0, 0.8, lambda x: 3.0 * np.cos(5.0 * x) - 0.5),
            (None, -0.3, 0.0, 0.7)):
        op = assemble(OperatorSpec(d=d, gamma=gamma, bc=bc, shift=shift),
                      Grid1D(1.3, n, periodic=bc == "periodic"))
        for got, want in zip((op.sub, op.diag, op.sup), _wall_bands(op)):
            _same_bytes(got, want)


def _unit_draw(rng, count, dim, ball):
    """Unit vectors as the tangency and Bernstein verifiers drew them, or,
    with ``ball``, unit-ball rays as the probe table drew them."""
    if not ball:
        d = rng.standard_normal((count, dim))
        return d / _row_norms(d)[:, None]
    d = rng.standard_normal((count, dim + 2))
    nd = _row_norms(d)
    nd[nd == 0.0] = 1.0
    return d[:, :dim] / nd[:, None]


def test_one_unit_draw_gives_the_rays_and_the_unit_vectors():
    for seed, dim, count in itertools.product((0, 7, 42, 2017), (1, 2, 3, 5),
                                              (0, 1, 64)):
        _same_bytes(fields._unit_rows(fields.SplitMix64(seed), count, dim),
                    _unit_draw(fields.SplitMix64(seed), count, dim, False))
        _same_bytes(fields.unit_ball_rays(fields.SplitMix64(seed), count,
                                          dim),
                    _unit_draw(fields.SplitMix64(seed), count, dim, True))


def test_a_zero_normal_row_stays_zero():
    class Zeros:
        def standard_normal(self, shape):
            d = np.ones(shape)
            d[1] = 0.0
            return d

    for draw in (fields._unit_rows, fields.unit_ball_rays):
        rows = draw(Zeros(), 3, 2)
        assert rows[1].tolist() == [0.0, 0.0]
        assert np.all(np.isfinite(rows))
