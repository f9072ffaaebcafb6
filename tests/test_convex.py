"""Constraint-set geometry: projections, tangent cones, overshoots."""

import inspect
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangenteq import (CONE_TOL, Box, Ball, MovingBox, Simplex,
                       PointNotInSet, convex, fields,
                       numeric_tangent_quotient)
from tangenteq.convex import _row_norms, _row_sums


def _random_body(rng, kind, dim):
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, dim)
        return Box(lo, lo + rng.uniform(0.5, 2.0, dim))
    if kind == "ball":
        return Ball(rng.uniform(-1.0, 1.0, dim), rng.uniform(0.5, 2.0))
    return Simplex(rng.uniform(0.5, 3.0), dim)


def _simplex_project_oracle(v, mass, iters=200):
    # dual bisection: w = max(v - lam, 0) with sum(w) = mass; independent
    # of the sort-based pivot rule used by the implementation
    v = np.asarray(v, dtype=float)
    lo = float(np.min(v)) - mass
    hi = float(np.max(v))
    for _ in range(iters):
        lam = 0.5 * (lo + hi)
        if np.maximum(v - lam, 0.0).sum() > mass:
            lo = lam
        else:
            hi = lam
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def test_box_projection_examples():
    b = Box([0.0, 0.0], [1.0, 1.0])
    assert np.allclose(b.project([2.0, 0.5]), [1.0, 0.5])
    assert np.allclose(b.project([-1.0, 3.0]), [0.0, 1.0])
    assert b.distance([0.5, 0.5]) == 0.0
    assert b.distance([2.0, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert b.contains([1.0, 1.0])
    assert not b.contains([1.1, 0.5])


def test_project_idempotent_and_nonexpansive():
    """Metric projections are idempotent and 1-Lipschitz; checked on 1e4
    random pairs across all body kinds with dimension up to 8."""
    rng = np.random.default_rng(7)
    kinds = ["box", "ball", "simplex"]
    for trial in range(10000):
        dim = int(rng.integers(1, 9))
        body = _random_body(rng, kinds[trial % 3], dim)
        x = rng.uniform(-4.0, 4.0, dim)
        y = rng.uniform(-4.0, 4.0, dim)
        px, py = body.project(x), body.project(y)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
        assert np.linalg.norm(body.project(px) - px) <= 1e-12


def test_projection_gap_equals_distance():
    rng = np.random.default_rng(11)
    for _ in range(500):
        dim = int(rng.integers(1, 9))
        x = rng.uniform(-4.0, 4.0, dim)
        for kind, tol in (("box", 1e-12), ("ball", 1e-12), ("simplex", 1e-9)):
            body = _random_body(rng, kind, dim)
            gap = np.linalg.norm(x - body.project(x))
            assert abs(gap - body.distance(x)) <= tol


def test_simplex_projection_matches_dual_bisection_oracle():
    rng = np.random.default_rng(3)
    for _ in range(400):
        dim = int(rng.integers(1, 10))
        mass = rng.uniform(0.2, 5.0)
        v = rng.uniform(-3.0, 3.0, dim)
        w = Simplex(mass, dim).project(v)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - mass) <= 1e-10
        assert np.max(np.abs(w - _simplex_project_oracle(v, mass))) <= 1e-9


def _simplex_cone_bisection(body, x, v, tol=1e-9):
    # the cone projection by 200 bisection steps on the KKT multiplier:
    # free components give v_i - lam, active ones max(v_i - lam, 0), and
    # lam zeroes the sum
    v = np.asarray(v, dtype=float)
    act = np.asarray(x) <= tol

    def total(lam):
        w = v - lam
        return np.where(act, np.maximum(w, 0.0), w).sum()

    scale = float(np.max(np.abs(v))) + 1.0
    lo, hi = -scale * (body.dim + 1), scale * (body.dim + 1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) > 0:
            lo = mid
        else:
            hi = mid
    w = v - 0.5 * (lo + hi)
    return np.where(act, np.maximum(w, 0.0), w)


@st.composite
def simplex_cone_queries(draw):
    """A simplex, a point of it with some zero coordinates, and a
    direction whose size runs from 1e-6 to 1e3."""
    dim = draw(st.integers(1, 6))
    free = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    free[draw(st.integers(0, dim - 1))] = True
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=dim,
                            max_size=dim))
    mass = draw(st.sampled_from((0.5, 1.0, 3.0)))
    x = np.where(free, weights, 0.0)
    x = mass * x / x.sum()
    size = 10.0 ** draw(st.floats(-6.0, 3.0))
    v = size * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim,
                                      max_size=dim)))
    return Simplex(mass, dim), x, v


@settings(max_examples=300, deadline=None)
@given(simplex_cone_queries())
@example((Simplex(1.0, 1), np.array([1.0]), np.array([0.7])))
@example((Simplex(1.0, 3), np.array([0.2, 0.3, 0.5]), np.zeros(3)))
@example((Simplex(2.0, 4), np.array([0.0, 2.0, 0.0, 0.0]),
          np.array([0.3, -1.0, -0.2, 0.9])))
@example((Simplex(1.0, 3), np.array([0.0, 0.0, 1.0]),
          np.array([1e-6, -1e-6, 5e-7])))
@example((Simplex(1.0, 3), np.array([0.0, 0.5, 0.5]),
          np.array([1e3, -1e3, 2e2])))
def test_exact_simplex_cone_projection(query):
    body, x, v = query
    w = body.tangent_project(x, v)
    scale = 1.0 + float(np.max(np.abs(v)))
    assert np.max(np.abs(w - _simplex_cone_bisection(body, x, v))) \
        <= 1e-12 * scale
    # in the cone: zero sum, nonnegative on the active zeros
    assert abs(w.sum()) <= 1e-12 * scale
    assert np.all(w[x <= 1e-9] >= 0.0)
    assert np.max(np.abs(body.tangent_project(x, w) - w)) <= 1e-12 * scale


def test_box_cone_sign_rule_against_numeric_quotient():
    """The closed-form membership rule must agree with the distance
    difference quotient d(x + h v)/h, which by convexity decreases as h
    shrinks and vanishes exactly for tangent directions."""
    rng = np.random.default_rng(19)
    hs = (1e-2, 1e-4, 1e-6)
    for _ in range(300):
        dim = int(rng.integers(1, 7))
        lo = rng.uniform(-2.0, 0.0, dim)
        hi = lo + rng.uniform(0.5, 2.0, dim)
        box = Box(lo, hi)
        # pin a random subset of coordinates to a face, keep the rest
        # well inside so only the pinned faces are active for small h
        x = lo + rng.uniform(0.3, 0.7, dim) * (hi - lo)
        pinned = rng.random(dim) < 0.6
        side = rng.random(dim) < 0.5
        x[pinned & side] = lo[pinned & side]
        x[pinned & ~side] = hi[pinned & ~side]
        v = rng.uniform(-1.0, 1.0, dim)
        res = box.tangent_cone_contains(x, v)
        quotients = [numeric_tangent_quotient(box, x, v, h) for h in hs]
        # slack covers the roundoff of d(x+hv) divided by h = 1e-6
        assert quotients[0] >= quotients[1] - 1e-9
        assert quotients[1] >= quotients[2] - 1e-9
        # at h = 1e-6 every pinned-face violation is already linear, so
        # the quotient equals the one-sided derivative up to roundoff
        assert abs(quotients[2] - res.directional_derivative) <= 1e-7
        assert res.contains == (quotients[2] <= 1e-6)


def test_quotient_limit_matches_derivative_all_bodies():
    # contingent and Clarke cones coincide for convex sets, numerically:
    # the quotient has an honest limit equal to the closed-form derivative
    rng = np.random.default_rng(23)
    kinds = ["box", "ball", "simplex"]
    for trial in range(1000):
        dim = int(rng.integers(2, 7))
        body = _random_body(rng, kinds[trial % 3], dim)
        x = body.project(rng.uniform(-3.0, 3.0, dim))
        v = rng.uniform(-1.0, 1.0, dim)
        dd = body.tangent_cone_contains(x, v).directional_derivative
        q = numeric_tangent_quotient(body, x, v, 1e-6)
        assert abs(q - dd) <= 1e-5


@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan"), float("inf")])
def test_the_quotient_refuses_a_step_that_is_not_finite_and_positive(h):
    with pytest.raises(ValueError, match="^h must be"):
        numeric_tangent_quotient(Box([0.0], [1.0]), [1.0], [1.0], h)


def test_the_quotient_at_a_positive_step_is_the_scaled_distance():
    box = Box([0.0], [1.0])
    for h in (1e-6, 1e-3, 0.5):
        assert numeric_tangent_quotient(box, [1.0], [1.0], h) \
            == box.distance([1.0 + h]) / h
    assert numeric_tangent_quotient(box, [1.0], [1.0], 1e-3) \
        == pytest.approx(1.0)


def _signatures(module):
    """``(name, parameters)`` of each function ``module`` defines and of
    each method of the classes it defines."""
    own = [v for v in vars(module).values()
           if getattr(v, "__module__", None) == module.__name__]
    for obj in own:
        if inspect.isfunction(obj):
            yield obj.__name__, inspect.signature(obj).parameters
        elif inspect.isclass(obj):
            for name, fn in inspect.getmembers(obj, inspect.isfunction):
                yield (obj.__name__ + "." + name,
                       inspect.signature(fn).parameters)


def test_the_cone_tolerance_is_one_constant():
    # CONE_TOL is read where the cone rule needs it; no function or body
    # method of convex or fields takes a tolerance of its own
    found = [name for module in (convex, fields)
             for name, params in _signatures(module)
             if {"tol", "gap_tol"} & set(params)]
    assert found == []
    assert "Box.tangent_cone_contains" in dict(_signatures(convex))
    y = np.full((3, 2), 0.25)
    with pytest.raises(TypeError):
        MovingBox(0.0, 1.0).lift(3, 2).select(np.full((3, 2), 0.5), y, y,
                                              tol=-1e-9)
    with pytest.raises(TypeError):
        Box([0.0], [1.0]).tangent_cone_contains([0.5], [0.25], tol=-1e-9)
    assert Box([0.0], [1.0]).tangent_cone_contains(
        [1.0], [CONE_TOL]).contains


def test_tangent_project_output_is_tangent_and_shorter():
    rng = np.random.default_rng(5)
    kinds = ["box", "ball", "simplex"]
    for trial in range(600):
        dim = int(rng.integers(1, 9))
        body = _random_body(rng, kinds[trial % 3], dim)
        x = body.project(rng.uniform(-3.0, 3.0, dim))
        v = rng.uniform(-2.0, 2.0, dim)
        w = body.tangent_project(x, v)
        assert np.linalg.norm(w) <= np.linalg.norm(v) + 1e-12
        assert body.tangent_cone_contains(x, w).contains


def test_tangent_project_minimality_by_sampling():
    """tangent_project should return the nearest cone element: no sampled
    cone direction may be closer to v."""
    rng = np.random.default_rng(13)
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        lo = rng.uniform(-1.0, 0.0, dim)
        box = Box(lo, lo + rng.uniform(0.5, 1.5, dim))
        x = box.project(rng.uniform(-2.0, 2.0, dim))
        v = rng.uniform(-2.0, 2.0, dim)
        w = box.tangent_project(x, v)
        best = np.linalg.norm(v - w)
        for _ in range(200):
            z = box.tangent_project(x, rng.uniform(-3.0, 3.0, dim))
            assert best <= np.linalg.norm(v - z) + 1e-12


def test_degenerate_box_component_forces_zero():
    box = Box([0.0, 1.0], [1.0, 1.0])
    w = box.tangent_project([0.5, 1.0], [0.3, -4.0])
    assert w[1] == 0.0
    assert not box.tangent_cone_contains([0.5, 1.0], [0.0, 1e-3]).contains
    assert box.tangent_cone_contains([0.5, 1.0], [0.2, 0.0]).contains


def test_cone_query_requires_membership():
    with pytest.raises(PointNotInSet):
        Box([0.0], [1.0]).tangent_cone_contains([2.0], [1.0])
    with pytest.raises(PointNotInSet):
        Ball([0.0, 0.0], 1.0).tangent_cone_contains([2.0, 0.0], [1.0, 0.0])


def test_ball_cone_is_inward_halfspace():
    ball = Ball([0.0, 0.0], 1.0)
    x = np.array([1.0, 0.0])
    assert ball.tangent_cone_contains(x, [-1.0, 0.3]).contains
    assert ball.tangent_cone_contains(x, [0.0, 1.0]).contains
    out = ball.tangent_cone_contains(x, [0.5, 0.0])
    assert not out.contains
    assert out.directional_derivative == pytest.approx(0.5, abs=1e-12)
    # interior point: everything is tangent
    assert ball.tangent_cone_contains([0.1, 0.2], [5.0, -3.0]).contains


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("width", range(1, 8))
def test_row_sums_and_norms_round_as_numpy(width, order):
    # column sums from the left are numpy's own reduction on rows this
    # short, so distances keep the bytes of np.linalg.norm(axis=1)
    rng = np.random.default_rng(width)
    A = np.asarray(rng.standard_normal((500, width))
                   * 10.0 ** rng.uniform(-3.0, 3.0, (500, width)),
                   order=order)
    assert _row_sums(A).tobytes() == np.add.reduce(A, axis=1).tobytes()
    assert _row_norms(A).tobytes() == np.linalg.norm(A, axis=1).tobytes()


def _deciding_points(body):
    """The points of a box, ball or simplex whose images under
    ``x -> s x`` decide whether ``s K`` lies in K: the box corners, the
    simplex vertices, the ball points nearest to and farthest from 0."""
    if isinstance(body, Box):
        return np.array(list(itertools.product(*zip(body.lo, body.hi))))
    if isinstance(body, Simplex):
        return body.total_mass * np.eye(body.dim)
    c, r = body.center, body.radius
    # scaled by max|c| first: the square of a tiny centre's norm would be
    # subnormal, and its "unit" vector visibly short
    scale = np.max(np.abs(c))
    if scale == 0.0:
        u = np.eye(body.dim)[0]
    else:
        u = c / scale
        u /= np.linalg.norm(u)
    return np.array([c - r * u, c + r * u])


@st.composite
def scaled_bodies(draw):
    """A box, ball or simplex of dimension 1-3 and node factors ``s`` in
    [0, 3]."""
    kind = draw(st.sampled_from(("box", "ball", "simplex")))
    dim = draw(st.integers(1, 3))
    coords = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    if kind == "box":
        lo = np.array(draw(coords))
        body = Box(lo, lo + np.abs(draw(coords)))
    elif kind == "ball":
        body = Ball(draw(coords), draw(st.floats(0.1, 2.0)))
    else:
        body = Simplex(draw(st.floats(0.1, 3.0)), dim)
    s = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=1,
                               max_size=4)))
    return body, s


@settings(max_examples=300, deadline=None)
@given(scaled_bodies())
@example((Ball([np.cos(np.pi / 64), np.sin(np.pi / 64)], 0.9995),
          np.array([0.0, 0.5, 1.0])))
@example((Ball([1.6717343149540802e-160], 1.0), np.array([2.0])))
def test_overshoot_decides_whether_s_K_stays_in_K(case):
    body, s = case
    points = _deciding_points(body)
    tol = 1e-12
    over = body.overshoot(s)
    assert over.shape == s.shape
    for o, sj in zip(over, s):
        far = max(body.distance(sj * x) for x in points)
        # one excess in two norms: along a face normal, and Euclidean,
        # which is at most sqrt(dim) times larger; the verdicts differ
        # only where the distance falls between the two thresholds
        assert o <= far + tol
        assert far <= np.sqrt(body.dim) * max(o, 0.0) + tol
        assert (o > tol) == (far > tol) \
            or tol < far <= (np.sqrt(body.dim) + 1.0) * tol


def test_simplex_dimension_must_be_integral():
    with pytest.raises(ValueError, match="dim must be an integer"):
        Simplex(1.0, 2.5)
    with pytest.raises(ValueError, match="dim must be an integer"):
        Simplex(1.0, 0)
    assert Simplex(1.0, 3.0).dim == 3


def test_box_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)
    with pytest.raises(ValueError):
        Simplex(0.0, 3)
