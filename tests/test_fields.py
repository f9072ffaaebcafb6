"""Set-valued nonlinearities: interval hulls, probe tables, selections."""

import re

import numpy as np
import pytest

from tangenteq import (SetValue, SingleValued, IntervalValued,
                       FilippovHull, Box, Ball,
                       selection_on_intervals, tangent_selection,
                       semicontinuity_probe, make_nonlinearity, BoundViolated,
                       EmptyIntersection)
from tangenteq.fields import SplitMix64, _probe_table, unit_ball_rays

ALPHA = 0.4


def _heaviside(x, u, p):
    # jump at u = ALPHA; the canonical discontinuous right-hand side
    return np.where(u < ALPHA, 0.0, 1.0)


def _pointwise(g):
    """``g`` of one state at a time, wrapped as a whole-grid function the
    way the ``fields`` docstring shows."""
    return lambda x, u, p: np.array([g(a, b, c)
                                     for a, b, c in zip(x[:, 0], u, p)])


def test_single_valued_evaluates_to_singleton():
    f = SingleValued(lambda x, u, p: -u)
    val = f.evaluate(0.0, np.array([0.5]), np.array([0.0]))
    assert val.is_singleton()
    assert val.lo[0] == pytest.approx(-0.5, abs=1e-15)


def test_interval_valued_box_and_crossed_endpoints():
    f = IntervalValued(lambda x, u, p: u - 1.0, lambda x, u, p: u + 1.0)
    val = f.evaluate(0.0, np.array([0.25]), np.array([0.0]))
    assert val.lo[0] == pytest.approx(-0.75) and val.hi[0] == pytest.approx(1.25)
    bad = IntervalValued(lambda x, u, p: u + 1.0, lambda x, u, p: u - 1.0)
    with pytest.raises(ValueError):
        bad.evaluate(0.0, np.array([0.0]), np.array([0.0]))


def test_set_value_helpers():
    v = SetValue(lo=np.array([-1.0, 0.5]), hi=np.array([2.0, 0.5]))
    assert np.allclose(v.min_norm_point(), [0.0, 0.5])
    assert v.sup_norm() == pytest.approx(np.hypot(2.0, 0.5))
    assert v.contains([1.0, 0.5])
    assert v.distance([3.0, 0.5]) == pytest.approx(1.0)
    assert not v.is_singleton()
    # farthest point of v from the unit box is (-1, 0.5) or (2, 0.5),
    # both at distance 1
    w = SetValue(lo=np.array([0.0, 0.0]), hi=np.array([1.0, 1.0]))
    assert v.excess_over(w) == pytest.approx(1.0)


def test_bound_envelope_raises():
    f = SingleValued(lambda x, u, p: 3.0 * u, bound=1.0)
    f.evaluate(0.0, np.array([0.3]), np.array([0.0]))
    with pytest.raises(BoundViolated):
        f.evaluate(0.0, np.array([0.9]), np.array([0.0]))
    # position-dependent envelope
    g = SingleValued(lambda x, u, p: u, bound=lambda x: 2.0 * x)
    g.evaluate(1.0, np.array([1.5]), np.array([0.0]))
    with pytest.raises(BoundViolated):
        g.evaluate(0.1, np.array([1.5]), np.array([0.0]))


def test_filippov_hull_at_the_jump():
    hull = FilippovHull(_heaviside, delta=0.05, sample_count=64)
    val = hull.evaluate(0.0, np.array([ALPHA]), np.array([0.0]))
    assert val.lo[0] == 0.0 and val.hi[0] == 1.0


def test_filippov_hull_away_from_jump_is_singleton():
    hull = FilippovHull(_heaviside, delta=0.05, sample_count=64)
    below = hull.evaluate(0.0, np.array([ALPHA - 0.1]), np.array([0.0]))
    above = hull.evaluate(0.0, np.array([ALPHA + 0.1]), np.array([0.0]))
    assert below.lo[0] == 0.0 and below.hi[0] == 0.0
    assert above.lo[0] == 1.0 and above.hi[0] == 1.0


def test_filippov_hull_monotone_in_samples_and_delta():
    """Growing the sample count extends the draw sequence and growing
    delta scales the same rays outward, so both can only widen the hull
    of a monotone jump."""
    for u0 in (ALPHA - 0.04, ALPHA - 0.01, ALPHA, ALPHA + 0.02):
        u = np.array([u0])
        p = np.array([0.0])
        small = FilippovHull(_heaviside, delta=0.05, sample_count=32)
        large = FilippovHull(_heaviside, delta=0.05, sample_count=256)
        vs, vl = small.evaluate(0.1, u, p), large.evaluate(0.1, u, p)
        assert vl.lo[0] <= vs.lo[0] and vs.hi[0] <= vl.hi[0]
        tight = FilippovHull(_heaviside, delta=0.02, sample_count=64)
        wide = FilippovHull(_heaviside, delta=0.08, sample_count=64)
        vt, vw = tight.evaluate(0.1, u, p), wide.evaluate(0.1, u, p)
        assert vw.lo[0] <= vt.lo[0] and vt.hi[0] <= vw.hi[0]


def test_ray_draws_are_prefix_stable():
    rng1 = np.random.default_rng(99)
    rng2 = np.random.default_rng(99)
    short = unit_ball_rays(rng1, 16, 3)
    long = unit_ball_rays(rng2, 48, 3)
    assert np.array_equal(short, long[:16])
    assert np.all(np.linalg.norm(long, axis=1) <= 1.0 + 1e-12)


def _assert_uniform_in_the_ball(rays, dim):
    assert rays.shape == (200_000, dim)
    r = np.linalg.norm(rays, axis=1)
    assert np.all(r <= 1.0)
    # uniform in the dim-ball: P(|ray| <= t) = t^dim, centred at 0
    t = np.linspace(0.05, 1.0, 20)
    cdf = np.searchsorted(np.sort(r), t, side="right") / r.size
    assert np.max(np.abs(cdf - t ** dim)) <= 0.01
    assert np.max(np.abs(rays.mean(axis=0))) <= 0.01


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_rays_are_uniform_in_the_ball(dim):
    rays = unit_ball_rays(np.random.default_rng(2017), 200_000, dim)
    _assert_uniform_in_the_ball(rays, dim)


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_splitmix_rays_are_uniform_in_the_ball(dim):
    # the probe table's own source: Box-Muller normals on SplitMix64
    _assert_uniform_in_the_ball(unit_ball_rays(SplitMix64(2017), 200_000,
                                               dim), dim)


# ---------------------------------------------------------------------------
# the seeded draw source


def test_splitmix_gives_the_reference_words():
    # SplitMix64 from state 0 (Steele, Lea and Flood, OOPSLA 2014)
    assert SplitMix64(0).words(3).tolist() == [
        0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
    # a seed is taken modulo 2**64
    assert np.array_equal(SplitMix64(2 ** 64 + 5).words(4),
                          SplitMix64(5).words(4))


class _ExtremeWords(SplitMix64):
    """A stream of the smallest and largest words, alternately."""

    def words(self, count):
        return np.resize(np.array([0, 2 ** 64 - 1], dtype=np.uint64), count)


def test_uniforms_lie_in_the_half_open_unit_interval():
    u = SplitMix64(3).random(100_000)
    assert u.dtype == np.float64 and u.min() >= 0.0 and u.max() < 1.0
    assert _ExtremeWords(0).random(2).tolist() == [0.0, 1.0 - 2.0 ** -53]
    z = _ExtremeWords(0).standard_normal(3)
    assert np.all(np.isfinite(z))


@pytest.mark.parametrize("n", [1, 2 ** 10, 101, 2 ** 53 - 1])
def test_integers_stay_below_n(n):
    for rng in (SplitMix64(11), _ExtremeWords(0)):
        k = rng.integers(n, 10_000)
        assert k.dtype == np.intp and k.min() >= 0 and k.max() < n


@pytest.mark.parametrize("draw", ["random", "integers", "standard_normal"])
def test_a_longer_draw_extends_a_shorter_one(draw):
    def take(rng, count):
        if draw == "integers":
            return rng.integers(1000, count)
        return getattr(rng, draw)(count)
    short, long = take(SplitMix64(9), 17), take(SplitMix64(9), 40)
    assert np.array_equal(short, long[:17])
    # draws row by row consume the stream as one whole-array draw does
    rng = SplitMix64(9)
    rows = np.concatenate([take(rng, 5) for _ in range(8)])
    assert np.array_equal(rows, long)
    # a normal takes a word pair
    assert rng.drawn == (80 if draw == "standard_normal" else 40)


def test_the_same_seed_gives_the_same_bytes():
    for shape in ((4, 3), 7):
        a = SplitMix64(42).standard_normal(shape)
        assert a.shape == np.empty(shape).shape
        assert a.tobytes() == SplitMix64(42).standard_normal(shape).tobytes()
        assert a.tobytes() != SplitMix64(43).standard_normal(shape).tobytes()
    assert SplitMix64(42).random((2, 5)).tobytes() \
        == SplitMix64(42).random(10).tobytes()


def test_filippov_hull_seeds_signed_zeros_alike():
    hull = FilippovHull(lambda x, u, p: np.where(x + p < 0.0, 1.0, -1.0),
                        delta=0.05, sample_count=3)
    for x in np.linspace(-0.1, 0.1, 41):
        plus = hull.evaluate(x, np.array([0.0]), np.array([0.0]))
        minus = hull.evaluate(x, np.array([0.0]), np.array([-0.0]))
        assert np.array_equal(plus.lo, minus.lo)
        assert np.array_equal(plus.hi, minus.hi)


@pytest.mark.parametrize("delta", [0.0, -0.05, np.nan, np.inf, -np.inf])
def test_filippov_hull_rejects_a_delta_that_is_not_finite_and_positive(
        delta):
    rule = "finite" if delta == np.inf else "positive"
    with pytest.raises(ValueError, match="^delta must be %s$" % rule):
        FilippovHull(_heaviside, delta=delta)


def test_probe_table_puts_the_axis_points_first_and_extends():
    dim = 3
    table = _probe_table(7, 40, dim)
    assert table.shape == (40, dim)
    axes = np.zeros((2 * dim, dim))
    axes[np.arange(2 * dim), np.arange(2 * dim) // 2] = [1.0, -1.0] * dim
    assert np.array_equal(table[:2 * dim], axes)
    rays = unit_ball_rays(SplitMix64(7), 40 - 2 * dim, dim)
    assert np.array_equal(table[2 * dim:], rays)
    assert np.all(np.linalg.norm(table, axis=1) <= 1.0)
    # a larger count extends a smaller table, a short one cuts the axes
    assert np.array_equal(_probe_table(7, 100, dim)[:40], table)
    assert np.array_equal(_probe_table(7, 4, dim), axes[:4])
    assert not np.array_equal(_probe_table(8, 40, dim), table)


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
def test_relay_hull_sees_a_jump_within_delta_at_every_state(side):
    """States a hair inside delta of the relay's jump, along ``u``, have
    the jump in their hull at every one of 2000 states; states a hair
    outside have it at none."""
    delta, threshold = 0.05, 0.5
    hull = make_nonlinearity("heaviside", {"threshold": threshold,
                                           "delta": delta}, seed=3)
    rng = np.random.default_rng(11)
    xs = rng.random(2000)
    P = rng.uniform(-1.0, 1.0, (2000, 1))
    for reach, seen in ((0.999, True), (1.001, False)):
        U = np.full((2000, 1), threshold + side * reach * delta)
        lo, hi = hull.evaluate_grid(xs, U, P)
        assert np.all((lo < hi) == seen)


def test_filippov_evaluation_is_deterministic():
    hull = FilippovHull(_heaviside, delta=0.05, sample_count=64, base_seed=3)
    a = hull.evaluate(0.2, np.array([ALPHA - 0.01]), np.array([0.1]))
    b = hull.evaluate(0.2, np.array([ALPHA - 0.01]), np.array([0.1]))
    assert a.lo[0] == b.lo[0] and a.hi[0] == b.hi[0]


def test_selection_lower_face_picks_zero():
    f = IntervalValued(lambda x, u, p: -np.ones_like(u),
                       lambda x, u, p: np.ones_like(u))
    y = tangent_selection(f, Box([0.0], [1.0]), 0.0, np.array([0.0]),
                          np.array([0.0]))
    assert y[0] == 0.0


def test_selection_singleton_against_face_is_empty():
    f = SingleValued(lambda x, u, p: np.full_like(u, -2.0))
    with pytest.raises(EmptyIntersection):
        tangent_selection(f, Box([0.0], [1.0]), 0.0, np.array([0.0]),
                          np.array([0.0]))


def test_one_point_selection_is_the_one_row_select():
    # the values miss the lower face by 5e-10, inside the sweep's CONE_TOL:
    # the grid selects 0 there, so the one-point selection must too
    f = IntervalValued(lambda x, u, p: -1.0 + 0.0 * u,
                       lambda x, u, p: -5e-10 + 0.0 * u)
    box = Box([0.0], [1.0])
    u = np.array([0.0])
    val = f.evaluate(0.0, u, np.zeros(1))
    V, miss = box.lift(1, 1).select(u[None], val.lo[None], val.hi[None])
    assert miss is None and V[0, 0] == 0.0
    assert np.array_equal(tangent_selection(f, box, 0.0, u, np.zeros(1)),
                          V[0])
    v, empty = selection_on_intervals(val.lo, val.hi, np.zeros(1),
                                      np.full(1, np.inf))
    assert not empty[0] and v[0] == 0.0


def test_selection_empty_second_component_grid_oracle():
    """Value box [0.3,0.7]^2 at the corner state (0.5, 1): the second
    component needs a nonpositive value, which the box cannot supply.
    The dense grid oracle confirms no box point is tangent."""
    box = Box([0.0, 0.0], [1.0, 1.0])
    u = np.array([0.5, 1.0])
    grid = np.linspace(0.3, 0.7, 41)
    feasible = [
        (y1, y2)
        for y1 in grid for y2 in grid
        if box.tangent_cone_contains(u, np.array([y1, y2])).contains
    ]
    assert feasible == []
    f = IntervalValued(lambda x, u, p: np.full_like(u, 0.3),
                       lambda x, u, p: np.full_like(u, 0.7), components=2)
    with pytest.raises(EmptyIntersection):
        tangent_selection(f, box, 0.0, u, np.zeros(2))


def test_selection_interior_point_is_value_box_min_norm():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        lo = rng.uniform(-2.0, 1.0, n)
        hi = lo + rng.uniform(0.1, 2.0, n)
        f = IntervalValued(lambda x, u, p, lo=lo: lo[None],
                           lambda x, u, p, hi=hi: hi[None], components=n)
        body = Box(np.full(n, -10.0), np.full(n, 10.0))
        u = rng.uniform(-1.0, 1.0, n)
        y = tangent_selection(f, body, 0.0, u, np.zeros(n))
        assert np.allclose(y, np.clip(0.0, lo, hi), atol=1e-12)


def test_selection_minimality_and_membership_by_sampling():
    """The selected value must lie in the value box, in the cone, and be
    no longer than any sampled point of the intersection."""
    rng = np.random.default_rng(41)
    total_z = 0
    for _ in range(10):
        n = int(rng.integers(1, 5))
        body = Box(np.zeros(n), np.ones(n))
        u = rng.uniform(0.0, 1.0, n)
        snap = rng.random(n) < 0.5
        u[snap] = np.round(u[snap])
        u = np.clip(u, 0.0, 1.0)
        vlo = rng.uniform(-1.0, 0.5, n)
        vhi = vlo + rng.uniform(0.2, 1.5, n)
        f = IntervalValued(lambda x, u, p, vlo=vlo: vlo[None],
                           lambda x, u, p, vhi=vhi: vhi[None], components=n)
        try:
            y = tangent_selection(f, body, 0.0, u, np.zeros(n))
        except EmptyIntersection:
            continue
        val = f.evaluate(0.0, u, np.zeros(n))
        assert val.distance(y) <= 1e-10
        assert body.tangent_cone_contains(u, y).contains
        # the admissible set is itself a box here, so sample it directly
        low, up = u - body.lo <= 1e-9, body.hi - u <= 1e-9
        ilo = np.maximum(vlo, np.where(low, 0.0, -np.inf))
        ihi = np.minimum(vhi, np.where(up, 0.0, np.inf))
        ilo = np.where(np.isfinite(ilo), ilo, vlo)
        ihi = np.where(np.isfinite(ihi), ihi, vhi)
        for _ in range(100):
            z = rng.uniform(ilo, np.maximum(ilo, ihi))
            assert np.linalg.norm(y) <= np.linalg.norm(z) + 1e-9
            total_z += 1
    assert total_z >= 500


def test_selection_on_ball_boundary():
    ball = Ball([0.0, 0.0], 1.0)
    u = np.array([1.0, 0.0])
    f = IntervalValued(lambda x, u, p: np.array([[-0.5, -0.2]]),
                       lambda x, u, p: np.array([[0.5, 0.2]]), components=2)
    y = tangent_selection(f, ball, 0.0, u, np.zeros(2))
    # origin is in both sets, so the minimal-norm point is zero
    assert np.linalg.norm(y) <= 1e-9
    g = SingleValued(lambda x, u, p: np.array([[0.4, 0.1]]), components=2)
    with pytest.raises(EmptyIntersection, match="^no admissible tangent "
                       "value: cone gap 0.4, box gap 0.4$"):
        tangent_selection(g, ball, 0.0, u, np.zeros(2))


def test_a_box_beside_the_shortest_value_still_meets_the_ball_cone():
    # the box's shortest value points out of the ball, yet its corner
    # (2.5, -0.49, -0.24) is tangent, so the box meets the cone
    u = np.array([-0.276, -0.845, 0.458])
    u /= np.linalg.norm(u)
    lo, hi = np.array([1.08, -1.82, -0.24]), np.array([2.5, -0.49, 2.14])
    f = IntervalValued(lambda x, u, p: lo[None], lambda x, u, p: hi[None],
                       components=3)
    y = tangent_selection(f, Ball(np.zeros(3), 1.0), 0.0, u, np.zeros(3))
    assert u @ y <= 1e-15
    assert np.all(lo <= y) and np.all(y <= hi)
    assert np.linalg.norm(y) <= np.linalg.norm([2.5, -0.49, -0.24])


def test_selection_on_intervals_componentwise():
    v, empty = selection_on_intervals(
        np.array([-1.0, 0.3, -2.0]), np.array([1.0, 0.7, -1.5]),
        np.array([0.0, -np.inf, 0.0]), np.array([np.inf, np.inf, np.inf]))
    assert not empty[0] and not empty[1]
    assert v[0] == 0.0 and v[1] == pytest.approx(0.3)
    assert empty[2]


def test_semicontinuity_probe_continuous_field_shrinks():
    f = SingleValued(lambda x, u, p: np.sin(3.0 * u) + x)
    u, p = np.array([0.3]), np.array([0.0])
    ex = [semicontinuity_probe(f, 0.5, u, p, d) for d in (1e-1, 1e-2, 1e-3)]
    assert ex[0] >= ex[1] >= ex[2]
    assert ex[2] <= 1e-2


def test_semicontinuity_probe_hull_absorbs_the_jump():
    hull = FilippovHull(_heaviside, delta=0.05, sample_count=128)
    u, p = np.array([ALPHA]), np.array([0.0])
    base = hull.evaluate(0.0, u, p)
    for du in (-0.02, 0.0, 0.02):
        near = hull.evaluate(0.0, np.array([ALPHA + du]), p)
        assert near.lo[0] >= base.lo[0] and near.hi[0] <= base.hi[0]
    assert semicontinuity_probe(hull, 0.0, u, p, 0.02) <= 1.0


def test_semicontinuity_probe_raw_jump_stays_at_one():
    raw = SingleValued(_heaviside)
    u, p = np.array([ALPHA]), np.array([0.0])
    for delta in (1e-1, 1e-2, 1e-3):
        assert semicontinuity_probe(raw, 0.0, u, p, delta) == pytest.approx(
            1.0, abs=1e-12)


def _probe_rows(field, x, u, p, delta, sample_count, seed):
    """The probe excesses of ``semicontinuity_probe``, one probe at a
    time in table order."""
    base = field.evaluate(x, u, p)
    rays = delta * _probe_table(seed, sample_count, 1 + u.size + p.size)
    return [field.evaluate(x + r[0], u + r[1:1 + u.size],
                           p + r[1 + u.size:]).excess_over(base)
            for r in rays]


@pytest.mark.parametrize("whole_grid", [False, True])
def test_semicontinuity_probe_is_the_worst_probe_and_skips_nan(whole_grid):
    # the value is NaN on the upper half of the probes, where a NaN excess
    # must not win over the finite ones
    def lower(x, u, p):
        return np.where(u < 0.31, np.sin(3.0 * u), np.nan) - 0.2 * p

    def upper(x, u, p):
        return np.sin(3.0 * u) + x

    wrap = (lambda g: g) if whole_grid else _pointwise
    f = IntervalValued(wrap(lower), wrap(upper), components=2)
    x, u, p = 0.5, np.array([0.3, 0.29]), np.array([0.1, -0.2])
    rows = _probe_rows(f, x, u, p, 0.05, 40, seed=3)
    assert any(np.isnan(rows)) and not all(np.isnan(rows))
    worst = max([0.0] + rows)
    assert semicontinuity_probe(f, x, u, p, 0.05, sample_count=40,
                                seed=3) == worst


def test_semicontinuity_probe_without_evidence_is_nan():
    # every probe's excess is NaN: no evidence either way, so no 0.0
    # ("continuous") verdict
    f = SingleValued(lambda x, u, p: np.full_like(u, np.nan))
    u, p = np.array([0.3]), np.array([0.0])
    assert np.isnan(semicontinuity_probe(f, 0.0, u, p, 0.01))


@pytest.mark.parametrize("whole_grid", [False, True])
def test_semicontinuity_probe_raises_at_a_breaching_probe(whole_grid):
    def g(x, u, p):
        return 10.0 * u

    f = SingleValued(g if whole_grid else _pointwise(g), bound=1.0)
    u, p = np.array([0.099]), np.array([0.0])
    assert f.evaluate(0.0, u, p).lo[0] <= 1.0
    with pytest.raises(BoundViolated) as first:
        _probe_rows(f, 0.0, u, p, 0.01, 64, seed=0)
    with pytest.raises(BoundViolated, match=re.escape(str(first.value))):
        semicontinuity_probe(f, 0.0, u, p, 0.01)


@pytest.mark.parametrize("kw, message", [
    ({"sample_count": 0}, "samples must be an integer of at least 1, got 0"),
    ({"sample_count": -3},
     "samples must be an integer of at least 1, got -3"),
    ({"sample_count": 2.5},
     "samples must be an integer of at least 1, got 2.5"),
    ({"delta": np.nan}, "delta must be positive"),
    ({"delta": np.inf}, "delta must be finite"),
    ({"delta": 0.0}, "delta must be positive"),
], ids=["no_probes", "negative_count", "fractional_count", "delta_nan",
        "delta_inf", "delta_zero"])
def test_semicontinuity_probe_needs_probes_to_give_a_verdict(kw, message):
    # with no probe, or every probe at NaN, the excess would read 0.0
    args = {"delta": 0.01, "sample_count": 64, **kw}
    f = SingleValued(lambda x, u, p: 0.5 - u)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        semicontinuity_probe(f, 0.0, np.array([0.3]), np.zeros(1), **args)
