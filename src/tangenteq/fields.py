"""Set-valued nonlinearity fields and tangential selections.

A field maps a state ``(x, u, p)`` (position, value, gradient) to an
axis-aligned interval box of admissible reaction values.  Three variants
cover the use cases: single-valued functions, explicit interval bounds,
and the sampled interval hull of a possibly discontinuous function over a
small ball (the regularization that turns jumps into intervals).

Fields evaluate whole grids only: ``evaluate_grid(xs, U, P)`` takes the
``m`` states ``(xs[j], U[j], P[j])`` as a length-``m`` position vector and
``(m, N)`` and ``(m, q)`` arrays and returns the value boxes as two
``(m, N)`` arrays ``(lo, hi)``.  ``evaluate(x, u, p)`` is its one-row
case, returned as a ``SetValue``.  Every row is checked against the
envelope, and the first row that breaches it raises BoundViolated.

``vectorized`` only chooses how a field's functions are called.  With
it, a function is called once per grid: it receives the positions as an
``(m, 1)`` column and ``U``, ``P`` as they are, and must return an array
that broadcasts to ``(m, N)``, with elementwise the same values as ``m``
calls on the rows.  Without it (the default, since a user callable may
take scalars only) the function is called row by row on a position and
two 1-D rows, and must return ``N`` components.  The catalog fields of
``problems`` all set it.  A relay hull draws each state's rays in one
call and calls ``g`` on every state's centre and probes together.

``tangent_selection`` picks the minimal-norm admissible value that is also
tangent to the constraint set at ``u``: it evaluates the field once and
leaves the selection to the body's ``tangent_value``.  The equilibrium
sweeps make the same selection at every node through the lifted body's
``select``, and its emptiness is exactly the tangency failure the
verifiers hunt for.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .convex import CONE_TOL, _row_norms
from .errors import BoundViolated, InvalidSpec


@dataclass
class SetValue:
    """Interval box of admissible values, ``lo <= hi`` componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    def distance(self, y):
        """Euclidean distance from ``y`` to the box."""
        y = np.asarray(y, dtype=float)
        return float(np.linalg.norm(y - np.clip(y, self.lo, self.hi)))

    def contains(self, y, tol=1e-12):
        return self.distance(y) <= tol

    def min_norm_point(self):
        return np.clip(0.0, self.lo, self.hi)

    def sup_norm(self):
        """Largest Euclidean norm over the box (attained at a corner)."""
        return float(np.linalg.norm(np.maximum(np.abs(self.lo), np.abs(self.hi))))

    def excess_over(self, other):
        """One-sided Hausdorff excess of this box over ``other``."""
        gap = np.maximum(0.0, np.maximum(other.lo - self.lo, self.hi - other.hi))
        return float(np.linalg.norm(gap))

    def is_singleton(self, tol=0.0):
        return bool(np.all(self.hi - self.lo <= tol))


@dataclass
class GraphApproxConfig:
    """Knobs for the sampled graph-approximation check."""

    epsilon: float
    sample_count: int = 128
    perturbation_radius: float = None

    def radius(self):
        r = self.epsilon if self.perturbation_radius is None else self.perturbation_radius
        # membership is quantified over perturbations strictly inside the
        # epsilon ball, so never search past it
        return min(r, self.epsilon) * (1.0 - 1e-9)


def _components(value, n):
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.size != n:
        raise ValueError("field returned %d components, expected %d" % (v.size, n))
    return v.astype(float)


def _grid_components(value, shape):
    v = np.asarray(value, dtype=float)
    try:
        return np.array(np.broadcast_to(v, shape))
    except ValueError:
        raise ValueError("field returned shape %s, expected %s"
                         % (v.shape, shape)) from None


def _sup_norms(lo, hi):
    """``SetValue(lo[j], hi[j]).sup_norm()`` for every row, bit for bit."""
    return _row_norms(np.maximum(np.abs(lo), np.abs(hi)))


def _call(g, vectorized, xs, U, P, N):
    """``g`` at the states ``(xs[j], U[j], P[j])`` as an ``(m, N)`` array:
    one call on the whole grid when ``vectorized``, else one per row."""
    if vectorized:
        return _grid_components(g(xs[:, None], U, P), (len(xs), N))
    y = np.empty((len(xs), N))
    for j in range(len(xs)):
        y[j] = _components(g(xs[j], U[j], P[j]), N)
    return y


class NonlinearityField:
    """Base field: holds the component count and an optional envelope.

    ``bound`` may be a constant or a function of position; when set,
    every evaluation is checked against it and BoundViolated is raised
    on escape.  ``vectorized`` says how the field's functions are called
    (see the module docstring).
    """

    def __init__(self, components, bound=None, vectorized=False):
        self.components = int(components)
        self.bound = bound
        self.vectorized = bool(vectorized)

    def evaluate(self, x, u, p):
        """The value box at the one state ``(x, u, p)``: the one-row case
        of ``evaluate_grid``."""
        lo, hi = self.evaluate_grid(
            np.atleast_1d(np.asarray(x, dtype=float)),
            np.atleast_2d(np.asarray(u, dtype=float)),
            np.atleast_2d(np.asarray(p, dtype=float)))
        return SetValue(lo=lo[0], hi=hi[0])

    def evaluate_grid(self, xs, U, P):
        """Value boxes ``(lo, hi)`` at the states ``(xs[j], U[j], P[j])``."""
        xs = np.asarray(xs, dtype=float)
        lo, hi = self._grid_value(xs, U, P)
        self._check_bound(xs, lo, hi)
        return lo, hi

    def _grid_value(self, xs, U, P):
        raise NotImplementedError

    def _check_bound(self, xs, lo, hi):
        """The envelope on every row; the first breach raises."""
        if self.bound is None:
            return
        if callable(self.bound):
            b = np.array([self.bound(x) for x in xs], dtype=float)
        else:
            b = np.full(len(xs), float(self.bound))
        worst = _sup_norms(lo, hi)
        breach = np.flatnonzero(worst > b + 1e-9 * (1.0 + np.abs(b)))
        if breach.size:
            j = breach[0]
            raise BoundViolated(
                "field value norm %.6g exceeds envelope %.6g at x=%.6g"
                % (worst[j], b[j], xs[j]))


class SingleValued(NonlinearityField):
    """Pointwise function ``g(x, u, p)`` seen as a singleton interval."""

    def __init__(self, g, components=1, bound=None, vectorized=False):
        super().__init__(components, bound, vectorized)
        self.g = g

    def _grid_value(self, xs, U, P):
        y = _call(self.g, self.vectorized, xs, U, P, self.components)
        return y, y.copy()


class IntervalValued(NonlinearityField):
    """Explicit interval bounds ``[g_lo(x,u,p), g_hi(x,u,p)]``."""

    def __init__(self, g_lo, g_hi, components=1, bound=None,
                 vectorized=False):
        super().__init__(components, bound, vectorized)
        self.g_lo = g_lo
        self.g_hi = g_hi

    def _grid_value(self, xs, U, P):
        lo, hi = (_call(g, self.vectorized, xs, U, P, self.components)
                  for g in (self.g_lo, self.g_hi))
        crossed = np.flatnonzero(np.any(lo > hi, axis=1))
        if crossed.size:
            # the rows before the crossing meet the envelope first
            j = crossed[0]
            self._check_bound(xs[:j], lo[:j], hi[:j])
            raise ValueError("interval endpoints crossed (lo > hi)")
        return lo, hi


class FilippovHull(NonlinearityField):
    """Sampled interval hull of ``g`` over a delta-ball around the state.

    The hull is an inner approximation of the exact convexification that
    grows with ``sample_count``.  Sampling is deterministic: the rng seed
    is derived from the state itself (``-0.0`` counts as ``0.0``), each
    state's rays come from one row-major draw (so a larger sample count
    extends, never reshuffles, a smaller one) and rays are scaled by
    delta (so a larger delta moves each probe outward along the same
    direction).  Both monotonicity properties follow for monotone jumps,
    and concurrent evaluations at different states are independent.
    ``g`` is called on every state's centre and probes together: once
    per grid with ``vectorized=True``, once per probe without.
    """

    def __init__(self, g, delta, sample_count=64, components=1,
                 bound=None, base_seed=0, vectorized=False):
        super().__init__(components, bound, vectorized)
        if delta <= 0:
            raise ValueError("delta must be positive")
        if not (float(sample_count).is_integer() and sample_count >= 1):
            raise ValueError("samples must be an integer of at least 1, "
                             "got %r" % (sample_count,))
        self.g = g
        self.delta = float(delta)
        self.sample_count = int(sample_count)
        self.base_seed = int(base_seed)

    def _state_rng(self, state):
        """The rng of one stacked state row ``(x, u..., p...)``."""
        h = hashlib.blake2b(digest_size=8)
        h.update(np.int64(self.base_seed).tobytes())
        h.update(state.tobytes())
        return np.random.default_rng(int.from_bytes(h.digest(), "little"))

    def _grid_value(self, xs, U, P):
        # adding 0.0 turns -0.0 into 0.0, so signed zeros share a seed
        S = np.column_stack([xs, U, P]) + 0.0
        m, dim = S.shape
        count = self.sample_count
        rays = np.empty((m, count, dim))
        for j in range(m):
            rays[j] = unit_ball_rays(self._state_rng(S[j]), count, dim)
        # every state's centre, then its probes
        probes = np.concatenate([S[:, None, :],
                                 S[:, None, :] + self.delta * rays], axis=1)
        probes = probes.reshape(m * (1 + count), dim)
        k = np.shape(U)[1]
        N = self.components
        y = _call(self.g, self.vectorized, probes[:, 0], probes[:, 1:1 + k],
                  probes[:, 1 + k:], N).reshape(m, 1 + count, N)
        return y.min(axis=1), y.max(axis=1)


def unit_ball_rays(rng, count, dim):
    """``count`` points of the closed unit ball in one draw.

    The first ``dim`` coordinates of a uniform point on the sphere
    S^(dim+1) are uniform in the ``dim``-ball (Voelker, Gosmann and
    Stewart, "Efficiently sampling vectors and coordinates from the
    n-sphere and n-ball", 2017).  The normals are drawn row-major, so a
    larger ``count`` extends a smaller one.
    """
    d = rng.standard_normal((count, dim + 2))
    nd = _row_norms(d)
    nd[nd == 0.0] = 1.0
    return d[:, :dim] / nd[:, None]


def _probe_grid(rng, count, radius, x, u, p):
    """The state ``(x, u, p)`` and the ``count`` probes ``(x, u, p) +
    radius * ray`` over unit-ball rays, as arrays ``(X, U, P)`` with one
    row per state, the centre first."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    k = u.size
    dx = radius * unit_ball_rays(rng, count, 1 + k + p.size)
    return (np.r_[x, x + dx[:, 0]], np.vstack([u, u + dx[:, 1:1 + k]]),
            np.vstack([p, p + dx[:, 1 + k:]]))


def tangent_selection(field, body, x, u, p, tol=CONE_TOL,
                      gap_tol=1e-10):
    """Minimal-norm admissible value tangent to ``body`` at ``u``: the
    field's value box at ``(x, u, p)`` handed to ``body.tangent_value``.

    Raises EmptyIntersection when no admissible tangent value exists.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    val = field.evaluate(x, u, p)
    return body.tangent_value(u, val.lo, val.hi, tol, gap_tol)


@dataclass
class GraphCheckReport:
    """Outcome of the sampled graph-approximation validation."""

    pass_fraction: float
    worst_gap: float
    tested: int
    failures: list


def validate_graph_approximation(f, field, cfg, states, seed=0):
    """Check that ``f`` lands within ``epsilon`` of field values taken at
    perturbed states (search radius inside the epsilon ball).

    ``states`` is a sequence of ``(x, u, p)`` triples.  For each one the
    check looks for some nearby state whose value box comes within
    ``epsilon`` of ``f``; the reported gap per state is the best distance
    found, and the report carries the failing indices.
    """
    if len(states) < 1:
        # an empty state list would pass with no evidence
        raise InvalidSpec("states must hold at least one state")
    rng = np.random.default_rng(seed)
    gaps = []
    failures = []
    for idx, (x, u, p) in enumerate(states):
        y = np.atleast_1d(np.asarray(f(x, u, p), dtype=float))
        best = field.evaluate(x, u, p).distance(y)
        if best > 0.0:
            # every ray is drawn before the first probe, so stopping
            # early leaves ``rng`` where a full pass would
            X, U, P = _probe_grid(rng, cfg.sample_count, cfg.radius(),
                                  x, u, p)
            for j in range(1, len(X)):
                best = min(best, field.evaluate(X[j], U[j], P[j]).distance(y))
                if best == 0.0:
                    break
        gaps.append(best)
        if best > cfg.epsilon + 1e-12:
            failures.append((idx, best))
    return GraphCheckReport(
        pass_fraction=1.0 - len(failures) / len(states),
        worst_gap=float(np.max(gaps)),
        tested=len(states),
        failures=failures)


def semicontinuity_probe(field, x, u, p, delta, sample_count=64, seed=0):
    """Worst one-sided excess of nearby value boxes over the one at the
    probed state.  Small excess across shrinking delta is the numerical
    signature of upper semicontinuity; a jump that stays out of the value
    box keeps the excess pinned at the jump size.  The probes are
    evaluated in one ``evaluate_grid`` call, so a probe that breaches the
    envelope raises as ``evaluate`` would at the first such probe.
    """
    base = field.evaluate(x, u, p)
    X, U, P = (a[1:] for a in _probe_grid(np.random.default_rng(seed),
                                          sample_count, delta, x, u, p))
    lo, hi = field.evaluate_grid(X, U, P)
    # ``SetValue.excess_over(base)`` row by row; a NaN excess never wins
    excess = _row_norms(np.maximum(0.0, np.maximum(base.lo - lo,
                                                   hi - base.hi)))
    return float(np.max(excess, initial=0.0, where=~np.isnan(excess)))
