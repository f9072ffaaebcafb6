"""Set-valued nonlinearity fields and tangential selections.

A field maps a state ``(x, u, p)`` (position, value, gradient) to an
axis-aligned interval box of admissible reaction values.  Three variants
cover the use cases: single-valued functions, explicit interval bounds,
and the sampled interval hull of a possibly discontinuous function over a
small ball (the regularization that turns jumps into intervals).

Every field evaluates whole grids: ``evaluate_grid(xs, U, P)`` takes the
``m`` states ``(xs[j], U[j], P[j])`` as a length-``m`` position vector and
``(m, N)`` and ``(m, q)`` arrays and returns the value boxes as two
``(m, N)`` arrays ``(lo, hi)``.  A field built with ``vectorized=True``
calls its function once on the whole grid: the function receives the
positions as an ``(m, 1)`` column and ``U``, ``P`` as they are, and must
return an array that broadcasts to ``(m, N)``, with elementwise the same
values as ``m`` calls on the rows.  Without the flag (the default, since
a user callable may take scalars only) ``evaluate_grid`` is the row loop
over ``evaluate``.  The catalog fields of ``problems`` all set it.
Either way every row is checked against the envelope, and the first row
that breaches it raises BoundViolated with the message ``evaluate`` gives.
A vectorized relay hull keeps its per-state draws and calls ``g`` once
per state, on the centre and all its probes together.

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

from .convex import CONE_TOL
from .errors import BoundViolated


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


def _row_dots(A, B):
    """``np.dot(A[j], B[j])`` for every row, rounded as ``np.dot`` rounds
    (a batched matmul of 1 x N by N x 1 takes the same dot kernel)."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _sup_norms(lo, hi):
    """``SetValue(lo[j], hi[j]).sup_norm()`` for every row, bit for bit."""
    corner = np.maximum(np.abs(lo), np.abs(hi))
    return np.sqrt(_row_dots(corner, corner))


def _rows(value, xs, U, P):
    """Value boxes ``(lo, hi)`` from ``value(x, u, p)`` called row by row."""
    lo = np.empty(np.shape(U))
    hi = np.empty(np.shape(U))
    for j in range(len(xs)):
        val = value(xs[j], U[j], P[j])
        lo[j] = val.lo
        hi[j] = val.hi
    return lo, hi


class NonlinearityField:
    """Base field: holds the component count and an optional envelope.

    ``bound`` may be a constant or a function of position; when set,
    every evaluation is checked against it and BoundViolated is raised
    on escape.  ``vectorized`` says the field's functions take whole
    grids (see the module docstring).
    """

    def __init__(self, components, bound=None, vectorized=False):
        self.components = int(components)
        self.bound = bound
        self.vectorized = bool(vectorized)

    def evaluate(self, x, u, p):
        val = self._value(x, u, p)
        self._check_bound(x, val)
        return val

    def evaluate_grid(self, xs, U, P):
        """Value boxes ``(lo, hi)`` at the states ``(xs[j], U[j], P[j])``:
        one call of a vectorized field, the row loop otherwise."""
        xs = np.asarray(xs, dtype=float)
        if not self.vectorized:
            return _rows(self.evaluate, xs, U, P)
        lo, hi = self._grid_value(xs, U, P)
        self._check_grid_bound(xs, lo, hi)
        return lo, hi

    def _value(self, x, u, p):
        raise NotImplementedError

    def _grid_value(self, xs, U, P):
        # a field whose ``_value`` batches its own work state by state
        return _rows(self._value, xs, U, P)

    def _check_bound(self, x, val):
        if self.bound is None:
            return
        b = self.bound(x) if callable(self.bound) else float(self.bound)
        worst = val.sup_norm()
        if worst > b + 1e-9 * (1.0 + abs(b)):
            raise BoundViolated(
                "field value norm %.6g exceeds envelope %.6g at x=%.6g"
                % (worst, b, x))

    def _check_grid_bound(self, xs, lo, hi):
        """``_check_bound`` on every row; the first breach raises."""
        if self.bound is None:
            return
        if callable(self.bound):
            b = np.array([self.bound(x) for x in xs], dtype=float)
        else:
            b = float(self.bound)
        breach = np.flatnonzero(_sup_norms(lo, hi)
                                > b + 1e-9 * (1.0 + np.abs(b)))
        if breach.size:
            j = breach[0]
            self._check_bound(xs[j], SetValue(lo=lo[j], hi=hi[j]))


class SingleValued(NonlinearityField):
    """Pointwise function ``g(x, u, p)`` seen as a singleton interval."""

    def __init__(self, g, components=1, bound=None, vectorized=False):
        super().__init__(components, bound, vectorized)
        self.g = g

    def _value(self, x, u, p):
        y = _components(self.g(x, u, p), self.components)
        return SetValue(lo=y, hi=y.copy())

    def _grid_value(self, xs, U, P):
        y = _grid_components(self.g(xs[:, None], U, P),
                             (len(xs), self.components))
        return y, y.copy()


class IntervalValued(NonlinearityField):
    """Explicit interval bounds ``[g_lo(x,u,p), g_hi(x,u,p)]``."""

    def __init__(self, g_lo, g_hi, components=1, bound=None,
                 vectorized=False):
        super().__init__(components, bound, vectorized)
        self.g_lo = g_lo
        self.g_hi = g_hi

    def _value(self, x, u, p):
        lo = _components(self.g_lo(x, u, p), self.components)
        hi = _components(self.g_hi(x, u, p), self.components)
        if np.any(lo > hi):
            raise ValueError("interval endpoints crossed (lo > hi)")
        return SetValue(lo=lo, hi=hi)

    def _grid_value(self, xs, U, P):
        shape = (len(xs), self.components)
        X = xs[:, None]
        lo = _grid_components(self.g_lo(X, U, P), shape)
        hi = _grid_components(self.g_hi(X, U, P), shape)
        crossed = np.flatnonzero(np.any(lo > hi, axis=1))
        if crossed.size:
            # the row loop checks the rows before the crossing first
            j = crossed[0]
            self._check_grid_bound(xs[:j], lo[:j], hi[:j])
            raise ValueError("interval endpoints crossed (lo > hi)")
        return lo, hi


class FilippovHull(NonlinearityField):
    """Sampled interval hull of ``g`` over a delta-ball around the state.

    The hull is an inner approximation of the exact convexification that
    grows with ``sample_count``.  Sampling is deterministic: the rng seed
    is derived from the state itself, draws are sequential (so a larger
    sample count extends, never reshuffles, a smaller one) and rays are
    scaled by delta (so a larger delta moves each probe outward along the
    same direction).  Both monotonicity properties follow for monotone
    jumps, and concurrent evaluations at different states are independent.
    With ``vectorized=True``, ``g`` is called once per state, on the
    centre and all its probes.
    """

    def __init__(self, g, delta, sample_count=64, components=1,
                 bound=None, base_seed=0, vectorized=False):
        super().__init__(components, bound, vectorized)
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.g = g
        self.delta = float(delta)
        self.sample_count = int(sample_count)
        self.base_seed = int(base_seed)

    def _state_rng(self, x, u, p):
        h = hashlib.blake2b(digest_size=8)
        h.update(np.int64(self.base_seed).tobytes())
        h.update(np.float64(x).tobytes())
        h.update(np.asarray(u, dtype=float).tobytes())
        h.update(np.asarray(p, dtype=float).tobytes())
        return np.random.default_rng(int.from_bytes(h.digest(), "little"))

    def _value(self, x, u, p):
        rng = self._state_rng(x, u, p)
        if self.vectorized:
            X, U, P = _probe_grid(rng, self.sample_count, self.delta,
                                  x, u, p)
            y = _grid_components(self.g(X[:, None], U, P),
                                 (len(X), self.components))
            return SetValue(lo=y.min(axis=0), hi=y.max(axis=0))
        lo = hi = _components(self.g(x, u, p), self.components)
        for state in _probe_states(rng, self.sample_count, self.delta,
                                   x, u, p):
            y = _components(self.g(*state), self.components)
            lo = np.minimum(lo, y)
            hi = np.maximum(hi, y)
        return SetValue(lo=lo, hi=hi)


def unit_ball_rays(rng, count, dim):
    """``count`` points of the closed unit ball, drawn sequentially."""
    out = np.empty((count, dim))
    for i in range(count):
        d = rng.standard_normal(dim)
        nd = np.linalg.norm(d)
        if nd == 0.0:
            nd = 1.0
        out[i] = (rng.random() ** (1.0 / dim) / nd) * d
    return out


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


def _probe_states(rng, count, radius, x, u, p):
    """The probes of ``_probe_grid`` one by one, without the centre.

    All rays are drawn before the first state is yielded, so a caller
    that stops early leaves ``rng`` where a full pass would.
    """
    yield from zip(*(a[1:] for a in _probe_grid(rng, count, radius,
                                                x, u, p)))


def tangent_selection(field, body, x, u, p, tol=CONE_TOL,
                      gap_tol=1e-10, max_iter=5000):
    """Minimal-norm admissible value tangent to ``body`` at ``u``: the
    field's value box at ``(x, u, p)`` handed to ``body.tangent_value``.

    Raises EmptyIntersection when no admissible tangent value exists.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    val = field.evaluate(x, u, p)
    return body.tangent_value(u, val.lo, val.hi, tol, gap_tol, max_iter)


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
    rng = np.random.default_rng(seed)
    gaps = []
    failures = []
    for idx, (x, u, p) in enumerate(states):
        y = np.atleast_1d(np.asarray(f(x, u, p), dtype=float))
        best = field.evaluate(x, u, p).distance(y)
        if best > 0.0:
            for state in _probe_states(rng, cfg.sample_count, cfg.radius(),
                                       x, u, p):
                best = min(best, field.evaluate(*state).distance(y))
                if best == 0.0:
                    break
        gaps.append(best)
        if best > cfg.epsilon + 1e-12:
            failures.append((idx, best))
    gaps = np.asarray(gaps) if gaps else np.zeros(1)
    return GraphCheckReport(
        pass_fraction=1.0 - len(failures) / max(1, len(states)),
        worst_gap=float(np.max(gaps)),
        tested=len(states),
        failures=failures)


def semicontinuity_probe(field, x, u, p, delta, sample_count=64, seed=0):
    """Worst one-sided excess of nearby value boxes over the one at the
    probed state.  Small excess across shrinking delta is the numerical
    signature of upper semicontinuity; a jump that stays out of the value
    box keeps the excess pinned at the jump size.
    """
    base = field.evaluate(x, u, p)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for state in _probe_states(rng, sample_count, delta, x, u, p):
        worst = max(worst, field.evaluate(*state).excess_over(base))
    return worst
