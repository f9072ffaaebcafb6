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

A field calls each of its functions once per grid: a function receives
the positions as an ``(m, 1)`` column and ``U``, ``P`` as they are, and
must return an array of at most two dims that broadcasts to ``(m, N)``.
A 0-d or ``(N,)`` result is one value for every row, so a function
written for one state that returns a scalar gives every row the value
at the first: ``lambda x, u, p: 0.0 if np.atleast_1d(u)[0] < 0.4 else
1.0`` returns ``[0, 0, 0]`` on the rows u = 0.1, 0.5, 0.9.  A callable
``bound`` is called once, on the length-``m`` position vector.  A
pointwise ``g`` that takes one state at a time is wrapped as

    lambda x, u, p: np.array([g(a, b, c)
                              for a, b, c in zip(x[:, 0], u, p)])

Every probe comes from one table, ``_probe_table(seed, count, dim)``:
the ``2 * dim`` axis points ``+-e_i`` first, then unit-ball rays drawn
from ``seed``, cut to ``count`` rows.  A relay hull probes every state
with the same table, scaled by delta, and calls ``g`` on every state's
centre and probes together; ``semicontinuity_probe`` draws its probes
from the same table.  Both reach it through ``_probe_offsets``, which
scales it once per ``(seed, count, radius, dim)`` and keeps it
coordinate-first, so a probe grid is one array add.

``tangent_selection`` picks the minimal-norm admissible value that is also
tangent to the constraint set at ``u``: it evaluates the field once and
leaves the selection to the body's ``tangent_value``.  The equilibrium
sweeps make the same selection at every node through the lifted body's
``select``, and its emptiness is exactly the tangency failure the
verifiers hunt for.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .convex import CONE_TOL, _row_norms
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


def _sup_norms(lo, hi):
    """``SetValue(lo[j], hi[j]).sup_norm()`` for every row, bit for bit."""
    return _row_norms(np.maximum(np.abs(lo), np.abs(hi)))


def _call(g, xs, U, P, N):
    """``g`` at the states ``(xs[j], U[j], P[j])`` as an ``(m, N)`` array,
    from one call on the whole grid.

    The result must broadcast to ``(m, N)`` with at most two dims, so a
    0-d or ``(N,)`` result is taken as one value for every row.  A
    function written for one state can therefore go wrong without an
    error: ``lambda x, u, p: 0.0 if np.atleast_1d(u)[0] < 0.4 else 1.0``
    looks at the first row only and gives every row its value."""
    v = np.asarray(g(xs[:, None], U, P), dtype=float)
    out = np.empty((len(xs), N))
    if v.ndim <= 2:
        try:
            out[...] = v
            return out
        except ValueError:
            pass
    raise ValueError("field returned shape %s, expected %s"
                     % (v.shape, out.shape))


class NonlinearityField:
    """Base field: holds the component count and an optional envelope.

    ``bound`` may be a constant or a function of position; when set,
    every evaluation is checked against it and BoundViolated is raised
    on escape.
    """

    def __init__(self, components, bound=None):
        self.components = int(components)
        self.bound = bound

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
        b = self.bound(xs) if callable(self.bound) else self.bound
        b = np.broadcast_to(np.asarray(b, dtype=float), xs.shape)
        worst = _sup_norms(lo, hi)
        breach = np.flatnonzero(worst > b + 1e-9 * (1.0 + np.abs(b)))
        if breach.size:
            j = breach[0]
            raise BoundViolated(
                "field value norm %.6g exceeds envelope %.6g at x=%.6g"
                % (worst[j], b[j], xs[j]))


class SingleValued(NonlinearityField):
    """Pointwise function ``g(x, u, p)`` seen as a singleton interval."""

    def __init__(self, g, components=1, bound=None):
        super().__init__(components, bound)
        self.g = g

    def _grid_value(self, xs, U, P):
        y = _call(self.g, xs, U, P, self.components)
        return y, y.copy()


class IntervalValued(NonlinearityField):
    """Explicit interval bounds ``[g_lo(x,u,p), g_hi(x,u,p)]``."""

    def __init__(self, g_lo, g_hi, components=1, bound=None):
        super().__init__(components, bound)
        self.g_lo = g_lo
        self.g_hi = g_hi

    def _grid_value(self, xs, U, P):
        lo = _call(self.g_lo, xs, U, P, self.components)
        hi = _call(self.g_hi, xs, U, P, self.components)
        crossed = np.flatnonzero(np.any(lo > hi, axis=1))
        if crossed.size:
            # the rows before the crossing meet the envelope first
            j = crossed[0]
            self._check_bound(xs[:j], lo[:j], hi[:j])
            raise ValueError("interval endpoints crossed (lo > hi)")
        return lo, hi


class FilippovHull(NonlinearityField):
    """Sampled interval hull of ``g`` over a delta-ball around the state.

    The hull spans ``g`` at the state and at the state plus delta times
    each row of the probe table drawn from ``base_seed``.  Every probe
    lies in the closed delta-ball, so the hull is an inner approximation
    of the exact convexification, and it grows with ``sample_count``: a
    larger count extends the table, never reshuffles it.  A larger delta
    moves each probe outward along the same direction.  Both
    monotonicity properties follow for monotone jumps.  The axis points
    put into the hull a jump along any one coordinate within delta of
    the state.  Every state uses the same table, so the hull is a pure
    function of the state.  ``g`` is called once per grid, on every
    state's centre and probes together.
    """

    def __init__(self, g, delta, sample_count=64, components=1,
                 bound=None, base_seed=0):
        super().__init__(components, bound)
        self.g = g
        self.delta, self.sample_count = _probe_args(delta, sample_count)
        self.base_seed = int(base_seed)

    def _grid_value(self, xs, U, P):
        N = self.components
        y = _call(self.g, *_probe_grid(self.base_seed, self.sample_count,
                                       self.delta, xs, U, P), N)
        y = y.reshape(len(xs), -1, N)
        return y.min(axis=1), y.max(axis=1)


def _probe_args(delta, count):
    """``(delta, count)`` as a probe radius and a probe count, checked
    once for every user of the probe table: a finite positive float and
    an integer of at least 1."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError("delta must be positive")
    if not (float(count).is_integer() and count >= 1):
        raise ValueError("samples must be an integer of at least 1, "
                         "got %r" % (count,))
    return float(delta), int(count)


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


def _probe_table(seed, count, dim):
    """The probe table: ``count`` points of the closed unit ball in
    ``dim`` dimensions.  The axis points ``e_0, -e_0, e_1, -e_1, ...``
    come first, then ``unit_ball_rays`` drawn from ``seed``, and the
    table is cut to ``count`` rows, so a larger ``count`` extends a
    smaller table."""
    axes = np.stack([np.eye(dim), -np.eye(dim)], axis=1).reshape(-1, dim)
    rays = unit_ball_rays(np.random.default_rng(seed),
                          max(count - 2 * dim, 0), dim)
    return np.vstack([axes, rays])[:count]


@functools.lru_cache(maxsize=64)
def _probe_offsets(seed, count, radius, dim):
    """The offsets of a state's probes, coordinate-first: column 0 is the
    state itself, column ``1 + i`` is ``radius`` times row ``i`` of the
    probe table drawn from ``seed``.  Shape ``(dim, 1 + count)``.
    Read-only, as every grid probed with the same table shares it."""
    offsets = np.vstack([np.zeros(dim),
                         radius * _probe_table(seed, count, dim)]).T.copy()
    offsets.flags.writeable = False
    return offsets


def _probe_grid(seed, count, radius, xs, U, P):
    """Every state ``(xs[j], U[j], P[j])``, then its ``count`` probes: the
    state plus ``radius`` times each row of the probe table drawn from
    ``seed``.  Returned as arrays ``(X, U, P)`` with ``1 + count`` rows
    per state, the state first; each coordinate is one contiguous
    column."""
    S = np.vstack([xs, np.transpose(U), np.transpose(P)])
    offsets = _probe_offsets(seed, count, radius, S.shape[0])
    probes = (S[:, :, None] + offsets[:, None, :]).reshape(S.shape[0], -1)
    k = np.shape(U)[1]
    return probes[0], probes[1:1 + k].T, probes[1 + k:].T


def tangent_selection(field, body, x, u, p, tol=CONE_TOL,
                      gap_tol=1e-10):
    """Minimal-norm admissible value tangent to ``body`` at ``u``: the
    field's value box at ``(x, u, p)`` handed to ``body.tangent_value``.

    Raises EmptyIntersection when no admissible tangent value exists.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    val = field.evaluate(x, u, p)
    return body.tangent_value(u, val.lo, val.hi, tol, gap_tol)


def semicontinuity_probe(field, x, u, p, delta, sample_count=64, seed=0):
    """Worst one-sided excess of nearby value boxes over the one at the
    probed state.  Small excess across shrinking delta is the numerical
    signature of upper semicontinuity; a jump that stays out of the value
    box keeps the excess pinned at the jump size.  The probes are the
    rows of the probe table drawn from ``seed``, scaled by ``delta``.  The
    state and its probes are evaluated in one ``evaluate_grid`` call, so
    a state or probe that breaches the envelope raises as ``evaluate``
    would at the first such one.  A delta that is not finite and
    positive, or a ``sample_count`` that is not an integer of at least 1,
    raises ValueError, and a ``seed`` that is not an integer TypeError.
    A NaN excess is no evidence and never wins; when every probe's excess
    is NaN the probe returns NaN, not 0.0.
    """
    delta, count = _probe_args(delta, sample_count)
    lo, hi = field.evaluate_grid(*_probe_grid(
        operator.index(seed), count, delta, np.atleast_1d(x),
        np.atleast_2d(u), np.atleast_2d(p)))
    # ``SetValue.excess_over`` of each probe over the state
    excess = _row_norms(np.maximum(0.0, np.maximum(lo[:1] - lo[1:],
                                                   hi[1:] - hi[:1])))
    kept = excess[~np.isnan(excess)]
    return float(np.max(kept)) if kept.size else float("nan")
