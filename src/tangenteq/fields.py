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
case, a ``SetValue``, whose ``distance``, ``sup_norm`` and
``excess_over`` are the one-row case of ``_box_distances``,
``_sup_norms`` and ``_excesses``.  Every row is checked against the
envelope, and the first row that breaches it raises BoundViolated.

A field calls each of its functions once per grid: a function receives
the positions as an ``(m, 1)`` column and ``U``, ``P`` as they are, and
must return one row per state, an array of shape ``(m, N)``, or
``(m,)`` when ``N = 1``; any other shape raises ValueError naming both.
So a function written for one state, ``lambda x, u, p: 0.0 if
np.atleast_1d(u)[0] < 0.4 else 1.0``, raises on a grid instead of giving
every row the value at the first.  A single-valued field returns its
box ``[y, y]`` as one read-only array, ``lo is hi``.  A callable
``bound`` is called once, on the length-``m`` position vector.  A
pointwise ``g`` that takes one state at a time is wrapped as

    lambda x, u, p: np.array([g(a, b, c)
                              for a, b, c in zip(x[:, 0], u, p)])

A field says whether its functions read the slopes ``p``: ``slopes``,
True unless ``SingleValued`` or ``IntervalValued`` is built with
``slopes=False``.  The catalog's ``linear``, ``logistic``, ``constant``
and ``tabulated`` fields are slope-free, and a state shift takes its
base's value.  The sweeps take no gradient for a slope-free field and
call its functions with ``p = None``; the verifiers still hand every
field its ``P``, since their witnesses print it.  A relay hull always
reads the slopes: its probes move the state and the slopes together,
so its probe table's width, and so every probe, depends on them.

Every seeded draw of the package comes from ``SplitMix64``, a counter
hash in numpy ``uint64`` arithmetic, so no module loads
``numpy.random``.  Every probe comes from one table,
``_probe_table(seed, count, dim)``: the ``2 * dim`` axis points
``+-e_i`` first, then unit-ball rays drawn from ``SplitMix64(seed)``,
cut to ``count`` rows.  A relay hull probes every state with the same
table, scaled by delta, and calls ``g`` on every state's centre and
probes together; ``semicontinuity_probe`` draws its probes from the
same table.  Both reach it through ``_probe_offsets``, which
scales it once per ``(seed, count, radius, dim)`` and keeps it
coordinate-first, so a probe grid is one array add.  The probes'
positions depend on the nodes and the table alone, so a hull builds
them once per read-only node array (a grid's nodes) and table, and
takes each state's hull over a contiguous axis.

``tangent_selection`` picks the minimal-norm admissible value that is also
tangent to the constraint set at ``u``: it evaluates the field once and
leaves the selection to ``select`` of the body lifted to one node.  The
equilibrium sweeps make the same selection at every node through the
same ``select`` of the constraint lifted to the grid, and its emptiness
is exactly the tangency failure the verifiers hunt for.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .convex import _box_distances, _row_norms
from .errors import (BoundViolated, EmptyIntersection, check_count,
                     check_positive, check_seed)

#: how far a point may lie from a value box and still belong to it
_MEMBER_TOL = 1e-12


@dataclass
class SetValue:
    """Interval box of admissible values, ``lo <= hi`` componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    def distance(self, y):
        """Euclidean distance from ``y`` to the box."""
        return float(_box_distances(np.atleast_2d(y), self.lo, self.hi)[0])

    def contains(self, y):
        return self.distance(y) <= _MEMBER_TOL

    def min_norm_point(self):
        return np.clip(0.0, self.lo, self.hi)

    def sup_norm(self):
        """Largest Euclidean norm over the box (attained at a corner)."""
        return float(_sup_norms(*np.atleast_2d(self.lo, self.hi))[0])

    def excess_over(self, other):
        """One-sided Hausdorff excess of this box over ``other``."""
        return float(_excesses(*np.atleast_2d(self.lo, self.hi, other.lo,
                                              other.hi))[0])

    def is_singleton(self):
        return bool(np.all(self.hi - self.lo <= 0.0))


def _sup_norms(lo, hi):
    """The largest Euclidean norm over each row's value box
    ``[lo[j], hi[j]]``; ``SetValue.sup_norm`` is its one-row case."""
    return _row_norms(np.maximum(np.abs(lo), np.abs(hi)))


def _excesses(lo, hi, olo, ohi):
    """The one-sided Hausdorff excess of each row's value box over the
    row's ``[olo, ohi]``; ``SetValue.excess_over`` is its one-row case."""
    return _row_norms(np.maximum(0.0, np.maximum(olo - lo, hi - ohi)))


def _call(g, xs, U, P, N):
    """``g`` at the states ``(xs[j], U[j], P[j])`` as a new ``(m, N)``
    array, from one call on the whole grid.  The result must hold one row
    per state: shape ``(m, N)``, or ``(m,)`` when ``N = 1``; any other
    shape raises ValueError naming both."""
    v = np.asarray(g(xs[:, None], U, P), dtype=float)
    out = np.empty((len(xs), N))
    if v.shape != out.shape and (N != 1 or v.shape != out.shape[:1]):
        raise ValueError("field returned shape %s, expected %s"
                         % (v.shape, out.shape))
    out.reshape(v.shape)[...] = v
    return out


class NonlinearityField:
    """Base field: holds the component count, an optional envelope and
    whether its functions read the slopes ``p``.

    ``bound`` may be a constant or a function of position; when set,
    every evaluation is checked against it and BoundViolated is raised
    on escape.  A field with ``slopes`` False never reads ``p``, so the
    sweeps take no gradient for it and hand it ``P = None``.
    """

    def __init__(self, components, bound=None, slopes=True):
        self.components = check_count(ValueError, 1, components=components)
        self.bound = bound
        self.slopes = bool(slopes)

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
    """Pointwise function ``g(x, u, p)`` seen as a singleton interval: its
    value box ``[y, y]`` is one read-only array, returned as both ends."""

    def __init__(self, g, components=1, bound=None, slopes=True):
        super().__init__(components, bound, slopes)
        self.g = g

    def _grid_value(self, xs, U, P):
        y = _call(self.g, xs, U, P, self.components)
        y.flags.writeable = False
        return y, y


class IntervalValued(NonlinearityField):
    """Explicit interval bounds ``[g_lo(x,u,p), g_hi(x,u,p)]``."""

    def __init__(self, g_lo, g_hi, components=1, bound=None, slopes=True):
        super().__init__(components, bound, slopes)
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
    state's centre and probes together.  The positions of the probes
    depend on the nodes and the table (whose width is the state's) alone,
    so they are built once for a read-only node array (a grid's nodes),
    which is taken as fixed, and kept read-only.  A zero end is ``+0.0``.
    A hull always reads the slopes, as the table's width counts them.
    """

    def __init__(self, g, delta, sample_count=64, components=1,
                 bound=None, base_seed=0):
        super().__init__(components, bound)
        self.g = g
        check_positive(delta=delta)
        self.delta = float(delta)
        self.sample_count = check_count(ValueError, 1, samples=sample_count)
        self.base_seed = check_seed(base_seed=base_seed)
        # read-only nodes, the probe table's parameters and width, positions
        self._positions = (None, None, None)

    def _grid_value(self, xs, U, P):
        N = self.components
        probes = (self.base_seed, self.sample_count, self.delta)
        # the table, and so the positions, change with the state's width
        table = probes + (U.shape[1] + P.shape[1],)
        nodes, kept, X = self._positions
        X, U, P = _probe_grid(*probes, xs, U, P,
                              X if nodes is xs and kept == table else None)
        if not xs.flags.writeable:
            self._positions = xs, table, X
        # each state's values with its probes along the last, contiguous
        # axis; a zero end is +0.0, whichever zero the reduction kept
        y = _call(self.g, X, U, P, N).reshape(len(xs), -1, N)
        y = np.ascontiguousarray(y.transpose(0, 2, 1))
        return (np.minimum.reduce(y, axis=2) + 0.0,
                np.maximum.reduce(y, axis=2) + 0.0)


class SplitMix64:
    """The package's seeded draws, with no ``numpy.random``: word ``k``
    (from 1) of the stream is SplitMix64's mix of ``seed + k * gamma``
    (Steele, Lea and Flood, "Fast splittable pseudorandom number
    generators", OOPSLA 2014), computed in numpy ``uint64`` arithmetic;
    seed 0 gives ``0xe220a8397b1dcdaf`` first.  A seed is taken modulo
    2**64.  Each draw takes the next words in row-major order, so a
    longer draw extends a shorter one, and draws row by row consume the
    stream as one whole-array draw does."""

    def __init__(self, seed):
        self.seed = np.uint64(seed % 2 ** 64)
        self.drawn = 0

    def words(self, count):
        z = np.arange(self.drawn + 1, self.drawn + count + 1, dtype=np.uint64)
        self.drawn += count
        z *= np.uint64(0x9e3779b97f4a7c15)
        z += self.seed
        z ^= z >> 30
        z *= np.uint64(0xbf58476d1ce4e5b9)
        z ^= z >> 27
        z *= np.uint64(0x94d049bb133111eb)
        z ^= z >> 31
        return z

    def random(self, shape):
        """Uniforms in [0, 1): the top 53 bits of a word, ``(z >> 11) *
        2**-53``."""
        z = self.words(int(np.prod(shape)))
        z >>= 11
        # below 2**53, so int64 holds it and converts to float exactly
        return (z.view(np.int64) * 2.0 ** -53).reshape(shape)

    def integers(self, n, size):
        """Integers in ``[0, n)``: ``floor(u * n)`` of a uniform ``u``."""
        return (self.random(size) * n).astype(np.intp)

    def standard_normal(self, shape):
        """Box-Muller on consecutive word pairs, one normal per pair: the
        first uniform gives the radius, the second the angle."""
        u = self.random((int(np.prod(shape)), 2))
        r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        return (r * np.cos(2.0 * np.pi * u[:, 1])).reshape(shape)


def _unit_rows(rng, count, dim):
    """``count`` normalised standard-normal rows drawn row-major from
    ``rng``, uniform unit vectors in ``dim`` dimensions; a zero row stays
    zero."""
    d = rng.standard_normal((count, dim))
    nd = _row_norms(d)
    nd[nd == 0.0] = 1.0
    return d / nd[:, None]


def unit_ball_rays(rng, count, dim):
    """``count`` points of the closed unit ball in one draw.

    The first ``dim`` coordinates of a uniform point on the sphere
    S^(dim+1) are uniform in the ``dim``-ball (Voelker, Gosmann and
    Stewart, "Efficiently sampling vectors and coordinates from the
    n-sphere and n-ball", 2017).  The normals are drawn row-major, so a
    larger ``count`` extends a smaller one.  ``rng`` is a ``SplitMix64``
    or anything else with ``standard_normal(shape)``, such as a numpy
    Generator.
    """
    return _unit_rows(rng, count, dim + 2)[:, :dim]


def _probe_table(seed, count, dim):
    """The probe table: ``count`` points of the closed unit ball in
    ``dim`` dimensions.  The axis points ``e_0, -e_0, e_1, -e_1, ...``
    come first, then ``unit_ball_rays`` drawn from ``SplitMix64(seed)``,
    and the table is cut to ``count`` rows, so a larger ``count``
    extends a smaller table."""
    axes = np.stack([np.eye(dim), -np.eye(dim)], axis=1).reshape(-1, dim)
    rays = unit_ball_rays(SplitMix64(seed), max(count - 2 * dim, 0), dim)
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


def _probe_grid(seed, count, radius, xs, U, P, X=None):
    """Every state ``(xs[j], U[j], P[j])``, then its ``count`` probes: the
    state plus ``radius`` times each row of the probe table drawn from
    ``seed``.  Returned as arrays ``(X, U, P)`` with ``1 + count`` rows
    per state, the state first; each coordinate is one contiguous
    column.  ``X``, the positions, depends on ``xs`` and the table alone:
    a caller that kept it from an earlier call on the same ``xs`` and
    table hands it in, and a new one is read-only."""
    S = np.concatenate((U.T, P.T))
    offsets = _probe_offsets(seed, count, radius, 1 + S.shape[0])
    if X is None:
        X = (xs[:, None] + offsets[0]).reshape(-1)
        X.flags.writeable = False
    probes = (S[:, :, None] + offsets[1:, None, :]).reshape(S.shape[0],
                                                            X.size)
    k = np.shape(U)[1]
    return X, probes[:k].T, probes[k:].T


def tangent_selection(field, body, x, u, p):
    """Minimal-norm admissible value tangent to ``body`` at ``u``: the
    field's value box at ``(x, u, p)`` handed to the one-node lift's
    ``select``.

    Raises EmptyIntersection when no admissible tangent value exists.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    val = field.evaluate(x, u, p)
    v, miss = body.lift(1, u.size).select(u[None], val.lo[None],
                                          val.hi[None])
    if miss is not None:
        raise EmptyIntersection(miss[1])
    return v[0]


def semicontinuity_probe(field, x, u, p, delta, sample_count=64, seed=0):
    """Worst one-sided excess of nearby value boxes over the one at the
    probed state.  Small excess across shrinking delta is the numerical
    signature of upper semicontinuity; a jump that stays out of the value
    box keeps the excess pinned at the jump size.  The probes are the
    rows of the probe table drawn from ``seed``, scaled by ``delta``.  The
    state and its probes are evaluated in one ``evaluate_grid`` call, so
    a state or probe that breaches the envelope raises as ``evaluate``
    would at the first such one.  A delta that is not finite and
    positive, a ``sample_count`` that is not an integer of at least 1, or
    a negative ``seed`` raises ValueError, and a ``seed`` that is not an
    integer TypeError, as a hull's ``base_seed`` does.
    A NaN excess is no evidence and never wins; when every probe's excess
    is NaN the probe returns NaN, not 0.0.
    """
    check_positive(delta=delta)
    count = check_count(ValueError, 1, samples=sample_count)
    lo, hi = field.evaluate_grid(*_probe_grid(
        check_seed(seed=seed), count, float(delta), np.atleast_1d(x),
        np.atleast_2d(u), np.atleast_2d(p)))
    excess = _excesses(lo[1:], hi[1:], lo[:1], hi[:1])
    kept = excess[~np.isnan(excess)]
    return float(np.max(kept)) if kept.size else float("nan")
