"""Convex constraint sets: distances, projections and tangent cones.

Rows are the only primitive: a set implements ``project_rows`` (the
metric projection of each row, a 1-Lipschitz retraction),
``tangent_project_rows`` (onto the tangent cone at each row) and
``_select_rows`` (the minimal-norm point of each value box in that
cone), and states in closed form how far a scaled copy ``s K`` reaches
past K (``overshoot``, which decides the invariance audit).
``ConvexBody`` builds the rest on them once: distances, cone membership
and ``select`` over every node, and their one-point forms.

A constraint is its own grid lift: ``lift(n, N)`` checks it against
``n`` nodes of ``N`` components, and a one-point method works on
``lift(1, N)``.  A body returns itself, since its row methods take every
node at once.  ``MovingBox`` is the one nodewise box, which selects by
clipping to its interval face cones; a ``Box`` is its one-row case.

The tangent cone of a convex set at ``x`` is the closure of the feasible
rays ``h*(K - x)``, ``h > 0``.  For every set below both projections
and the selection are exact (a ball or a simplex selects by one
multiplier, ``_multiplier_rows``):

* ``MovingBox``  clipping; sign rules on the active faces,
* ``Ball``     radial scaling; a halfspace through the outward normal,
* ``Simplex``  one sort-based pivot rule, ``_face_rows``, for both:
  the projection has every coordinate active, the cone (zero-sum
  directions) its zero coordinates.

The cone only acts on the boundary, so the row kernels do their face
work only on the rows that touch a face.  At an interior point the cone
is the whole space and a value is its own cone projection (a ball's
inner rows); on the
simplex's relative interior the cone is the hyperplane ``sum w = 0``, so
a row with no zero coordinate takes ``v - mean(v)``.  A ball projects
only the rows outside it.  Each kernel gives those rows the bits the
full boundary algebra gives them.  The simplex projects a row with no
entry at or below its shift ``theta`` in closed form, ``x - theta``,
which sums the row in its own order, not in the pivot's sorted order.
A ball's row kernels do not broadcast its centre against an ``(n, N)``
state: a ball keeps a read-only copy of its centre and holds it at the
state's shape, built when that shape or the centre changes.

A single-valued field gives its value box ``[y, y]`` as one array,
``vlo is vhi``, and a selection then skips what the box already knows:
its shortest value ``clip(0, y, y)`` is ``y``, and a value ``y``'s gap
to the box is its cone gap, bit for bit as the two-array path computes
them.

For a convex set the one-sided derivative of ``d_K`` at ``x in K`` along
``v`` is the distance from ``v`` to the tangent cone, so cone membership
at ``tol`` is exactly ``derivative <= tol``.  Each quantity has one row
kernel on ``_row_sums``: that derivative is ``_cone_gaps``, a distance to
a value box ``_box_distances``; every one-point form is its one-row case.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (PointNotInSet, check_bounds, check_count, check_finite,
                     check_positive)

try:
    # the ufunc behind np.clip, called without np.clip's Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:     # numpy < 2 keeps its ufuncs in numpy.core
    from numpy.core.umath import clip as _clip

#: default tolerance for active-face detection and cone membership
CONE_TOL = 1e-9


@dataclass
class ConeQueryResult:
    """Outcome of a tangent-cone membership query.

    Attributes:
        contains: whether the direction lies in the cone (at tolerance).
        directional_derivative: one-sided derivative of the distance
            function along the queried direction; zero iff contained.
    """

    contains: bool
    directional_derivative: float


def _as1d(x):
    return np.atleast_1d(np.asarray(x, dtype=float))


def _row_sums(S):
    """The sum of each row, taken column by column from the left: bit
    for bit ``np.add.reduce(S, axis=1)`` on rows of up to 7 entries (past
    that numpy sums pairwise), in C or Fortran order."""
    total = S[:, 0]
    for k in range(1, S.shape[1]):
        total = total + S[:, k]
    return total


def _row_dots(A, B):
    """The dot product of each row of ``A`` with the same row of ``B``."""
    return _row_sums(A * B)


def _row_norms(A):
    """``np.linalg.norm(A, axis=1)``, bit for bit on rows of up to 7
    entries."""
    return np.sqrt(_row_sums(A * A))


def _cone_gaps(body, X, V, tol):
    """Each row's tangency residual: the distance of ``V[j]`` to the
    tangent cone of ``body`` at ``X[j]``."""
    return _row_norms(V - body.tangent_project_rows(X, V, tol))


def _box_distances(Y, lo, hi):
    """The distance of each ``Y[j]`` to the box ``[lo[j], hi[j]]``."""
    return _row_norms(Y - _clip(Y, lo, hi))


def _positive_part(a):
    """``max(0.0, a)`` elementwise as Python rounds it: NaN and ``-0.0``
    give ``0.0``."""
    return np.where(a > 0.0, a, 0.0)


class ConvexBody:
    """Shared plumbing for the constraint sets, built once on the row
    methods each set implements: ``project_rows(X)``,
    ``tangent_project_rows(X, V, tol)`` (faces within ``tol`` of ``X[j]``
    are active) and ``_select_rows(W, vlo, vhi, tol)``.  A state-level
    method takes every node and projects it once, for the same method at
    the projection (``_distances_at(U, W)``, ``_select_at(W, ...)``,
    ``_tangency_at(W, ...)``, which a sweep holding ``W`` calls); a
    one-point method is the one-row case of ``lift(1, N)``."""

    dim = None

    def distances(self, U):
        """Euclidean distance of each nodal state to the set."""
        return self._distances_at(U, self.project_rows(U))

    def select(self, U, vlo, vhi, tol=CONE_TOL):
        """Minimal-norm values in ``[vlo, vhi]`` tangent to the set at
        ``proj U``.  Returns ``(V, None)``, or ``(None, (node, reason))``
        for the first node without an admissible value."""
        return self._select_at(self.project_rows(U), vlo, vhi, tol)

    def tangency(self, U, V, tol=CONE_TOL):
        """``max_j dist(V_j, T(proj U_j))``: the largest nodal directional
        derivative of the distance to the set along ``V``."""
        return self._tangency_at(self.project_rows(U), V, tol)

    def _distances_at(self, U, W):
        return _row_norms(U - W)

    def _tangency_at(self, W, V, tol=CONE_TOL):
        return float(np.max(_cone_gaps(self, W, V, tol)))

    def distance(self, x):
        return float(self.lift(1, np.size(x)).distances(_as1d(x)[None])[0])

    def project(self, x):
        return self.lift(1, np.size(x)).project_rows(_as1d(x)[None])[0]

    def tangent_project(self, x, v, tol=CONE_TOL):
        return self.lift(1, np.size(x)).tangent_project_rows(
            _as1d(x)[None], _as1d(v)[None], tol)[0]

    def contains(self, x):
        return self.distance(x) <= CONE_TOL

    def _require_member(self, x, tol):
        d = self.distance(x)
        if d > max(tol, CONE_TOL):
            raise PointNotInSet(
                "point at distance %.3g from the set (tol %.3g)" % (d, tol))

    def tangent_cone_contains(self, x, v, tol=CONE_TOL):
        """Query whether ``v`` is tangent to the set at ``x``.

        Raises PointNotInSet when ``x`` is not a member (up to ``tol``).
        """
        self._require_member(x, tol)
        dd = float(_cone_gaps(self.lift(1, np.size(x)), _as1d(x)[None],
                              _as1d(v)[None], tol)[0])
        return ConeQueryResult(contains=dd <= tol, directional_derivative=dd)

    def overshoot(self, s):
        """How far ``s_j K`` reaches past K, for node factors ``s_j >= 0``:
        the largest ``(s_j - 1) sigma_K(p)`` over the unit normals ``p`` of
        K's faces (every unit vector for a ball), with ``sigma_K`` the
        support function.  Positive exactly where ``s_j K`` leaves K."""
        raise NotImplementedError

    def lift(self, n, N):
        """The body at each of ``n`` grid nodes of ``N`` components: the
        body itself, whose row methods take every node at once."""
        if self.dim != N:
            raise ValueError("constraint dimension %d != components %d"
                             % (self.dim, N))
        return self

    def _select_at(self, W, vlo, vhi, tol=CONE_TOL):
        """Each box's shortest value ``V = clip(0, vlo, vhi)`` where it fits
        the cone, else the exact ``_select_rows``; the first row whose
        value still misses by more than ``tol`` is the miss.  A box
        ``[y, y]`` given as one array (``vlo is vhi``) has ``V = y``."""
        V = vlo if vlo is vhi else _clip(0.0, vlo, vhi)
        Y, fits, _, _ = _fit(self, W, V, vlo, vhi, tol)
        rest = (~fits).nonzero()[0]
        if rest.size:
            W, vlo, vhi = W[rest], vlo[rest], vhi[rest]
            Y[rest], fits, cone, box = _fit(self, W, self._select_rows(
                W, vlo, vhi, tol), vlo, vhi, tol)
            if not fits.all():
                k = np.argmin(fits)
                return None, (int(rest[k]), "no admissible tangent value: "
                              "cone gap %.3g, box gap %.3g"
                              % (cone[k], box[k]))
        return Y, None


def _fit(body, W, V, vlo, vhi, tol):
    """The cone projections ``Y`` of ``V``, whether ``|V - Y|`` and the
    distance of ``Y`` to its box are both at most ``tol``, and those two
    gaps.  When ``V`` is the one array of a box ``[V, V]`` the two gaps
    are one."""
    Y = body.tangent_project_rows(W, V, tol)
    cone = _row_norms(V - Y)
    if V is vlo is vhi:
        return Y, cone <= tol, cone, cone
    box = _box_distances(Y, vlo, vhi)
    return Y, (cone <= tol) & (box <= tol), cone, box


def _face_cone(W, lo, hi, tol):
    """Interval bounds ``(clo, chi)`` of the tangent cone of the box
    ``[lo, hi]`` at ``W``, a state in it: ``clo = 0`` on an active lower
    face, ``chi = 0`` on an upper one."""
    return (np.where(W - lo <= tol, 0.0, -np.inf),
            np.where(hi - W <= tol, 0.0, np.inf))


@dataclass(eq=False)
class MovingBox(ConvexBody):
    """Nodewise box bounds alpha(x) <= u(x) <= beta(x).

    ``alpha`` and ``beta`` are arrays over grid nodes, one row per node,
    or one row for every node (scalar problems may pass flat arrays, and
    a single column bounds every component alike).  The cone admits
    nonnegative components on an active lower face, nonpositive on an
    upper one.  The row methods take ``(n, N)`` grid functions and need
    the bounds as ``lift`` gives them.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        check_bounds(ValueError, False, alpha=self.alpha, beta=self.beta)

    def lift(self, n, N):
        """The bounds with one row per node or one row for every node,
        of one column or ``N``; a scalar is one row."""
        def rows(b):
            b = np.atleast_1d(b)
            if b.shape[0] not in (1, n):
                raise ValueError("bounds have %d rows for %d grid nodes"
                                 % (b.shape[0], n))
            return b.reshape(b.shape[0], -1)
        lo, hi = rows(self.alpha), rows(self.beta)
        if lo.shape[1] not in (1, N):
            raise ValueError("constraint dimension %d != components %d"
                             % (lo.shape[1], N))
        return MovingBox(lo, hi)

    def project_rows(self, U):
        return _clip(U, self.alpha, self.beta)

    def tangent_project_rows(self, X, V, tol=CONE_TOL):
        """The face-cone clip of ``V`` at the projections of ``X``."""
        lo, hi = self.alpha, self.beta
        return _clip(V, *_face_cone(_clip(X, lo, hi), lo, hi, tol))

    def _select_at(self, W, vlo, vhi, tol=CONE_TOL):
        """The face cones are intervals, so selection is componentwise
        clipping.  A node misses when its values miss its face cone by
        more than ``tol``, so a state within ``tol`` of a face may
        overshoot it by as much."""
        # the face cones met with the value boxes: an active lower face
        # raises vlo to 0, an active upper face lowers vhi to 0
        lower, upper = W - self.alpha <= tol, self.beta - W <= tol
        ilo, ihi = np.empty(lower.shape), np.empty(upper.shape)
        ilo[...], ihi[...] = vlo, vhi
        np.maximum(ilo, 0.0, out=ilo, where=lower)
        np.minimum(ihi, 0.0, out=ihi, where=upper)
        if vlo is vhi:
            # from a box [y, y], ilo is y or max(y, 0) and ihi is y or
            # min(y, 0), never above ilo: the shortest point is ilo, taken
            # as max(ilo, ihi) for the sign of its zero
            V, empty = np.maximum(ilo, ihi), ilo > ihi + tol
        else:
            V, empty = _shortest_in(ilo, ihi, tol)
        if empty.any():
            j, k = np.argwhere(empty)[0]
            # the value bounds may broadcast against the nodes
            lo, hi = np.broadcast_arrays(vlo, vhi, empty)[:2]
            return None, (int(j), "component %d: values [%.6g, %.6g] miss "
                          "the face cone" % (k, lo[j, k], hi[j, k]))
        return V, None


class Box(MovingBox):
    """Axis-aligned box ``[lo, hi]``, degenerate components allowed: the
    ``MovingBox`` of the one row ``lo``, ``hi``, which holds at every
    node."""

    def __init__(self, lo, hi):
        self.lo = _as1d(lo)
        self.hi = _as1d(hi)
        check_bounds(ValueError, False, lo=self.lo, hi=self.hi)
        self.dim = self.lo.size
        self.alpha, self.beta = self.lo[None], self.hi[None]

    def overshoot(self, s):
        return np.max((s - 1.0)[:, None] * np.append(self.hi, -self.lo),
                      axis=1)


def selection_on_intervals(vlo, vhi, clo, chi, gap_tol=CONE_TOL):
    """Minimal-norm point of ``[vlo,vhi] & [clo,chi]``, componentwise.

    Works on arrays of any matching shape.  Returns ``(v, empty)`` where
    ``empty`` flags components whose intervals miss each other by more
    than ``gap_tol``.
    """
    return _shortest_in(np.maximum(vlo, clo), np.minimum(vhi, chi), gap_tol)


def _shortest_in(ilo, ihi, gap_tol):
    """The shortest point of each interval ``[ilo, ihi]`` (its nearer end
    where it is empty), and where it is empty by more than ``gap_tol``."""
    return _clip(0.0, ilo, np.maximum(ilo, ihi)), ilo > ihi + gap_tol


def _multiplier_rows(a, lo, hi):
    """The shortest ``v`` in each ``[lo[j], hi[j]]`` with ``a[j] . v = 0``,
    else the nearest.  By KKT ``v = clip(-lam a, lo, hi)``; ``phi(lam) =
    a . v`` falls, linear between the breakpoints ``-lo_i / a_i``, ``-hi_i
    / a_i`` (Condat, Math. Prog. 2016), so sampled there and past either
    end its root is exact on the line through two neighbouring samples."""
    c, aa = np.hstack([lo, hi]), np.hstack([a, a])
    B = np.divide(-c, aa, out=np.zeros_like(c), where=aa != 0.0)
    B[~np.isfinite(B)] = 0.0        # a bound at infinity is never reached
    far = 1.0 + 2.0 * np.max(np.abs(B), axis=1, keepdims=True)
    B = np.sort(np.hstack([B, -far, far]), axis=1)
    phi = _row_sums(a[:, :, None] * _clip(
        -B[:, None, :] * a[:, :, None], lo[:, :, None], hi[:, :, None]))
    down, m = phi <= 0.0, B.shape[1]
    k = np.clip(np.where(down.any(axis=1), np.argmax(down, axis=1), m), 1,
                m - 1)
    rows = np.arange(len(B))
    b0, b1, p0, p1 = B[rows, k - 1], B[rows, k], phi[rows, k - 1], phi[rows, k]
    slope = p0 > p1
    lam = np.where(slope, b0 + p0 * (b1 - b0) / np.where(slope, p0 - p1, 1.0),
                   np.where(p1 > 0.0, b1, b0))
    return _clip(-lam[:, None] * a, lo, hi)


class Ball(ConvexBody):
    """Euclidean ball.  The cone at a boundary point is the halfspace of
    directions with nonpositive product against the outward normal; more
    than ``tol`` inside the sphere it is the whole space, so an interior
    row takes its value unchanged."""

    def __init__(self, center, radius):
        # a read-only copy, which the row kernels hold at the state's shape
        self.center = _as1d(center).copy()
        self.center.flags.writeable = False
        self.radius = float(radius)
        check_positive(radius=self.radius)
        check_finite(center=self.center)
        self.dim = self.center.size
        self._centres = (self.center, self.center[None])

    def _offsets(self, X):
        """``X - center``, with the centre held at ``X``'s shape (built when
        that shape or the centre changes), so the subtraction does not
        broadcast."""
        center, C = self._centres
        if C.shape != X.shape or center is not self.center:
            C = np.broadcast_to(self.center, X.shape).copy()
            self._centres = (self.center, C)
        return X - C

    def project_rows(self, X):
        """Rows inside the ball stay; the rest scale onto the sphere."""
        R = self._offsets(X)
        nr = _row_norms(R)
        Y = X.copy()
        out = (~(nr <= self.radius)).nonzero()[0]
        if out.size:
            Y[out] = self.center + (self.radius / nr[out])[:, None] * R[out]
        return Y

    def _rim(self, X, tol):
        """The rows within ``tol`` of the sphere or past it, and their unit
        outward normals (None when there is no such row)."""
        R = self._offsets(X)
        nr = _row_norms(R)
        rim = (~(self.radius - nr > tol)).nonzero()[0]
        return rim, R[rim] / nr[rim, None] if rim.size else None

    def tangent_project_rows(self, X, V, tol=CONE_TOL):
        """``V`` less its outward normal part on the rim rows; an interior
        row's cone is the whole space, so its ``V`` stays."""
        rim, normal = self._rim(X, tol)
        Y = V.copy()
        if rim.size:
            Vr = V[rim]
            Y[rim] = Vr - _positive_part(_row_dots(normal, Vr))[:, None] \
                * normal
        return Y

    def _select_rows(self, W, vlo, vhi, tol):
        """``clip(-lam a, vlo, vhi)``, ``a`` the outward normal (zero inside),
        at the root of ``a . v``: the rows asked for fail at ``lam = 0``."""
        rim, normal = self._rim(W, tol)
        a = np.zeros_like(W)
        if rim.size:
            a[rim] = normal
        return _multiplier_rows(a, vlo, vhi)

    def overshoot(self, s):
        return np.abs(s - 1.0) * _row_norms(self.center[None])[0] \
            + (s - 1.0) * self.radius


class Simplex(ConvexBody):
    """Scaled probability simplex ``{u >= 0, sum(u) = total_mass}``.  The
    cone at a point with no coordinate within ``tol`` of zero is the
    hyperplane ``sum w = 0``, onto which a value projects by subtracting
    its mean; only the rows with a zero coordinate take the active-set
    solve."""

    def __init__(self, total_mass, dim):
        self.total_mass = float(total_mass)
        check_positive(total_mass=self.total_mass)
        self.dim = check_count(ValueError, 1, dim=dim)

    def project_rows(self, X):
        """``X[j] - theta`` with ``theta = (sum X[j] - total_mass) / dim``
        on the rows with no entry at or below ``theta``: that point lies in
        the simplex, and ``X[j]`` less it is a multiple of the normal
        ``1``, which spans the normal cone where no coordinate is zero.
        Only the other rows take the pivot rule, ``_face_rows`` with every
        coordinate active."""
        Y = X - ((_row_sums(X) - self.total_mass) / X.shape[1])[:, None]
        inner = Y > 0.0
        if not inner.all():
            rest = (~inner.all(axis=1)).nonzero()[0]
            Y[rest] = _face_rows(np.ones((rest.size, X.shape[1]), bool),
                                 X[rest], self.total_mass)
        return Y

    def tangent_project_rows(self, X, V, tol=CONE_TOL):
        """Exact projection of each ``V[j]`` onto the cone at ``X[j]``,
        ``{w: sum w = 0, w_i >= 0 on the zeros of X[j]}``.  A row with no
        coordinate within ``tol`` of zero lies in the relative interior,
        where the cone is the hyperplane ``sum w = 0``: ``V[j]`` less its
        mean.  Only the rows with a zero coordinate take ``_face_rows``."""
        act = X <= tol
        Y = V - _row_sums(V)[:, None] / X.shape[1]
        face = act.any(axis=1).nonzero()[0]
        if face.size:
            Y[face] = _face_rows(act[face], V[face])
        return Y

    def _select_rows(self, W, vlo, vhi, tol):
        """``clip(-lam, lo, vhi)`` with ``sum v = 0``, ``lo`` the lower bound
        raised to 0 on the zeros of ``W[j]``."""
        lo = np.where(W <= tol, np.maximum(vlo, 0.0), vlo)
        return _multiplier_rows(np.ones_like(W), lo, vhi)

    def overshoot(self, s):
        """The faces ``u_i >= 0`` never move; ``sum(u) = total_mass`` has
        the normals ``+-1/sqrt(dim)``."""
        return np.abs(s - 1.0) * (self.total_mass / np.sqrt(self.dim))


def _face_rows(act, V, s=0.0):
    """The projection of each ``V[j]`` onto ``{w: sum w = s, w_i >= 0 where
    act[j, i]}``: the simplex of mass ``s`` when every coordinate is
    active, the simplex's cone at a point with zeros ``act`` when ``s = 0``.

    KKT reduces to one scalar equation: free components give ``w_i = v_i
    - lam``, active ones ``w_i = max(v_i - lam, 0)``, and ``lam`` makes the
    sum ``s``.  That sum is piecewise linear and decreasing in ``lam``,
    with breakpoints at the active ``v_i``.  With the ``k`` largest active
    ``v_i`` above it, ``lam_k = (sum of free v_i - s + sum of those k) /
    (free + k)``; over the active values sorted in descending order
    ``lam_k`` rises while the ``k``-th value lies above the root and falls
    after, so the root is the largest ``lam_k``: the sort-based pivot rule
    (Held, Wolfe and Crowder, Math. Prog. 1974; Condat, Math. Prog. 2016).
    ``k = 0`` is a candidate only when some component is free; with no
    active component it is the only one.
    """
    n_act = np.count_nonzero(act, axis=1)[:, None]
    n_free = V.shape[1] - n_act
    k = np.arange(1, V.shape[1] + 1)
    top = np.where(act, -V, np.inf)
    top.sort(axis=1)
    top = -top
    within = k <= n_act
    free_sum = _row_sums(np.where(act, 0.0, V))[:, None] - s
    lam_k = (free_sum + np.where(within, top, 0.0).cumsum(axis=1)) \
        / (n_free + k)
    # lam_0 fills the columns past the active count, which exist exactly
    # when some component is free
    lam_0 = free_sum / np.maximum(n_free, 1)
    lam = np.where(within, lam_k, lam_0).max(axis=1)[:, None]
    W = V - lam
    return np.where(act, np.maximum(W, 0.0), W)


def numeric_tangent_quotient(body, x, v, h):
    """Finite difference quotient ``d_K(x + h v) / h`` (cross-check of the
    closed-form directional derivative; nondecreasing in h by convexity)."""
    return body.distance(_as1d(x) + h * _as1d(v)) / h
