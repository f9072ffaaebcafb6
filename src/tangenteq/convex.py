"""Convex constraint sets: distances, projections and tangent cones.

Rows are the only primitive: a set implements ``project_rows`` (the
metric projection of each row, a 1-Lipschitz retraction) and
``tangent_project_rows`` (the metric projection onto the tangent cone at
each row) and lists supporting halfspaces for the invariance audits.
``ConvexBody`` builds the rest on them once: the one-point ``project``
and ``tangent_project``, distances, cone membership, ``lift(n)`` (the
set at each of ``n`` nodes: a ``NodewiseBox`` for boxes and
``MovingBox``, else a ``NodewiseBody`` that selects by one Dykstra run
over every row), ``tangent_value(u, lo, hi)`` (the minimal-norm point of
the value box ``[lo, hi]`` in the tangent cone at ``u``) and
``sample(rng, count, n)`` (seeded grid functions in the set).

The tangent cone of a convex set at ``x`` is the closure of the feasible
rays ``h*(K - x)``, ``h > 0``.  For every set below both projections are
exact:

* ``Box``      clipping; sign rules on the active faces,
* ``Ball``     radial scaling; a halfspace through the outward normal,
* ``Simplex``  a sort-based pivot rule; zero-sum directions,
  nonnegative on the zero coordinates,
* ``HalfspaceIntersection``  one least-distance program per row.

Directional derivatives of the distance function are reported alongside
membership: for a convex set the one-sided derivative of ``d_K`` at
``x in K`` along ``v`` equals the distance from ``v`` to the tangent cone,
so membership at tolerance ``tol`` is exactly ``derivative <= tol``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyIntersection, PointNotInSet, TangentEqError

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


def _row_dots(A, B):
    """``np.dot(A[j], B[j])`` for every row, rounded as ``np.dot`` rounds
    (a batched matmul of 1 x N by N x 1 takes the same dot kernel)."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _row_norms(A):
    """``np.linalg.norm(A[j])`` for every row, bit for bit."""
    return np.sqrt(_row_dots(A, A))


def _positive_part(a):
    """``max(0.0, a)`` elementwise as Python rounds it: NaN and ``-0.0``
    give ``0.0``."""
    return np.where(a > 0.0, a, 0.0)


class ConvexBody:
    """Shared plumbing for the concrete sets, built once on the two row
    methods each set implements: ``project_rows(X)`` and
    ``tangent_project_rows(X, V, tol)`` (faces within ``tol`` of ``X[j]``
    are active).  The one-point methods are their one-row case."""

    dim = None

    def distance(self, x):
        return float(self.distances(_as1d(x)[None])[0])

    def distances(self, X):
        """Euclidean distance of each row of ``X`` to the set."""
        return _row_norms(X - self.project_rows(X))

    def project(self, x):
        return self.project_rows(_as1d(x)[None])[0]

    def tangent_project(self, x, v, tol=CONE_TOL):
        return self.tangent_project_rows(_as1d(x)[None], _as1d(v)[None],
                                         tol)[0]

    def contains(self, x, tol=CONE_TOL):
        return self.distance(x) <= tol

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
        w = self.tangent_project(x, v, tol=tol)
        dd = float(np.linalg.norm(_as1d(v) - w))
        return ConeQueryResult(contains=dd <= tol, directional_derivative=dd)

    def supporting_halfspaces(self):
        raise NotImplementedError

    def lift(self, n):
        """The body at every grid node."""
        return NodewiseBody(self)

    def tangent_value(self, u, lo, hi, tol=CONE_TOL, gap_tol=1e-10):
        """Minimal-norm value in ``[lo, hi]`` tangent to the body at
        ``proj u``: the one-node case of the lifted body's ``select``.

        Raises EmptyIntersection when no admissible tangent value exists.
        """
        v, miss = self.lift(1).select(_as1d(u)[None], _as1d(lo)[None],
                                      _as1d(hi)[None], tol=tol,
                                      gap_tol=gap_tol)
        if miss is not None:
            raise EmptyIntersection(miss[1])
        return v[0]

    def sample(self, rng, count, n):
        """``count`` seeded ``(n, dim)`` grid functions with every nodal
        value in the body: projected Gaussian draws around a centre."""
        base = self._draw_centre()
        draws = base + (1.0 + np.linalg.norm(base)) * rng.standard_normal(
            (count, n, self.dim))
        return self.project_rows(
            draws.reshape(-1, self.dim)).reshape(draws.shape)

    def _draw_centre(self):
        return np.zeros(self.dim)


class Box(ConvexBody):
    """Axis-aligned box ``[lo, hi]``; degenerate components are allowed.

    On an active lower face the cone admits directions with nonnegative
    component, on an active upper face nonpositive; a degenerate component
    (``lo_i == hi_i``) forces the component to zero.
    """

    def __init__(self, lo, hi):
        self.lo = _as1d(lo)
        self.hi = _as1d(hi)
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must have matching shapes")
        if np.any(self.hi < self.lo):
            raise ValueError("box needs lo <= hi componentwise")
        self.dim = self.lo.size

    def project_rows(self, X):
        return _clip(X, self.lo, self.hi)

    def tangent_project_rows(self, X, V, tol=CONE_TOL):
        return _clip(V, *self.lift(X.shape[0]).face_cone(
            self.project_rows(X), tol))

    def supporting_halfspaces(self):
        return [face for e, lo, hi in zip(np.eye(self.dim), self.lo, self.hi)
                for face in ((e, float(hi)), (-e, float(-lo)))]

    def lift(self, n):
        """The same box at each of ``n`` grid nodes."""
        return NodewiseBox(np.tile(self.lo, (n, 1)), np.tile(self.hi, (n, 1)))

    def sample(self, rng, count, n):
        width = np.where(self.hi > self.lo, self.hi - self.lo, 0.0)
        return self.lo + width * rng.random((count, n, self.dim))


@dataclass
class MovingBox:
    """Nodewise box bounds alpha(x) <= u(x) <= beta(x).

    ``alpha`` and ``beta`` are arrays over grid nodes, one row per node
    (scalar problems may pass flat arrays, and a single column bounds
    every component alike).  The equilibrium solvers treat this exactly
    like a box constraint whose faces move with x.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        if self.alpha.shape != self.beta.shape:
            raise ValueError("bound arrays must share a shape")
        if np.any(self.alpha > self.beta):
            raise ValueError("alpha must stay below beta")

    def lift(self, n):
        """The bounds as a NodewiseBox; scalars hold at every node."""
        def rows(b):
            return (np.full(n, float(b)) if b.ndim == 0 else b).reshape(n, -1)
        return NodewiseBox(rows(self.alpha), rows(self.beta))


class _Lifted:
    """The state-level methods of a lifted set, built on its ``project``
    and on the same methods taken at a state's projection,
    ``_distances_at(U, W)``, ``_select_at(W, ...)`` and
    ``_tangency_at(W, ...)``.  A sweep that already holds
    ``W = project(U)`` calls those directly."""

    def distances(self, U):
        """Euclidean distance of each nodal state to the set."""
        return self._distances_at(U, self.project(U))

    def select(self, U, vlo, vhi, tol=CONE_TOL, gap_tol=CONE_TOL):
        """Minimal-norm values in ``[vlo, vhi]`` tangent to the set at
        ``proj U``.  Returns ``(V, None)``, or ``(None, (node, reason))``
        for the first node without an admissible value."""
        return self._select_at(self.project(U), vlo, vhi, tol, gap_tol)

    def tangency(self, U, V, tol=CONE_TOL):
        """``max_j dist(V_j, T(proj U_j))``: the largest nodal directional
        derivative of the distance to the set along ``V``."""
        return self._tangency_at(self.project(U), V, tol)


class NodewiseBox(_Lifted):
    """Box bounds per grid node, ``lo[j] <= u_j <= hi[j]``, acting on grid
    functions ``U`` of shape ``(n, N)``.

    ``lo`` and ``hi`` have one row per node.  Faces and cones are taken
    at the projection of the state onto the box.
    """

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.ndim != 2 or self.lo.shape != self.hi.shape:
            raise ValueError("nodewise bounds need matching (n, N) shapes")
        if np.any(self.lo > self.hi):
            raise ValueError("lower bound exceeds upper bound somewhere")

    def broadcast(self, N):
        """This box for ``N`` components; one column bounds them all."""
        n, dim = self.lo.shape
        if dim not in (1, N):
            raise ValueError("constraint dimension %d != components %d"
                             % (dim, N))
        return NodewiseBox(np.broadcast_to(self.lo, (n, N)),
                           np.broadcast_to(self.hi, (n, N)))

    def project(self, U):
        return _clip(U, self.lo, self.hi)

    def _distances_at(self, U, W):
        return np.linalg.norm(U - W, axis=1)

    def face_cone(self, W, tol=CONE_TOL):
        """Interval bounds ``(clo, chi)`` of the tangent cone at ``W``, a
        state in the box: ``clo = 0`` on an active lower face, ``chi = 0``
        on an upper one."""
        return (np.where(W - self.lo <= tol, 0.0, -np.inf),
                np.where(self.hi - W <= tol, 0.0, np.inf))

    def _select_at(self, W, vlo, vhi, tol=CONE_TOL, gap_tol=CONE_TOL):
        """The face cones are intervals, so selection is componentwise
        clipping.  A node misses when its values miss its face cone by
        more than ``gap_tol``; the default matches ``tol``, so a state
        within ``tol`` of a face may overshoot it by as much."""
        V, empty = selection_on_intervals(vlo, vhi,
                                          *self.face_cone(W, tol), gap_tol)
        if empty.any():
            j, k = np.argwhere(empty)[0]
            return None, (int(j), "component %d: values [%.6g, %.6g] miss "
                          "the face cone" % (k, vlo[j, k], vhi[j, k]))
        return V, None

    def _tangency_at(self, W, V, tol=CONE_TOL):
        clo, chi = self.face_cone(W, tol)
        return float(np.max(np.linalg.norm(V - _clip(V, clo, chi), axis=1)))


class NodewiseBody(_Lifted):
    """A convex body at every grid node, with the methods of
    ``NodewiseBox`` on all rows of ``U`` at once."""

    def __init__(self, body):
        self.body = body

    def broadcast(self, N):
        if self.body.dim != N:
            raise ValueError("constraint dimension %d != components %d"
                             % (self.body.dim, N))
        return self

    def project(self, U):
        return self.body.project_rows(U)

    def _distances_at(self, U, W):
        """As ``body.distances`` takes them."""
        return _row_norms(U - W)

    def _select_at(self, W, vlo, vhi, tol=CONE_TOL, gap_tol=CONE_TOL):
        """By ``_dykstra_select``."""
        return _dykstra_select(self.body, W, vlo, vhi, tol, gap_tol)

    def _tangency_at(self, W, V, tol=CONE_TOL):
        return float(np.max(_row_norms(
            V - self.body.tangent_project_rows(W, V, tol))))


#: the stall test compares each Dykstra gap with the one this many
#: iterations earlier
_STALL_WINDOW = 50

#: Dykstra iterations after which a row still above ``gap_tol`` is empty
_SELECT_MAX_ITER = 5000


def _dykstra_select(body, X, vlo, vhi, tol, gap_tol):
    """Minimal-norm point of ``[vlo[j], vhi[j]]`` in the tangent cone of
    ``body`` at ``X[j]``, for every row ``j`` at once.

    Dykstra's alternating projections between the value box and the
    tangent cone run from the origin; Dykstra converges to the projection
    of the start point onto the intersection, which is exactly the
    minimal-norm point.  A row stops when its box-to-cone gap is at most
    ``gap_tol``, and its intersection is declared empty when the gap
    stalls above it (reduction below 1e-14 across ``_STALL_WINDOW``
    iterations) or ``_SELECT_MAX_ITER`` iterations end above it.  Each
    row sees the same arithmetic as it would alone; rows past the first
    failure stop early, since only the first failing row is reported.
    The loop ends in the iteration where every live row is done, with no
    stall bookkeeping for it.

    Returns ``(V, None)``, or ``(None, (node, reason))`` for the first
    node without an admissible value.  Raises TangentEqError when, before
    that node, a selection fails its a-posteriori check against the cone
    and the value box at ``max(tol, 100 gap_tol)``; the message names the
    first such node, its state, both gaps and the check tolerance.
    """
    n = X.shape[0]
    V = np.empty_like(X)
    failed = {}
    rows = np.arange(n)
    x, lo, hi = X, vlo, vhi
    y = np.zeros_like(X)
    corr_box = np.zeros_like(X)
    corr_cone = np.zeros_like(X)
    # the last _STALL_WINDOW + 1 gaps of each live row, by iteration
    gaps = np.empty((_STALL_WINDOW + 1, n))
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
        done = gap <= gap_tol
        if done.all():
            V[rows] = y
            break
        gaps[i % gaps.shape[0]] = gap
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
    else:
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
    bad = np.flatnonzero(~(cone_gap <= check_tol) | (box_gap > check_tol))
    if bad.size:
        j = bad[0]
        raise TangentEqError(
            "selection failed its a-posteriori validation at node %d, "
            "state %s: cone gap %.3g, box gap %.3g, check_tol %.3g"
            % (j, np.array2string(X[j], precision=6), cone_gap[j],
               box_gap[j], check_tol))
    if failed:
        return None, (first, failed[first])
    return V, None


def selection_on_intervals(vlo, vhi, clo, chi, gap_tol=1e-10):
    """Minimal-norm point of ``[vlo,vhi] & [clo,chi]``, componentwise.

    Works on arrays of any matching shape.  Returns ``(v, empty)`` where
    ``empty`` flags components whose intervals miss each other by more
    than ``gap_tol``.
    """
    ilo = np.maximum(vlo, clo)
    ihi = np.minimum(vhi, chi)
    empty = ilo > ihi + gap_tol
    v = _clip(0.0, ilo, np.maximum(ilo, ihi))
    return v, empty


class Ball(ConvexBody):
    """Euclidean ball.  The cone at a boundary point is the halfspace of
    directions with nonpositive product against the outward normal."""

    def __init__(self, center, radius):
        self.center = _as1d(center)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = self.center.size

    def project_rows(self, X):
        R = X - self.center
        nr = _row_norms(R)
        scale = self.radius / np.maximum(nr, self.radius)
        return np.where((nr <= self.radius)[:, None], X,
                        self.center + scale[:, None] * R)

    def tangent_project_rows(self, X, V, tol=CONE_TOL):
        R = X - self.center
        nr = _row_norms(R)
        inner = self.radius - nr > tol
        normal = R / np.where(inner, 1.0, nr)[:, None]
        push = _positive_part(_row_dots(normal, V))
        return np.where(inner[:, None], V, V - push[:, None] * normal)

    def sample(self, rng, count, n):
        d = rng.standard_normal((count, n, self.dim))
        d /= np.maximum(np.linalg.norm(d, axis=2, keepdims=True), 1e-300)
        r = self.radius * rng.random((count, n, 1)) ** (1.0 / self.dim)
        return self.center + r * d

    def supporting_halfspaces(self, count=64, seed=0):
        """Outer polyhedral approximation by ``count`` tangent halfspaces.

        Exact for dim 1; equally spaced normals in dim 2 (circumscribed
        polygon, Hausdorff gap ``r*(1/cos(pi/count) - 1)``); seeded unit
        normals in higher dimension.  Always an outer approximation.
        """
        if self.dim == 1:
            ps = [np.array([1.0]), np.array([-1.0])]
        elif self.dim == 2:
            th = 2.0 * np.pi * np.arange(count) / count
            ps = [np.array([np.cos(t), np.sin(t)]) for t in th]
        else:
            rng = np.random.default_rng(seed)
            raw = rng.standard_normal((count, self.dim))
            raw /= np.linalg.norm(raw, axis=1)[:, None]
            ps = list(raw)
        return [(p, float(p @ self.center) + self.radius) for p in ps]

    def outer_gap(self, count=64, seed=0, probes=4096):
        """Hausdorff gap of the halfspace approximation over the ball."""
        if self.dim == 1:
            return 0.0
        if self.dim == 2:
            return self.radius * (1.0 / np.cos(np.pi / count) - 1.0)
        ps = np.array([p for p, _ in self.supporting_halfspaces(count, seed)])
        rng = np.random.default_rng(seed + 1)
        dirs = rng.standard_normal((probes, self.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        # worst angular hole between a probe direction and the normal fan
        cosmax = np.max(dirs @ ps.T, axis=1)
        cosmax = np.clip(cosmax, 1e-9, 1.0)
        return float(self.radius * np.max(1.0 / cosmax - 1.0))


class Simplex(ConvexBody):
    """Scaled probability simplex ``{u >= 0, sum(u) = total_mass}``."""

    def __init__(self, total_mass, dim):
        self.total_mass = float(total_mass)
        if self.total_mass <= 0:
            raise ValueError("total_mass must be positive")
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dim must be at least 1")

    def project_rows(self, X):
        # sort-based exact projection (Held/Wolfe/Crowder pivot rule)
        s = self.total_mass
        u = np.sort(X, axis=1)[:, ::-1]
        cssv = np.cumsum(u, axis=1) - s
        idx = np.arange(1, X.shape[1] + 1)
        rho = X.shape[1] - 1 - np.argmax((u * idx > cssv)[:, ::-1], axis=1)
        theta = cssv[np.arange(X.shape[0]), rho] / (rho + 1.0)
        return np.maximum(X - theta[:, None], 0.0)

    def tangent_project_rows(self, X, V, tol=CONE_TOL):
        """Exact projection of each ``V[j]`` onto the cone at ``X[j]``,
        ``{w: sum w = 0, w_i >= 0 on the zeros of X[j]}``.

        KKT reduces to one scalar equation: free components give
        ``w_i = v_i - lam``, active ones ``w_i = max(v_i - lam, 0)``, and
        ``lam`` makes the sum zero.  That sum is piecewise linear and
        decreasing in ``lam``, with breakpoints at the active ``v_i``.
        With the ``k`` largest active ``v_i`` above it,
        ``lam_k = (sum of free v_i + sum of those k) / (free + k)``; over
        the active values sorted in descending order ``lam_k`` rises
        while the ``k``-th value lies above the root and falls after, so
        the root is the largest ``lam_k`` (the pivot rule of ``project``;
        Condat, Math. Prog. 2016).  ``k = 0`` is a candidate only when
        some component is free.
        """
        act = X <= tol
        n_act = np.sum(act, axis=1)[:, None]
        n_free = X.shape[1] - n_act
        k = np.arange(1, X.shape[1] + 1)
        top = -np.sort(np.where(act, -V, np.inf), axis=1)
        within = k <= n_act
        free_sum = np.sum(np.where(act, 0.0, V), axis=1)[:, None]
        lam_k = (free_sum + np.cumsum(np.where(within, top, 0.0), axis=1)) \
            / (n_free + k)
        # lam_0 fills the columns past the active count, which exist
        # exactly when some component is free
        lam_0 = free_sum / np.maximum(n_free, 1)
        lam = np.max(np.where(within, lam_k, lam_0), axis=1)[:, None]
        W = V - lam
        return np.where(act, np.maximum(W, 0.0), W)

    def sample(self, rng, count, n):
        e = rng.exponential(1.0, (count, n, self.dim))
        return self.total_mass * e / np.sum(e, axis=2, keepdims=True)

    def supporting_halfspaces(self):
        out = []
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = -1.0
            out.append((e, 0.0))
        one = np.ones(self.dim) / np.sqrt(self.dim)
        mass = self.total_mass / np.sqrt(self.dim)
        out.append((one, mass))
        out.append((-one, -mass))
        return out


class HalfspaceIntersection(ConvexBody):
    """Finite intersection of halfspaces ``p_k . x <= a_k``.

    Normals are normalized at construction and a feasible point must be
    supplied as a certificate of nonemptiness.  Both projections are
    exact: each row is one least-distance program, ``x - z`` for the
    shortest ``z`` with ``P z >= P x - a``, and ``v - z`` for the shortest
    ``z`` with ``P_act z >= P_act v`` on the active halfspaces.
    """

    def __init__(self, normals, offsets, point):
        P = np.atleast_2d(np.asarray(normals, dtype=float))
        a = _as1d(offsets).astype(float)
        if P.shape[0] != a.size:
            raise ValueError("one offset per normal required")
        norms = np.linalg.norm(P, axis=1)
        if np.any(norms <= 0):
            raise ValueError("zero normal supplied")
        self.normals = P / norms[:, None]
        self.offsets = a / norms
        self.point = _as1d(point)
        self.dim = P.shape[1]
        slack = self.normals @ self.point - self.offsets
        if np.max(slack) > 1e-9:
            raise ValueError("certificate point is not feasible")

    def project_rows(self, X):
        P, a = self.normals, self.offsets
        return np.array([x - _least_distance(P, P @ x - a)
                         for x in X]).reshape(X.shape)

    def tangent_project_rows(self, X, V, tol=CONE_TOL):
        P, a = self.normals, self.offsets
        active = [P @ x - a >= -tol for x in X]
        return np.array([v - _least_distance(P[act], P[act] @ v)
                         for act, v in zip(active, V)]).reshape(V.shape)

    def supporting_halfspaces(self):
        return [(p.copy(), float(a))
                for p, a in zip(self.normals, self.offsets)]

    def _draw_centre(self):
        return self.point


def _least_distance(G, h):
    """The shortest ``z`` with ``G z >= h`` (a feasible system), by Lawson
    and Hanson's least-distance program (*Solving Least Squares Problems*,
    1974, ch. 23): with ``u >= 0`` the least-squares solution of
    ``E u = f``, ``E = [G^T; h^T]``, ``f = (0, ..., 0, 1)``, the residual
    ``r = E u - f`` gives ``z = -r[:-1] / r[-1]``; no positive ``h`` gives
    exactly ``z = 0``."""
    if not np.any(h > 0.0):
        return np.zeros(G.shape[1])
    # imported here because scipy.optimize adds about 0.3 s to
    # ``import tangenteq``, which no box or ball run needs
    from scipy.optimize import nnls
    E = np.vstack([G.T, h])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    r = E @ nnls(E, f)[0] - f
    return -r[:-1] / r[-1]


def numeric_tangent_quotient(body, x, v, h):
    """Finite difference quotient ``d_K(x + h v) / h`` (cross-check of the
    closed-form directional derivative; nondecreasing in h by convexity)."""
    return body.distance(_as1d(x) + h * _as1d(v)) / h
