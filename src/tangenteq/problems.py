"""Problem catalog and hypothesis verifiers.

The catalog side builds the pieces a concrete run needs: named
nonlinearities (single-valued, interval, relay hulls, tabulated data)
and the state shift that ``ProblemSpec`` wraps around the field of a
gradient-dependent problem on a ball constraint (``bernstein_bvp``).
Every catalog field is built slope-free (``slopes=False``), so the
sweeps take no gradient for it.  The relay ``heaviside`` is the exact
(Filippov) hull of its step in ``u`` over the closed delta-interval, in
closed form, with no probes and no call of the step itself; it builds
both ends in one pass over the states, ordered by construction, so it
runs no crossing scan.  Its ``samples`` and ``seed`` are checked but no
longer change its value.  A ``constant`` whose ``lo`` lies above its
``hi``, and a ``tabulated`` table with a NaN or infinite entry, raise
ValueError when built.
A ``fields.FilippovHull`` of the same step, with a probe table that holds
the axis points of ``u``, gives the same bytes.

The verifier side turns the structural hypotheses behind the solvers into
checks with margins and witnesses:

* ``verify_tangency``   - admissible values meet the constraint's tangent
  cone on every face of the boundary; nodewise bound pairs (a box is
  the pair of one row, which holds at every node) and balls have a
  verifier, any other body (a simplex) raises InvalidSpec, so simplex
  configs run only through ``solve --force``,
* ``verify_bernstein``  - sign, quadratic-growth, and sphere conditions
  for gradient-dependent two-point problems,
* ``verify_subsuper``   - discrete sub/supersolution inequalities for
  nodewise bound pairs.

A margin is always "distance to violation": positive means the condition
holds strictly, negative means a witness was found.  A face of a
one-component box or nodewise bound pair holds exactly one state per
node (the bound and its slope there), so it is checked on every node,
with no draw: that check is exhaustive on the grid, and ``samples`` and
``seed`` do not change it.  The faces of a box of several components,
the ball's sphere and the Bernstein items are sampled: ``samples``
states drawn from ``fields.SplitMix64(seed)``.  Every check takes its
states in whole arrays and folds them through ``_sampled_item``, which
states the margin and witness rules once.
"""

from dataclasses import dataclass

import numpy as np

from .convex import Ball, MovingBox, _row_dots, _row_sums
from .errors import (InvalidSpec, check_bounds, check_count, check_finite,
                     check_positive, check_seed)
from .fields import (IntervalValued, NonlinearityField, SingleValued,
                     SplitMix64, _sup_norms, _unit_rows)


# ---------------------------------------------------------------------------
# nonlinearity catalog


def _linear(params, components, bound, seed):
    a = float(params.get("a", 0.5))
    b = float(params.get("b", -1.0))
    return SingleValued(lambda x, u, p: a + b * u,
                        components=components, bound=bound, slopes=False)


def _logistic(params, components, bound, seed):
    r = float(params.get("r", 1.0))
    theta = float(params.get("theta", 0.4))
    return SingleValued(lambda x, u, p: r * u * (1.0 - u) * (u - theta),
                        components=components, bound=bound, slopes=False)


def _constant(params, components, bound, seed):
    lo = float(params.get("lo", 0.0))
    hi = float(params.get("hi", lo))
    check_bounds(ValueError, False, lo=lo, hi=hi)
    return IntervalValued(lambda x, u, p: np.full((len(x), components), lo),
                          lambda x, u, p: np.full((len(x), components), hi),
                          components=components, bound=bound, slopes=False)


def _heaviside(params, components, bound, seed):
    delta = float(params.get("delta", 0.05))
    check_positive(delta=delta)
    check_count(ValueError, 1, samples=params.get("samples", 64))
    check_seed(seed=seed)
    return _Relay(float(params.get("off", 1.0)), float(params.get("on", -1.0)),
                  float(params.get("threshold", 0.5)), delta, components,
                  bound)


class _Relay(NonlinearityField):
    """The exact hull of the step ``where(u < threshold, off, on)`` over
    the closed delta-interval in ``u``, both ends in one pass.  ``off`` is
    in the hull where ``u - delta < threshold``, ``on`` where not ``u +
    delta < threshold``, so the count ``k`` of the interval's ends below
    the threshold picks each end: ``on`` at ``k = 0`` (a NaN state too),
    ``[min(off, on), max(off, on)]`` at 1 and ``off`` at 2.  The ends are
    ordered (``np.minimum`` and ``np.maximum`` keep a NaN value), and a
    zero end is ``+0.0``."""

    def __init__(self, off, on, threshold, delta, components, bound):
        super().__init__(components, bound, slopes=False)
        off, on = off + 0.0, on + 0.0
        self.threshold, self.delta = threshold, delta
        self._ends = (np.array([on, np.minimum(off, on), off]),
                      np.array([on, np.maximum(off, on), off]))

    def _grid_value(self, xs, U, P):
        if U.shape != (len(xs), self.components):
            raise ValueError("field returned shape %s, expected %s"
                             % (U.shape, (len(xs), self.components)))
        # u + delta below the threshold puts u - delta below it too
        k = np.add(U - self.delta < self.threshold,
                   U + self.delta < self.threshold, dtype=np.intp)
        lo, hi = self._ends
        return lo[k], hi[k]


def _tabulated(params, components, bound, seed):
    path = params.get("path")
    if path is None:
        raise ValueError("tabulated nonlinearity needs a 'path' parameter")
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("expected two CSV columns: state, value")
    # a NaN or infinite entry would reach the sweeps as a NaN value
    check_finite(states=data[:, 0], values=data[:, 1])
    order = np.argsort(data[:, 0])
    knots, vals = data[order, 0], data[order, 1]
    return SingleValued(lambda x, u, p: np.interp(u, knots, vals),
                        components=components, bound=bound, slopes=False)


_CATALOG = {
    "linear": _linear,
    "logistic": _logistic,
    "constant": _constant,
    "heaviside": _heaviside,
    "tabulated": _tabulated,
}

NONLINEARITY_NAMES = tuple(sorted(_CATALOG))

# parameter names each factory understands, for config validation
NONLINEARITY_PARAMS = {
    "linear": ("a", "b"),
    "logistic": ("r", "theta"),
    "constant": ("hi", "lo"),
    "heaviside": ("delta", "off", "on", "samples", "threshold"),
    "tabulated": ("path",),
}


def make_nonlinearity(name, params=None, components=1, bound=None, seed=0):
    """Instantiate a catalog nonlinearity by name."""
    try:
        factory = _CATALOG[name]
    except KeyError:
        raise ValueError("unknown nonlinearity %r (have: %s)"
                         % (name, ", ".join(NONLINEARITY_NAMES))) from None
    return factory(params or {}, components, bound, seed)


# ---------------------------------------------------------------------------
# gradient-dependent two-point problems on a ball


class StateShiftedField(NonlinearityField):
    """Wrap a field as F(x, u, p) = base(x, u, p) - c * u.

    Pairing this with an operator whose zeroth-order coefficient absorbs
    ``+c * u`` leaves the modeled equation unchanged while moving mass
    between the linear and nonlinear parts.  It reads the slopes exactly
    when its base does.
    """

    def __init__(self, base, c):
        super().__init__(components=base.components, bound=None,
                         slopes=base.slopes)
        self.base = base
        self.c = float(c)

    def evaluate_grid(self, xs, U, P):
        """The base's value boxes less ``c U``; a one-array box ``[y, y]``
        gives the one read-only array ``y - c U``."""
        lo, hi = self.base.evaluate_grid(xs, U, P)
        cU = self.c * U
        if lo is not hi:
            return lo - cU, hi - cU
        y = lo - cU
        y.flags.writeable = False
        return y, y


def as_field(phi, components=1, bound=None):
    if isinstance(phi, NonlinearityField):
        return phi
    return SingleValued(phi, components=components, bound=bound)


# ---------------------------------------------------------------------------
# condition reports

#: a condition passes when its margin is at least ``-_VERIFY_TOL``
_VERIFY_TOL = 1e-9


@dataclass
class ConditionItem:
    name: str
    passed: bool
    margin: float
    witness: dict = None

    def to_dict(self):
        return {"name": self.name, "passed": bool(self.passed),
                "margin": float(self.margin), "witness": self.witness}


@dataclass
class ConditionReport:
    items: list

    @property
    def passed(self):
        return all(item.passed for item in self.items)

    @property
    def worst_margin(self):
        return min((item.margin for item in self.items), default=float("inf"))

    def to_dict(self):
        return {"passed": bool(self.passed),
                "worst_margin": float(self.worst_margin),
                "items": [item.to_dict() for item in self.items]}

    def lines(self):
        out = []
        for item in self.items:
            tag = "ok  " if item.passed else "FAIL"
            out.append("[%s] %-24s margin=% .6e" % (tag, item.name, item.margin))
        return out


def _witness(x, u, p, value, violation):
    return {"x": float(x),
            "u": [float(c) for c in np.atleast_1d(u)],
            "p": [float(c) for c in np.atleast_1d(p)],
            "value": value, "violation": float(violation)}


def _sampled_item(name, field, X, U, P, args, margin):
    """Fold the sampled states ``(X[k], U[k], P[k])`` of one condition
    into its ``ConditionItem``.

    The field is evaluated on all states in one ``evaluate_grid`` call,
    and ``margin(lo, hi, args)`` gives every state's distance to violation
    from its value box and the ``args`` rows (whatever else the margin
    needs from the draw; None when it needs nothing).  The item carries
    the smallest margin and passes when it is at least ``-_VERIFY_TOL``.
    Its witness is the first state that reaches the smallest margin, and
    it is recorded only when that margin is below ``-_VERIFY_TOL``.  A
    NaN margin never counts as smallest.
    """
    lo, hi = field.evaluate_grid(X, U, P)
    m = margin(lo, hi, args)
    m = np.where(np.isnan(m), np.inf, m)
    k = int(np.argmin(m))
    worst = float(m[k])
    witness = None
    if worst < -_VERIFY_TOL:
        witness = _witness(X[k], U[k], P[k], [lo[k].tolist(), hi[k].tolist()],
                           -worst)
    return ConditionItem(name, bool(worst >= -_VERIFY_TOL), worst, witness)


def _min_dot(W, lo, hi):
    """``min w . y`` over the values ``y`` in the box ``[lo, hi]``, row by
    row, summed by the one row-sum rule ``_row_sums``."""
    return _row_sums(np.minimum(W * lo, W * hi))


# ---------------------------------------------------------------------------
# tangency of admissible values on the constraint boundary


def _node_bounds(C, grid, components):
    """The lifted bounds and their slopes along the grid.  A bound of one
    row holds at every node and stays one row, of slope exactly 0.0 (as
    ``np.gradient`` takes a constant); one of ``n`` rows is ``n`` rows."""
    def rows(b):
        b = np.broadcast_to(b, (b.shape[0], components))
        if b.shape[0] == 1:
            return b, np.zeros((1, components))
        return b, np.gradient(b, grid.dx, axis=0)

    box = C.lift(grid.n, components)
    (lo, glo), (hi, ghi) = rows(box.alpha), rows(box.beta)
    return lo, hi, glo, ghi


def _box_face_items(field, C, grid, samples, rng):
    # At a state touching a bound from inside, the touching component's
    # gradient matches the bound's; free components carry the bound mean
    # slope as a neutral stand-in.  With no free component a face is
    # exactly the n node states, and every one is checked.
    components = field.components
    lo, hi, glo, ghi = _node_bounds(C, grid, components)
    mean_slope = 0.5 * (glo + ghi)

    def at(b, J):
        # a bound of one row needs no gather: it broadcasts over the states
        return b if b.shape[0] == 1 else b[J]

    def face(i, side, bound, slope, margin):
        if components == 1:
            J = np.arange(grid.n)
            U = np.empty((grid.n, 1))    # its one column is the bound
        else:
            J = rng.integers(grid.n, size=samples)
            lo_J = at(lo, J)
            U = lo_J + rng.random((samples, components)) * (at(hi, J) - lo_J)
        P = np.empty_like(U)
        P[:] = at(mean_slope, J)
        U[:, i] = at(bound, J)[:, i]
        P[:, i] = at(slope, J)[:, i]
        return _sampled_item("face[%d].%s" % (i, side), field, grid.nodes[J],
                             U, P, None, margin)

    return [item for i in range(components) for item in (
        face(i, "low", lo, glo, lambda vlo, vhi, _: vhi[:, i]),
        face(i, "high", hi, ghi, lambda vlo, vhi, _: -vlo[:, i]))]


def _ball_items(field, C, grid, samples, rng):
    J = rng.integers(grid.n, size=samples)
    D = _unit_rows(rng, samples, C.dim)
    # inward admissibility: some value y with outward component <= 0
    return [_sampled_item("sphere", field, grid.nodes[J],
                          C.center + C.radius * D, np.zeros((samples, C.dim)),
                          D, lambda lo, hi, d: -_min_dot(d, lo, hi))]


def verify_tangency(field, C, grid, samples=10000, seed=42):
    """Check that admissible values point into the constraint.

    Boxes and nodewise bound pairs are checked face by face; balls over
    sampled boundary directions.  Gradient arguments at a face follow the
    bound's own slope, since a touching state has to share it.  A face of
    a one-component field is checked at every node, whatever ``samples``
    and ``seed``; the faces of several components and the ball's sphere
    take ``samples`` states drawn from ``SplitMix64(seed)``.  Any other
    body, and fewer than one or a fractional sample, raise InvalidSpec;
    ``seed`` is checked as a hull's ``base_seed`` is.
    """
    # an empty sample would pass every condition with margin inf
    samples = check_count(InvalidSpec, 1, samples=samples)
    rng = SplitMix64(check_seed(seed=seed))
    if isinstance(C, Ball):
        items = _ball_items(field, C, grid, samples, rng)
    elif isinstance(C, MovingBox):
        items = _box_face_items(field, C, grid, samples, rng)
    else:
        raise InvalidSpec("no tangency verifier for %r (box, nodewise bound"
                          " pair and ball only)" % type(C).__name__)
    return ConditionReport(items=items)


# ---------------------------------------------------------------------------
# Bernstein-type conditions for gradient-dependent problems


def verify_bernstein(phi, R, a, b, c, length=1.0, samples=10000, seed=42):
    """Check the sign, growth, and sphere conditions for phi on |u| <= R.

    * sign:   some admissible value y has  y . u <= 0  whenever |u| > R
              (sampled up to |u| = 2R + 1) with zero gradient argument;
    * growth: every admissible value obeys |y| <= a|p|^2 + b on |u| <= R;
    * sphere: some admissible y has  y . u <= c R^2  when |u| = R and
              u . p = 0.

    Each item takes ``samples`` states drawn from ``SplitMix64(seed)``.
    Fewer than one or a fractional sample raises InvalidSpec; ``seed`` is
    checked as a hull's ``base_seed`` is.
    """
    samples = check_count(InvalidSpec, 1, samples=samples)
    fld = as_field(phi)
    N = fld.components
    rng = SplitMix64(check_seed(seed=seed))
    xs = rng.random(samples) * length
    pmax = max(1.0, 2.0 * R)

    # the draws come in item order: outside, inside, on the sphere
    d = _unit_rows(rng, samples, N)
    u_out = (R + rng.random(samples) * (R + 1.0))[:, None] * d
    inside = rng.random((samples, 2 * N))
    u_in = R * (2.0 * inside[:, :N] - 1.0)
    p_in = pmax * (2.0 * inside[:, N:] - 1.0)
    d = _unit_rows(rng, samples, N)
    u_on = R * d
    p_on = np.zeros((samples, N))
    if N > 1:
        p_on = rng.standard_normal((samples, N))
        p_on -= d * _row_dots(p_on, d)[:, None]

    items = [
        _sampled_item("sign_outside_ball", fld, xs, u_out,
                      np.zeros((samples, N)), u_out,
                      lambda lo, hi, u: -_min_dot(u, lo, hi)),
        _sampled_item("quadratic_growth", fld, xs, u_in, p_in, p_in,
                      lambda lo, hi, p: a * _row_dots(p, p) + b
                      - _sup_norms(lo, hi)),
        _sampled_item("sphere_tangency", fld, xs, u_on, p_on, u_on,
                      lambda lo, hi, u: c * R * R - _min_dot(u, lo, hi)),
    ]
    return ConditionReport(items=items)


# ---------------------------------------------------------------------------
# discrete sub/supersolution shape inequalities


def verify_subsuper(alpha, beta, grid):
    """Shape check for a bound pair on a Dirichlet problem.

    alpha must be discretely subharmonic (second differences >=
    ``-_VERIFY_TOL`` at interior nodes), beta superharmonic, alpha <= beta
    everywhere, and the pinned boundary values must satisfy alpha <= 0 <=
    beta.  The check is purely geometric; the nonlinearity plays no part.
    """
    n = grid.n
    alpha = np.asarray(alpha, dtype=float).reshape(n, -1)
    beta = np.asarray(beta, dtype=float).reshape(n, -1)
    if alpha.shape != beta.shape:
        raise ValueError("bound arrays must share a shape")
    dx2 = grid.dx * grid.dx

    order = float(np.min(beta - alpha))
    items = [ConditionItem("ordering", bool(order >= -_VERIFY_TOL), order)]

    d2a = (alpha[2:] - 2.0 * alpha[1:-1] + alpha[:-2]) / dx2
    d2b = (beta[2:] - 2.0 * beta[1:-1] + beta[:-2]) / dx2

    def _extreme(vals, sign, name, source):
        # sign +1: need vals >= -_VERIFY_TOL; sign -1: need vals <= _VERIFY_TOL
        signed = sign * vals
        worst = float(np.min(signed))
        witness = None
        if worst < -_VERIFY_TOL:
            j, i = np.unravel_index(np.argmin(signed), signed.shape)
            witness = {"x": float(grid.nodes[j + 1]),
                       "u": [float(source[j + 1, i])],
                       "second_difference": float(vals[j, i]),
                       "violation": float(-worst)}
        return ConditionItem(name, bool(worst >= -_VERIFY_TOL), worst, witness)

    items.append(_extreme(d2a, +1.0, "subharmonic_alpha", alpha))
    items.append(_extreme(d2b, -1.0, "superharmonic_beta", beta))

    bmargin = float(min(np.min(-alpha[0]), np.min(-alpha[-1]),
                        np.min(beta[0]), np.min(beta[-1])))
    items.append(ConditionItem("boundary_signs",
                               bool(bmargin >= -_VERIFY_TOL), bmargin))
    return ConditionReport(items=items)
