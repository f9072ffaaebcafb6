"""Problem catalog and hypothesis verifiers.

The catalog side builds the pieces a concrete run needs: named
nonlinearities (single-valued, interval, relay hulls, tabulated data)
and the second-order boundary-value assembly used for gradient-dependent
problems on a ball constraint.

The verifier side turns the structural hypotheses behind the solvers into
sampled checks with margins and witnesses:

* ``verify_tangency``   - admissible values meet the constraint's tangent
  cone on every face of the boundary; boxes, nodewise bound pairs and
  balls have a verifier, any other body (a simplex) raises InvalidSpec,
  so simplex configs run only through ``solve --force``,
* ``verify_bernstein``  - sign, quadratic-growth, and sphere conditions
  for gradient-dependent two-point problems,
* ``verify_subsuper``   - discrete sub/supersolution inequalities for
  nodewise bound pairs.

A margin is always "distance to violation": positive means the condition
holds strictly, negative means a witness was found.  Every sampled check
folds its draws through ``_sampled_item``, which states the margin and
witness rules once.
"""

from dataclasses import dataclass

import numpy as np

from .convex import Ball, Box, MovingBox
from .errors import InvalidSpec
from .fields import (FilippovHull, IntervalValued, NonlinearityField,
                     SetValue, SingleValued, _row_dots, _sup_norms)
from .operators import Grid1D, OperatorSpec, assemble


# ---------------------------------------------------------------------------
# nonlinearity catalog


def _linear(params, components, bound, seed):
    a = float(params.get("a", 0.5))
    b = float(params.get("b", -1.0))
    return SingleValued(lambda x, u, p: a + b * u,
                        components=components, bound=bound, vectorized=True)


def _logistic(params, components, bound, seed):
    r = float(params.get("r", 1.0))
    theta = float(params.get("theta", 0.4))
    return SingleValued(lambda x, u, p: r * u * (1.0 - u) * (u - theta),
                        components=components, bound=bound, vectorized=True)


def _constant(params, components, bound, seed):
    lo = float(params.get("lo", 0.0))
    hi = float(params.get("hi", lo))
    return IntervalValued(lambda x, u, p: np.full(components, lo),
                          lambda x, u, p: np.full(components, hi),
                          components=components, bound=bound, vectorized=True)


def _heaviside(params, components, bound, seed):
    off = float(params.get("off", 1.0))
    on = float(params.get("on", -1.0))
    threshold = float(params.get("threshold", 0.5))
    delta = float(params.get("delta", 0.05))
    count = int(params.get("samples", 64))

    def relay(x, u, p):
        u = np.atleast_1d(u)
        return np.where(u < threshold, off, on)

    return FilippovHull(relay, delta, sample_count=count,
                        components=components, bound=bound, base_seed=seed,
                        vectorized=True)


def _tabulated(params, components, bound, seed):
    path = params.get("path")
    if path is None:
        raise ValueError("tabulated nonlinearity needs a 'path' parameter")
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("expected two CSV columns: state, value")
    order = np.argsort(data[:, 0])
    knots, vals = data[order, 0], data[order, 1]
    return SingleValued(lambda x, u, p: np.interp(u, knots, vals),
                        components=components, bound=bound, vectorized=True)


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
    between the linear and nonlinear parts.
    """

    def __init__(self, base, c):
        super().__init__(components=base.components, bound=None)
        self.base = base
        self.c = float(c)

    def _value(self, x, u, p):
        # the envelope bounds the base values; ``base.evaluate`` would
        # make one call two field evaluations in the perfbench trace
        val = self.base._value(x, u, p)
        self.base._check_bound(x, val)
        return SetValue(val.lo - self.c * u, val.hi - self.c * u)

    def evaluate_grid(self, xs, U, P):
        lo, hi = self.base.evaluate_grid(xs, U, P)
        return lo - self.c * U, hi - self.c * U


def as_field(phi, components=1, bound=None):
    if isinstance(phi, NonlinearityField):
        return phi
    return SingleValued(phi, components=components, bound=bound)


def make_bernstein_problem(phi, R, c, n, length=1.0, bound=None):
    """Assemble u'' + phi(x, u, u') = 0, |u| <= R, zero boundary values.

    The operator carries the ``+c*u`` zeroth-order term (negative shift)
    and the field hands back ``phi - c*u``, so their sum is the original
    equation while the resolvent sees the coercive linear part.
    Returns (operator, field, ball_constraint).
    """
    if R <= 0:
        raise ValueError("radius must be positive")
    spec = OperatorSpec(d=1.0, gamma=0.0, bc="dirichlet", shift=-float(c),
                        components=1)
    op = assemble(spec, Grid1D(length, n))
    fld = StateShiftedField(as_field(phi, bound=bound), c)
    return op, fld, Ball(np.zeros(1), float(R))


# ---------------------------------------------------------------------------
# condition reports


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


def _sampled_item(name, field, count, states, margin, tol):
    """Fold ``count`` sampled states of one condition into its
    ``ConditionItem``.

    ``states`` yields ``(x, u, p, arg)``; the states fill ``(count, N)``
    arrays, the field is evaluated on all of them in one
    ``evaluate_grid`` call, and ``margin(lo, hi, args)`` gives every
    state's distance to violation from its value box and the ``arg`` rows
    (whatever else the margin needs from the draw; ``arg`` may be None
    when it needs nothing).  The item carries the smallest margin and
    passes when it is at least ``-tol``.  Its witness is the first state
    that reaches the smallest margin, and it is recorded only when that
    margin is below ``-tol``.  A NaN margin never counts as smallest.
    """
    N = field.components
    X = np.empty(count)
    U = np.empty((count, N))
    P = np.empty((count, N))
    args = np.empty((count, N))
    for k, (x, u, p, arg) in enumerate(states):
        X[k] = x
        U[k] = u
        P[k] = p
        if arg is not None:
            args[k] = arg
    lo, hi = field.evaluate_grid(X, U, P)
    m = margin(lo, hi, args)
    m = np.where(np.isnan(m), np.inf, m)
    k = int(np.argmin(m))
    worst = float(m[k])
    witness = None
    if worst < -tol:
        witness = _witness(X[k], U[k], P[k], [lo[k].tolist(), hi[k].tolist()],
                           -worst)
    return ConditionItem(name, bool(worst >= -tol), worst, witness)


def _require_samples(samples):
    # an empty sample would pass every condition with margin inf
    if samples < 1:
        raise InvalidSpec("samples must be at least 1, got %r" % (samples,))


def _min_dot(W, lo, hi):
    """``min w . y`` over the values ``y`` in the box ``[lo, hi]``, row by
    row (``np.sum`` along a row rounds as it does on the row alone)."""
    return np.sum(np.minimum(W * lo, W * hi), axis=1)


# ---------------------------------------------------------------------------
# tangency of admissible values on the constraint boundary


def _node_bounds(C, grid, components):
    box = C.lift(grid.n).broadcast(components)
    return (box.lo, box.hi, np.gradient(box.lo, grid.dx, axis=0),
            np.gradient(box.hi, grid.dx, axis=0))


def _box_face_items(field, C, grid, samples, rng, tol):
    # At a state touching a bound from inside, the touching component's
    # gradient matches the bound's; free components carry the bound mean
    # slope as a neutral stand-in.
    components = field.components
    lo, hi, glo, ghi = _node_bounds(C, grid, components)

    def touching(i, bound, slope):
        for _ in range(samples):
            j = int(rng.integers(grid.n))
            u = lo[j] + rng.random(components) * (hi[j] - lo[j])
            p = 0.5 * (glo[j] + ghi[j])
            u[i] = bound[j, i]
            p[i] = slope[j, i]
            yield grid.nodes[j], u, p, None

    items = []
    for i in range(components):
        items.append(_sampled_item("face[%d].low" % i, field, samples,
                                   touching(i, lo, glo),
                                   lambda vlo, vhi, _: vhi[:, i], tol))
        items.append(_sampled_item("face[%d].high" % i, field, samples,
                                   touching(i, hi, ghi),
                                   lambda vlo, vhi, _: -vlo[:, i], tol))
    return items


def _ball_items(field, C, grid, samples, rng, tol):
    def boundary():
        for _ in range(samples):
            j = int(rng.integers(grid.n))
            d = rng.standard_normal(C.dim)
            d /= np.linalg.norm(d)
            yield grid.nodes[j], C.center + C.radius * d, np.zeros(C.dim), d

    # inward admissibility: some value y with outward component <= 0
    return [_sampled_item("sphere", field, samples, boundary(),
                          lambda lo, hi, d: -_min_dot(d, lo, hi), tol)]


def verify_tangency(field, C, grid, samples=10000, seed=42, tol=1e-9):
    """Sampled check that admissible values point into the constraint.

    Boxes and nodewise bound pairs are checked face by face; balls over
    sampled boundary directions.  Gradient arguments at a face follow the
    bound's own slope, since a touching state has to share it.  Any other
    body, and fewer than one sample, raise InvalidSpec.
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    if isinstance(C, Ball):
        items = _ball_items(field, C, grid, samples, rng, tol)
    elif isinstance(C, (Box, MovingBox)):
        items = _box_face_items(field, C, grid, samples, rng, tol)
    else:
        raise InvalidSpec("no tangency verifier for %r (box, nodewise bound"
                          " pair and ball only)" % type(C).__name__)
    return ConditionReport(items=items)


# ---------------------------------------------------------------------------
# Bernstein-type conditions for gradient-dependent problems


def verify_bernstein(phi, R, a, b, c, length=1.0, samples=10000, seed=42,
                     tol=1e-9):
    """Check the sign, growth, and sphere conditions for phi on |u| <= R.

    * sign:   some admissible value y has  y . u <= 0  whenever |u| > R
              (sampled up to |u| = 2R + 1) with zero gradient argument;
    * growth: every admissible value obeys |y| <= a|p|^2 + b on |u| <= R;
    * sphere: some admissible y has  y . u <= c R^2  when |u| = R and
              u . p = 0.

    Fewer than one sample raises InvalidSpec.
    """
    _require_samples(samples)
    fld = as_field(phi)
    N = fld.components
    rng = np.random.default_rng(seed)
    xs = rng.random(samples) * length
    pmax = max(1.0, 2.0 * R)

    # Each generator draws from rng only while it is consumed, and each
    # is consumed in full before the next one starts.
    def directions(count):
        d = rng.standard_normal((count, N))
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    def outside():
        for x, d in zip(xs, directions(samples)):
            u = (R + rng.random() * (R + 1.0)) * d
            yield x, u, np.zeros(N), u

    def inside():
        for x in xs:
            u = R * (2.0 * rng.random(N) - 1.0)
            p = pmax * (2.0 * rng.random(N) - 1.0)
            yield x, u, p, p

    def on_sphere():
        for x, d in zip(xs, directions(samples)):
            u = R * d
            if N == 1:
                p = np.zeros(1)
            else:
                p = rng.standard_normal(N)
                p -= d * np.dot(p, d)
            yield x, u, p, u

    items = [
        _sampled_item("sign_outside_ball", fld, samples, outside(),
                      lambda lo, hi, u: -_min_dot(u, lo, hi), tol),
        _sampled_item("quadratic_growth", fld, samples, inside(),
                      lambda lo, hi, p: a * _row_dots(p, p) + b
                      - _sup_norms(lo, hi), tol),
        _sampled_item("sphere_tangency", fld, samples, on_sphere(),
                      lambda lo, hi, u: c * R * R - _min_dot(u, lo, hi),
                      tol),
    ]
    return ConditionReport(items=items)


# ---------------------------------------------------------------------------
# discrete sub/supersolution shape inequalities


def verify_subsuper(alpha, beta, grid, tol=1e-9):
    """Shape check for a bound pair on a Dirichlet problem.

    alpha must be discretely subharmonic (second differences >= -tol at
    interior nodes), beta superharmonic, alpha <= beta everywhere, and
    the pinned boundary values must satisfy alpha <= 0 <= beta.  The
    check is purely geometric; the nonlinearity plays no part.
    """
    n = grid.n
    alpha = np.asarray(alpha, dtype=float).reshape(n, -1)
    beta = np.asarray(beta, dtype=float).reshape(n, -1)
    if alpha.shape != beta.shape:
        raise ValueError("bound arrays must share a shape")
    dx2 = grid.dx * grid.dx

    order = float(np.min(beta - alpha))
    items = [ConditionItem("ordering", bool(order >= -tol), order)]

    d2a = (alpha[2:] - 2.0 * alpha[1:-1] + alpha[:-2]) / dx2
    d2b = (beta[2:] - 2.0 * beta[1:-1] + beta[:-2]) / dx2

    def _extreme(vals, sign, name, source):
        # sign +1: need vals >= -tol; sign -1: need vals <= tol
        signed = sign * vals
        worst = float(np.min(signed))
        witness = None
        if worst < -tol:
            j, i = np.unravel_index(np.argmin(signed), signed.shape)
            witness = {"x": float(grid.nodes[j + 1]),
                       "u": [float(source[j + 1, i])],
                       "second_difference": float(vals[j, i]),
                       "violation": float(-worst)}
        return ConditionItem(name, bool(worst >= -tol), worst, witness)

    items.append(_extreme(d2a, +1.0, "subharmonic_alpha", alpha))
    items.append(_extreme(d2b, -1.0, "superharmonic_beta", beta))

    bmargin = float(min(np.min(-alpha[0]), np.min(-alpha[-1]),
                        np.min(beta[0]), np.min(beta[-1])))
    items.append(ConditionItem("boundary_signs", bool(bmargin >= -tol),
                               bmargin))
    return ConditionReport(items=items)
