"""Constrained equilibrium iterations built on resolvents and selections.

``resolvent_iterate`` runs the damped fixed-point sweep

    u_next = (1 - damping) * u + damping * J_h( proj_K( u + h * v(u) ) )

where ``v(u)`` is the nodewise minimal-norm tangent selection of the
nonlinearity and ``proj_K`` the nodewise metric projection onto the
constraint.  A converged point solves the discrete inclusion
``0 in A u + F(x, u, u')`` with every nodal value kept inside the
constraint set.

Whenever the sweep's fixed-point defect drops below ``1e-9 * h`` on two
consecutive sweeps the current iterate is recorded as a checkpoint: an
(approximate) fixed point of the current step map.  At such points the
retraction-defect inequality

    ||A u + v||  <=  (1/h) * dist_K-lift(u + h v)  +  slack

holds with slack at roundoff level (the projection is 1-Lipschitz with
equality on the distance), and the recorded pairs let callers audit it.
Harmonic step schedules advance ``h_k = h0 / k`` exactly at checkpoints,
so the checkpoint sequence mirrors the per-step-size fixed points that
drive the vanishing-residual argument.

Every solver reports one tangency residual, ``max_j dist(v_j, T_K(proj
u_j))`` at its final state: the largest nodal directional derivative of
the distance to the constraint along the selected value.  It is 0 when
every selection is tangent and ``inf`` on ``tangency_failure``.

``truncation_iterate`` is the alternative scheme for Dirichlet problems
with nodewise box bounds: Picard on ``u -> A^{-1}(-v(clamp(u)))`` with an
a-posteriori localization check.  ``viability_simulate`` integrates the
same dynamics without the projection step and tracks the distance to the
constraint as the viability certificate.

All three are one sweep loop, ``_drive``: it lifts the constraint, projects
the state once, selects at the state (or at that projection), records
the equation residual, stops on a tangency failure or on the tolerances,
and takes the final measures.  Each solver hands it a step map: the
projected resolvent with its checkpoints and step schedule, the clamped
stationary solve, or the unprojected implicit Euler step run to a fixed
horizon.  A resolvent step hands on the ``A u`` its solve computed for
the residual guard, so an undamped sweep makes one banded product.
``residual`` is one sweep head of the same loop.
"""

from dataclasses import dataclass, field

import numpy as np

from .convex import MovingBox, _box_distances, _row_norms
from .errors import EmptyIntersection, check_count, check_positive

_CHECKPOINT_FACTOR = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    step_schedule: str = "fixed"     # "fixed" or "harmonic"
    h0: float = 0.5
    max_iter: int = 500
    tol_residual: float = 1e-9
    tol_step: float = 1e-10
    damping: float = 1.0

    def __post_init__(self):
        if self.step_schedule not in ("fixed", "harmonic"):
            raise ValueError("unknown step schedule %r" % (self.step_schedule,))
        check_positive(h0=self.h0)
        object.__setattr__(self, "max_iter",
                           check_count(ValueError, 1, max_iter=self.max_iter))
        if not (self.tol_residual >= 0 and self.tol_step >= 0):
            raise ValueError("tol_residual and tol_step must be non-negative")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")

    def step(self, k):
        return self.h0 / k if self.step_schedule == "harmonic" else self.h0


@dataclass
class SolveReport:
    """Outcome of a solve.  ``tangency_residual`` is the tangency
    residual of the module docstring at ``u_star``."""

    u_star: np.ndarray
    residual_history: list
    tangency_residual: float
    constraint_violation: float
    status: str
    iterations: int = 0
    h_final: float = None
    method: str = "resolvent"
    bound_checks: list = field(default_factory=list)
    failure: dict = None

    def to_dict(self):
        return {
            "status": self.status,
            "method": self.method,
            "iterations": int(self.iterations),
            "h_final": None if self.h_final is None else float(self.h_final),
            "residual_history": [float(r) for r in self.residual_history],
            "tangency_residual": float(self.tangency_residual),
            "constraint_violation": float(self.constraint_violation),
            "bound_checks": self.bound_checks,
            "failure": self.failure,
        }


def _witness(node, x, u, reason):
    return {"node": int(node), "x": float(x),
            "u": [float(c) for c in np.atleast_1d(u)], "reason": reason}


def _select(op, field_, K, X, W):
    """The sweep kernel at state ``X``, whose projection onto ``K`` is
    ``W``: gradients, value boxes of the field and, unless ``K`` is None,
    the tangent selection at ``W``.  A slope-free field (``slopes``
    False) gets no gradient: its functions see ``p = None``.

    Returns ``(vlo, vhi, v, failure)``; ``failure`` is None or the witness
    of the first node whose admissible values miss the tangent cone.
    """
    xs = op.grid.nodes
    P = op.gradient(X) if field_.slopes else None
    vlo, vhi = field_.evaluate_grid(xs, X, P)
    if K is None:
        return vlo, vhi, None, None
    v, miss = K._select_at(W, vlo, vhi)
    if miss is None:
        return vlo, vhi, v, None
    j, reason = miss
    return vlo, vhi, None, _witness(j, xs[j], X[j], reason)


def _tangency(op, field_, K, X, W):
    """Tangency residual at ``X`` (projection ``W``): zero when every
    selection is tangent, ``inf`` when some node has no admissible
    tangent value."""
    v, failure = _select(op, field_, K, X, W)[2:]
    return float("inf") if failure is not None else K._tangency_at(W, v)


def _equation_norm(op, R):
    """Grid norm of the nodal values ``R`` over the equation rows."""
    if op.equation_rows == slice(None):
        return op.grid.norm(R)
    return op.grid.norm(R, mask=op._equation_mask)


def _equation_residual(op, AU, vlo, vhi):
    """The norm of the distances of ``-A u`` to the value boxes; a box
    ``[y, y]`` given as one array is at distance ``|A u + y|``."""
    if vlo is vhi:
        return _equation_norm(op, _row_norms(AU + vlo))
    return _equation_norm(op, _box_distances(-AU, vlo, vhi))


def _as_grid_function(u0, n, N):
    U = np.asarray(u0, dtype=float)
    if U.ndim == 1 and N == 1:
        U = U[:, None]
    if U.shape != (n, N):
        raise ValueError("initial state must have shape (%d, %d)" % (n, N))
    return U.copy()


def _in_caller_shape(U, u0):
    """Return the (n, N) state in the shape the caller supplied u0 in
    (single-component states default to flat vectors)."""
    if U.shape[1] == 1 and (u0 is None or np.ndim(u0) != 2):
        return U[:, 0]
    return U


def _plateau_status(history, tol_residual):
    if not history:         # a run that measured no residual
        return "max_iter"
    tail = history[-max(1, len(history) // 5):]
    flat = tail[0] - tail[-1] <= 0.05 * max(tail[0], 1e-300)
    if min(tail) > 10.0 * tol_residual and flat:
        return "non_convergence"
    return "max_iter"


def _head(op, field_, K, X, W, AX=None):
    """One sweep's measures at ``X`` (projection ``W``): the equation
    residual, the tangent selection (None on a failure), the failure
    witness and ``A X``, which is applied here unless ``AX`` brings it."""
    vlo, vhi, v, failure = _select(op, field_, K, X, W)
    if AX is None:
        AX = op.apply(X)
    return _equation_residual(op, AX, vlo, vhi), v, failure, AX


def _drive(op, field_, C, u0, config, step, project_start=False,
           at_projection=False, accept=None, post=None, residuals=True):
    """The sweep loop behind every solver.

    Lifts ``C`` to the grid and starts from ``u0`` (zeros when None,
    projected when ``project_start``).  Each state ``u`` is projected
    once, to ``W``.  A sweep selects at ``X = u``, or ``X = W`` when
    ``at_projection``, records the equation residual at ``X`` and stops
    on a tangency failure; otherwise it takes
    ``u, AU = step(sweep, K, u, W, A X, v)`` and stops as converged when
    the residual and the step norm meet ``config``'s tolerances and
    ``accept(distances)``, if given, holds on the new state's nodal
    distances to the constraint.  A step that knows the new state's
    image ``A u`` returns it as ``AU`` (else None), and the next head at
    ``X = u`` uses it in place of applying ``A``.  A run that uses all
    its sweeps gets its status from ``_plateau_status``.

    ``post(K, u, W, distances, report)`` then sees the final ``(n, N)``
    state, its projection and its nodal distances to the constraint; the
    tangency residual is measured at the final ``X`` unless the run
    ended on a tangency failure.  With ``residuals`` off the run measures
    neither residual: no sweep measures the equation residual or applies
    ``A`` for it (the step sees ``A X`` only as a handed-on image, else
    None), so the run goes on to ``config.max_iter``, and the report
    keeps a tangency residual of ``inf``.  Returns a SolveReport.
    """
    n, N = op.grid.n, op.spec.components
    K = C.lift(n, N)
    u = np.zeros((n, N)) if u0 is None else _as_grid_function(u0, n, N)
    if project_start:
        u = K.project_rows(u)

    history = []
    status = failure = AU = None
    W = K.project_rows(u)
    for it in range(1, config.max_iter + 1):
        X, AX = (W, None) if at_projection else (u, AU)
        if residuals:
            r, v, failure, AX = _head(op, field_, K, X, W, AX)
            history.append(r)
        else:
            v, failure = _select(op, field_, K, X, W)[2:]
        if failure is not None:
            status = "tangency_failure"
            break
        (u, AU), u_prev = step(it, K, u, W, AX, v), u
        W = K.project_rows(u)
        # the step norm is taken only once the residual test holds
        if residuals and r <= config.tol_residual \
                and op.grid.norm(u - u_prev) <= config.tol_step \
                and (accept is None or accept(K._distances_at(u, W))):
            status = "converged"
            break

    distances = K._distances_at(u, W)
    report = SolveReport(
        u_star=u, residual_history=history, tangency_residual=float("inf"),
        constraint_violation=float(np.max(distances)),
        status=status or _plateau_status(history, config.tol_residual),
        iterations=it, failure=failure)
    if post is not None:
        post(K, u, W, distances, report)
    if residuals and report.status != "tangency_failure":
        report.tangency_residual = _tangency(
            op, field_, K, W if at_projection else u, W)
    report.u_star = _in_caller_shape(u, u0)
    return report


def resolvent_iterate(op, field_, C, u0, config=None):
    """Drive the damped resolvent sweep to a constrained equilibrium.

    Returns a SolveReport; tangency failures are reported through its
    status/failure fields (node, position, state) rather than raised.
    """
    config = config or SolverConfig()
    checks = []
    h, prev_defect = None, np.inf

    def step(it, K, u, W, AU, v):
        nonlocal h, prev_defect
        # a harmonic schedule advances h_k = h0 / k at every checkpoint
        h = config.step(1 + len(checks))
        lifted = u + h * v
        P = K.project_rows(lifted)
        z, Az = op._resolvent(h, P)
        defect = op.grid.norm(z - u)
        cp_tol = _CHECKPOINT_FACTOR * h
        if defect <= cp_tol and prev_defect <= cp_tol:
            lhs = _equation_norm(op, AU + v)
            d_lift = op.grid.norm(K._distances_at(lifted, P))
            checks.append({"iteration": it, "h": float(h),
                           "residual_norm": float(lhs),
                           "distance_bound": float(d_lift / h)})
        prev_defect = defect
        # an undamped step, and any step near the fixed point, is the
        # resolvent's output z, whose image A z the solve computed; a
        # damped one blends and hands on no image
        if config.damping == 1.0 or defect <= cp_tol:
            return z, Az
        return (1.0 - config.damping) * u + config.damping * z, None

    report = _drive(op, field_, C, u0, config, step, project_start=True,
                    accept=lambda distances: float(np.max(distances))
                    <= max(config.tol_step, 1e-12))
    # a failing sweep takes no step, so it would have run at the next h
    report.h_final = config.step(1 + len(checks)) \
        if report.status == "tangency_failure" else h
    report.bound_checks = checks
    return report


def truncation_iterate(op, field_, alpha, beta, config=None, u0=None):
    """Picard iteration ``u -> A^{-1}(-v(clamp(u)))`` on Dirichlet problems.

    ``alpha`` and ``beta`` are nodewise lower/upper bounds (scalars and
    one row hold at every node).  The clamp localizes every field
    evaluation inside the bounds; once the iteration settles, the
    solution itself must sit inside them or the report flags
    ``localization_failed``.
    """
    config = config or SolverConfig()

    def step(it, K, u, W, AU, v):
        return (1.0 - config.damping) * u \
            + config.damping * op.solve_stationary(-v), None

    def localize(K, u, W, escape, report):
        if report.status == "converged" and report.constraint_violation \
                > max(10.0 * config.tol_step, 1e-9):
            j = int(np.argmax(escape))
            report.status = "localization_failed"
            report.failure = _witness(j, op.grid.nodes[j], u[j],
                                      "solution escapes the bounds")

    report = _drive(op, field_, MovingBox(*np.broadcast_arrays(alpha, beta)),
                    u0, config, step, project_start=u0 is None,
                    at_projection=True, post=localize)
    report.method = "truncation"
    return report


@dataclass
class TrajectoryReport:
    terminal_state: np.ndarray
    max_constraint_distance: float
    terminal_residual: float
    steps: int
    h: float
    status: str
    failure: dict = None

    def to_dict(self):
        return {
            "status": self.status,
            "steps": int(self.steps),
            "h": float(self.h),
            "max_constraint_distance": float(self.max_constraint_distance),
            "terminal_residual": float(self.terminal_residual),
            "failure": self.failure,
        }


def viability_simulate(op, field_, C, u0, t_end, h):
    """Implicit Euler with tangential selections but NO projection step.

    The trajectory's worst nodewise distance to the constraint is the
    viability certificate: tangency keeps it at discretization level.
    Selections are queried at the nodewise projection of the state (the
    cone lives on the set) while the state itself evolves unprojected.
    ``steps`` counts the steps taken: a tangency failure stops the run
    before the step it could not take.
    """
    check_positive(t_end=t_end, h=h)
    left = []           # the worst distance of every state a step leaves
    terminal = None

    def step(it, K, u, W, AU, v):
        left.append(float(np.max(K._distances_at(u, W))))
        return op._resolvent(h, u + h * v)

    def measure(K, u, W, distances, report):
        nonlocal terminal
        vlo, vhi = _select(op, field_, None, W, W)[:2]
        terminal = _equation_residual(op, op.apply(u), vlo, vhi)

    # no residual is measured, so the run goes on to the horizon
    horizon = SolverConfig(max_iter=int(np.ceil(t_end / h)))
    report = _drive(op, field_, C, u0, horizon, step, at_projection=True,
                    post=measure, residuals=False)
    return TrajectoryReport(
        terminal_state=report.u_star,
        max_constraint_distance=max(left + [report.constraint_violation]),
        terminal_residual=terminal, steps=len(left), h=h,
        status="completed" if report.failure is None
        else "tangency_failure",
        failure=report.failure)


def residual(op, field_, C, u):
    """(equation_residual, tangency_residual) at a given state.

    The equation part is the grid-weighted distance of ``-A u`` to the
    admissible value boxes; the tangency part is the solvers' tangency
    residual, except that a node with no tangent value raises
    EmptyIntersection.  Both come from one sweep head of the driver.
    """
    K = C.lift(op.grid.n, op.spec.components)
    U = _as_grid_function(u, op.grid.n, op.spec.components)
    W = K.project_rows(U)
    eq, v, failure, _ = _head(op, field_, K, U, W)
    if failure is not None:
        raise EmptyIntersection(failure["reason"])
    return eq, K._tangency_at(W, v)
