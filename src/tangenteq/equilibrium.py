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
"""

from dataclasses import dataclass, field

import numpy as np

from .convex import MovingBox
from .errors import EmptyIntersection

_CHECKPOINT_FACTOR = 1e-9


@dataclass
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
        if self.h0 <= 0:
            raise ValueError("h0 must be positive")
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


def _field_boxes(field_, xs, U, P):
    n, N = U.shape
    vlo = np.empty((n, N))
    vhi = np.empty((n, N))
    for j in range(n):
        val = field_.evaluate(xs[j], U[j], P[j])
        vlo[j] = val.lo
        vhi[j] = val.hi
    return vlo, vhi


def _select(op, field_, K, U):
    """The sweep kernel at state ``U``: gradients, value boxes of the
    field and, unless ``K`` is None, the tangent selection.

    Returns ``(vlo, vhi, v, failure)``; ``failure`` is None or the witness
    of the first node whose admissible values miss the tangent cone.
    """
    xs = op.grid.nodes
    P = op.gradient(U)
    vlo, vhi = _field_boxes(field_, xs, U, P)
    if K is None:
        return vlo, vhi, None, None
    v, miss = K.select(U, vlo, vhi, P)
    if miss is None:
        return vlo, vhi, v, None
    j, reason = miss
    return vlo, vhi, None, _witness(j, xs[j], U[j], reason)


def _tangency(op, field_, K, U):
    """Tangency residual at ``U``: zero when every selection is tangent,
    ``inf`` when some node has no admissible tangent value."""
    v, failure = _select(op, field_, K, U)[2:]
    return float("inf") if failure is not None else K.tangency(U, v)


def _equation_residual(op, AU, vlo, vhi):
    target = -AU
    gap = target - np.clip(target, vlo, vhi)
    r = np.linalg.norm(gap, axis=1)
    return op.grid.norm(r, mask=op.equation_mask())


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
    tail = history[-max(1, len(history) // 5):]
    if not tail:
        return "max_iter"
    flat = tail[0] - tail[-1] <= 0.05 * max(tail[0], 1e-300)
    if min(tail) > 10.0 * tol_residual and flat:
        return "non_convergence"
    return "max_iter"


def resolvent_iterate(op, field_, C, u0, config=None):
    """Drive the damped resolvent sweep to a constrained equilibrium.

    Returns a SolveReport; tangency failures are reported through its
    status/failure fields (node, position, state) rather than raised.
    """
    config = config or SolverConfig()
    K = C.lift(op.grid.n).broadcast(op.spec.components)
    u = K.project(_as_grid_function(u0, op.grid.n, op.spec.components))

    history = []
    checks = []
    k_outer = 1
    prev_defect = np.inf
    status = None
    failure = None
    h = config.step(k_outer)
    it = 0

    for it in range(1, config.max_iter + 1):
        h = config.step(k_outer)
        AU = op.apply(u)
        vlo, vhi, v, failure = _select(op, field_, K, u)
        history.append(_equation_residual(op, AU, vlo, vhi))
        if failure is not None:
            status = "tangency_failure"
            break

        lifted = u + h * v
        d_lift = op.grid.norm(K.distances(lifted))
        w = K.project(lifted)
        z = op.resolvent(h, w)
        defect = op.grid.norm(z - u)

        cp_tol = _CHECKPOINT_FACTOR * h
        at_checkpoint = defect <= cp_tol and prev_defect <= cp_tol
        if at_checkpoint:
            lhs = op.grid.norm(AU + v, mask=op.equation_mask())
            checks.append({"iteration": it, "h": float(h),
                           "residual_norm": float(lhs),
                           "distance_bound": float(d_lift / h)})
            if config.step_schedule == "harmonic":
                k_outer += 1
        prev_defect = defect

        # near the fixed point the undamped step is the checkpointed one
        u_next = z if defect <= cp_tol else (1.0 - config.damping) * u \
            + config.damping * z
        step_norm = op.grid.norm(u_next - u)
        u = u_next

        violation = float(np.max(K.distances(u)))
        if history[-1] <= config.tol_residual and step_norm <= config.tol_step \
                and violation <= max(config.tol_step, 1e-12):
            status = "converged"
            break

    if status is None:
        status = _plateau_status(history, config.tol_residual)

    violation = float(np.max(K.distances(u)))
    tangency = float("inf") if status == "tangency_failure" \
        else _tangency(op, field_, K, u)

    return SolveReport(u_star=_in_caller_shape(u, u0),
                       residual_history=history,
                       tangency_residual=tangency,
                       constraint_violation=violation, status=status,
                       iterations=it, h_final=h, method="resolvent",
                       bound_checks=checks, failure=failure)


def truncation_iterate(op, field_, alpha, beta, config=None, u0=None):
    """Picard iteration ``u -> A^{-1}(-v(clamp(u)))`` on Dirichlet problems.

    ``alpha`` and ``beta`` are nodewise lower/upper bounds (scalars
    broadcast).  The clamp localizes every field evaluation inside the
    bounds; once the iteration settles, the solution itself must sit
    inside them or the report flags ``localization_failed``.
    """
    config = config or SolverConfig()
    n, N = op.grid.n, op.spec.components
    K = MovingBox(*np.broadcast_arrays(alpha, beta)).lift(n).broadcast(N)
    u = _as_grid_function(u0, n, N) if u0 is not None \
        else K.project(np.zeros((n, N)))

    history = []
    status = None
    failure = None
    it = 0
    for it in range(1, config.max_iter + 1):
        uc = K.project(u)
        AUc = op.apply(uc)
        vlo, vhi, v, failure = _select(op, field_, K, uc)
        history.append(_equation_residual(op, AUc, vlo, vhi))
        if failure is not None:
            status = "tangency_failure"
            break
        target = op.solve_stationary(-v)
        u_next = (1.0 - config.damping) * u + config.damping * target
        step_norm = op.grid.norm(u_next - u)
        u = u_next
        if history[-1] <= config.tol_residual and step_norm <= config.tol_step:
            status = "converged"
            break

    if status is None:
        status = _plateau_status(history, config.tol_residual)

    escape = K.distances(u)
    violation = float(np.max(escape))
    if status == "converged" and violation > max(10.0 * config.tol_step, 1e-9):
        status = "localization_failed"
        j = int(np.argmax(escape))
        failure = _witness(j, op.grid.nodes[j], u[j],
                           "solution escapes the bounds")

    tangency = float("inf") if status == "tangency_failure" \
        else _tangency(op, field_, K, K.project(u))

    return SolveReport(u_star=_in_caller_shape(u, u0),
                       residual_history=history,
                       tangency_residual=tangency,
                       constraint_violation=violation, status=status,
                       iterations=it, h_final=None, method="truncation",
                       bound_checks=[], failure=failure)


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
    """
    if t_end <= 0 or h <= 0:
        raise ValueError("horizon and step must be positive")
    K = C.lift(op.grid.n).broadcast(op.spec.components)
    u = _as_grid_function(u0, op.grid.n, op.spec.components)
    steps = int(np.ceil(t_end / h))

    worst = float(np.max(K.distances(u)))
    status = "completed"
    failure = None
    for _ in range(steps):
        v, failure = _select(op, field_, K, K.project(u))[2:]
        if failure is not None:
            status = "tangency_failure"
            break
        u = op.resolvent(h, u + h * v)
        worst = max(worst, float(np.max(K.distances(u))))

    vlo, vhi = _select(op, field_, None, K.project(u))[:2]
    terminal = _equation_residual(op, op.apply(u), vlo, vhi)
    return TrajectoryReport(terminal_state=_in_caller_shape(u, u0),
                            max_constraint_distance=worst,
                            terminal_residual=terminal, steps=steps, h=h,
                            status=status, failure=failure)


def residual(op, field_, C, u):
    """(equation_residual, tangency_residual) at a given state.

    The equation part is the grid-weighted distance of ``-A u`` to the
    admissible value boxes; the tangency part is the solvers' tangency
    residual, except that a node with no tangent value raises
    EmptyIntersection.
    """
    K = C.lift(op.grid.n).broadcast(op.spec.components)
    U = _as_grid_function(u, op.grid.n, op.spec.components)
    vlo, vhi, v, failure = _select(op, field_, K, U)
    eq = _equation_residual(op, op.apply(U), vlo, vhi)
    if failure is not None:
        raise EmptyIntersection(failure["reason"])
    return eq, K.tangency(U, v)
