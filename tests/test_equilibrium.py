"""Constrained equilibrium sweeps, truncation scheme, viability runs."""

import contextlib
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from tangenteq import equilibrium, operators
from tangenteq import (Grid1D, OperatorSpec, assemble, Ball, Box, Simplex,
                       SingleValued, SolverConfig, StateShiftedField,
                       resolvent_iterate,
                       truncation_iterate, viability_simulate, residual,
                       EmptyIntersection, InvalidSpec, MovingBox, Cube,
                       SingularSystem,
                       make_nonlinearity,
                       semigroup_powers, FilippovHull, semicontinuity_probe,
                       verify_tangency, verify_bernstein, bolzano_bisect,
                       miranda_check, miranda_solve, brute_force_zero)


def _neumann_op(n=101, components=1):
    return assemble(OperatorSpec(bc="neumann", components=components),
                    Grid1D(1.0, n))


def _dirichlet_op(n=101):
    return assemble(OperatorSpec(bc="dirichlet"), Grid1D(1.0, n))


def _relaxing_field():
    return SingleValued(lambda x, u, p: 0.5 - u)


def _bvp_field():
    return SingleValued(lambda x, u, p: 1.0 - u)


def _bvp_solution(xs):
    return 1.0 - np.cosh(xs - 0.5) / np.cosh(0.5)


UNIT_BOX = Box([0.0], [1.0])


def test_constant_steady_state_from_three_starts():
    op = _neumann_op()
    rng = np.random.default_rng(1)
    starts = [np.zeros(101), np.ones(101), rng.uniform(0.0, 1.0, 101)]
    for u0 in starts:
        rep = resolvent_iterate(op, _relaxing_field(), UNIT_BOX, u0)
        assert rep.status == "converged"
        assert rep.iterations <= 500
        assert np.max(np.abs(rep.u_star - 0.5)) <= 1e-8
        eq, tang = residual(op, _relaxing_field(), UNIT_BOX, rep.u_star)
        assert eq <= 1e-8
        assert tang <= 1e-8


def test_converged_report_honors_its_own_invariant():
    cfg = SolverConfig(tol_residual=1e-9, tol_step=1e-10)
    rep = resolvent_iterate(_neumann_op(), _relaxing_field(), UNIT_BOX,
                            np.zeros(101), cfg)
    assert rep.status == "converged"
    assert rep.residual_history[-1] <= cfg.tol_residual
    assert rep.constraint_violation <= cfg.tol_step
    payload = json.dumps(rep.to_dict())
    assert "converged" in payload


def test_fixed_point_consistency_at_the_solution():
    """Feeding the converged state back through one sweep must move it by
    no more than the step tolerance."""
    op = _neumann_op()
    rep = resolvent_iterate(op, _relaxing_field(), UNIT_BOX, np.zeros(101))
    again = resolvent_iterate(op, _relaxing_field(), UNIT_BOX, rep.u_star,
                              SolverConfig(max_iter=1))
    assert op.grid.norm(again.u_star - rep.u_star) <= 1e-8


def test_dirichlet_bvp_matches_analytic_solution():
    op = _dirichlet_op(201)
    rep = resolvent_iterate(op, _bvp_field(), Box([-1.0], [1.0]),
                            np.zeros(201))
    assert rep.status == "converged"
    xs = op.grid.nodes
    assert np.max(np.abs(rep.u_star - _bvp_solution(xs))) <= 1e-3
    mid = rep.u_star[100]
    assert mid == pytest.approx(1.0 - 1.0 / np.cosh(0.5), abs=1e-3)


def test_bound_checks_satisfy_residual_distance_inequality():
    """Recorded checkpoints must obey the L = 1 bound
    ||A u + v|| <= d_lift(u + h v) / h + 1e-8, on both schedules."""
    runs = [
        (_neumann_op(), _relaxing_field(), UNIT_BOX, SolverConfig()),
        (_neumann_op(), _relaxing_field(), UNIT_BOX,
         SolverConfig(step_schedule="harmonic", h0=0.8, max_iter=2000)),
        (_dirichlet_op(), _bvp_field(), Box([-1.0], [1.0]), SolverConfig()),
    ]
    for op, field_, body, cfg in runs:
        rep = resolvent_iterate(op, field_, body, np.zeros(op.grid.n), cfg)
        assert rep.status == "converged"
        assert len(rep.bound_checks) >= 1
        for chk in rep.bound_checks:
            assert chk["residual_norm"] <= chk["distance_bound"] + 1e-8
            assert chk["h"] > 0


def test_harmonic_schedule_shrinks_the_step():
    cfg = SolverConfig(step_schedule="harmonic", h0=0.6)
    assert cfg.step(1) == 0.6
    assert cfg.step(4) == pytest.approx(0.15)
    assert SolverConfig(step_schedule="fixed", h0=0.6).step(9) == 0.6


def _count_factorizations(monkeypatch):
    calls = []
    real = operators.dgttrf

    def counted(*args):
        calls.append(args[1].size)
        return real(*args)

    monkeypatch.setattr(operators, "dgttrf", counted)
    return calls


def test_fixed_step_solve_factors_once(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    rep = resolvent_iterate(_neumann_op(), _relaxing_field(), UNIT_BOX,
                            np.zeros(101))
    assert rep.status == "converged" and rep.iterations > 1
    assert calls == [101]


def test_harmonic_solve_factors_once_per_step(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    op = _neumann_op()
    steps = []
    resolvent = op._resolvent

    def recorded(h, F):
        steps.append(h)
        return resolvent(h, F)

    monkeypatch.setattr(op, "_resolvent", recorded)
    # tol_step = 0 keeps the sweep going past several checkpoints
    resolvent_iterate(op, _relaxing_field(), UNIT_BOX, np.zeros(101),
                      SolverConfig(step_schedule="harmonic", h0=0.8,
                                   max_iter=300, tol_step=0.0))
    assert len(set(steps)) >= 3
    assert len(calls) == len(set(steps))


def _fine_logistic(bc, n=1001):
    """The n = 1001 logistic solve of the grid-refinement benchmark."""
    op = assemble(OperatorSpec(d=0.02, bc=bc),
                  Grid1D(1.0, n, periodic=bc == "periodic"))
    u0 = np.clip(0.25 + np.random.default_rng(11).uniform(-0.05, 0.05, n),
                 0.0, 1.0)
    return op, make_nonlinearity("logistic", {"r": 1.0, "theta": 0.4}), u0


def _count_applies(monkeypatch, op):
    calls = []
    apply = op.apply

    def counted(U):
        calls.append(1)
        return apply(U)

    monkeypatch.setattr(op, "apply", counted)
    return calls


@pytest.mark.parametrize("bc, digest", [("neumann", "464505c5c139b2eb"),
                                        ("dirichlet", "22d8f910a1106032"),
                                        ("periodic", "3774bfe3af9b5100")])
def test_fine_logistic_solve_keeps_its_bits(bc, digest):
    op, field, u0 = _fine_logistic(bc)
    rep = resolvent_iterate(op, field, UNIT_BOX, u0)
    assert rep.status == "converged"
    blob = rep.u_star.tobytes() + np.array(rep.residual_history).tobytes()
    assert hashlib.sha256(blob).hexdigest()[:16] == digest


@pytest.mark.parametrize("bc", ["neumann", "dirichlet", "periodic"])
def test_undamped_sweep_makes_one_banded_product(bc, monkeypatch):
    # the first head applies A; every later head reuses the image the
    # resolvent's guard computed
    op, field, u0 = _fine_logistic(bc)
    calls = _count_applies(monkeypatch, op)
    rep = resolvent_iterate(op, field, UNIT_BOX, u0)
    assert rep.status == "converged"
    assert len(calls) == rep.iterations + 1


def _count_gradients(monkeypatch):
    calls = []
    gradient = operators.DiscreteOperator.gradient

    def counted(self, U):
        calls.append(1)
        return gradient(self, U)

    monkeypatch.setattr(operators.DiscreteOperator, "gradient", counted)
    return calls


@pytest.mark.parametrize("bc", ["neumann", "dirichlet", "periodic"])
@pytest.mark.parametrize("name, params, d, start", [
    ("linear", {"a": 0.5, "b": -1.0}, 1.0, 0.0),
    ("logistic", {"r": 1.0, "theta": 0.4}, 0.02, 0.25)])
def test_catalog_box_solves_take_no_gradient(bc, name, params, d, start,
                                             monkeypatch):
    # the grid-refinement benchmark's n = 1001 solves, cut to 40 sweeps;
    # as there, the resolvent guard may stop a solve (SingularSystem)
    n = 1001
    op = assemble(OperatorSpec(d=d, bc=bc),
                  Grid1D(1.0, n, periodic=bc == "periodic"))
    u0 = np.clip(start + np.random.default_rng(3).uniform(-0.05, 0.05, n),
                 0.0, 1.0)
    field = make_nonlinearity(name, params)
    sweeps = []
    evaluate_grid = field.evaluate_grid

    def counted(xs, U, P):
        sweeps.append(P)
        return evaluate_grid(xs, U, P)

    monkeypatch.setattr(field, "evaluate_grid", counted)
    calls = _count_gradients(monkeypatch)
    with contextlib.suppress(SingularSystem):
        resolvent_iterate(op, field, UNIT_BOX, u0, SolverConfig(max_iter=40))
    assert not field.slopes
    assert sweeps and sweeps == [None] * len(sweeps)
    assert calls == []


def test_simplex_ball_and_viability_runs_of_slope_free_fields_take_no_gradient(
        monkeypatch):
    # the non-box benchmark's simplex and ball solves, and a box viability
    # run of a catalog field
    rng = np.random.default_rng(3)
    calls = _count_gradients(monkeypatch)
    e = rng.exponential(1.0, (51, 3))
    simplex = resolvent_iterate(
        _neumann_op(51, 3),
        make_nonlinearity("linear", {"a": 1.0 / 3.0, "b": -1.0},
                          components=3),
        Simplex(1.0, 3), e / np.sum(e, axis=1, keepdims=True))
    d = rng.standard_normal((201, 2))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    ball = resolvent_iterate(
        _neumann_op(201, 2),
        make_nonlinearity("linear", {"a": 0.5, "b": -1.0}, components=2),
        Ball(np.zeros(2), 1.0), rng.random((201, 1)) ** 0.5 * d)
    run = viability_simulate(_neumann_op(), make_nonlinearity("logistic"),
                             UNIT_BOX, rng.random(101), 1.0, 0.05)
    assert simplex.status == ball.status == "converged"
    assert run.status == "completed" and run.steps == 20
    assert calls == []


def _slope_reading_fields():
    """Fields whose functions read ``p``, each with the field that the
    sweep's slopes reach: itself, or the base under a state shift."""
    single = SingleValued(lambda x, u, p: 0.5 - u - 0.01 * p)
    hull = FilippovHull(lambda x, u, p: np.where(u < 0.5, 1.0, -1.0), 0.05,
                        sample_count=8)
    return {"single": (single, single), "hull": (hull, hull),
            "shifted_single": (StateShiftedField(single, 0.5), single),
            "shifted_hull": (StateShiftedField(hull, 0.5), hull)}


@pytest.mark.parametrize("solver", ["resolvent", "viability"])
@pytest.mark.parametrize("name", sorted(_slope_reading_fields()))
def test_fields_that_read_slopes_get_the_gradient_at_every_sweep(
        name, solver, monkeypatch):
    field, reader = _slope_reading_fields()[name]
    op = _neumann_op()
    seen = []
    evaluate_grid = reader.evaluate_grid

    def recorded(xs, U, P):
        seen.append((U.copy(), None if P is None else P.copy()))
        return evaluate_grid(xs, U, P)

    monkeypatch.setattr(reader, "evaluate_grid", recorded)
    u0 = 0.25 + 0.5 * op.grid.nodes
    if solver == "resolvent":
        rep = resolvent_iterate(op, field, UNIT_BOX, u0,
                                SolverConfig(max_iter=15))
        # every sweep's head, then the final tangency residual
        assert len(seen) == rep.iterations + 1
    else:
        rep = viability_simulate(op, field, UNIT_BOX, u0, 0.5, 0.05)
        # every step's selection, then the terminal residual
        assert rep.status == "completed"
        assert len(seen) == rep.steps + 1 == 11
    assert field.slopes
    for U, P in seen:
        assert P is not None and P.tobytes() == op.gradient(U).tobytes()


@pytest.mark.parametrize("damping", [1.0, 0.7])
def test_the_step_is_the_resolvent_output_or_its_blend(damping,
                                                       monkeypatch):
    # the resolvent's output carries a signed zero, which a blend with
    # weight 0 on the old state would turn into +0.0; only a damped step
    # blends
    op = _neumann_op()
    outputs = []
    resolvent = op._resolvent

    def recorded(h, F):
        z, Az = resolvent(h, F)
        z = z.copy()
        z[0] = -0.0
        outputs.append(z)
        return z, Az

    monkeypatch.setattr(op, "_resolvent", recorded)
    u0 = np.linspace(0.0, 1.0, 101)
    rep = resolvent_iterate(op, _relaxing_field(), UNIT_BOX, u0,
                            SolverConfig(max_iter=1, damping=damping))
    (z,) = outputs
    want = z if damping == 1.0 \
        else (1.0 - damping) * u0[:, None] + damping * z
    assert rep.u_star.tobytes() == want[:, 0].tobytes()
    assert np.signbit(rep.u_star[0]) == (damping == 1.0)


def test_damped_sweep_heads_see_the_image_of_their_state(monkeypatch):
    op = _neumann_op()
    seen = []
    head = equilibrium._head

    def recorded(*args):
        out = head(*args)
        seen.append((args[3].copy(), out[3]))
        return out

    monkeypatch.setattr(equilibrium, "_head", recorded)
    calls = _count_applies(monkeypatch, op)
    rep = resolvent_iterate(op, _relaxing_field(), UNIT_BOX, np.zeros(101),
                            SolverConfig(damping=0.7))
    assert rep.status == "converged"
    # the checkpointed sweeps near the fixed point hand their image on
    assert len(calls) < 2 * rep.iterations
    for X, AX in seen:
        assert np.all(AX == op.apply(X))


def test_truncation_factors_once(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    rep = truncation_iterate(_dirichlet_op(), _bvp_field(), alpha=-1.0,
                             beta=1.0)
    assert rep.status == "converged" and rep.iterations > 1
    assert calls == [99]


def test_singleton_field_against_face_reports_tangency_failure():
    field = SingleValued(lambda x, u, p: np.full_like(u, -2.0))
    rep = resolvent_iterate(_neumann_op(), field, UNIT_BOX, np.zeros(101))
    assert rep.status == "tangency_failure"
    assert rep.failure is not None
    assert "node" in rep.failure
    assert rep.tangency_residual == np.inf


def test_initial_state_outside_the_box_is_projected_first():
    rep = resolvent_iterate(_neumann_op(), _relaxing_field(), UNIT_BOX,
                            np.full(101, -5.0))
    assert rep.status == "converged"
    assert np.max(np.abs(rep.u_star - 0.5)) <= 1e-8


def test_moving_box_constraint_behaves_like_the_fixed_box():
    op = _neumann_op()
    moving = MovingBox(alpha=np.zeros((101, 1)), beta=np.ones((101, 1)))
    rep = resolvent_iterate(op, _relaxing_field(), moving, np.zeros(101))
    assert rep.status == "converged"
    assert np.max(np.abs(rep.u_star - 0.5)) <= 1e-8


def test_single_column_moving_box_bounds_every_component():
    op = _neumann_op(components=2)
    field = SingleValued(lambda x, u, p: 0.5 - u, components=2)
    moving = MovingBox(np.zeros((101, 1)), np.ones((101, 1)))
    rep = resolvent_iterate(op, field, moving, np.zeros((101, 2)))
    assert rep.status == "converged"
    assert np.max(np.abs(rep.u_star - 0.5)) <= 1e-8


def _dirichlet_box_stall():
    # pinned walls at 0 against a box that starts at 0.5
    op = _dirichlet_op(51)
    field = SingleValued(lambda x, u, p: 0.5 - u)
    C = Box([0.5], [1.0])
    rep = resolvent_iterate(op, field, C, np.zeros(51),
                            SolverConfig(max_iter=60))
    assert rep.status == "non_convergence"
    assert rep.constraint_violation >= 0.5
    return op, field, C, rep


def _ball_solve():
    op = _neumann_op(41, components=2)
    field = SingleValued(lambda x, u, p: 0.5 - u, components=2)
    C = Ball(np.zeros(2), 1.0)
    rep = resolvent_iterate(op, field, C, np.zeros((41, 2)))
    assert rep.status == "converged"
    return op, field, C, rep


def _simplex_solve():
    op = _neumann_op(11, components=3)
    field = SingleValued(lambda x, u, p: 1.0 / 3.0 - u, components=3)
    C = Simplex(1.0, 3)
    u0 = np.tile([0.6, 0.3, 0.1], (11, 1))
    rep = resolvent_iterate(op, field, C, u0)
    assert rep.status == "converged"
    return op, field, C, rep


def _truncation_solve():
    op = _dirichlet_op()
    rep = truncation_iterate(op, _bvp_field(), alpha=-1.0, beta=1.0)
    assert rep.status == "converged"
    return op, _bvp_field(), Box([-1.0], [1.0]), rep


@pytest.mark.parametrize("case", [_dirichlet_box_stall, _ball_solve,
                                  _simplex_solve, _truncation_solve],
                         ids=["dirichlet_box_stall", "ball", "simplex",
                              "truncation"])
def test_reported_tangency_is_the_residual_tangency(case):
    op, field, C, rep = case()
    assert rep.tangency_residual == residual(op, field, C, rep.u_star)[1]


def test_oscillating_sweep_reports_non_convergence():
    # a stiff field plus a full step makes the damped sweep bounce between
    # the box faces; the residual plateau is reported honestly
    field = SingleValued(lambda x, u, p: 100.0 * (0.5 - u))
    cfg = SolverConfig(max_iter=100)
    rep = resolvent_iterate(_neumann_op(), field, UNIT_BOX, np.zeros(101),
                            cfg)
    assert rep.status == "non_convergence"
    assert len(rep.residual_history) == 100


def test_slow_run_out_of_budget_reports_max_iter():
    field = SingleValued(lambda x, u, p: 0.5 - u)
    cfg = SolverConfig(max_iter=12, damping=0.3, tol_residual=1e-12,
                       tol_step=1e-13)
    rep = resolvent_iterate(_neumann_op(), field, UNIT_BOX, np.zeros(101),
                            cfg)
    assert rep.status == "max_iter"
    assert rep.iterations == 12


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(step_schedule="geometric")
    with pytest.raises(ValueError):
        SolverConfig(h0=0.0)
    with pytest.raises(ValueError):
        SolverConfig(damping=0.0)
    with pytest.raises(ValueError):
        SolverConfig(damping=1.5)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter must be an integer "
                           "of at least 1, got %d" % max_iter):
            SolverConfig(max_iter=max_iter)
    # frozen, so the checks above hold for the config's lifetime
    with pytest.raises(dataclasses.FrozenInstanceError):
        SolverConfig().max_iter = 0


_NAN = float("nan")


@pytest.mark.parametrize("build,error,message", [
    (lambda: Ball([0.0], _NAN), ValueError, "radius must be positive"),
    (lambda: Simplex(_NAN, 2), ValueError, "total_mass must be positive"),
    (lambda: Grid1D(_NAN, 11), InvalidSpec, "length must be positive"),
    (lambda: Cube([0.0], [_NAN]), ValueError, "hi must be finite"),
    (lambda: SolverConfig(h0=_NAN), ValueError, "h0 must be positive"),
    (lambda: SolverConfig(tol_step=_NAN), ValueError,
     "tol_step must be non-negative"),
    (lambda: SolverConfig(tol_residual=-1.0, max_iter=5), ValueError,
     "tol_residual and tol_step must be non-negative"),
    (lambda: SolverConfig(max_iter=2.5), ValueError,
     "max_iter must be an integer"),
    (lambda: _neumann_op(11).resolvent(_NAN, np.zeros(11)), InvalidSpec,
     "h must be positive"),
    (lambda: semigroup_powers(_neumann_op(11), _NAN, 2, np.zeros(11)),
     InvalidSpec, "t must be positive"),
    (lambda: viability_simulate(_neumann_op(11), _relaxing_field(), UNIT_BOX,
                                np.zeros(11), _NAN, 0.1), ValueError,
     "t_end must be positive"),
    (lambda: viability_simulate(_neumann_op(11), _relaxing_field(), UNIT_BOX,
                                np.zeros(11), np.inf, 0.1), ValueError,
     "t_end must be finite"),
    (lambda: viability_simulate(_neumann_op(11), _relaxing_field(), UNIT_BOX,
                                np.zeros(11), 1.0, _NAN), ValueError,
     "h must be positive"),
], ids=["ball_radius", "simplex_total", "grid_length", "cube_hi",
        "solver_h0", "solver_tol_step", "solver_tol_residual_negative",
        "solver_max_iter_fractional", "resolvent_h", "semigroup_t",
        "simulate_t_end_nan", "simulate_t_end_inf", "simulate_h_nan"])
def test_nan_and_unbounded_arguments_fail_their_guards(build, error, message):
    # NaN compares false, so a guard written ``x <= 0`` lets it through
    with pytest.raises(error, match=re.escape(message)):
        build()


# each constructor and entry point that takes numbers, with the one
# argument it is handed and the further values its kind rules out beside
# NaN and +-inf: zero and negative reals, fractional and too small
# counts, and bounds that cross or differ in shape
_NOT_POSITIVE = (0.0, -1.0)


def _not_counts(minimum):
    return (2.5, minimum - 1)


def _identity(X):
    return X


def _pulled(X):
    return 0.3 - X


_SQUARE = Cube([-1.0, -1.0], [1.0, 1.0])

_CONSTRUCTORS = {
    "Box.lo": (lambda v: Box(v, [1.0]), "lo", (2.0, [0.0, 0.0])),
    "Box.hi": (lambda v: Box([0.0], v), "hi", (-1.0, [1.0, 1.0])),
    "MovingBox.alpha": (
        lambda v: MovingBox(np.append(v, [0.0, 0.0]), [1.0] * 3), "alpha",
        (2.0, [0.0, 0.0])),
    "MovingBox.beta": (
        lambda v: MovingBox([0.0] * 3, np.append(v, [1.0, 1.0])), "beta",
        (-1.0, [1.0, 1.0])),
    "Ball.center": (lambda v: Ball([v, 0.0], 1.0), "center", ()),
    "Ball.radius": (lambda v: Ball([0.0], v), "radius", _NOT_POSITIVE),
    "Simplex.total_mass": (lambda v: Simplex(v, 2), "total_mass",
                           _NOT_POSITIVE),
    "Simplex.dim": (lambda v: Simplex(1.0, v), "dim", _not_counts(1)),
    "Cube.lo": (lambda v: Cube(v, [1.0]), "lo", (1.0, 2.0, [0.0, 0.0])),
    "Cube.hi": (lambda v: Cube([0.0], v), "hi", (0.0, -1.0, [1.0, 1.0])),
    "SolverConfig.h0": (lambda v: SolverConfig(h0=v), "h0", _NOT_POSITIVE),
    "SolverConfig.max_iter": (lambda v: SolverConfig(max_iter=v), "max_iter",
                              _not_counts(1)),
    "Grid1D.length": (lambda v: Grid1D(v, 11), "length", _NOT_POSITIVE),
    "Grid1D.n": (lambda v: Grid1D(1.0, v), "n", _not_counts(3)),
    "assemble.components": (
        lambda v: assemble(OperatorSpec(components=v), Grid1D(1.0, 11)),
        "components", _not_counts(1)),
    "DiscreteOperator.resolvent.h": (
        lambda v: _neumann_op(11).resolvent(v, np.zeros(11)), "h",
        _NOT_POSITIVE),
    "semigroup_powers.t": (
        lambda v: semigroup_powers(_neumann_op(11), v, 2, np.zeros(11)), "t",
        _NOT_POSITIVE),
    "semigroup_powers.m": (
        lambda v: semigroup_powers(_neumann_op(11), 1.0, v, np.zeros(11)),
        "m", _not_counts(1)),
    "viability_simulate.t_end": (
        lambda v: viability_simulate(_neumann_op(11), _relaxing_field(),
                                     UNIT_BOX, np.zeros(11), v, 0.1),
        "t_end", _NOT_POSITIVE),
    "viability_simulate.h": (
        lambda v: viability_simulate(_neumann_op(11), _relaxing_field(),
                                     UNIT_BOX, np.zeros(11), 1.0, v),
        "h", _NOT_POSITIVE),
    # the probe count's messages name it ``samples``, as the config does
    "FilippovHull.delta": (lambda v: FilippovHull(_identity, delta=v),
                           "delta", _NOT_POSITIVE),
    "FilippovHull.sample_count": (
        lambda v: FilippovHull(_identity, 0.1, sample_count=v), "samples",
        _not_counts(1)),
    "semicontinuity_probe.delta": (
        lambda v: semicontinuity_probe(_relaxing_field(), 0.0, [0.3], [0.0],
                                       v), "delta", _NOT_POSITIVE),
    "semicontinuity_probe.sample_count": (
        lambda v: semicontinuity_probe(_relaxing_field(), 0.0, [0.3], [0.0],
                                       0.1, sample_count=v), "samples",
        _not_counts(1)),
    "verify_tangency.samples": (
        lambda v: verify_tangency(_relaxing_field(), UNIT_BOX,
                                  Grid1D(1.0, 11), samples=v), "samples",
        _not_counts(1)),
    "verify_bernstein.samples": (
        lambda v: verify_bernstein(_relaxing_field(), 1.0, 0.0, 1.0, 0.0,
                                   samples=v), "samples", _not_counts(1)),
    "miranda_check.resolution": (
        lambda v: miranda_check(_identity, _SQUARE, resolution=v),
        "resolution", _not_counts(2)),
    "miranda_solve.tol": (
        lambda v: miranda_solve(_pulled, _SQUARE, tol=v), "tol",
        _NOT_POSITIVE),
    "miranda_solve.max_depth": (
        lambda v: miranda_solve(_pulled, _SQUARE, max_depth=v), "max_depth",
        _not_counts(0)),
    "brute_force_zero.grid": (
        lambda v: brute_force_zero(_identity, _SQUARE, v), "grid",
        _not_counts(1)),
    "bolzano_bisect.a": (lambda v: bolzano_bisect(np.sin, v, 1.0), "a",
                         (1.0, 2.0)),
    "bolzano_bisect.b": (lambda v: bolzano_bisect(np.sin, -1.0, v), "b",
                         (-1.0, -2.0)),
}


@pytest.mark.parametrize("value", [_NAN, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
def test_constructors_refuse_non_finite_numbers(name, value):
    build, argument, _ = _CONSTRUCTORS[name]
    with pytest.raises((ValueError, InvalidSpec),
                       match=r"\b%s\b" % argument):
        build(value)


@pytest.mark.parametrize("name, value", [
    (name, value) for name in sorted(_CONSTRUCTORS)
    for value in _CONSTRUCTORS[name][2]],
    ids=lambda v: v if isinstance(v, str) else repr(v))
def test_entry_points_refuse_numbers_out_of_their_kind(name, value):
    build, argument, _ = _CONSTRUCTORS[name]
    with pytest.raises((ValueError, InvalidSpec),
                       match=r"\b%s\b" % argument):
        build(value)


def test_a_count_is_kept_as_the_int_it_was_checked_to_be():
    config = SolverConfig(max_iter=3.0)
    assert type(config.max_iter) is int and config.max_iter == 3
    # a 3-component solve on an operator assembled from components = 3.0
    op = assemble(OperatorSpec(components=3.0), Grid1D(1.0, 11.0))
    assert type(op.spec.components) is int and type(op.grid.n) is int
    rep = resolvent_iterate(op, SingleValued(lambda x, u, p: 0.5 - u,
                                             components=3),
                            Box([0.0] * 3, [1.0] * 3), None)
    assert rep.status == "converged"
    U = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(semigroup_powers(_neumann_op(11), 1.0, 2.0, U),
                          semigroup_powers(_neumann_op(11), 1.0, 2, U))
    assert type(Simplex(1.0, 3.0).dim) is int
    assert type(FilippovHull(_identity, 0.1, sample_count=8.0)
                .sample_count) is int
    cert = miranda_check(lambda X: -X, _SQUARE, resolution=9.0)
    assert cert.holds and type(cert.resolution) is int
    assert np.array_equal(brute_force_zero(_identity, _SQUARE, 5.0),
                          brute_force_zero(_identity, _SQUARE, 5))


def test_truncation_linear_decay_gives_zero():
    op = _dirichlet_op()
    field = SingleValued(lambda x, u, p: -u)
    rep = truncation_iterate(op, field, alpha=-1.0, beta=1.0)
    assert rep.status == "converged"
    assert rep.method == "truncation"
    assert np.max(np.abs(rep.u_star)) <= 1e-9


def test_truncation_agrees_with_resolvent_on_the_bvp():
    op = _dirichlet_op(201)
    trunc = truncation_iterate(op, _bvp_field(), alpha=-1.0, beta=1.0)
    resolv = resolvent_iterate(op, _bvp_field(), Box([-1.0], [1.0]),
                               np.zeros(201))
    assert trunc.status == "converged"
    assert resolv.status == "converged"
    assert np.max(np.abs(trunc.u_star - resolv.u_star)) <= 1e-6
    xs = op.grid.nodes
    assert np.max(np.abs(trunc.u_star - _bvp_solution(xs))) <= 1e-3


def test_truncation_with_too_tight_ceiling_fails_localization():
    # the analytic solution peaks at about 0.113, so beta = 0.05 lies
    # below it and the a-posteriori containment check must trip
    op = _dirichlet_op()
    rep = truncation_iterate(op, _bvp_field(), alpha=-1.0, beta=0.05)
    assert rep.status in ("localization_failed", "tangency_failure")
    if rep.status == "localization_failed":
        assert rep.failure is not None
        assert rep.constraint_violation > 1e-3


def test_truncation_reports_a_solution_that_escapes_its_bounds():
    # the residual tolerance lets the second sweep converge; the walls
    # hold u = 0, below the floor 0.2, so the containment check trips
    op = _dirichlet_op(21)
    field = make_nonlinearity("linear", {"a": 0.5, "b": -1.0})
    rep = truncation_iterate(op, field, alpha=0.2, beta=1.0,
                             config=SolverConfig(tol_residual=10.0))
    assert rep.status == "localization_failed"
    assert rep.iterations == 2
    assert rep.constraint_violation == 0.2
    assert rep.failure == {"node": 0, "x": 0.0, "u": [0.0],
                           "reason": "solution escapes the bounds"}


def test_truncation_requires_dirichlet_walls():
    from tangenteq import InvalidSpec

    with pytest.raises(InvalidSpec):
        truncation_iterate(_neumann_op(), _bvp_field(), alpha=-1.0, beta=1.0)


def test_viability_relaxation_stays_inside_and_settles():
    op = _neumann_op()
    rep = viability_simulate(op, _relaxing_field(), UNIT_BOX,
                             np.zeros(101), t_end=20.0, h=0.05)
    assert rep.status == "completed"
    assert rep.steps == 400
    assert rep.max_constraint_distance <= 1e-8
    assert np.max(np.abs(rep.terminal_state - 0.5)) <= 1e-4


def test_viability_from_the_upper_face_decays_inward():
    op = _neumann_op()
    rep = viability_simulate(op, _relaxing_field(), UNIT_BOX,
                             np.ones(101), t_end=20.0, h=0.05)
    assert rep.status == "completed"
    assert rep.max_constraint_distance <= 1e-8
    assert np.max(np.abs(rep.terminal_state - 0.5)) <= 1e-4


def test_viability_positive_field_fails_at_upper_face():
    field = SingleValued(lambda x, u, p: np.ones_like(u))
    rep = viability_simulate(_neumann_op(), field, UNIT_BOX, np.ones(101),
                             t_end=1.0, h=0.05)
    assert rep.status == "tangency_failure"
    assert rep.failure is not None


def test_viability_reports_the_steps_it_took():
    # the first step out of the upper face fails: no step is taken
    field = SingleValued(lambda x, u, p: np.ones_like(u))
    rep = viability_simulate(_neumann_op(), field, UNIT_BOX, np.ones(101),
                             t_end=1.0, h=0.05)
    assert rep.status == "tangency_failure"
    assert rep.steps == 0
    # from the middle of the box the state reaches the face after a while
    rep = viability_simulate(_neumann_op(), field, UNIT_BOX,
                             np.full(101, 0.5), t_end=1.0, h=0.05)
    assert rep.status == "tangency_failure"
    assert 0 < rep.steps < 20
    assert rep.to_dict()["steps"] == rep.steps


def test_viability_terminal_state_matches_equilibrium():
    op = _neumann_op()
    traj = viability_simulate(op, _relaxing_field(), UNIT_BOX,
                              np.zeros(101), t_end=25.0, h=0.05)
    eq = resolvent_iterate(op, _relaxing_field(), UNIT_BOX, np.zeros(101))
    assert np.max(np.abs(traj.terminal_state - eq.u_star)) <= 1e-6


def test_viability_rejects_bad_horizon():
    with pytest.raises(ValueError):
        viability_simulate(_neumann_op(), _relaxing_field(), UNIT_BOX,
                           np.zeros(101), t_end=0.0, h=0.05)
    with pytest.raises(ValueError):
        viability_simulate(_neumann_op(), _relaxing_field(), UNIT_BOX,
                           np.zeros(101), t_end=1.0, h=-0.1)


def test_residual_constant_field_at_zero_state():
    op = _neumann_op()
    eq, tang = residual(op, _relaxing_field(), UNIT_BOX, np.zeros(101))
    # Au = 0 and the admissible value is 0.5 everywhere, so the grid norm
    # of the defect over [0,1] is exactly 0.5
    assert eq == pytest.approx(0.5, abs=1e-12)
    assert tang == 0.0


def test_residual_vanishes_on_the_exact_discrete_solution():
    n = 101
    shifted = assemble(OperatorSpec(bc="dirichlet", shift=1.0),
                       Grid1D(1.0, n))
    u = shifted.solve_stationary(np.full(n, -1.0))
    op = _dirichlet_op(n)
    eq, tang = residual(op, _bvp_field(), Box([-1.0], [1.0]), u)
    assert eq <= 1e-10
    assert tang <= 1e-12


def test_residual_interior_state_has_zero_tangency():
    op = _neumann_op()
    field = SingleValued(lambda x, u, p: 7.0 + u)
    eq, tang = residual(op, field, UNIT_BOX, np.full(101, 0.4))
    assert tang == 0.0
    assert eq > 1.0


def test_residual_raises_when_no_admissible_value_exists():
    field = SingleValued(lambda x, u, p: np.full_like(u, -2.0))
    with pytest.raises(EmptyIntersection):
        residual(_neumann_op(), field, UNIT_BOX, np.zeros(101))
