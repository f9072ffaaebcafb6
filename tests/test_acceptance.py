"""Acceptance criteria, one test per criterion.

Each test prints a single ``[PASS] criterion N: ...`` line with the key
measured numbers (run ``pytest tests/test_acceptance.py -v -s`` to see
them).  Tolerances and runtime budgets are asserted, not advisory.
"""

import functools
import json
import os
import time

import numpy as np
import pytest
import scipy.linalg as sla

from tangenteq import (Box, Cube, Grid1D, MovingBox, OperatorSpec,
                       SingleValued, assemble, bolzano_bisect,
                       brute_force_zero, invariance_audit, miranda_solve,
                       numeric_tangent_quotient, residual, resolvent_iterate,
                       semigroup_powers, truncation_iterate, verify_bernstein,
                       verify_subsuper, verify_tangency)
from tangenteq.cli import run_cli

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _pass(number, message):
    print("\n[PASS] criterion %d: %s" % (number, message))


def _analytic_bvp(xs):
    return 1.0 - np.cosh(xs - 0.5) / np.cosh(0.5)


@functools.lru_cache(maxsize=None)
def _bvp_run(n):
    """Pinned-boundary run of -u'' = 1 - u inside a wide box."""
    grid = Grid1D(1.0, n)
    op = assemble(OperatorSpec(bc="dirichlet"), grid)
    field = SingleValued(lambda x, u, p: 1.0 - u)
    rep = resolvent_iterate(op, field, Box([-1.0], [1.0]), np.zeros(n))
    return grid, op, field, rep


@functools.lru_cache(maxsize=None)
def _constant_runs():
    """No-flux relaxation 0.5 - u on [0, 1] from three starts."""
    grid = Grid1D(1.0, 101)
    op = assemble(OperatorSpec(bc="neumann"), grid)
    field = SingleValued(lambda x, u, p: 0.5 - u)
    C = Box([0.0], [1.0])
    starts = (np.zeros(grid.n), np.ones(grid.n),
              np.random.default_rng(5).random(grid.n))
    return grid, op, field, C, tuple(resolvent_iterate(op, field, C, u0)
                                     for u0 in starts)


def test_criterion_1_resolvent_invariance():
    start = time.monotonic()
    box = Box([0.0, 0.0], [1.0, 1.0])
    h_list = [1e-3, 1e-2, 1e-1]
    worst = 0.0
    cases = 0
    for bc in ("neumann", "periodic"):
        grid = Grid1D(1.0, 201, periodic=(bc == "periodic"))
        for d in (1.0, lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x)):
            for gamma in (0.0, 0.5):
                op = assemble(OperatorSpec(d=d, gamma=gamma, bc=bc,
                                           components=2), grid)
                rep = invariance_audit(op, box, h_list=h_list)
                assert rep.passed, (bc, gamma)
                worst = max(worst, rep.worst_overshoot)
                cases += 1
    assert cases == 8
    assert worst <= 1e-10

    # pinned walls force zero there, which a box containing zero absorbs
    dgrid = Grid1D(1.0, 201)
    dop = assemble(OperatorSpec(bc="dirichlet", components=2), dgrid)
    ok = invariance_audit(dop, box, h_list=h_list)
    assert ok.passed and ok.worst_overshoot <= 1e-10
    bad = invariance_audit(dop, Box([0.5, 0.5], [1.0, 1.0]), h_list=h_list)
    assert not bad.passed
    assert bad.witness is not None
    assert bad.witness["overshoot"] >= 0.5 - 1e-12

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _pass(1, "8/8 audits hold (worst overshoot %.1e), pinned-wall box "
             "counterexample witnessed, %.1fs" % (worst, elapsed))


def test_criterion_2_analytic_bvp():
    start = time.monotonic()
    sizes = (26, 51, 101, 201)
    errors = {}
    for n in sizes:
        grid, _, _, rep = _bvp_run(n)
        assert rep.status == "converged"
        exact = _analytic_bvp(grid.nodes)
        errors[n] = float(np.max(np.abs(rep.u_star - exact)))
        # the solution's fourth derivative peaks at exactly 1, so the
        # second-order scheme stays under 4/n^2 with a wide margin
        assert errors[n] <= 4.0 / n ** 2, n
    order = -np.polyfit(np.log(sizes), np.log([errors[n] for n in sizes]), 1)[0]
    assert order >= 1.9

    grid, _, _, rep = _bvp_run(201)
    midpoint = float(rep.u_star[100])
    assert abs(midpoint - 0.113181) <= 1e-3

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _pass(2, "errors %s, order %.2f, midpoint %.6f, %.2fs"
             % (["%.1e" % errors[n] for n in sizes], order, midpoint, elapsed))


def test_criterion_3_constant_steady_states():
    start = time.monotonic()
    _, op, field, C, reports = _constant_runs()
    worst_eq = 0.0
    for rep in reports:
        assert rep.status == "converged"
        assert rep.iterations <= 500
        assert np.max(np.abs(rep.u_star - 0.5)) <= 1e-8
        eq, tang = residual(op, field, C, rep.u_star)
        assert eq <= 1e-8
        worst_eq = max(worst_eq, eq)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _pass(3, "three starts land on u = 0.5 (worst equation residual %.1e), "
             "%.2fs" % (worst_eq, elapsed))


def test_criterion_4_residual_bound_at_checkpoints():
    runs = [_bvp_run(n)[3] for n in (26, 51, 101, 201)]
    runs += list(_constant_runs()[4])
    checked = 0
    for rep in runs:
        assert rep.bound_checks, "a converged run must checkpoint"
        for entry in rep.bound_checks:
            assert entry["residual_norm"] <= entry["distance_bound"] + 1e-8
            checked += 1
    _pass(4, "%d checkpoints across %d runs satisfy the distance bound"
             % (checked, len(runs)))


def test_criterion_5_resolvent_powers_versus_exponential():
    start = time.monotonic()
    n, t = 31, 0.1
    grid = Grid1D(1.0, n)
    op = assemble(OperatorSpec(bc="neumann"), grid)
    dense = np.zeros((n, n))
    for j in range(n):
        e = np.zeros((n, 1))
        e[j] = 1.0
        dense[:, j] = op.apply(e)[:, 0]
    u0 = np.sin(np.pi * grid.nodes)[:, None]
    exact = sla.expm(t * dense) @ u0
    err = {m: float(np.max(np.abs(semigroup_powers(op, t, m, u0) - exact)))
           for m in (8, 16, 32, 64, 128)}
    ratios = {m: err[m] / err[2 * m] for m in (8, 16, 32, 64)}
    for m, ratio in ratios.items():
        assert 1.7 <= ratio <= 2.3, (m, ratio)

    # single interior node with pinned walls: one power is the geometric
    # sequence (1 + 0.8/10)^-10, the flow is e^-0.8
    sop = assemble(OperatorSpec(bc="dirichlet"), Grid1D(1.0, 3))
    val = float(semigroup_powers(sop, 0.1, 10, np.array([0.0, 1.0, 0.0]))[1])
    assert val == pytest.approx((1.0 + 0.8 / 10.0) ** -10, rel=1e-12)
    assert val == pytest.approx(0.46319, abs=5e-6)
    assert np.exp(-0.8) == pytest.approx(0.44933, abs=5e-6)

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _pass(5, "halving ratios %s, scalar anchors %.5f vs %.5f, %.2fs"
             % (["%.2f" % ratios[m] for m in (8, 16, 32, 64)],
                val, np.exp(-0.8), elapsed))


def test_criterion_6_miranda_against_brute_force():
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    worst_cells = 0.0
    count = 0
    for dim, grid_pts in ((2, 201), (3, 101)):
        cube = Cube(-np.ones(dim), np.ones(dim))
        cell = 2.0 / (grid_pts - 1)
        for k in range(10):
            if k < 6:
                # diagonally dominant affine pull toward an interior zero
                D = np.diag(rng.uniform(0.5, 1.5, dim))
                S = rng.uniform(-0.1, 0.1, (dim, dim))
                np.fill_diagonal(S, 0.0)
                b = rng.uniform(-0.1, 0.1, dim)
                M = -(D + S)

                def f(x, M=M, b=b):
                    return np.asarray(x, dtype=float) @ M.T + b
            else:
                # mild cyclic warp on top of the same pull
                b = rng.uniform(-0.2, 0.2, dim)

                def f(x, b=b, dim=dim):
                    x = np.asarray(x, dtype=float)
                    roll = x[..., (np.arange(dim) + 1) % dim]
                    return -x + 0.25 * np.sin(roll) + b

            res = miranda_solve(f, cube)
            assert res.status == "converged"
            z = brute_force_zero(f, cube, grid_pts)
            gap = float(np.max(np.abs(res.point - z))) / cell
            assert gap <= 2.0, (dim, k, gap)
            worst_cells = max(worst_cells, gap)
            count += 1
    assert count == 20

    # 1-D: certified subdivision degenerates to plain bisection
    rng = np.random.default_rng(77)
    made, worst_1d = 0, 0.0
    while made < 100:
        c = rng.uniform(-2.0, 2.0, 4)

        def poly(x, c=c):
            return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]

        ys = poly(np.linspace(-1.0, 1.0, 401))
        if np.count_nonzero(np.sign(ys[:-1]) * np.sign(ys[1:]) < 0) != 1:
            continue
        f1 = poly if poly(-1.0) > 0 else (lambda x, c=c: -poly(x, c))
        root = bolzano_bisect(f1, -1.0, 1.0, tol=1e-12)
        res = miranda_solve(f1, Cube([-1.0], [1.0]), tol=1e-12)
        worst_1d = max(worst_1d, abs(root - float(res.point[0])))
        made += 1
    assert worst_1d <= 1e-10

    elapsed = time.monotonic() - start
    assert elapsed < 15.0
    _pass(6, "20 maps within %.2f oracle cells, 100 cubics within %.1e of "
             "bisection, %.1fs" % (worst_cells, worst_1d, elapsed))


def test_criterion_7_tangency_gatekeeping(tmp_path, capsys):
    cfg = tmp_path / "outward.cfg"
    cfg.write_text("[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
                   "name = constant\nlo = 1.0\nhi = 1.0\n")
    code = run_cli(["solve", str(cfg), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 2
    with open(tmp_path / "report.json", "r", encoding="utf-8") as fh:
        rep = json.load(fh)
    assert rep["status"] == "gate_failed"
    items = {i["name"]: i for i in rep["condition_reports"]["items"]}
    bad = items["face[0].high"]
    assert not bad["passed"]
    assert bad["witness"]["u"] == [1.0]

    # the forced run trips the same wall inside the iteration
    forced = tmp_path / "forced"
    code = run_cli(["solve", str(cfg), "--out", str(forced), "--force"])
    capsys.readouterr()
    assert code == 3
    with open(forced / "report.json", "r", encoding="utf-8") as fh:
        frep = json.load(fh)
    assert frep["status"] == "tangency_failure"
    assert frep["failure"]["u"][0] == pytest.approx(1.0, abs=1e-9)

    grow = verify_bernstein(lambda x, u, p: u, R=2.0, a=0.0, b=3.0, c=1.0,
                            samples=2000, seed=7)
    sign = {i.name: i for i in grow.items}["sign_outside_ball"]
    assert not sign.passed
    assert sign.witness["violation"] > 0.0
    _pass(7, "outward push blocked at the gate and witnessed under --force; "
             "outward growth field carries violation %.2f"
             % sign.witness["violation"])


def test_criterion_8_cone_rule_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(4242)
    trials = 0
    while trials < 10000:
        dim = int(rng.integers(1, 7))
        lo = rng.uniform(-2.0, 0.0, dim)
        hi = lo + rng.uniform(0.5, 2.0, dim)
        box = Box(lo, hi)
        x = lo + rng.uniform(0.3, 0.7, dim) * (hi - lo)
        pinned = rng.random(dim) < 0.6
        if not np.any(pinned):
            pinned[int(rng.integers(dim))] = True
        side = rng.random(dim) < 0.5
        x[pinned & side] = lo[pinned & side]
        x[pinned & ~side] = hi[pinned & ~side]
        v = rng.uniform(-1.0, 1.0, dim)
        rule = box.tangent_cone_contains(x, v)
        quotient = numeric_tangent_quotient(box, x, v, 1e-6)
        assert rule.contains == (quotient <= 1e-6), (x, v)
        trials += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _pass(8, "10000 boundary point/direction pairs agree on membership, "
             "%.1fs" % elapsed)


def test_criterion_9_moving_rectangles_end_to_end():
    start = time.monotonic()
    n = 201
    grid = Grid1D(1.0, n)
    op = assemble(OperatorSpec(bc="dirichlet"), grid)
    field = SingleValued(lambda x, u, p: 1.0 - u)
    alpha = -np.ones((n, 1))
    beta = np.ones((n, 1))

    res = resolvent_iterate(op, field, MovingBox(alpha, beta), np.zeros(n))
    trunc = truncation_iterate(op, field, alpha, beta, u0=np.zeros(n))
    assert res.status == "converged" and trunc.status == "converged"
    mutual = float(np.max(np.abs(res.u_star - trunc.u_star)))
    assert mutual <= 1e-6
    exact = _analytic_bvp(grid.nodes)
    assert np.max(np.abs(res.u_star - exact)) <= 1e-5
    assert np.max(np.abs(trunc.u_star - exact)) <= 1e-5

    assert verify_subsuper(alpha, beta, grid).passed
    assert verify_tangency(field, MovingBox(alpha, beta), grid,
                           samples=2000, seed=9).passed

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _pass(9, "both iterations agree to %.1e and match the closed form; "
             "shape and cone checks pass, %.2fs" % (mutual, elapsed))


def test_criterion_10_byte_determinism(tmp_path, capsys):
    jobs = [
        ("solve", os.path.join(CONFIG_DIR, "neumann_logistic.cfg")),
        ("miranda", os.path.join(CONFIG_DIR, "affine.cfg")),
        ("check-invariance", os.path.join(CONFIG_DIR, "dirichlet_box.cfg")),
    ]
    for idx, (command, config) in enumerate(jobs):
        first = tmp_path / ("%d_a" % idx)
        second = tmp_path / ("%d_b" % idx)
        code1 = run_cli([command, config, "--out", str(first)])
        code2 = run_cli([command, config, "--out", str(second)])
        capsys.readouterr()
        assert code1 == code2
        a = (first / "report.json").read_bytes()
        b = (second / "report.json").read_bytes()
        assert a == b, command
    _pass(10, "repeated solve, zero search, and audit reports are "
              "byte-identical")
