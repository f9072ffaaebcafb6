"""Banded drift-diffusion operators: assembly, resolvents, form, audits."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tangenteq
from tangenteq import operators
from tangenteq import (Grid1D, OperatorSpec, DiscreteOperator, assemble,
                       semigroup_powers, invariance_audit, Ball, Box,
                       CertificateFailed, InvalidSpec, MovingBox,
                       SingularSystem)


def _dense_matrix(op):
    n = op.grid.n
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(op.apply(e))
    return np.stack(cols, axis=1)


def _single_node_op(h_shift=None):
    grid = Grid1D(1.0, 3)
    return assemble(OperatorSpec(bc="dirichlet", shift=h_shift), grid)


@pytest.mark.parametrize("periodic", [False, True])
def test_grid_nodes_are_built_once_and_read_only(periodic):
    grid = Grid1D(1.0, 11, periodic=periodic)
    assert grid.nodes is grid.nodes
    assert not grid.nodes.flags.writeable
    with pytest.raises(ValueError):
        grid.nodes[0] = 1.0


def test_neumann_annihilates_constants():
    op = assemble(OperatorSpec(bc="neumann"), Grid1D(1.0, 41))
    assert np.max(np.abs(op.apply(np.full(41, 3.7)))) == 0.0


def test_dirichlet_single_interior_node_by_hand():
    # dx = 1/2, so the middle row reads (0 - 2 + 0) / 0.25 = -8
    op = _single_node_op()
    out = op.apply(np.array([0.0, 1.0, 0.0]))
    assert out[1] == pytest.approx(-8.0, abs=1e-13)
    assert out[0] == 0.0 and out[2] == 0.0


def test_periodic_sine_is_near_eigenfunction():
    errs = []
    for n in (64, 128):
        grid = Grid1D(1.0, n, periodic=True)
        op = assemble(OperatorSpec(bc="periodic"), grid)
        u = np.sin(2.0 * np.pi * grid.nodes)
        errs.append(np.max(np.abs(op.apply(u) + (2.0 * np.pi) ** 2 * u)))
    assert errs[1] <= errs[0] / 3.5  # second order in dx


def _rolled_stencil(op, U):
    """The periodic ``A U`` and gradient written with ``np.roll``, in the
    stencil's operand order: the reference for the sliced kernels."""
    flat = U.reshape(op.grid.n, -1)
    up, dn = np.roll(flat, 1, axis=0), np.roll(flat, -1, axis=0)
    AU = op.sub[:, None] * up + op.diag[:, None] * flat + op.sup[:, None] * dn
    grad = (dn - up) / (2 * op.grid.dx)
    return AU.reshape(U.shape), grad.reshape(U.shape)


@pytest.mark.parametrize("n", [3, 4, 101])
@pytest.mark.parametrize("N", [1, 3])
def test_periodic_stencil_matches_the_rolled_reference(n, N):
    op = _varying_op("periodic", n)
    U = np.random.default_rng(n + N).standard_normal((n, N))
    for V in [U, U[:, 0]] if N == 1 else [U]:
        AU, grad = _rolled_stencil(op, V)
        assert np.array_equal(op.apply(V), AU)
        assert np.array_equal(op.gradient(V), grad)


def test_gradient_conventions():
    grid = Grid1D(1.0, 21)
    ramp = grid.nodes.copy()
    opn = assemble(OperatorSpec(bc="neumann"), grid)
    gn = opn.gradient(ramp)
    assert np.allclose(gn[1:-1], 1.0, atol=1e-12)
    assert gn[0] == 0.0 and gn[-1] == 0.0
    opd = assemble(OperatorSpec(bc="dirichlet"), grid)
    assert np.allclose(opd.gradient(ramp), 1.0, atol=1e-12)
    gridp = Grid1D(1.0, 64, periodic=True)
    opp = assemble(OperatorSpec(bc="periodic"), gridp)
    u = np.sin(2.0 * np.pi * gridp.nodes)
    du = opp.gradient(u)
    ref = 2.0 * np.pi * np.cos(2.0 * np.pi * gridp.nodes)
    assert np.max(np.abs(du - ref)) <= 0.05


def test_resolvent_fixes_constants_under_neumann():
    op = assemble(OperatorSpec(bc="neumann"), Grid1D(1.0, 31))
    for h in (1e-3, 1e-1, 1.0, 10.0):
        u = op.resolvent(h, np.full(31, -2.5))
        assert np.max(np.abs(u + 2.5)) <= 1e-12


def test_resolvent_single_node_arithmetic():
    op = _single_node_op()
    u = op.resolvent(0.125, np.ones(3))
    assert u[1] == pytest.approx(0.5, abs=1e-14)
    assert u[0] == 0.0 and u[2] == 0.0


def _varying_op(bc, n):
    spec = OperatorSpec(d=lambda x: 1.0 + 0.4 * np.sin(2 * np.pi * x),
                        gamma=0.3, bc=bc, shift=0.0)
    return assemble(spec, Grid1D(1.0, n, periodic=bc == "periodic"))


def _dense_solve(op, a0, c, F):
    """``(a0 I - c A) u = F`` by dense LU on the equation rows."""
    rows = op.equation_mask()
    M = a0 * np.eye(op.grid.n) - c * _dense_matrix(op)
    out = np.zeros_like(F)
    out[rows] = sla.solve(M[np.ix_(rows, rows)], F[rows])
    return out


WALLS = ["neumann", "dirichlet", "periodic"]
# Dirichlet grids of 3 and 4 nodes leave 1 and 2 unknowns; n = 31 keeps
# the plain wall-type ids
SOLVE_CASES = [pytest.param(bc, n, id=bc if n == 31 else "%s-n%d" % (bc, n))
               for bc in WALLS for n in (31, 3, 4)]


@pytest.mark.parametrize("bc,n", SOLVE_CASES)
def test_resolvent_matches_dense_lu(bc, n):
    """Tridiagonal kernel (plus the periodic corner trick) against a dense
    LU solve of the same system, for one and for three stacked columns."""
    op = _varying_op(bc, n)
    rng = np.random.default_rng(6)
    for h in (1e-3, 0.05, 0.7):
        F = rng.uniform(-1.0, 1.0, (n, 3))
        ref = _dense_solve(op, 1.0, h, F)
        assert np.max(np.abs(op.resolvent(h, F) - ref)) <= 1e-12
        assert np.max(np.abs(op.resolvent(h, F[:, 0]) - ref[:, 0])) <= 1e-12


@pytest.mark.parametrize("n", [31, 3, 4])
def test_stationary_solve_matches_dense_lu(n):
    op = _varying_op("dirichlet", n)
    F = np.random.default_rng(8).uniform(-1.0, 1.0, (n, 3))
    ref = _dense_solve(op, 0.0, -1.0, F)
    assert np.max(np.abs(op.solve_stationary(F) - ref)) <= 1e-12
    assert np.max(np.abs(op.solve_stationary(F[:, 1]) - ref[:, 1])) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("bc", WALLS)
def test_nonfinite_right_hand_side_raises(bc, bad):
    op = _varying_op(bc, 31)
    F = np.ones(31)
    F[7] = bad
    with pytest.raises(SingularSystem):
        op.resolvent(0.1, F)
    if bc == "dirichlet":
        with pytest.raises(SingularSystem):
            op.solve_stationary(F)


@pytest.mark.parametrize("bc", WALLS)
def test_residual_guard_rejects_a_perturbed_solve(bc, monkeypatch):
    exact = operators.dgttrs

    def perturbed(*args):
        x, info = exact(*args)
        return x + 1e-6, info

    monkeypatch.setattr(operators, "dgttrs", perturbed)
    op = _varying_op(bc, 31)
    with pytest.raises(SingularSystem, match="resolvent residual"):
        op.resolvent(0.1, np.ones(31))
    if bc == "dirichlet":
        with pytest.raises(SingularSystem, match="stationary residual"):
            op.solve_stationary(np.ones(31))


def _solves_on_every_wall():
    """Resolvent and stationary solves on freshly factored systems, over
    stacked right-hand sides, as bytes."""
    rng = np.random.default_rng(3)
    out = []
    for bc, n in [(bc, 31) for bc in WALLS] + [("dirichlet", 3)]:
        op = _varying_op(bc, n)
        F = rng.standard_normal((n, 2))
        out.append(op.resolvent(0.1, F).tobytes())
        if bc == "dirichlet":
            out.append(op.solve_stationary(F).tobytes())
    return out


@pytest.mark.parametrize("failure", ["missing", "not_an_extension"])
def test_scipy_linalg_lapack_fallback_gives_the_same_bytes(
        failure, tmp_path, monkeypatch):
    direct = _solves_on_every_wall()
    assert operators._lapack().__name__ == "scipy.linalg._flapack"

    def missing():
        raise ImportError("no _flapack")

    junk = tmp_path / "_flapack.so"
    junk.write_text("not a shared object")
    monkeypatch.setattr(operators, "_flapack_file",
                        missing if failure == "missing" else lambda: junk)
    operators._lapack.cache_clear()
    try:
        assert operators._lapack() is sla.lapack
        assert _solves_on_every_wall() == direct
    finally:
        operators._lapack.cache_clear()


def test_zero_column_right_hand_sides_solve_to_empty_arrays():
    # run in a child process: a heap corruption kills the process, which
    # then fails this test instead of ending the whole test run
    script = textwrap.dedent("""
        import numpy as np
        from tangenteq import Grid1D, OperatorSpec, assemble
        for bc in ("neumann", "dirichlet", "periodic"):
            for n in (101, 4):
                grid = Grid1D(1.0, n, periodic=bc == "periodic")
                op = assemble(OperatorSpec(bc=bc), grid)
                for h in (0.25, 0.5) * 10:
                    assert op.resolvent(h, np.zeros((n, 0))).shape == (n, 0)
                if bc == "dirichlet":
                    assert op.solve_stationary(
                        np.zeros((n, 0))).shape == (n, 0)
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(tangenteq.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_resolvent_stacked_components_match_separate_solves():
    grid = Grid1D(1.0, 25)
    op = assemble(OperatorSpec(bc="neumann", gamma=0.2), grid)
    rng = np.random.default_rng(12)
    F = rng.uniform(-1.0, 1.0, (25, 3))
    joint = op.resolvent(0.1, F)
    for k in range(3):
        assert np.array_equal(joint[:, k], op.resolvent(0.1, F[:, k]))


def test_resolvent_linearity():
    grid = Grid1D(2.0, 41, periodic=True)
    op = assemble(OperatorSpec(bc="periodic", gamma=0.5), grid)
    rng = np.random.default_rng(2)
    f, g = rng.uniform(-1, 1, 41), rng.uniform(-1, 1, 41)
    lhs = op.resolvent(0.2, 1.3 * f - 0.7 * g)
    rhs = 1.3 * op.resolvent(0.2, f) - 0.7 * op.resolvent(0.2, g)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_resolvent_tends_to_identity():
    """log-log slope of ||J_h f - f|| against h should be close to 1."""
    grid = Grid1D(1.0, 101)
    op = assemble(OperatorSpec(bc="neumann"), grid)
    f = np.cos(np.pi * grid.nodes)
    hs = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    errs = np.array([np.max(np.abs(op.resolvent(h, f) - f)) for h in hs])
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 0.9


def test_step_guard_and_singular_system():
    op = _single_node_op(h_shift=4.0)
    op.resolvent(0.2, np.ones(3))  # h*shift = 0.8 < 1 passes
    with pytest.raises(SingularSystem):
        op.resolvent(0.3, np.ones(3))
    with pytest.raises(InvalidSpec):
        op.resolvent(-0.1, np.ones(3))


def test_negative_shift_never_trips_the_guard():
    # shifting the spectrum down is always safe, whatever the step
    op = _single_node_op(h_shift=-3.0)
    u = op.resolvent(5.0, np.ones(3))
    assert np.isfinite(u).all()


def test_assembly_rejects_bad_specs():
    with pytest.raises(InvalidSpec):
        assemble(OperatorSpec(d=-1.0, bc="neumann"), Grid1D(1.0, 11))
    with pytest.raises(InvalidSpec):
        assemble(OperatorSpec(d=0.0, bc="neumann"), Grid1D(1.0, 11))
    with pytest.raises(InvalidSpec):
        Grid1D(1.0, 2)
    with pytest.raises(InvalidSpec):
        Grid1D(-1.0, 11)
    with pytest.raises(InvalidSpec):
        assemble(OperatorSpec(bc="banded"), Grid1D(1.0, 11))
    with pytest.raises(InvalidSpec):
        assemble(OperatorSpec(bc="periodic"), Grid1D(1.0, 11))
    with pytest.raises(InvalidSpec):
        assemble(OperatorSpec(bc="neumann"), Grid1D(1.0, 11, periodic=True))
    with pytest.raises(InvalidSpec):
        assemble(OperatorSpec(bc="neumann", components=0), Grid1D(1.0, 11))
    with pytest.raises(InvalidSpec):
        assemble(OperatorSpec(d=np.ones(11), bc="neumann"), Grid1D(1.0, 11))


def test_count_arguments_must_be_integral():
    # a fractional count names its argument where it enters, instead of
    # truncating (10.7 nodes) or failing later on a mismatched dimension
    with pytest.raises(InvalidSpec, match="n must be an integer of at least 3, got 10.7"):
        Grid1D(1.0, 10.7)
    with pytest.raises(InvalidSpec, match="components must be an integer"):
        assemble(OperatorSpec(components=2.5), Grid1D(1.0, 11))
    with pytest.raises(InvalidSpec, match="components must be an integer"):
        assemble(OperatorSpec(components=float("nan")), Grid1D(1.0, 11))
    # integral floats stay accepted
    assert Grid1D(1.0, 11.0).n == 11
    assert assemble(OperatorSpec(components=3.0), Grid1D(1.0, 11)).grid.n == 11


def test_drift_step_bound_warns():
    spec = OperatorSpec(d=0.01, gamma=1.0, bc="neumann")
    with pytest.warns(UserWarning):
        assemble(spec, Grid1D(1.0, 11))


def test_grid_weights_and_norm():
    g = Grid1D(2.0, 21)
    assert g.weights().sum() == pytest.approx(2.0, abs=1e-14)
    gp = Grid1D(2.0, 20, periodic=True)
    assert gp.weights().sum() == pytest.approx(2.0, abs=1e-14)
    # |sin| over one period: integral of sin^2 is 1/2 the length
    u = np.sin(2.0 * np.pi * gp.nodes / 2.0)
    assert gp.norm(u) == pytest.approx(1.0, abs=1e-12)
    mask = np.zeros(21, dtype=bool)
    assert g.norm(np.ones(21), mask) == 0.0


def test_grid_weights_are_built_once_and_handed_out_as_copies():
    g = Grid1D(2.0, 21)
    g.weights()[:] = 0.0
    assert g.weights().sum() == pytest.approx(2.0, abs=1e-14)
    assert g.norm(np.ones(21)) == pytest.approx(np.sqrt(2.0), abs=1e-14)


@pytest.mark.parametrize("bc", WALLS)
def test_equation_mask_marks_the_equation_rows(bc):
    op = _varying_op(bc, 7)
    mask = op.equation_mask()
    assert mask.tolist() == [bc != "dirichlet"] + [True] * 5 \
        + [bc != "dirichlet"]
    mask[:] = False
    assert op.equation_mask()[3]


def _midpoint_gradients(op, U):
    """Cell-midpoint differences ``u'`` of the grid function ``U``, with
    the wrap-around cell on periodic grids."""
    U = np.asarray(U, dtype=float).reshape(op.grid.n, -1)
    if op.grid.periodic:
        return (np.roll(U, -1, axis=0) - U) / op.grid.dx
    return np.diff(U, axis=0) / op.grid.dx


def quadratic_form(spec, grid, U, V):
    """Discrete drift-diffusion form  sum_cells dx * (d u' v' + gamma u' vbar).

    ``spec`` may be an OperatorSpec (assembled on ``grid``) or an already
    assembled operator.  Gradients live on cell midpoints, the drift
    factor pairs them with the midpoint average of v, and the diffusion
    part matches -<A u, u> under trapezoid weights exactly (for gamma = 0,
    no shift).  The operator's diagonal shift is deliberately not part of
    the form.
    """
    op = spec if isinstance(spec, DiscreteOperator) else assemble(spec, grid)
    V = np.asarray(V, dtype=float).reshape(op.grid.n, -1)
    g = op.gamma_nodes
    if op.grid.periodic:
        vbar = 0.5 * (np.roll(V, -1, axis=0) + V)
        gmid = 0.5 * (np.roll(g, -1) + g)
    else:
        vbar = 0.5 * (V[1:] + V[:-1])
        gmid = 0.5 * (g[1:] + g[:-1])
    du, dv = _midpoint_gradients(op, U), _midpoint_gradients(op, V)
    diff_part = np.sum(op.d_mid[:, None] * du * dv) * op.grid.dx
    drift_part = np.sum(gmid[:, None] * du * vbar) * op.grid.dx
    return float(diff_part + drift_part)


def gradient_seminorm_sq(op, U):
    """``sum_cells dx |u'|^2`` with midpoint gradients (periodic wraps)."""
    du = _midpoint_gradients(op, U)
    return float(np.sum(du * du) * op.grid.dx)


def test_quadratic_form_on_ramp_and_constants():
    grid = Grid1D(1.0, 51)
    spec = OperatorSpec(bc="neumann")
    ramp = grid.nodes.copy()
    assert quadratic_form(spec, grid, ramp, ramp) == pytest.approx(1.0,
                                                                   abs=1e-13)
    const = np.full(51, 4.2)
    assert quadratic_form(spec, grid, const, const) == 0.0


def test_quadratic_form_symmetry_without_drift():
    grid = Grid1D(1.0, 41)
    spec = OperatorSpec(d=lambda x: 1.0 + x, bc="neumann")
    rng = np.random.default_rng(4)
    u, v = rng.uniform(-1, 1, 41), rng.uniform(-1, 1, 41)
    assert quadratic_form(spec, grid, u, v) == pytest.approx(
        quadratic_form(spec, grid, v, u), rel=1e-12)


def test_quadratic_form_matches_operator_pairing_exactly():
    # gamma = 0, Neumann: summation by parts is exact under trapezoid
    # weights, so the form equals -<Au, u> to roundoff
    grid = Grid1D(1.0, 64)
    spec = OperatorSpec(d=lambda x: 1.5 + np.cos(np.pi * x), bc="neumann")
    op = assemble(spec, grid)
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = rng.uniform(-1.0, 1.0, 64)
        pair = -float(np.sum(grid.weights() * u * op.apply(u)))
        assert quadratic_form(op, grid, u, u) == pytest.approx(pair,
                                                               abs=1e-11)


def test_quadratic_form_pairing_gap_is_second_order_with_drift():
    # constant gamma telescopes exactly, so a varying drift is needed to
    # expose the discretization gap between the form and the pairing
    spec = OperatorSpec(gamma=lambda x: x, bc="neumann", shift=0.0)
    gaps = []
    for n in (51, 101, 201):
        grid = Grid1D(1.0, n)
        op = assemble(spec, grid)
        u = np.cos(np.pi * grid.nodes)
        pair = -float(np.sum(grid.weights() * u * op.apply(u)))
        gaps.append(abs(quadratic_form(spec, grid, u, u) - pair))
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.1)
    assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.1)


def test_quadratic_form_ignores_the_shift():
    grid = Grid1D(1.0, 31)
    u = np.sin(np.pi * grid.nodes)
    a0 = quadratic_form(OperatorSpec(bc="neumann", shift=0.0), grid, u, u)
    a5 = quadratic_form(OperatorSpec(bc="neumann", shift=5.0), grid, u, u)
    assert a0 == pytest.approx(a5, rel=1e-14)


def test_garding_inequality_with_drift():
    """c |u'|^2 <= a(u,u) + C |u|^2 with c = d0/2 and C = |gamma|^2/(2 d0),
    checked on random grid functions.  C is the default shift, and the
    form leaves the shift out."""
    grid = Grid1D(1.0, 101)
    anchor = assemble(OperatorSpec(d=0.8, gamma=1.2, bc="neumann"), grid)
    c, C = 0.5 * anchor.d_floor, anchor.shift
    assert c == pytest.approx(0.4, abs=1e-12)
    assert C == pytest.approx(1.2 ** 2 / 1.6, abs=1e-12)
    spec = OperatorSpec(d=lambda x: 0.8 + 0.3 * x, gamma=1.2, bc="neumann")
    op = assemble(spec, grid)
    c, C = 0.5 * op.d_floor, op.shift
    rng = np.random.default_rng(21)
    for _ in range(200):
        u = rng.uniform(-2.0, 2.0, 101)
        lhs = c * gradient_seminorm_sq(op, u)
        rhs = quadratic_form(op, grid, u, u) + C * grid.norm(u) ** 2
        assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))


def test_semigroup_scalar_anchors():
    """Ten resolvent steps of the single-node operator give the geometric
    value 1.08**-10, a first-order stand-in for exp(-0.8)."""
    op = _single_node_op()
    u0 = np.array([0.0, 1.0, 0.0])
    out = semigroup_powers(op, 0.1, 10, u0)
    geometric = (1.0 + 0.8 / 10.0) ** (-10)
    assert geometric == pytest.approx(0.46319, abs=1e-5)
    assert out[1] == pytest.approx(geometric, abs=1e-13)
    exact = np.exp(-0.8)
    assert exact == pytest.approx(0.44933, abs=1e-5)
    assert abs(out[1] - exact) <= 0.02


def test_semigroup_keeps_neumann_constants():
    op = assemble(OperatorSpec(bc="neumann"), Grid1D(1.0, 21))
    for t, m in ((0.1, 3), (2.0, 17)):
        out = semigroup_powers(op, t, m, np.full(21, 0.7))
        assert np.max(np.abs(out - 0.7)) <= 1e-12


def test_semigroup_error_halves_when_m_doubles():
    grid = Grid1D(1.0, 31)
    op = assemble(OperatorSpec(bc="dirichlet"), grid)
    u0 = np.sin(np.pi * grid.nodes)
    A = _dense_matrix(op)
    ref = sla.expm(0.1 * A) @ u0
    errs = {m: np.max(np.abs(semigroup_powers(op, 0.1, m, u0) - ref)[1:-1])
            for m in (8, 16)}
    assert 1.7 <= errs[8] / errs[16] <= 2.3


def test_semigroup_rejects_bad_parameters():
    op = _single_node_op()
    with pytest.raises(InvalidSpec):
        semigroup_powers(op, -1.0, 4, np.zeros(3))
    with pytest.raises(InvalidSpec):
        semigroup_powers(op, 1.0, 0, np.zeros(3))


def test_stationary_solve_quadratic_is_exact():
    # central differences are exact on quadratics: A u = -1 for
    # u = x(1-x)/2 with Dirichlet walls
    grid = Grid1D(1.0, 41)
    op = assemble(OperatorSpec(bc="dirichlet"), grid)
    u = op.solve_stationary(np.full(41, -1.0))
    ref = 0.5 * grid.nodes * (1.0 - grid.nodes)
    assert np.max(np.abs(u - ref)) <= 1e-12
    opn = assemble(OperatorSpec(bc="neumann"), grid)
    with pytest.raises(InvalidSpec):
        opn.solve_stationary(np.full(41, -1.0))


def test_invariance_audit_neumann_box_passes():
    grid = Grid1D(1.0, 101)
    op = assemble(OperatorSpec(bc="neumann"), grid)
    rep = invariance_audit(op, Box([-0.3], [0.8]), [1e-2, 1e-1, 1.0])
    assert rep.passed
    assert rep.worst_overshoot <= 1e-10
    assert rep.witness is None


def test_invariance_audit_needs_a_step():
    # with no step the audit solves nothing, so a pass would carry no
    # evidence
    op = assemble(OperatorSpec(bc="neumann"), Grid1D(1.0, 11))
    with pytest.raises(InvalidSpec, match="h_list must hold at least one"):
        invariance_audit(op, Box([0.0], [1.0]), [])


def test_invariance_audit_names_a_body_it_cannot_audit():
    # nodewise bounds have no one dimension and no closed-form overshoot
    op = assemble(OperatorSpec(bc="neumann"), Grid1D(1.0, 11))
    with pytest.raises(InvalidSpec, match="^MovingBox of dimension None "
                                          "!= operator components 1$"):
        invariance_audit(op, MovingBox(np.zeros(11), np.ones(11)), [0.1])
    with pytest.raises(InvalidSpec, match="^Box of dimension 2 != "
                                          "operator components 1$"):
        invariance_audit(op, Box([0.0, 0.0], [1.0, 1.0]), [0.1])


def test_invariance_audit_periodic_with_drift_passes():
    # dx = 1/128 stays below the M-matrix bound 2*d0/|gamma| = 2
    grid = Grid1D(1.0, 128, periodic=True)
    op = assemble(OperatorSpec(gamma=0.5, bc="periodic"), grid)
    rep = invariance_audit(op, Box([0.0], [1.0]), [1e-3, 1e-1])
    assert rep.passed


def test_invariance_audit_dirichlet_needs_zero_inside():
    grid = Grid1D(1.0, 51)
    op = assemble(OperatorSpec(bc="dirichlet"), grid)
    ok = invariance_audit(op, Box([-0.5], [1.0]), [0.1])
    assert ok.passed
    bad = invariance_audit(op, Box([0.5], [1.0]), [0.1])
    assert not bad.passed
    assert bad.worst_overshoot >= 0.5 - 1e-12
    assert bad.witness is not None
    assert bad.witness["node"] in (0, 50)


def test_invariance_audit_simplex_two_components():
    grid = Grid1D(1.0, 41)
    op = assemble(OperatorSpec(bc="neumann", components=2), grid)
    from tangenteq import Simplex
    rep = invariance_audit(op, Simplex(1.0, 2), [1e-2, 0.5])
    assert rep.passed


def test_invariance_audit_finds_the_overshoot_of_a_constant_input():
    # a negative shift lifts G.1 above 1 inside the domain: the exact
    # overshoot against the upper face is max(G.1) - 1, which no uniform
    # draw in [-1, 1] comes near
    op = assemble(OperatorSpec(bc="dirichlet", shift=-20.0), Grid1D(1.0, 21))
    rep = invariance_audit(op, Box([-1.0], [1.0]), [0.01])
    s = op.resolvent(0.01, np.ones(21))
    assert not rep.passed
    assert rep.witness["overshoot"] == pytest.approx(0.2203867, abs=1e-7)
    assert rep.witness["overshoot"] == pytest.approx(np.max(s) - 1.0,
                                                     abs=1e-15)
    assert rep.witness["node"] == 10


def test_invariance_audit_judges_a_ball_exactly():
    # the Dirichlet walls map every input to 0: this ball misses 0 by
    # |c| - r = 5e-4, though a 64-gon circumscribing it holds 0
    op = assemble(OperatorSpec(bc="dirichlet", components=2),
                  Grid1D(1.0, 11))
    c = np.array([np.cos(np.pi / 64), np.sin(np.pi / 64)])
    bad = invariance_audit(op, Ball(c, 0.9995), [0.1])
    assert not bad.passed
    assert bad.witness["node"] == 0
    assert bad.witness["overshoot"] == pytest.approx(
        np.linalg.norm(c) - 0.9995, abs=1e-12)
    assert bad.worst_overshoot == bad.witness["overshoot"]
    assert invariance_audit(op, Ball(c, 1.0005), [0.1]).passed


def test_invariance_audit_refuses_a_resolvent_that_is_not_nonnegative():
    # 1 - h (12 - pi^2) < 0: I - hA is a Z-matrix but not an M-matrix, and
    # (I - hA)^-1 1 is negative at every equation row
    op = assemble(OperatorSpec(bc="dirichlet", shift=-12.0), Grid1D(1.0, 21))
    with pytest.raises(CertificateFailed, match=r"not an M-matrix at h=1: "
                       r".* = -0.169 at node 1$"):
        invariance_audit(op, Box([-1.0], [1.0]), [0.25, 1.0])


_WALLS = ("neumann", "dirichlet", "periodic")


def _audited_operator(bc, n, d0, variable_d, frac, variable_gamma, shift,
                      components=1):
    """An operator whose drift is ``frac`` times the M-matrix bound
    ``2 d_min / dx`` (for a variable d, of its lower bound ``d0 / 2``)."""
    grid = Grid1D(1.0, n, periodic=bc == "periodic")
    d_min = 0.5 * d0 if variable_d else d0
    g0 = frac * 2.0 * d_min / grid.dx
    d = (lambda x: d0 * (1.0 + 0.5 * np.sin(2 * np.pi * x))) \
        if variable_d else d0
    gamma = (lambda x: g0 * np.cos(2 * np.pi * x)) if variable_gamma else g0
    return assemble(OperatorSpec(d=d, gamma=gamma, bc=bc, shift=shift,
                                 components=components), grid)


@st.composite
def audited_boxes(draw):
    """A wall, grid, diffusion, drift inside the M-matrix bound, shift,
    step and box: the inputs of one invariance audit."""
    N = draw(st.integers(1, 2))
    op = _audited_operator(
        draw(st.sampled_from(_WALLS)), draw(st.integers(5, 60)),
        draw(st.floats(0.5, 2.0)), draw(st.booleans()),
        draw(st.floats(-0.999, 0.999)), draw(st.booleans()),
        draw(st.sampled_from((0.0, None, -1.0))), N)
    h_cap = 0.9 if op.shift <= 0 else min(0.9, 0.9 / op.shift)
    h = draw(st.floats(1e-3, 1.0)) * h_cap
    lo = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(N)])
    hi = lo + np.array([draw(st.floats(0.0, 2.0)) for _ in range(N)])
    return op, h, Box(lo, hi), draw(st.integers(0, 2 ** 32 - 1))


def _overshoot(U, box):
    return max(0.0, float(np.max(U - box.hi)), float(np.max(box.lo - U)))


def _resolvent_error_bound(op, h, F, U, g_norm):
    """A bound on ``max|U - (I - hA)^-1 F|`` for a computed resolvent ``U``
    of ``F``, where ``g_norm`` bounds ``max (I - hA)^-1 1``.

    With ``M = I - hA`` an M-matrix, ``G = M^-1 >= 0``, and the residual
    ``r = F - M U`` gives ``U - u = -G r``, so ``|U - u| <= |r|_max G 1``.
    ``r`` is taken in long double on the equation rows from the bands
    (held exactly there); the bound adds that evaluation's own rounding,
    at most 8 long-double epsilons of the magnitude of its terms."""
    ld = np.longdouble
    rows = op.equation_rows
    U = np.asarray(U, dtype=float).reshape(op.grid.n, -1).astype(ld)
    F = np.asarray(F, dtype=float).reshape(op.grid.n, -1).astype(ld)
    sub, diag, sup = (b.astype(ld)[:, None]
                      for b in (op.sub, op.diag, op.sup))
    # a wrapped neighbour meets a zero band off periodic grids, and a
    # Dirichlet wall node's value is zero
    left, right = np.roll(U, 1, axis=0), np.roll(U, -1, axis=0)
    hA = ld(h) * (sub * left + diag * U + sup * right)
    scale = np.abs(F) + np.abs(U) + ld(h) * (
        np.abs(sub * left) + np.abs(diag * U) + np.abs(sup * right))
    r = np.max(np.abs(F - (U - hA))[rows]) \
        + 8 * np.finfo(ld).eps * np.max(scale[rows])
    return float(g_norm * r)


@settings(max_examples=150, deadline=None)
@given(audited_boxes())
# two rounded solves of one system: 1.26e-12 against 2.47e-12, which the
# former fixed tolerance (relative and absolute 1e-12) did not allow
@example((_audited_operator("neumann", 53, 1.4552153778539194, False,
                            0.7802390566229117, True, 0.0, 1),
          0.7957977646972003, Box([1.8288016], [1.8288016]), 0))
def test_invariance_audit_is_exact_inside_the_drift_bound(problem):
    op, h, box, seed = problem
    rep = invariance_audit(op, box, [h])
    n = op.grid.n
    # the audit's computed S = G 1, recomputed by the same solve; with r_s
    # its residual bound, |S - s| <= r_s max(s) for the exact s, so
    # max(s) = max G 1 <= max(S) / (1 - r_s)
    S = op.resolvent(h, np.ones(n))
    r_s = _resolvent_error_bound(op, h, np.ones(n), S, 1.0)
    g_norm = float(np.max(S)) / (1.0 - r_s)
    # G >= 0, so the extremes of the output are the images of the
    # constant inputs lo and hi; each side is exact but for its solves'
    # roundoff: the audit's overshoot moves by at most max|bound| times
    # the error of S, the direct side's by the error of its solve, and
    # each rounds its last two operations (relative 2 eps)
    sides = [(F, op.resolvent(h, F)) for F in (np.tile(box.lo, (n, 1)),
                                               np.tile(box.hi, (n, 1)))]
    direct = max(_overshoot(U, box) for _, U in sides)
    lipschitz = float(np.max(np.abs(np.append(box.lo, box.hi))))
    eps = np.finfo(float).eps
    audit_error = lipschitz * g_norm * r_s
    direct_error = max(_resolvent_error_bound(op, h, F, U, g_norm)
                       for F, U in sides)
    assert abs(rep.worst_overshoot - direct) <= audit_error + direct_error \
        + 2 * eps * (rep.worst_overshoot + direct)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        F = box.lo + (box.hi - box.lo) * rng.random((n, box.dim))
        U = op.resolvent(h, F)
        assert _overshoot(U, box) <= rep.worst_overshoot + audit_error \
            + _resolvent_error_bound(op, h, F, U, g_norm) \
            + 2 * eps * (rep.worst_overshoot + _overshoot(U, box))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_WALLS), st.integers(5, 60), st.floats(0.5, 2.0),
       st.floats(1.01, 4.0), st.sampled_from((1.0, -1.0)),
       st.floats(1e-3, 1.0))
def test_invariance_audit_past_the_drift_bound_names_the_node(
        bc, n, d0, frac, sign, h):
    with pytest.warns(UserWarning, match="positivity step bound"):
        op = _audited_operator(bc, n, d0, False, sign * frac, False, 0.0)
    # the first equation row with a negative coupling to an equation row:
    # a Neumann wall row reflects without drift, and under Dirichlet walls
    # row 1 couples leftward only to the eliminated wall node
    node = {"neumann": 1, "periodic": 0,
            "dirichlet": 1 if sign > 0 else 2}[bc]
    with pytest.raises(CertificateFailed, match=r"not a Z-matrix at "
                       r"h=%.6g: node %d " % (h, node)):
        invariance_audit(op, Box([0.0], [1.0]), [h])


def test_invariance_report_serializes():
    grid = Grid1D(1.0, 21)
    op = assemble(OperatorSpec(bc="neumann"), grid)
    rep = invariance_audit(op, Box([0.0], [1.0]), [0.1])
    d = rep.to_dict()
    assert d["passed"] is True
    assert isinstance(d["worst_overshoot"], float)
    assert d["h_list"] == [0.1]
