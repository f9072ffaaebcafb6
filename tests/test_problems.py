"""Catalog, condition verifiers, and config round-trips."""

import glob
import os

import numpy as np
import pytest

from tangenteq import (Ball, BoundViolated, Box, Grid1D, InvalidSpec,
                       MovingBox, Simplex,
                       StateShiftedField, load_config, make_bernstein_problem,
                       make_nonlinearity, parse_config, resolvent_iterate,
                       serialize, verify_bernstein, verify_subsuper,
                       verify_tangency)
from tangenteq.problems import (ConditionItem, ConditionReport,
                                NONLINEARITY_NAMES, as_field)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _grid(n=101):
    return Grid1D(1.0, n)


# ---------------------------------------------------------------------------
# nonlinearity catalog


def test_catalog_names_are_sorted_and_stable():
    assert NONLINEARITY_NAMES == ("constant", "heaviside", "linear",
                                  "logistic", "tabulated")


def test_linear_defaults():
    fld = make_nonlinearity("linear")
    val = fld.evaluate(0.3, np.array([0.2]), np.zeros(1))
    assert val.lo[0] == pytest.approx(0.3)
    assert val.hi[0] == pytest.approx(0.3)


def test_logistic_value():
    # r * u * (1 - u) * (u - theta) at u = 0.5 with defaults r=1, theta=0.4
    fld = make_nonlinearity("logistic")
    val = fld.evaluate(0.0, np.array([0.5]), np.zeros(1))
    assert val.lo[0] == pytest.approx(0.025)


def test_constant_interval():
    fld = make_nonlinearity("constant", {"lo": -0.25, "hi": 0.75})
    val = fld.evaluate(0.1, np.array([3.0]), np.zeros(1))
    assert val.lo[0] == -0.25 and val.hi[0] == 0.75


def test_heaviside_hull_straddles_the_threshold():
    fld = make_nonlinearity("heaviside", {"threshold": 0.5, "delta": 0.05},
                            seed=4)
    below = fld.evaluate(0.3, np.array([0.2]), np.zeros(1))
    at = fld.evaluate(0.3, np.array([0.5]), np.zeros(1))
    above = fld.evaluate(0.3, np.array([0.9]), np.zeros(1))
    assert below.lo[0] == below.hi[0] == 1.0
    assert above.lo[0] == above.hi[0] == -1.0
    assert at.lo[0] == -1.0 and at.hi[0] == 1.0


def test_tabulated_interpolates_csv(tmp_path):
    knots = np.linspace(-1.0, 1.0, 9)
    path = tmp_path / "curve.csv"
    np.savetxt(path, np.column_stack([knots, knots ** 3]), delimiter=",")
    fld = make_nonlinearity("tabulated", {"path": str(path)})
    val = fld.evaluate(0.0, np.array([0.5]), np.zeros(1))
    assert val.lo[0] == pytest.approx(0.125)  # 0.5 is itself a knot
    # between knots np.interp is linear, so the cubic is over/undershot
    mid = fld.evaluate(0.0, np.array([0.625]), np.zeros(1))
    expect = 0.5 * (0.5 ** 3 + 0.75 ** 3)
    assert mid.lo[0] == pytest.approx(expect)


def test_tabulated_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError, match="path"):
        make_nonlinearity("tabulated")
    narrow = tmp_path / "one_column.csv"
    np.savetxt(narrow, np.arange(4.0)[:, None], delimiter=",")
    with pytest.raises(ValueError, match="two CSV columns"):
        make_nonlinearity("tabulated", {"path": str(narrow)})


def test_unknown_name_lists_the_catalog():
    with pytest.raises(ValueError, match="constant"):
        make_nonlinearity("cubic")


# ---------------------------------------------------------------------------
# moving boxes and the shifted-field assembly


def test_moving_box_validation():
    with pytest.raises(ValueError, match="shape"):
        MovingBox(np.zeros((5, 1)), np.ones((6, 1)))
    with pytest.raises(ValueError, match="below"):
        MovingBox(np.ones(5), np.zeros(5))


def test_state_shift_moves_mass_between_parts():
    base = as_field(lambda x, u, p: 1.0 - u)
    fld = StateShiftedField(base, 1.0)
    val = fld.evaluate(0.2, np.array([0.5]), np.zeros(1))
    assert val.lo[0] == pytest.approx(0.0)   # (1 - u) - u at u = 1/2
    assert val.hi[0] == pytest.approx(0.0)


def test_state_shift_enforces_the_base_envelope():
    # the envelope bounds phi itself, before the shift by c * u
    op, fld, C = make_bernstein_problem(lambda x, u, p: 5.0, R=2.0, c=1.0,
                                        n=21, bound=0.1)
    with pytest.raises(BoundViolated, match="exceeds envelope 0.1"):
        fld.evaluate(0.5, np.zeros(1), np.zeros(1))
    ok = make_bernstein_problem(lambda x, u, p: 0.05, R=2.0, c=1.0, n=21,
                                bound=0.1)[1]
    assert ok.evaluate(0.5, np.array([1.0]), np.zeros(1)).lo[0] == -0.95


def test_bernstein_problem_recovers_the_analytic_bvp():
    """The shift wiring must leave the modeled equation untouched.

    With phi = 1 - u and c = 1 the assembled pair still solves
    -u'' = 1 - u pinned at zero, whose midpoint value is
    1 - 1/cosh(1/2).
    """
    op, fld, C = make_bernstein_problem(lambda x, u, p: 1.0 - u,
                                        R=2.0, c=1.0, n=201)
    assert isinstance(C, Ball) and C.radius == 2.0
    rep = resolvent_iterate(op, fld, C, np.zeros(201))
    assert rep.status == "converged"
    mid = 1.0 - 1.0 / np.cosh(0.5)
    assert abs(rep.u_star[100] - mid) <= 1e-5


def test_bernstein_problem_rejects_bad_radius():
    with pytest.raises(ValueError, match="radius"):
        make_bernstein_problem(lambda x, u, p: -u, R=0.0, c=1.0, n=11)


# ---------------------------------------------------------------------------
# condition reports


def test_condition_report_aggregation():
    rep = ConditionReport([ConditionItem("a", True, 0.25),
                           ConditionItem("b", False, -1.0)])
    assert not rep.passed
    assert rep.worst_margin == -1.0
    d = rep.to_dict()
    assert d["passed"] is False
    assert [it["name"] for it in d["items"]] == ["a", "b"]
    lines = rep.lines()
    assert lines[0].startswith("[ok  ] a")
    assert lines[1].startswith("[FAIL] b")


def test_condition_report_empty_is_vacuously_true():
    rep = ConditionReport([])
    assert rep.passed and rep.worst_margin == float("inf")


# ---------------------------------------------------------------------------
# tangency verifier


def test_tangency_linear_relaxation_margins():
    # 0.5 - u pushes inward with slack 0.5 at either face of [0, 1]
    rep = verify_tangency(make_nonlinearity("linear"), Box([0.0], [1.0]),
                          _grid(), samples=2000, seed=1)
    assert rep.passed
    by_name = {item.name: item for item in rep.items}
    assert by_name["face[0].low"].margin == pytest.approx(0.5)
    assert by_name["face[0].high"].margin == pytest.approx(0.5)


def test_tangency_constant_push_fails_at_the_upper_face():
    up = make_nonlinearity("constant", {"lo": 1.0, "hi": 1.0})
    rep = verify_tangency(up, Box([0.0], [1.0]), _grid(), samples=500, seed=1)
    assert not rep.passed
    by_name = {item.name: item for item in rep.items}
    assert by_name["face[0].low"].passed
    bad = by_name["face[0].high"]
    assert not bad.passed
    assert bad.margin == pytest.approx(-1.0)
    assert bad.witness["u"] == [1.0]
    assert bad.witness["violation"] == pytest.approx(1.0)


def test_tangency_from_a_parsed_spec():
    spec = load_config(os.path.join(CONFIG_DIR, "moving_rectangles.cfg"))
    grid = spec.build_grid()
    rep = verify_tangency(spec.build_field(), spec.build_constraint(grid),
                          grid, samples=1500)
    assert rep.passed
    by_name = {item.name: item for item in rep.items}
    # 1 - u at the lower bound alpha(x) = -1 + x^2/2 leaves at least 1.5
    assert by_name["face[0].low"].margin >= 1.5 - 1e-9
    # at beta = 1 the value is exactly zero: tangent, not inward
    assert abs(by_name["face[0].high"].margin) <= 1e-12


def test_tangency_ball_constraint():
    inward = as_field(lambda x, u, p: -u, components=2)
    rep = verify_tangency(inward, Ball(np.zeros(2), 1.0), _grid(21),
                          samples=800, seed=5)
    assert rep.passed
    assert rep.items[0].name == "sphere"
    assert rep.items[0].margin == pytest.approx(1.0)


def test_single_column_moving_box_checks_every_component():
    inward = as_field(lambda x, u, p: 0.5 - u, components=2)
    moving = MovingBox(np.zeros((21, 1)), np.ones((21, 1)))
    rep = verify_tangency(inward, moving, _grid(21), samples=200, seed=3)
    assert rep.passed
    assert [i.name for i in rep.items] == [
        "face[0].low", "face[0].high", "face[1].low", "face[1].high"]


def test_tangency_needs_a_constraint():
    for body in (None, Simplex(1.0, 1)):
        with pytest.raises(InvalidSpec, match="no tangency verifier"):
            verify_tangency(make_nonlinearity("linear"), body, _grid())


def test_empty_samples_raise_instead_of_passing():
    # the field points out of the box, so a pass could only be vacuous
    push = as_field(lambda x, u, p: 5.0 + 0.0 * u)
    with pytest.raises(InvalidSpec, match="samples must be at least 1"):
        verify_tangency(push, Box([0.0], [1.0]), _grid(11), samples=0)
    with pytest.raises(InvalidSpec, match="samples must be at least 1"):
        verify_bernstein(push, R=1.0, a=0.0, b=1.0, c=0.0, samples=0)


def _box_face_high():
    field = as_field(lambda x, u, p: x + u - 0.5)
    rep = verify_tangency(field, Box([0.0], [1.0]), _grid(), samples=300,
                          seed=1)
    return field, rep, "face[0].high"


def _ball_sphere():
    field = as_field(lambda x, u, p: u + np.array([0.3, -0.1]) * x,
                     components=2)
    rep = verify_tangency(field, Ball(np.array([0.1, 0.2]), 1.5), _grid(21),
                          samples=300, seed=5)
    return field, rep, "sphere"


def _bernstein(name):
    def case():
        field = as_field(lambda x, u, p: u + p - x, components=2)
        rep = verify_bernstein(field, R=1.0, a=0.1, b=0.5, c=0.2,
                               samples=300, seed=9)
        return field, rep, name
    return case


@pytest.mark.parametrize("case", [
    _box_face_high, _ball_sphere, _bernstein("sign_outside_ball"),
    _bernstein("quadratic_growth"), _bernstein("sphere_tangency")],
    ids=["box_face", "ball", "sign", "growth", "sphere"])
def test_witness_reproduces_the_worst_margin(case):
    field, rep, name = case()
    item = {i.name: i for i in rep.items}[name]
    assert not item.passed
    wit = item.witness
    val = field.evaluate(wit["x"], np.array(wit["u"]), np.array(wit["p"]))
    assert [val.lo.tolist(), val.hi.tolist()] == wit["value"]
    assert -wit["violation"] == item.margin


# ---------------------------------------------------------------------------
# gradient-problem conditions


def test_bernstein_conditions_pass_for_the_relaxing_source():
    rep = verify_bernstein(lambda x, u, p: 1.0 - u, R=2.0, a=0.0, b=3.0,
                           c=1.0, samples=3000, seed=7)
    assert rep.passed
    by_name = {item.name: item for item in rep.items}
    # y.u = u - u^2 is most positive near |u| = R, so the sign margin
    # approaches R^2 - R = 2 from above
    assert 2.0 <= by_name["sign_outside_ball"].margin <= 2.5
    # on the sphere u = +/-R exactly: c R^2 - min u(1-u) = 4 - (-2)
    assert by_name["sphere_tangency"].margin == pytest.approx(6.0)
    assert by_name["quadratic_growth"].margin >= 0.0


def test_bernstein_sign_violation_carries_a_witness():
    rep = verify_bernstein(lambda x, u, p: u, R=2.0, a=0.0, b=3.0, c=1.0,
                           samples=2000, seed=7)
    by_name = {item.name: item for item in rep.items}
    bad = by_name["sign_outside_ball"]
    assert not bad.passed and bad.margin < -4.0
    assert abs(bad.witness["u"][0]) > 2.0
    # growth still holds: |u| <= 2 <= 0*|p|^2 + 3
    assert by_name["quadratic_growth"].passed
    # and on the sphere u.u = R^2 = c R^2 exactly
    assert by_name["sphere_tangency"].margin == pytest.approx(0.0, abs=1e-12)


def test_bernstein_pure_gradient_growth_is_tight():
    rep = verify_bernstein(lambda x, u, p: p * p, R=1.0, a=1.0, b=0.0,
                           c=0.0, samples=1000, seed=3)
    assert rep.passed
    by_name = {item.name: item for item in rep.items}
    assert by_name["quadratic_growth"].margin == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# bound-pair shape inequalities


def test_subsuper_constants_pass():
    grid = _grid()
    rep = verify_subsuper(-np.ones(grid.n), np.ones(grid.n), grid)
    assert rep.passed
    by_name = {item.name: item for item in rep.items}
    assert by_name["ordering"].margin == pytest.approx(2.0)
    assert by_name["boundary_signs"].margin == pytest.approx(1.0)


def test_subsuper_concave_alpha_fails_subharmonicity():
    grid = _grid()
    xs = grid.nodes
    rep = verify_subsuper(xs * (1.0 - xs), np.ones(grid.n), grid)
    assert not rep.passed
    by_name = {item.name: item for item in rep.items}
    bad = by_name["subharmonic_alpha"]
    assert not bad.passed
    assert bad.margin == pytest.approx(-2.0, abs=1e-6)
    assert bad.witness["second_difference"] == pytest.approx(-2.0, abs=1e-6)
    assert by_name["ordering"].passed and by_name["boundary_signs"].passed


def test_subsuper_convex_alpha_passes():
    grid = _grid()
    xs = grid.nodes
    rep = verify_subsuper(xs ** 2 - 1.0, np.ones(grid.n), grid)
    assert rep.passed
    by_name = {item.name: item for item in rep.items}
    assert by_name["subharmonic_alpha"].margin == pytest.approx(2.0, abs=1e-6)


def test_subsuper_shape_mismatch():
    grid = _grid(11)
    with pytest.raises(ValueError, match="share a shape"):
        verify_subsuper(np.zeros(11), np.ones((11, 2)), grid)


# ---------------------------------------------------------------------------
# config parsing


def test_every_shipped_config_round_trips():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))
    assert len(paths) == 8
    for path in paths:
        spec = load_config(path)
        again = parse_config(serialize(spec))
        assert again == spec, path
        assert serialize(again) == serialize(spec)


def test_parsed_builders_assemble_live_objects():
    spec = load_config(os.path.join(CONFIG_DIR, "neumann_linear.cfg"))
    grid = spec.build_grid()
    op = spec.build_operator(grid)
    fld = spec.build_field()
    C = spec.build_constraint(grid)
    assert op.spec.bc == "neumann"
    assert isinstance(C, Box)
    u0 = spec.initial_state(grid)
    assert u0.shape == (grid.n, spec.components)
    val = fld.evaluate(0.5, np.zeros(spec.components),
                       np.zeros(spec.components))
    assert val.hi[0] > 0.0
    vp = spec.verify_params()
    assert set(vp) == {"samples", "seed"}
    ip = spec.invariance_params()
    assert len(ip["h_list"]) >= 1


def test_profile_values_are_canonicalized():
    text = """
[problem]
kind = neumann_rd

[operator]
d = sin:0.5, 1, 1.0
"""
    spec = parse_config(text)
    assert spec.sections["operator"]["d"] == "sin:0.5,1.0,1.0"
    d = spec.build_operator().spec.d
    assert callable(d)
    assert d(0.25) == pytest.approx(1.5)


def test_miranda_config_parses_the_affine_map():
    spec = load_config(os.path.join(CONFIG_DIR, "affine.cfg"))
    assert spec.kind == "miranda"
    mp = spec.miranda_params()
    assert mp["matrix"].shape == (mp["lo"].size, mp["lo"].size)
    assert np.all(mp["lo"] < mp["hi"])


def test_config_rejections():
    cases = [
        ("[problem]\nkind = weird\n", "unknown problem kind"),
        ("[grid]\nnodes = 11\n", "missing"),
        ("[problem]\nkind = neumann_rd\n[operator]\nbc = dirichlet\n",
         "fixes bc"),
        ("[problem]\nkind = neumann_rd\n[solver]\nmethod = truncation\n",
         "dirichlet"),
        ("[problem]\nkind = moving_rectangles\n", "alpha"),
        ("[problem]\nkind = neumann_rd\n[operator]\ncomponents = 0\n",
         "at least 1"),
        ("[problem]\nkind = neumann_rd\n[nonlinearity]\nname = cubic\n",
         "unknown nonlinearity"),
        ("[problem]\nkind = neumann_rd\n[operator]\nd = exp:1.0\n",
         "profile"),
        ("[problem]\nkind = neumann_rd\n[grid]\nnodes = lots\n", "integer"),
        ("[problem]\nkind = miranda\n[miranda]\nlo = -1,-1\nhi = 1,1\n"
         "matrix = 1.0,0.0;0.0,1.0\noffset = 0.5\n", "shape"),
        # misspelled layout must not silently fall back to defaults
        ("[problem]\nkind = neumann_rd\n[field]\nname = linear\n",
         "unknown section"),
        ("[problem]\nkind = neumann_rd\n[solver]\nmax_iters = 40\n",
         "unknown option"),
        ("[problem]\nkind = neumann_rd\n[bernstein]\nc = 1.0\n",
         "does not apply"),
        ("[problem]\nkind = miranda\n[grid]\nnodes = 11\n"
         "[miranda]\nlo = -1\nhi = 1\nmatrix = 1.0\noffset = 0.0\n",
         "does not apply"),
        ("[problem]\nkind = neumann_rd\n[nonlinearity]\nname = linear\n"
         "slope = 2.0\n", "not a parameter"),
    ]
    for text, needle in cases:
        with pytest.raises(InvalidSpec, match=needle):
            parse_config(text)


def test_bad_solver_values_fail_at_parse_time():
    text = "[problem]\nkind = neumann_rd\n[solver]\ndamping = 2.0\n"
    with pytest.raises(InvalidSpec):
        parse_config(text)
