"""End-to-end runs of the command line front end.

Everything goes through ``run_cli`` with an explicit --out directory so
the tests never touch the working tree; one test exercises the process
entry point for real (the installed ``tangenteq`` script when it is on
PATH).
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tangenteq
from tangenteq import Ball, ProblemSpec, load_config, operators
from tangenteq.cli import run_cli

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _cfg(name):
    return os.path.join(CONFIG_DIR, name)


def _report(out):
    with open(os.path.join(out, "report.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


GATE_FAIL_CFG = """\
[problem]
kind = neumann_rd

[nonlinearity]
name = constant
lo = 1.0
hi = 1.0

[solver]
max_iter = 40
"""


# ---------------------------------------------------------------------------
# solve


def test_solve_converges_and_writes_outputs(tmp_path, capsys):
    code = run_cli(["solve", _cfg("neumann_linear.cfg"),
                    "--out", str(tmp_path)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "status converged after 33 sweeps" in captured

    rep = _report(tmp_path)
    assert rep["status"] == "converged"
    assert rep["kind"] == "neumann_rd"
    for key in ("residual_history", "tangency_residual",
                "constraint_violation", "bound_checks", "condition_reports",
                "config", "iterations", "method"):
        assert key in rep
    assert rep["condition_reports"]["passed"] is True
    assert rep["residual_history"][-1] <= 1e-9

    data = np.loadtxt(tmp_path / "u_star.csv", delimiter=",", skiprows=1)
    assert data.shape == (101, 2)
    assert np.all(np.abs(data[:, 1] - 0.5) <= 1e-8)
    hist = np.loadtxt(tmp_path / "residuals.csv", delimiter=",", skiprows=1)
    assert hist.shape[0] == rep["iterations"]


def test_solve_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["solve", _cfg("neumann_logistic.cfg"), "--out", str(a)]) == 0
    assert run_cli(["solve", _cfg("neumann_logistic.cfg"), "--out", str(b)]) == 0
    for name in ("report.json", "u_star.csv", "residuals.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_solve_gate_blocks_and_force_overrides(tmp_path, capsys):
    cfg = tmp_path / "push.cfg"
    cfg.write_text(GATE_FAIL_CFG)

    gated = tmp_path / "gated"
    assert run_cli(["solve", str(cfg), "--out", str(gated)]) == 2
    assert "rerun with --force" in capsys.readouterr().out
    assert _report(gated)["status"] == "gate_failed"
    assert not (gated / "u_star.csv").exists()

    forced = tmp_path / "forced"
    assert run_cli(["solve", str(cfg), "--out", str(forced), "--force"]) == 3
    rep = _report(forced)
    assert rep["status"] == "tangency_failure"
    assert rep["failure"]["node"] == 0
    assert (forced / "u_star.csv").exists()


def test_solve_nonconvergent_box_exits_three(tmp_path):
    # pinned walls at 0 can never reach a box that starts at 0.5
    code = run_cli(["solve", _cfg("dirichlet_box.cfg"), "--out", str(tmp_path)])
    assert code == 3
    rep = _report(tmp_path)
    assert rep["status"] == "non_convergence"
    assert rep["constraint_violation"] >= 0.5 - 1e-9


def test_a_selection_off_the_cone_exits_three_with_a_witness(
        tmp_path, capsys, monkeypatch):
    # every cone projection lands one unit off, so no value fits at node 0
    project = Ball.tangent_project_rows

    def off_by_one(self, X, V):
        return project(self, X, V) + 1.0

    monkeypatch.setattr(Ball, "tangent_project_rows", off_by_one)
    code = run_cli(["simulate", _cfg("bernstein.cfg"), "--out",
                    str(tmp_path)])
    assert code == 3
    rep = _report(tmp_path)["report"]
    assert rep["status"] == "tangency_failure"
    assert rep["failure"] == {
        "node": 0, "x": 0.0, "u": [0.0],
        "reason": "no admissible tangent value: cone gap 1, box gap 1"}
    assert capsys.readouterr().out.startswith("status tangency_failure ")


def test_a_singular_system_exits_three_as_a_solver_failure(
        tmp_path, capsys, monkeypatch):
    exact = operators.dgttrs

    def perturbed(*args):
        x, info = exact(*args)
        return x + 1e-6, info

    monkeypatch.setattr(operators, "dgttrs", perturbed)
    code = run_cli(["solve", _cfg("neumann_linear.cfg"), "--out",
                    str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == (
        "solver failure: resolvent residual 1e-06 exceeds 1e-10 * |F| "
        "(system near singular at h=0.5)\n")


def test_solve_moving_rectangles(tmp_path):
    code = run_cli(["solve", _cfg("moving_rectangles.cfg"),
                    "--out", str(tmp_path)])
    assert code == 0
    rep = _report(tmp_path)
    assert rep["iterations"] == 10
    data = np.loadtxt(tmp_path / "u_star.csv", delimiter=",", skiprows=1)
    mid = 1.0 - 1.0 / np.cosh(0.5)
    assert abs(data[50, 1] - mid) <= 1e-3


TRUNCATION_CFGS = {
    "box": """\
[problem]
kind = dirichlet_rd

[nonlinearity]
name = linear
a = 1.0
b = -1.0

[constraint]
kind = box
lo = -1.0
hi = 1.0

[solver]
method = truncation
""",
    "moving_rectangles": """\
[problem]
kind = moving_rectangles

[grid]
nodes = 101

[nonlinearity]
name = linear
a = 1.0
b = -1.0

[constraint]
alpha = quad:-1.0,0.0,0.5
beta = 1.0

[solver]
method = truncation
""",
}


@pytest.mark.parametrize("name", sorted(TRUNCATION_CFGS))
def test_truncation_config_runs(tmp_path, name):
    cfg = tmp_path / "trunc.cfg"
    cfg.write_text(TRUNCATION_CFGS[name])
    assert run_cli(["solve", str(cfg), "--out", str(tmp_path)]) == 0
    rep = _report(tmp_path)
    assert rep["method"] == "truncation"
    assert rep["status"] == "converged"
    assert rep["tangency_residual"] == 0.0


# ---------------------------------------------------------------------------
# miranda


def test_miranda_certified_zero(tmp_path, capsys):
    code = run_cli(["miranda", _cfg("affine.cfg"), "--out", str(tmp_path)])
    assert code == 0
    rep = _report(tmp_path)
    assert rep["status"] == "converged"
    assert rep["certified_path"] is True
    assert abs(rep["point"][0] - 0.25) <= 1e-9
    assert abs(rep["point"][1] + 0.5) <= 1e-9
    assert "point:" in capsys.readouterr().out


def test_miranda_identity_map_fails_certification(tmp_path, capsys):
    cfg = tmp_path / "ident.cfg"
    cfg.write_text("""\
[problem]
kind = miranda

[miranda]
lo = -1,-1
hi = 1,1
matrix = 1,0;0,1
offset = 0,0
""")
    assert run_cli(["miranda", str(cfg), "--out", str(tmp_path)]) == 2
    assert "hypothesis failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# invariance and condition checks


def test_invariance_pass_and_fail(tmp_path, capsys):
    assert run_cli(["check-invariance", _cfg("neumann_linear.cfg"),
                    "--out", str(tmp_path / "ok")]) == 0
    assert "invariance holds" in capsys.readouterr().out

    assert run_cli(["check-invariance", _cfg("dirichlet_box.cfg"),
                    "--out", str(tmp_path / "bad")]) == 2
    assert "invariance FAILS" in capsys.readouterr().out
    rep = _report(tmp_path / "bad")["report"]
    assert rep["witness"] == {"h": 0.25, "node": 0, "overshoot": 0.5}


def test_invariance_summary_line_is_pinned(tmp_path, capsys):
    # the step list prints as plain floats, the same list as report.json
    assert run_cli(["check-invariance", _cfg("neumann_linear.cfg"),
                    "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "invariance holds (worst overshoot 1.177e-14 over h in "
        "[0.25, 0.125, 0.0625])\n")


def test_invariance_finds_the_overshoot_of_a_constant_input(tmp_path,
                                                           capsys):
    # c = 12 lies above pi^2: the resolvent at h = 0.25 maps u = 2 to a
    # peak of 5.4, out of the ball |u| <= 2, so the audit must fail
    with open(_cfg("bernstein.cfg"), encoding="utf-8") as fh:
        text = fh.read().replace("\nc = 1.0\n", "\nc = 12.0\n")
    cfg = tmp_path / "bernstein_c12.cfg"
    cfg.write_text(text)
    assert run_cli(["check-invariance", str(cfg), "--out",
                    str(tmp_path / "out")]) == 2
    assert "invariance FAILS" in capsys.readouterr().out
    witness = _report(tmp_path / "out")["report"]["witness"]
    assert witness["h"] == 0.25 and witness["node"] == 50
    assert witness["overshoot"] == pytest.approx(3.414, abs=1e-3)


AUDITABLE = ("bernstein", "dirichlet_box", "drift", "neumann_linear",
             "neumann_logistic", "periodic")


@pytest.mark.parametrize("name", AUDITABLE)
def test_invariance_report_does_not_depend_on_the_seed(tmp_path, name):
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        run_cli(["check-invariance", _cfg(name + ".cfg"), "--out", str(out),
                 "--seed", seed])
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_conditions_bernstein_margins(tmp_path, capsys):
    code = run_cli(["check-conditions", _cfg("bernstein.cfg"),
                    "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[ok  ]") == 3
    rep = _report(tmp_path)
    margins = {i["name"]: i["margin"] for i in rep["report"]["items"]}
    assert margins["sign_outside_ball"] == pytest.approx(2.0, abs=0.01)
    assert margins["sphere_tangency"] == pytest.approx(6.0)


def test_conditions_moving_rectangles_include_shape_items(tmp_path):
    code = run_cli(["check-conditions", _cfg("moving_rectangles.cfg"),
                    "--out", str(tmp_path)])
    assert code == 0
    names = [i["name"] for i in _report(tmp_path)["report"]["items"]]
    assert "face[0].low" in names and "subharmonic_alpha" in names


def test_conditions_gate_failure_exits_two(tmp_path):
    cfg = tmp_path / "push.cfg"
    cfg.write_text(GATE_FAIL_CFG)
    assert run_cli(["check-conditions", str(cfg), "--out", str(tmp_path)]) == 2


def test_seed_override_is_accepted(tmp_path):
    assert run_cli(["check-conditions", _cfg("neumann_linear.cfg"),
                    "--out", str(tmp_path), "--seed", "7"]) == 0


@pytest.mark.parametrize("command", ["check-conditions", "check-invariance",
                                     "solve"])
def test_negative_seed_override_is_a_usage_error(tmp_path, capsys, command):
    assert run_cli([command, _cfg("neumann_linear.cfg"),
                    "--out", str(tmp_path), "--seed=-1"]) == 1
    err = capsys.readouterr().err
    assert "error: argument --seed: seed must be non-negative, got -1" in err
    assert not os.listdir(tmp_path)


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data",
                          "check_conditions")


@pytest.mark.parametrize("name", sorted(
    f[:-5] for f in os.listdir(GOLDEN_DIR) if f.endswith(".json")))
def test_conditions_report_matches_golden_bytes(tmp_path, name):
    # the verifiers' margins and witnesses at --seed 7, pinned byte for byte
    assert run_cli(["check-conditions", _cfg(name + ".cfg"),
                    "--out", str(tmp_path), "--seed", "7"]) == 0
    with open(os.path.join(GOLDEN_DIR, name + ".json"), "rb") as fh:
        want = fh.read()
    assert (tmp_path / "report.json").read_bytes() == want


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
RESOLVENT_COMMANDS = ("solve", "simulate", "check_invariance", "miranda")


def _assert_matches_golden(argv, out, want_dir):
    # exit code and every file written at --seed 7, pinned byte for byte
    with open(os.path.join(want_dir, "exit_code"), encoding="utf-8") as fh:
        want_code = int(fh.read())
    assert run_cli(argv + ["--out", str(out), "--seed", "7"]) == want_code
    files = sorted(f for f in os.listdir(want_dir) if f != "exit_code")
    assert sorted(os.listdir(out)) == files
    for f in files:
        with open(os.path.join(want_dir, f), "rb") as fh:
            assert (out / f).read_bytes() == fh.read(), f


@pytest.mark.parametrize("command,name", sorted(
    (command, name) for command in RESOLVENT_COMMANDS
    for name in os.listdir(os.path.join(DATA_DIR, command))))
def test_resolvent_outputs_match_golden_bytes(tmp_path, command, name):
    _assert_matches_golden([command.replace("_", "-"), _cfg(name + ".cfg")],
                           tmp_path / "out",
                           os.path.join(DATA_DIR, command, name))


SIMPLEX_CFG = """\
[problem]
kind = neumann_rd

[grid]
nodes = 11

[operator]
components = 3

[nonlinearity]
name = linear
a = 0.3333333333333333
b = -1.0

[constraint]
kind = simplex
total = 1.0

[solver]
u0 = 0.25
"""


# solve outputs of the inline configs: the truncation scheme and a
# non-box resolvent sweep
INLINE_GOLDEN = {
    "truncation_box": (TRUNCATION_CFGS["box"], []),
    "truncation_moving_rectangles": (TRUNCATION_CFGS["moving_rectangles"],
                                     []),
    "simplex": (SIMPLEX_CFG, ["--force"]),
}


@pytest.mark.parametrize("name", sorted(INLINE_GOLDEN))
def test_inline_solve_matches_golden_bytes(tmp_path, name):
    text, flags = INLINE_GOLDEN[name]
    cfg = tmp_path / "inline.cfg"
    cfg.write_text(text)
    _assert_matches_golden(["solve", str(cfg)] + flags, tmp_path / "out",
                           os.path.join(DATA_DIR, "solve_inline", name))


def test_simplex_config_has_no_gate_and_needs_force(tmp_path, capsys):
    cfg = tmp_path / "simplex.cfg"
    cfg.write_text(SIMPLEX_CFG)
    out = str(tmp_path / "out")
    assert run_cli(["check-conditions", str(cfg), "--out", out]) == 1
    assert "error: no tangency verifier for 'Simplex'" in \
        capsys.readouterr().err
    assert run_cli(["solve", str(cfg), "--out", out]) == 1
    assert run_cli(["solve", str(cfg), "--out", out, "--force"]) == 0
    assert _report(out)["status"] == "converged"


@pytest.mark.parametrize("command,text,name", [
    ("solve", "[problem]\nkind = neumann_rd\n\n[solver]\nu0 = sin:1,0,0\n",
     "u0"),
    ("check-conditions", "[problem]\nkind = moving_rectangles\n\n"
     "[constraint]\nalpha = sin:1,0,0\nbeta = 1.0\n", "alpha"),
], ids=["u0", "alpha"])
def test_nonfinite_profile_exits_one(tmp_path, capsys, command, text, name):
    # a zero period samples 0/0 and x/0: the config error names the key
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(text)
    assert run_cli([command, str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "error: %s produced non-finite values" % name in \
        capsys.readouterr().err


MIRANDA_HEAD = "[problem]\nkind = miranda\n\n[miranda]\nmatrix = 1,0;0,1\n" \
    "offset = 0,0\n"


@pytest.mark.parametrize("command,text,code,message", [
    ("check-invariance", "[problem]\nkind = neumann_rd\n\n[constraint]\n"
     "kind = box\nlo = 1.0\nhi = 0.0\n", 1, "lo must stay below hi"),
    ("check-invariance", "[problem]\nkind = neumann_rd\n\n[constraint]\n"
     "kind = ball\nradius = -1\n", 1, "radius must be positive"),
    ("check-invariance", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = heaviside\ndelta = 0\n", 1, "delta must be positive"),
    ("check-invariance", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = tabulated\n", 1, "needs a 'path' parameter"),
    ("check-invariance", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = tabulated\npath = no_such_table.csv\n", 1, "no_such_table.csv"),
    ("check-conditions", "[problem]\nkind = neumann_rd\n\n[simulate]\n"
     "h = 0\n", 1, "[simulate] t_end and h must be positive"),
    ("miranda", MIRANDA_HEAD + "lo = 0,0\nhi = 1\n", 1,
     "lo and hi must have matching shapes"),
    ("miranda", MIRANDA_HEAD + "lo = 0,0\nhi = 1,0\n", 1,
     "lo must stay strictly below hi"),
    ("check-conditions", "[problem]\nkind = neumann_rd\n\n[verify]\n"
     "samples = 0\n", 1, "[verify] samples must be at least 1"),
    ("check-conditions", "[problem]\nkind = neumann_rd\n\n[invariance]\n"
     "samples = 0\n", 1, "unknown option 'samples' in [invariance]"),
    ("check-invariance", "[problem]\nkind = neumann_rd\n\n[operator]\n"
     "d = sin:0.5,1,2,99\n", 1, "profile 'sin' takes at most 3 arguments"),
    ("check-invariance", "[problem]\nkind = neumann_rd\n\n[solver]\n"
     "u0 = const:1,2\n", 1, "profile 'const' takes at most 1 arguments"),
    # a short list pads from the defaults: period 1, offset 0
    ("check-invariance", "[problem]\nkind = drift_rd\n\n[operator]\n"
     "gamma = sin:0.5\n", 0, None),
    # no sweep would run: an empty history and residual nan
    ("solve", "[problem]\nkind = neumann_rd\n\n[solver]\nmax_iter = 0\n",
     1, "max_iter must be an integer of at least 1, got 0"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[solver]\nmax_iter = -3\n",
     1, "max_iter must be an integer of at least 1, got -3"),
    # options the constraint kind would ignore
    ("solve", "[problem]\nkind = neumann_rd\n\n[constraint]\n"
     "kind = box\nradius = 5\n", 1,
     "option 'radius' in [constraint] does not apply to constraint kind "
     "'box'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[constraint]\n"
     "kind = none\nlo = 0\n", 1,
     "option 'lo' in [constraint] does not apply to constraint kind "
     "'none'"),
    ("solve", "[problem]\nkind = moving_rectangles\n\n[constraint]\n"
     "kind = ball\nalpha = -1\nbeta = 1\n", 1,
     "kind 'moving_rectangles' fixes [constraint] kind = moving_box"),
    ("solve", "[problem]\nkind = bernstein_bvp\n\n[constraint]\n"
     "kind = box\n", 1,
     "kind 'bernstein_bvp' fixes [constraint] kind = ball"),
    ("solve", "[problem]\nkind = bernstein_bvp\n\n[constraint]\n"
     "kind = ball\nradius = 3\n", 1,
     "option 'radius' in [constraint] does not apply to constraint kind "
     "'ball'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = heaviside\nsamples = -3\n", 1,
     "samples must be an integer of at least 1, got -3.0"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = heaviside\nsamples = 2.5\n", 1,
     "samples must be an integer of at least 1, got 2.5"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = heaviside\nsamples = 0\n", 1,
     "samples must be an integer of at least 1, got 0.0"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = heaviside\nsamples = inf\n", 1,
     "samples must be an integer of at least 1, got inf"),
    # non-finite numbers
    ("simulate", "[problem]\nkind = neumann_rd\n\n[simulate]\n"
     "t_end = inf\n", 1, "expected a finite number, got 'inf'"),
    ("simulate", "[problem]\nkind = neumann_rd\n\n[simulate]\nh = nan\n",
     1, "expected a finite number, got 'nan'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[grid]\nlength = nan\n", 1,
     "error: [grid] length: expected a finite number, got 'nan'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[grid]\nnodes = lots\n", 1,
     "error: [grid] nodes: expected an integer, got 'lots'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[solver]\nh0 = nan\n", 1,
     "expected a finite number, got 'nan'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[operator]\nshift = nan\n",
     1, "expected a finite number, got 'nan'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[operator]\n"
     "d = sin:1,-inf\n", 1, "expected a finite number, got '-inf'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[constraint]\nlo = nan\n",
     1, "expected a finite number, got 'nan'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = linear\na = nan\n", 1,
     "[nonlinearity] a must be finite, got nan"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = linear\nb = -inf\n", 1,
     "[nonlinearity] b must be finite, got -inf"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[solver]\n"
     "tol_residual = nan\n", 1, "expected a finite number, got 'nan'"),
    ("check-invariance", "[problem]\nkind = neumann_rd\n\n[invariance]\n"
     "tol = nan\n", 1, "expected a finite number, got 'nan'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = linear\nbound = nan\n", 1,
     "expected a finite number, got 'nan'"),
    ("miranda", MIRANDA_HEAD + "lo = 0,0\nhi = 1,inf\n", 1,
     "expected a finite number, got 'inf'"),
    # negative seeds
    ("check-conditions", "[problem]\nkind = neumann_rd\n\n[verify]\n"
     "seed = -1\n", 1, "[verify] seed must be non-negative"),
    ("check-invariance", "[problem]\nkind = neumann_rd\n\n[invariance]\n"
     "seed = -1\n", 1, "unknown option 'seed' in [invariance]"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = heaviside\nseed = -1\n", 1,
     "error: [nonlinearity] seed must be non-negative"),
    ("check-conditions", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = heaviside\nseed = -1\n", 1,
     "error: [nonlinearity] seed must be non-negative"),
    # [miranda] values that would fail mid-run
    ("miranda", MIRANDA_HEAD + "lo = -1,-1\nhi = 1,1\nresolution = 0\n", 1,
     "[miranda] resolution must be at least 2 on a cube of dimension 2"),
    ("miranda", MIRANDA_HEAD + "lo = -1,-1\nhi = 1,1\nresolution = 1\n", 1,
     "[miranda] resolution must be at least 2 on a cube of dimension 2"),
    ("miranda", MIRANDA_HEAD + "lo = -1,-1\nhi = 1,1\ntol = 0\n", 1,
     "[miranda] tol must be positive"),
    ("miranda", MIRANDA_HEAD + "lo = -1,-1\nhi = 1,1\ntol = -1\n", 1,
     "[miranda] tol must be positive"),
    # tolerances and budgets no run can meet
    ("check-invariance", "[problem]\nkind = neumann_rd\n\n[invariance]\n"
     "tol = -1\n", 1, "[invariance] tol must be non-negative"),
    ("check-invariance", "[problem]\nkind = neumann_rd\n\n[invariance]\n"
     "h = 0.25,0\n", 1, "[invariance] every h must be positive"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[solver]\n"
     "tol_residual = -1\n", 1, "[solver] tol_residual must be non-negative"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[solver]\n"
     "tol_step = -1\n", 1, "[solver] tol_step must be non-negative"),
    ("miranda", MIRANDA_HEAD + "lo = -1,-1\nhi = 1,1\nmax_depth = -1\n", 1,
     "[miranda] max_depth must be non-negative"),
    # a one-dimensional cube needs no face grid; a zero depth budget is a
    # legitimate depth_exceeded result
    ("miranda", "[problem]\nkind = miranda\n\n[miranda]\nlo = -1\nhi = 1\n"
     "matrix = -1\noffset = 0.25\nresolution = 1\n", 0, None),
    ("miranda", "[problem]\nkind = miranda\n\n[miranda]\nlo = -1,-1\n"
     "hi = 1,1\nmatrix = -1,0;0,-1\noffset = 0.25,-0.5\nmax_depth = 0\n", 3,
     None),
    # a value of the wrong type names its option in every section
    ("solve", "[problem]\nkind = neumann_rd\n\n[constraint]\n"
     "kind = ball\nradius = abc\n", 1,
     "error: [constraint] radius: expected a number, got 'abc'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[constraint]\nhi = 1,x\n",
     1, "error: [constraint] hi: expected a number, got 'x'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = linear\na = abc\n", 1,
     "error: [nonlinearity] a: expected a number, got 'abc'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = linear\nbound = abc\n", 1,
     "error: [nonlinearity] bound: expected a number, got 'abc'"),
    ("solve", "[problem]\nkind = neumann_rd\n\n[nonlinearity]\n"
     "name = linear\nseed = abc\n", 1,
     "error: [nonlinearity] seed: expected an integer, got 'abc'"),
    # the grid's own minimum is reported against its option
    ("solve", "[problem]\nkind = neumann_rd\n\n[grid]\nnodes = 2\n", 1,
     "error: [grid] nodes must be at least 3"),
], ids=["box_lo_above_hi", "negative_radius", "heaviside_delta_zero",
        "tabulated_without_path", "tabulated_missing_file",
        "simulate_h_zero", "miranda_hi_short", "miranda_hi_not_above_lo",
        "verify_no_samples", "invariance_no_samples", "sin_extra_argument",
        "const_extra_argument", "sin_short_list", "max_iter_zero",
        "max_iter_negative", "box_with_radius", "none_with_lo",
        "moving_rectangles_as_ball", "bernstein_as_box",
        "bernstein_ball_radius", "heaviside_negative_samples",
        "heaviside_fractional_samples", "heaviside_zero_samples",
        "heaviside_infinite_samples", "simulate_t_end_inf", "simulate_h_nan",
        "grid_length_nan", "grid_nodes_word", "solver_h0_nan",
        "operator_shift_nan",
        "profile_argument_inf", "box_lo_nan", "linear_a_nan",
        "linear_b_minus_inf", "solver_tol_residual_nan", "invariance_tol_nan",
        "bound_nan", "miranda_hi_inf", "verify_negative_seed",
        "invariance_negative_seed", "heaviside_negative_seed_solve",
        "heaviside_negative_seed_check", "miranda_resolution_zero",
        "miranda_resolution_one", "miranda_tol_zero", "miranda_tol_negative",
        "invariance_tol_negative", "invariance_h_zero",
        "solver_tol_residual_negative", "solver_tol_step_negative",
        "miranda_max_depth_negative", "miranda_1d_resolution_one",
        "miranda_max_depth_zero", "ball_radius_word", "box_hi_word",
        "linear_a_word", "bound_word", "seed_word", "grid_nodes_two"])
def test_bad_config_values_fail_at_parse_time(tmp_path, capsys, command,
                                              text, code, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run_cli([command, str(cfg), "--out", str(tmp_path / "out")]) \
        == code
    err = capsys.readouterr().err
    if message is None:
        assert err == ""
    else:
        assert "error: " in err and message in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_tracks_viability(tmp_path, capsys):
    code = run_cli(["simulate", _cfg("neumann_linear.cfg"),
                    "--out", str(tmp_path)])
    assert code == 0
    assert "status completed after 20 steps" in capsys.readouterr().out
    rep = _report(tmp_path)["report"]
    assert rep["status"] == "completed"
    assert rep["max_constraint_distance"] <= 1e-9
    data = np.loadtxt(tmp_path / "terminal_state.csv", delimiter=",",
                      skiprows=1)
    assert data.shape == (101, 2)


# ---------------------------------------------------------------------------
# plumbing


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("TANGENT_EQ_OUT", str(target))
    assert run_cli(["check-conditions", _cfg("neumann_linear.cfg")]) == 0
    assert (target / "report.json").exists()


@pytest.mark.parametrize("where", ["file", "below_file", "env_file"])
def test_an_unusable_output_path_exits_one(tmp_path, monkeypatch, capsys,
                                           where):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "sub" if where == "below_file" else taken
    argv = ["check-invariance", _cfg("neumann_linear.cfg")]
    if where == "env_file":
        monkeypatch.setenv("TANGENT_EQ_OUT", str(out))
    else:
        argv += ["--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs: ")
    assert str(out) in err
    assert taken.read_text() == "not a directory\n"


def test_usage_and_config_errors_exit_one(tmp_path, capsys):
    assert run_cli([]) == 1
    assert run_cli(["frobnicate", "x.cfg"]) == 1
    assert run_cli(["solve", str(tmp_path / "missing.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nkind = nonsense\n")
    assert run_cli(["solve", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_config_exits_one(tmp_path, capsys):
    binary = tmp_path / "junk.cfg"
    binary.write_bytes(b"\x8c\xff\x00\xfe not text")
    assert run_cli(["solve", str(binary)]) == 1
    assert "not UTF-8" in capsys.readouterr().err


ALL_COMMANDS = ("solve", "miranda", "check-invariance", "check-conditions",
                "simulate")


@pytest.mark.parametrize("name,command", sorted(
    (f[:-4], command) for f in os.listdir(CONFIG_DIR) if f.endswith(".cfg")
    for command in ALL_COMMANDS
    if (load_config(_cfg(f)).kind == "miranda") != (command == "miranda")))
def test_command_kind_mismatch_exits_one(tmp_path, capsys, name, command):
    out = tmp_path / "out"
    assert run_cli([command, _cfg(name + ".cfg"), "--out", str(out)]) == 1
    assert "does not apply" in capsys.readouterr().err
    assert not out.exists()


def _benchmark_workloads():
    """``perfbench/workloads.py``, loaded from its file and used read-only."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_workloads()


@pytest.mark.parametrize("cfg,command", sorted(
    (f, command) for f in os.listdir(CONFIG_DIR) if f.endswith(".cfg")
    for command in (("miranda",) if load_config(_cfg(f)).kind == "miranda"
                    else WORKLOADS._GRID_COMMANDS)))
def test_shipped_pairs_keep_the_benchmark_exit_codes(tmp_path, cfg, command):
    # the exit code and report status the benchmark's correctness check
    # expects of each pair it runs
    code, statuses = WORKLOADS._DESIGNED.get((cfg, command),
                                             WORKLOADS._DEFAULT[command])
    assert run_cli([command, _cfg(cfg), "--out", str(tmp_path),
                    "--seed", "1"]) == code
    if statuses is not None:
        assert WORKLOADS._report_status(_report(tmp_path)) in statuses


def test_installed_script_runs(tmp_path):
    # the console script when installed, else the same entry point as a
    # module, found through the import path of this test run
    exe = shutil.which("tangenteq")
    cmd = [exe] if exe else [sys.executable, "-m", "tangenteq.cli"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(tangenteq.__file__)))
    proc = subprocess.run(cmd + ["miranda", _cfg("affine.cfg"),
                                 "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "status converged" in proc.stdout


def _fresh_cli(argv):
    """``run_cli(argv)`` in a new interpreter; its exit code."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(tangenteq.__file__)))
    return subprocess.run([sys.executable, "-m", "tangenteq.cli"] + argv,
                          capture_output=True, env=env).returncode


def test_one_parser_serves_every_call_of_a_process(tmp_path):
    # the second call sets neither flag: a leaked --force would skip the
    # gate and a leaked --seed would change bernstein's gate samples
    calls = [["solve", _cfg("bernstein.cfg"), "--force", "--seed", "3"],
             ["solve", _cfg("bernstein.cfg")]]
    for i, argv in enumerate(calls):
        same, fresh = tmp_path / ("same%d" % i), tmp_path / ("fresh%d" % i)
        assert run_cli(argv + ["--out", str(same)]) \
            == _fresh_cli(argv + ["--out", str(fresh)])
        assert sorted(os.listdir(same)) == sorted(os.listdir(fresh))
        for name in os.listdir(same):
            assert (same / name).read_bytes() == (fresh / name).read_bytes()
    assert _report(tmp_path / "same0")["condition_reports"] is None
    assert _report(tmp_path / "same1")["condition_reports"]["passed"]


_BUILDERS = ("build_grid", "_build_solver", "_build_field",
             "_build_constraint", "build_operator")
_PDE_CONFIGS = [name for name in sorted(os.listdir(CONFIG_DIR))
                if name.endswith(".cfg") and name != "affine.cfg"]


@pytest.mark.parametrize("command", ["solve", "check-conditions",
                                     "check-invariance", "simulate"])
def test_a_run_builds_each_object_once(tmp_path, monkeypatch, command):
    # the parse builds the grid, solver settings, field and constraint,
    # and the command runs those; only a solve or an audit assembles an
    # operator
    built = []
    for name in _BUILDERS:
        def counted(self, _name=name, _method=getattr(ProblemSpec, name)):
            built.append(_name)
            return _method(self)
        monkeypatch.setattr(ProblemSpec, name, counted)
    want = dict.fromkeys(_BUILDERS, 1)
    want["build_operator"] = int(command != "check-conditions")
    for cfg in _PDE_CONFIGS:
        del built[:]
        run_cli([command, _cfg(cfg), "--out", str(tmp_path / cfg),
                 "--seed", "7"])
        assert {name: built.count(name) for name in _BUILDERS} == want, cfg
