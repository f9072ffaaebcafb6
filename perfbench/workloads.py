"""The benchmark workloads: job lists built from a seed, and the
output checks that turn each job execution into pass or fail.

Every workload is a closed loop: one process runs one job at a time over
a fixed job list.  A job returns an outcome; ``check`` compares it with a
reference outside the timed region.  A job that raises fails, and its
exception message is kept as the witness.

Each job carries a node count, the size of the problem it solves: grid
nodes for grid jobs, and for a Miranda solve the sample points of one
face certificate (``2 * dim * resolution ** (dim - 1)``).  The goodput
metrics count the nodes of the jobs that pass.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import tangenteq as te
from tangenteq import cli as te_cli

WORKLOADS = ("shipped_cli", "grid_refine", "nonbox_relay")

# equilibria are checked to this tolerance; the solvers stop at
# residual 1e-9 and step 1e-10, far inside it
_EQ_TOL = 1e-6


@dataclass
class Verdict:
    ok: bool
    wrong: bool = False      # the job claimed success but its output is off
    witness: str = ""


@dataclass
class Job:
    name: str
    nodes: int
    run: object              # callable(pass_index) -> outcome
    check: object            # callable(outcome) -> Verdict


def _close(actual, expected, tol):
    gap = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
    return gap <= tol, gap


def _equilibrium_verdict(status, u, expected, tol):
    """Pass iff the solver reports ``converged`` and ``u`` is within
    ``tol`` of ``expected``; a converged but distant state is wrong."""
    if status != "converged":
        return Verdict(False, witness="status %s" % status)
    ok, gap = _close(u, expected, tol)
    if not ok:
        return Verdict(False, wrong=True,
                       witness="max deviation %.3g > %.3g" % (gap, tol))
    return Verdict(True)


def _cosh_profile(xs, scale=1.0):
    """``scale * (1 - cosh(x - 1/2) / cosh(1/2))``: the zero-boundary
    solution of ``u'' + scale - u = 0`` on ``[0, 1]``."""
    return scale * (1.0 - np.cosh(xs - 0.5) / np.cosh(0.5))


# ---------------------------------------------------------------------------
# shipped_cli: every shipped config x every command that applies


_GRID_COMMANDS = ("solve", "check-invariance", "check-conditions", "simulate")

# (config, command) -> (exit code, accepted report statuses); statuses are
# the "status" of solve/miranda/simulate reports and "passed" of audits
_DESIGNED = {
    ("dirichlet_box.cfg", "solve"): (3, ("non_convergence", "max_iter")),
    ("dirichlet_box.cfg", "check-invariance"): (2, (False,)),
    ("moving_rectangles.cfg", "check-invariance"): (1, None),
}
_DEFAULT = {
    "solve": (0, ("converged",)),
    "miranda": (0, ("converged",)),
    "check-invariance": (0, (True,)),
    "check-conditions": (0, (True,)),
    "simulate": (0, ("completed",)),
}


def _solve_reference(cfg, xs):
    """Closed-form equilibrium of each shipped solve, or None."""
    flat = {"neumann_linear.cfg": 0.5, "periodic.cfg": 0.5,
            "drift.cfg": 0.5 / 1.125, "neumann_logistic.cfg": 0.0}
    if cfg in flat:
        return np.full_like(xs, flat[cfg]), _EQ_TOL
    if cfg in ("bernstein.cfg", "moving_rectangles.cfg"):
        dx = xs[1] - xs[0]
        return _cosh_profile(xs), dx * dx
    return None


def _report_status(report):
    if "status" in report:
        return report["status"]
    inner = report.get("report", {})
    return inner.get("status", inner.get("passed"))


class ShippedCli:
    """Every shipped config x every applicable command through run_cli."""

    def __init__(self, root, seed, scratch):
        self.seed = seed
        self.scratch = scratch
        self.jobs = []
        cfg_dir = os.path.join(root, "configs")
        for cfg in sorted(os.listdir(cfg_dir)):
            if not cfg.endswith(".cfg"):
                continue
            path = os.path.join(cfg_dir, cfg)
            spec = te.load_config(path)
            if spec.kind == "miranda":
                mp = spec.miranda_params()
                dim = mp["lo"].size
                nodes = 2 * dim * mp["resolution"] ** (dim - 1)
                commands = ("miranda",)
            else:
                nodes = spec.build_grid().n
                commands = _GRID_COMMANDS
            for cmd in commands:
                self.jobs.append(Job("%s:%s" % (cfg, cmd), nodes,
                                     self._runner(path, cmd),
                                     self._checker(cfg, cmd)))

    def _runner(self, path, cmd):
        name = os.path.basename(path)[:-4]

        def run(pass_index):
            out = os.path.join(self.scratch, "p%d" % pass_index,
                               "%s-%s" % (name, cmd))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                code = te_cli.run_cli([cmd, path, "--out", out,
                                       "--seed", str(self.seed)])
            return code, out, buf.getvalue()
        return run

    def _checker(self, cfg, cmd):
        code_want, statuses = _DESIGNED.get((cfg, cmd), _DEFAULT[cmd])

        def check(outcome):
            code, out, text = outcome
            tail = text.strip().splitlines()[-1:] or [""]
            if code != code_want:
                # exit 0 where a failure is designed is a wrong answer;
                # any other mismatch is a reported failure
                return Verdict(False, wrong=code == 0,
                               witness="exit %d, want %d: %s"
                               % (code, code_want, tail[0]))
            report_path = os.path.join(out, "report.json")
            if statuses is None:
                return Verdict(True)
            with open(report_path, encoding="utf-8") as fh:
                status = _report_status(json.load(fh))
            if status not in statuses:
                return Verdict(False, wrong=True,
                               witness="status %r, want %r" % (status, statuses))
            if cmd == "solve" and code == 0:
                return self._check_state(cfg, out)
            if cmd == "miranda":
                with open(report_path, encoding="utf-8") as fh:
                    point = json.load(fh)["point"]
                ok, gap = _close(point, [0.25, -0.5], _EQ_TOL)
                if not ok:
                    return Verdict(False, wrong=True,
                                   witness="zero off by %.3g" % gap)
            return Verdict(True)
        return check

    def _check_state(self, cfg, out):
        data = np.loadtxt(os.path.join(out, "u_star.csv"), delimiter=",",
                          skiprows=1, ndmin=2)
        xs, U = data[:, 0], data[:, 1:]
        ref = _solve_reference(cfg, xs)
        if ref is None:
            return Verdict(True)
        expected, tol = ref
        return _equilibrium_verdict("converged", U, expected[:, None], tol)


# ---------------------------------------------------------------------------
# grid_refine: fine-grid library solves on all three wall types


_WALLS = ("neumann", "dirichlet", "periodic")
_FINE_SIZES = (1001, 10001)
# (nonlinearity, catalog parameters, diffusion, shipped start, max_iter)
# as in neumann_linear.cfg and neumann_logistic.cfg
_FINE_FIELDS = (
    ("linear", {"a": 0.5, "b": -1.0}, 1.0, 0.0, 400),
    ("logistic", {"r": 1.0, "theta": 0.4}, 0.02, 0.25, 2000),
)


class GridRefine:
    """Resolvent sweeps on the unit box at n = 1001 and 10001.

    The jobs where the seed's resolvent guard raises SingularSystem stay
    in the list: they are the failures ``fail_ratio`` must show.
    """

    def __init__(self, root, seed, scratch):
        rng = np.random.default_rng(seed)
        box = te.Box([0.0], [1.0])
        self.jobs = []
        for bc in _WALLS:
            for n in _FINE_SIZES:
                grid = te.Grid1D(1.0, n, periodic=bc == "periodic")
                for name, params, d, start, max_iter in _FINE_FIELDS:
                    op = te.assemble(te.OperatorSpec(d=d, bc=bc), grid)
                    field = te.make_nonlinearity(name, params)
                    u0 = np.clip(start + rng.uniform(-0.05, 0.05, n), 0.0, 1.0)
                    cfg = te.SolverConfig(h0=0.5, max_iter=max_iter)
                    ref = self._reference(name, bc, grid)
                    self.jobs.append(Job(
                        "%s:n%d:%s" % (bc, n, name), n,
                        self._runner(op, field, box, u0, cfg),
                        self._checker(*ref)))

    @staticmethod
    def _reference(name, bc, grid):
        xs = grid.nodes
        if name == "logistic":
            return np.zeros_like(xs), _EQ_TOL
        if bc == "dirichlet":
            return _cosh_profile(xs, 0.5), grid.dx ** 2
        return np.full_like(xs, 0.5), _EQ_TOL

    @staticmethod
    def _runner(op, field, box, u0, cfg):
        def run(pass_index):
            return te.resolvent_iterate(op, field, box, u0, cfg)
        return run

    @staticmethod
    def _checker(expected, tol):
        def check(report):
            return _equilibrium_verdict(report.status, report.u_star,
                                        expected, tol)
        return check


# ---------------------------------------------------------------------------
# nonbox_relay: cone projections, Dykstra selections and a relay hull


def _simplex_points(rng, n, N, mass):
    e = rng.exponential(1.0, (n, N))
    return mass * e / np.sum(e, axis=1, keepdims=True)


def _ball_points(rng, n, N, radius):
    d = rng.standard_normal((n, N))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return radius * rng.random((n, 1)) ** (1.0 / N) * d


class NonboxRelay:
    """A simplex solve, a ball solve and a relay-hull viability run."""

    def __init__(self, root, seed, scratch):
        rng = np.random.default_rng(seed)
        self.jobs = []

        grid = te.Grid1D(1.0, 51)
        op = te.assemble(te.OperatorSpec(d=1.0, bc="neumann", components=3),
                         grid)
        field = te.make_nonlinearity("linear", {"a": 1.0 / 3.0, "b": -1.0},
                                     components=3)
        u0 = _simplex_points(rng, grid.n, 3, 1.0)
        self.jobs.append(Job("simplex:n51", grid.n,
                             self._solver(op, field, te.Simplex(1.0, 3), u0),
                             self._flat_check(1.0 / 3.0)))

        grid = te.Grid1D(1.0, 201)
        op = te.assemble(te.OperatorSpec(d=1.0, bc="neumann", components=2),
                         grid)
        field = te.make_nonlinearity("linear", {"a": 0.5, "b": -1.0},
                                     components=2)
        u0 = _ball_points(rng, grid.n, 2, 1.0)
        self.jobs.append(Job("ball:n201", grid.n,
                             self._solver(op, field, te.Ball(np.zeros(2), 1.0),
                                          u0),
                             self._flat_check(0.5)))

        grid = te.Grid1D(1.0, 101)
        op = te.assemble(te.OperatorSpec(d=1.0, bc="neumann"), grid)
        relay = te.make_nonlinearity("heaviside", {}, seed=seed)
        u0 = rng.random(grid.n)
        self.jobs.append(Job("relay:n101", grid.n,
                             self._simulator(op, relay, te.Box([0.0], [1.0]),
                                             u0),
                             self._relay_check))

    @staticmethod
    def _solver(op, field, body, u0):
        def run(pass_index):
            return te.resolvent_iterate(op, field, body, u0)
        return run

    @staticmethod
    def _simulator(op, field, body, u0):
        def run(pass_index):
            return te.viability_simulate(op, field, body, u0, 1.0, 0.05)
        return run

    @staticmethod
    def _flat_check(value):
        def check(report):
            return _equilibrium_verdict(report.status, report.u_star, value,
                                        _EQ_TOL)
        return check

    @staticmethod
    def _relay_check(report):
        if report.status != "completed":
            return Verdict(False, witness="status %s" % report.status)
        if report.max_constraint_distance != 0.0:
            return Verdict(False, wrong=True,
                           witness="constraint distance %.3g"
                           % report.max_constraint_distance)
        return Verdict(True)


def build(name, root, seed, scratch):
    """Set up the named workload: parse, assemble and draw every input."""
    cls = {"shipped_cli": ShippedCli, "grid_refine": GridRefine,
           "nonbox_relay": NonboxRelay}[name]
    return cls(root, seed, scratch)
