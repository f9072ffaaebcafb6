"""Command line front end.

Subcommands:

    solve             run the configured equilibrium iteration
    miranda           sign-change zero search for an affine map
    check-invariance  proof that the resolvents keep the constraint set
    check-conditions  structural hypothesis verification
    simulate          implicit trajectory with viability tracking

Exit codes: 0 success, 1 usage or configuration errors, 2 a structural
hypothesis failed (verifier gate, certificate, or admissibility), 3 the
iteration ran but did not converge.

Output files land in --out, the TANGENT_EQ_OUT directory, or the working
directory, in that order; an output directory that cannot be created or
written is an error (exit 1).  All outputs are byte-deterministic for a
fixed config: JSON is written with sorted keys and no timestamps, CSV
with fixed float formatting.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .config import load_config
from .convex import Ball, Box, MovingBox, Simplex
from .equilibrium import (resolvent_iterate, truncation_iterate,
                          viability_simulate)
from .errors import (BoundViolated, CertificateFailed, EmptyIntersection,
                     InvalidSpec, NoSignChange, PointNotInSet, TangentEqError)
from .miranda import Cube, miranda_solve
from .operators import invariance_audit
from .problems import (ConditionReport, verify_bernstein, verify_subsuper,
                       verify_tangency)

_HYPOTHESIS_ERRORS = (BoundViolated, CertificateFailed, NoSignChange,
                      EmptyIntersection, PointNotInSet)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _seed(text):
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % (text,)) \
            from None
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative, got %d"
                                         % (seed,))
    return seed


@functools.cache
def _build_parser():
    """The one parser of the process: built at the first command and
    reused, since parsing keeps no state in it."""
    parser = _Parser(prog="tangenteq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="problem description (INI)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the [verify] sampling seed")
        return p

    p = add("solve", "run the configured equilibrium iteration")
    p.add_argument("--force", action="store_true",
                   help="skip the hypothesis gate")
    add("miranda", "sign-change zero search for an affine map")
    add("check-invariance", "proof that the resolvents keep the constraint")
    add("check-conditions", "structural hypothesis verification")
    add("simulate", "implicit trajectory with viability tracking")
    return parser


def _write_text(out, name, text):
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _write_json(out, name, payload):
    return _write_text(out, name,
                       json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(out, name, header, fmt, columns):
    """``columns`` side by side under ``header``, each entry formatted by
    its column's %-format in ``fmt``: the bytes ``np.savetxt`` writes,
    rendered as one string."""
    table = np.column_stack(columns)
    rows = (",".join(fmt) + "\n") * len(table)
    return _write_text(out, name,
                       header + "\n" + rows % tuple(table.ravel().tolist()))


def _write_state_csv(out, name, grid, U):
    U = np.asarray(U, dtype=float).reshape(grid.n, -1)
    header = ",".join(["x"] + ["u_%d" % (i + 1) for i in range(U.shape[1])])
    return _write_csv(out, name, header, ["%.17g"] * (1 + U.shape[1]),
                      [grid.nodes, U])


def _gate_report(spec, seed_override):
    """All hypothesis verifiers that apply to the problem kind: the
    sub/supersolution pair only to moving bounds, since a fixed box is
    a ``MovingBox`` of one row too."""
    params = spec.params("verify")
    if seed_override is not None:
        params["seed"] = seed_override
    grid, C = spec.grid, spec.constraint
    if spec.kind == "bernstein_bvp":
        # the catalog field, without the state shift of the solver's field
        bz = spec.params("bernstein")
        return verify_bernstein(spec.field.base,
                                R=bz["radius"], a=bz["a"], b=bz["b"],
                                c=bz["c"], length=grid.length, **params)
    if C is None:
        raise InvalidSpec("this command needs a constraint set")
    report = verify_tangency(spec.field, C, grid, **params)
    if spec.kind == "moving_rectangles":
        shape = verify_subsuper(C.alpha, C.beta, grid)
        report = ConditionReport(items=report.items + shape.items)
    return report


def _cmd_check_conditions(spec, args, out):
    report = _gate_report(spec, args.seed)
    for line in report.lines():
        print(line)
    _write_json(out, "report.json", {"kind": spec.kind,
                                     "check": "conditions",
                                     "report": report.to_dict()})
    return 0 if report.passed else 2


def _cmd_solve(spec, args, out):
    grid, field, C = spec.grid, spec.field, spec.constraint
    op = spec.build_operator()

    gate = None
    if not args.force:
        gate = _gate_report(spec, args.seed)
        if not gate.passed:
            for line in gate.lines():
                print(line)
            print("hypothesis gate failed; rerun with --force to override")
            _write_json(out, "report.json",
                        {"kind": spec.kind, "status": "gate_failed",
                         "condition_reports": gate.to_dict()})
            return 2

    if spec.method == "truncation":
        if not isinstance(C, MovingBox):
            raise InvalidSpec("truncation method needs box bounds")
        # a box's one row of bounds holds at every node
        report = truncation_iterate(op, field, C.alpha, C.beta,
                                    spec.solver, u0=spec.initial_state())
    else:
        if C is None:
            raise InvalidSpec("the resolvent method needs a constraint set")
        report = resolvent_iterate(op, field, C, spec.initial_state(),
                                   spec.solver)

    payload = report.to_dict()
    payload["kind"] = spec.kind
    payload["config"] = spec.sections
    payload["condition_reports"] = None if gate is None else gate.to_dict()
    _write_json(out, "report.json", payload)
    _write_state_csv(out, "u_star.csv", grid, report.u_star)
    hist = np.asarray(report.residual_history, dtype=float)
    _write_csv(out, "residuals.csv", "iteration,residual", ["%d", "%.17g"],
               [np.arange(1, hist.size + 1), hist])

    last = report.residual_history[-1] if report.residual_history else float("nan")
    print("status %s after %d sweeps" % (report.status, report.iterations))
    print("equation residual %.3e, tangency residual %.3e, "
          "constraint violation %.3e"
          % (last, report.tangency_residual, report.constraint_violation))
    if report.failure:
        print("failure witness: %s" % json.dumps(report.failure, sort_keys=True))
    print("wrote u_star.csv, residuals.csv, report.json -> %s" % out)
    return 0 if report.status == "converged" else 3


def _cmd_miranda(spec, args, out):
    mp = spec.miranda_params()
    matrix, offset = mp["matrix"], mp["offset"]

    def f(X):
        return X @ matrix.T + offset

    cube = Cube(mp["lo"], mp["hi"])
    result = miranda_solve(f, cube, tol=mp["tol"],
                           resolution=mp["resolution"],
                           max_depth=mp["max_depth"])
    payload = {
        "kind": "miranda",
        "status": result.status,
        "point": [float(v) for v in result.point],
        "depth": int(result.depth),
        "residual_norm": float(result.residual_norm),
        "certified_path": bool(result.certified_path),
        "fallback_steps": int(result.fallback_steps),
    }
    _write_json(out, "report.json", payload)
    print("status %s at depth %d, |f| = %.3e"
          % (result.status, result.depth, result.residual_norm))
    print("point: %s" % json.dumps(payload["point"]))
    return 0 if result.status == "converged" else 3


def _cmd_check_invariance(spec, args, out):
    op, C = spec.build_operator(), spec.constraint
    if not isinstance(C, (Box, Ball, Simplex)):
        raise InvalidSpec("invariance audit needs a box, ball, or simplex")
    params = spec.invariance_params()
    report = invariance_audit(op, C, **params)
    _write_json(out, "report.json", {"kind": spec.kind,
                                     "check": "invariance",
                                     "report": report.to_dict()})
    print("invariance %s (worst overshoot %.3e over h in %s)"
          % ("holds" if report.passed else "FAILS",
             report.worst_overshoot, params["h_list"]))
    if report.witness:
        print("witness: %s" % json.dumps(report.witness, sort_keys=True))
    return 0 if report.passed else 2


def _cmd_simulate(spec, args, out):
    op, C = spec.build_operator(), spec.constraint
    if C is None:
        raise InvalidSpec("simulation needs a constraint set")
    sim = spec.params("simulate")
    report = viability_simulate(op, spec.field, C, spec.initial_state(),
                                sim["t_end"], sim["h"])
    _write_json(out, "report.json", {"kind": spec.kind,
                                     "report": report.to_dict()})
    _write_state_csv(out, "terminal_state.csv", spec.grid,
                     report.terminal_state)
    print("status %s after %d steps, max constraint distance %.3e"
          % (report.status, report.steps, report.max_constraint_distance))
    return 0 if report.status == "completed" else 3


_COMMANDS = {
    "solve": _cmd_solve,
    "miranda": _cmd_miranda,
    "check-invariance": _cmd_check_invariance,
    "check-conditions": _cmd_check_conditions,
    "simulate": _cmd_simulate,
}


def run_cli(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        spec = load_config(args.config)
    except FileNotFoundError:
        print("error: no such config file: %s" % args.config, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: cannot read config: %s" % exc, file=sys.stderr)
        return 1
    except InvalidSpec as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if (spec.kind == "miranda") != (args.command == "miranda"):
        print("error: command %r does not apply to kind %r"
              % (args.command, spec.kind), file=sys.stderr)
        return 1
    out = args.out or os.environ.get("TANGENT_EQ_OUT") or "."
    try:
        os.makedirs(out, exist_ok=True)
        return _COMMANDS[args.command](spec, args, out)
    except OSError as exc:
        # the config is read above, so a command touches files only to
        # write its outputs
        print("error: cannot write outputs: %s" % exc, file=sys.stderr)
        return 1
    except InvalidSpec as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except _HYPOTHESIS_ERRORS as exc:
        print("hypothesis failure: %s" % exc, file=sys.stderr)
        return 2
    except TangentEqError as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 3


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
