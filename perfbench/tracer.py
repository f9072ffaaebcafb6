"""Run-time tracing of the tangenteq layers from outside the package.

``Tracer.install`` wraps every public function and method of the layer
modules (and ``__init__`` of their plain classes) and rebinds each wrapper
at every place a caller looks the name up: the defining module, every
package module that imported the name, and the package namespace.
Methods are wrapped once on their class, which every caller shares.
``uninstall`` puts the originals back.

Each wrapped call is a span.  Spans are folded into per-(callee, caller)
aggregates of count, total time and self time (total minus child spans),
so a million per-node ``evaluate`` calls cost a million additions and no
memory.  Coarse spans (job, command, solver call, resolvent, verifier,
certificate) are also kept one by one, tagged with the job id, and
written out when the run ends.
"""

import contextlib
import dataclasses
import functools
import importlib
import inspect
import sys
import time

PACKAGE = "tangenteq"
LAYERS = ("cli", "config", "problems", "fields", "convex", "operators",
          "equilibrium", "miranda")
HARNESS = "harness"

_SOLVERS = ("equilibrium:resolvent_iterate", "equilibrium:truncation_iterate",
            "equilibrium:viability_simulate")
_VERIFIERS = ("problems:verify_tangency", "problems:verify_bernstein",
              "problems:verify_subsuper")
_RESOLVENT = "operators:DiscreteOperator.resolvent"
_COARSE = frozenset(("cli:run_cli", _RESOLVENT, "miranda:miranda_solve",
                     "miranda:miranda_check") + _SOLVERS + _VERIFIERS)


def _public(name):
    return not name.startswith("_")


class Tracer:
    """Span stack, aggregates and the patch list for one traced process."""

    def __init__(self):
        self._patches = []
        self._root = [HARNESS + ":run", 0.0, 0.0, 0]
        self._stack = [self._root]
        self._next_id = 1
        self.job = None
        self.reset()

    # -- results -----------------------------------------------------------

    def reset(self):
        """Start a fresh aggregate (one per traced pass)."""
        self.agg = {}
        self.spans = []
        self.map_evals = 0

    # -- patching ----------------------------------------------------------

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module("%s.%s" % (PACKAGE, layer))
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and _public(attr):
                    wrapped[id(obj)] = self._wrap(obj, layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if isinstance(obj, property) and _public(attr) and obj.fget:
                new = property(self._wrap(obj.fget, layer), obj.fset,
                               obj.fdel, obj.__doc__)
            elif inspect.isfunction(obj) and (
                    _public(attr) or (attr == "__init__"
                                      and not dataclasses.is_dataclass(cls))):
                new = self._wrap(obj, layer)
            else:
                continue
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, new)

    def _wrap(self, fn, layer):
        name = "%s:%s" % (layer, fn.__qualname__)
        coarse = name in _COARSE
        counts_map = name == "miranda:miranda_solve"
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counts_map:
                args = (tracer._counted(args[0]),) + args[1:]
            frame = [name, clock(), 0.0, 0]
            if coarse:
                frame[3] = tracer._next_id
                tracer._next_id += 1
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1]
                tracer._close(frame, parent, end)
                if coarse:
                    tracer._record(frame, parent, end, args, result, error)

        return functools.wraps(fn)(traced)

    def _counted(self, f):
        def counted(x):
            self.map_evals += 1
            return f(x)
        return counted

    # -- spans -------------------------------------------------------------

    def _close(self, frame, parent, end):
        dur = end - frame[1]
        parent[2] += dur
        key = (frame[0], parent[0])
        entry = self.agg.get(key)
        if entry is None:
            self.agg[key] = [1, dur, dur - frame[2]]
        else:
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame[2]

    def _record(self, frame, parent, end, args, result, error):
        span = {"id": frame[3], "parent": parent[3], "job": self.job,
                "name": frame[0], "start": frame[1], "end": end}
        if error is not None:
            span["error"] = "%s: %s" % (type(error).__name__, error)
        if frame[0] == _RESOLVENT:
            op, h, F = args[0], args[1], args[2]
            n = op.grid.n
            span.update(op=id(op), h=float(h), n=n,
                        columns=max(1, int(getattr(F, "size", n)) // n))
        elif frame[0] in _SOLVERS and result is not None:
            span["status"] = result.status
            span["sweeps"] = int(getattr(result, "iterations", 0)
                                 or getattr(result, "steps", 0))
        elif frame[0] == "miranda:miranda_solve" and result is not None:
            span.update(status=result.status, depth=int(result.depth),
                        fallback_steps=int(result.fallback_steps))
        self.spans.append(span)

    @contextlib.contextmanager
    def job_span(self, job):
        """Harness span around one job; the spans inside carry its id."""
        self.job = job
        frame = [HARNESS + ":job", time.perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            parent = self._stack[-1]
            self._close(frame, parent, end)
            self._record(frame, parent, end, (), None, None)
            self.job = None


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's aggregates


def _matches(rule, name):
    if rule is None:
        return True
    if isinstance(rule, str):
        return name == rule
    if callable(rule):
        return rule(name)
    return name in rule


def _sum(agg, callee, caller=None, column=0):
    """Sum a column (0 count, 1 total, 2 self time) over the aggregates
    whose callee and caller match; a rule is a name, a set of names or a
    predicate."""
    return sum(v[column] for (c, p), v in agg.items()
               if _matches(callee, c) and _matches(caller, p))


def _in_layer(layer):
    return lambda name: name.split(":", 1)[0] == layer


def _self_time(agg, layer):
    return _sum(agg, _in_layer(layer), column=2)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg, spans, map_evals, pass_s):
    """Per-layer counts and self times of one traced pass.

    ``pass_s`` is the pass's wall time as the harness measured it; the
    closure remainder ``trace.unaccounted_s`` is what no span covers.
    """
    evaluate = "fields:NonlinearityField.evaluate"
    apply_ = "operators:DiscreteOperator.apply"
    resolvent_spans = [s for s in spans if s["name"] == _RESOLVENT]
    solver_spans = [s for s in spans if s["name"] in _SOLVERS]
    certs = [s for s in spans if s["name"] == "miranda:miranda_solve"]
    sweeps = (_sum(agg, _RESOLVENT, {"equilibrium:resolvent_iterate",
                                     "equilibrium:viability_simulate"})
              + _sum(agg, "operators:DiscreteOperator.solve_stationary",
                     "equilibrium:truncation_iterate"))
    m = {}
    m["cli.commands"] = _sum(agg, "cli:run_cli")
    m["cli.self_s"] = _self_time(agg, "cli")
    m["config.parses"] = _sum(agg, "config:parse_config")
    m["config.self_s"] = _self_time(agg, "config")

    m["problems.verifier_calls"] = _sum(agg, set(_VERIFIERS))
    m["problems.field_evals"] = _sum(agg, evaluate, _in_layer("problems"))
    m["problems.self_s"] = _self_time(agg, "problems")

    m["fields.evals"] = _sum(agg, evaluate)
    m["fields.evals_per_sweep"] = _ratio(m["fields.evals"], sweeps)
    m["fields.self_s"] = _self_time(agg, "fields")
    m["fields.selections"] = _sum(agg, "fields:tangent_selection")
    m["fields.dykstra_steps"] = _sum(
        agg, lambda c: c.endswith(".tangent_project"),
        "fields:tangent_selection")
    m["fields.dykstra_steps_per_selection"] = _ratio(
        m["fields.dykstra_steps"], m["fields.selections"])

    m["convex.projections"] = _sum(
        agg, lambda c: c.startswith("convex:") and c.endswith(".project"))
    m["convex.cone_projections"] = _sum(
        agg, lambda c: c.startswith("convex:")
        and c.endswith(".tangent_project"))
    m["convex.self_s"] = _self_time(agg, "convex")

    m["operators.resolvents"] = _sum(agg, _RESOLVENT)
    m["operators.resolvent_columns"] = sum(s["columns"]
                                           for s in resolvent_spans)
    m["operators.resolvents_per_h"] = _ratio(
        m["operators.resolvents"],
        len({(s["op"], s["h"]) for s in resolvent_spans}))
    m["operators.resolvent_self_s"] = _sum(agg, _RESOLVENT, column=2)
    m["operators.guard_s"] = _sum(agg, apply_, _RESOLVENT, column=1)
    # computed, not measured: bands 3n and 6 passes over the n x m
    # right-hand side (solve in/out, guard apply in/out, residual reads)
    m["operators.resolvent_bytes"] = sum(
        8 * (6 * s["n"] + 6 * s["n"] * s["columns"]) for s in resolvent_spans)
    m["operators.applies"] = _sum(agg, apply_)
    m["operators.gradients"] = _sum(agg, "operators:DiscreteOperator.gradient")
    m["operators.norms"] = _sum(agg, "operators:Grid1D.norm")
    m["operators.self_s"] = _self_time(agg, "operators")

    converged = [s for s in solver_spans if s.get("status") == "converged"
                 and s["name"] != "equilibrium:viability_simulate"]
    m["equilibrium.solves"] = len(solver_spans)
    m["equilibrium.sweeps"] = sweeps
    m["equilibrium.sweeps_per_converged"] = _ratio(
        sum(s["sweeps"] for s in converged), len(converged))
    m["equilibrium.self_s"] = _self_time(agg, "equilibrium")

    m["miranda.solves"] = len(certs)
    m["miranda.checks"] = _sum(agg, "miranda:miranda_check")
    m["miranda.checks_per_depth"] = _ratio(
        m["miranda.checks"], sum(s.get("depth", 0) for s in certs))
    m["miranda.map_evals"] = map_evals
    m["miranda.fallback_steps"] = sum(s.get("fallback_steps", 0)
                                      for s in certs)
    m["miranda.self_s"] = _self_time(agg, "miranda")

    harness = _self_time(agg, HARNESS)
    m["harness.self_s"] = harness
    layers = sum(_self_time(agg, layer) for layer in LAYERS)
    m["trace.unaccounted_s"] = pass_s - layers - harness
    return m
