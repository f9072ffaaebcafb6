"""INI problem descriptions: parsing, canonicalization, and assembly.

A run is described by a small INI file.  Parsing normalizes every value
(floats through ``repr``, names lowercased, lists comma-joined) into a
canonical section table, so parse -> serialize -> parse is the identity
on that table.  The builder methods then assemble the live objects:
grid, operator, nonlinearity, constraint, solver settings.

Problem kinds and their fixed boundary conditions:

    neumann_rd         no-flux reaction-diffusion        (box constraint)
    dirichlet_rd       pinned-boundary reaction-diffusion
    drift_rd           no-flux with first-order drift
    periodic_rd        periodic ring
    bernstein_bvp      gradient-dependent two-point problem on a ball
    moving_rectangles  nodewise bound pair alpha(x) <= u <= beta(x)
    miranda            sign-change zero search (no operator)

Coefficient and profile values accept a float literal, ``sin:amp,period,
offset`` for offset + amp*sin(2*pi*x/period), or ``quad:a,b,c`` for
a + b*x + c*x**2.
"""

import configparser
import io

import numpy as np

from .convex import Ball, Box, MovingBox, Simplex
from .equilibrium import SolverConfig
from .errors import InvalidSpec
from .miranda import Cube
from .operators import Grid1D, OperatorSpec, _sample, assemble
from .problems import (StateShiftedField, make_nonlinearity,
                       NONLINEARITY_NAMES, NONLINEARITY_PARAMS)

_KIND_BC = {
    "neumann_rd": "neumann",
    "dirichlet_rd": "dirichlet",
    "drift_rd": "neumann",
    "periodic_rd": "periodic",
    "bernstein_bvp": "dirichlet",
    "moving_rectangles": "dirichlet",
    "miranda": None,
}

_SECTION_ORDER = ("problem", "grid", "operator", "nonlinearity", "constraint",
                  "solver", "simulate", "verify", "invariance", "bernstein",
                  "miranda")

# every option a section accepts; [nonlinearity] and [constraint] are
# handled separately because their options depend on the catalog name or
# the constraint kind
_SECTION_KEYS = {
    "problem": ("kind",),
    "grid": ("length", "nodes"),
    "operator": ("bc", "components", "d", "gamma", "shift"),
    "solver": ("damping", "h0", "max_iter", "method", "schedule",
               "tol_residual", "tol_step", "u0"),
    "simulate": ("h", "t_end"),
    "verify": ("samples", "seed"),
    "invariance": ("h", "samples", "seed", "tol"),
    "bernstein": ("a", "b", "c", "radius"),
    "miranda": ("hi", "lo", "matrix", "max_depth", "offset",
                "resolution", "tol"),
}


def _check_layout(raw, kind):
    """Reject unknown sections and options instead of silently defaulting."""
    if kind == "miranda":
        allowed = {"problem", "miranda"}
    elif kind == "bernstein_bvp":
        allowed = set(_SECTION_ORDER) - {"miranda"}
    else:
        allowed = set(_SECTION_ORDER) - {"miranda", "bernstein"}
    for name, body in raw.items():
        if name not in _SECTION_ORDER:
            raise InvalidSpec("unknown section [%s]" % (name,))
        if name not in allowed:
            raise InvalidSpec("[%s] does not apply to kind %r" % (name, kind))
        if name in ("nonlinearity", "constraint"):
            continue
        for key in body:
            if key not in _SECTION_KEYS[name]:
                raise InvalidSpec("unknown option %r in [%s]" % (key, name))


def _fnum(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        raise InvalidSpec("expected a number, got %r" % (text,)) from None


def _inum(text):
    try:
        return int(str(text).strip())
    except (TypeError, ValueError):
        raise InvalidSpec("expected an integer, got %r" % (text,)) from None


def _canon_float(text):
    return repr(_fnum(text))


def _canon_int(text):
    return repr(_inum(text))


def _canon_list(text):
    return ",".join(repr(_fnum(t)) for t in str(text).split(","))


# the arguments each profile takes, with the values that pad a short list
_PROFILE_DEFAULTS = {"sin": (0.0, 1.0, 0.0), "quad": (0.0, 0.0, 0.0),
                     "const": (0.0,)}


def _canon_profile(text):
    t = str(text).strip().lower()
    if ":" in t:
        name, args = t.split(":", 1)
        if name not in _PROFILE_DEFAULTS:
            raise InvalidSpec("unknown profile %r" % (name,))
        vals = _canon_list(args)
        if vals.count(",") >= len(_PROFILE_DEFAULTS[name]):
            raise InvalidSpec("profile %r takes at most %d arguments"
                              % (name, len(_PROFILE_DEFAULTS[name])))
        return name + ":" + vals
    return _canon_float(t)


# canonical form and default of each [constraint] option, by constraint
# kind; bernstein_bvp fixes a ball (radius in [bernstein]) and
# moving_rectangles a nodewise bound pair
_CONSTRAINT_OPTIONS = {
    "none": {},
    "box": {"lo": (_canon_list, "0.0"), "hi": (_canon_list, "1.0")},
    "ball": {"center": (_canon_list, "0.0"), "radius": (_canon_float, "1.0")},
    "simplex": {"total": (_canon_float, "1.0")},
}
_FIXED_CONSTRAINTS = {
    "bernstein_bvp": ("ball", {}),
    "moving_rectangles": ("moving_box", {"alpha": (_canon_profile, None),
                                         "beta": (_canon_profile, None)}),
}


def _canon_constraint(kind, c):
    """The canonical ``[constraint]`` table of problem ``kind`` from the
    raw one ``c``; rejects a constraint kind the problem kind does not
    take and an option the constraint kind would ignore."""
    if kind in _FIXED_CONSTRAINTS:
        ckind, options = _FIXED_CONSTRAINTS[kind]
        if c.get("kind", ckind).strip().lower() != ckind:
            raise InvalidSpec("kind %r fixes [constraint] kind = %s"
                              % (kind, ckind))
    else:
        ckind = c.get("kind", "box").strip().lower()
        if ckind not in _CONSTRAINT_OPTIONS:
            raise InvalidSpec("unknown constraint kind %r" % (ckind,))
        options = _CONSTRAINT_OPTIONS[ckind]
    extra = sorted(set(c) - {"kind"} - set(options))
    if extra:
        raise InvalidSpec("option %r in [constraint] does not apply to "
                          "constraint kind %r" % (extra[0], ckind))
    out = {"kind": ckind}
    for key, (canon, default) in options.items():
        if default is None and key not in c:
            raise InvalidSpec("%s needs %s" % (kind, " and ".join(options)))
        out[key] = canon(c.get(key, default))
    return out


def _profile_fn(text):
    """Turn a canonical profile string into a callable of x (or a float)."""
    t = str(text).strip()
    if ":" not in t:
        return float(t)
    name, args = t.split(":", 1)
    if name not in _PROFILE_DEFAULTS:
        raise InvalidSpec("unknown profile %r" % (name,))
    vals = [float(a) for a in args.split(",")]
    vals += _PROFILE_DEFAULTS[name][len(vals):]
    if name == "const":
        return vals[0]
    if name == "sin":
        amp, period, offset = vals
        return lambda x: offset + amp * np.sin(2.0 * np.pi * x / period)
    a, b, c = vals
    return lambda x: a + b * x + c * x * x


def _sample_profile(text, xs, name):
    return _sample(_profile_fn(text), xs, name)


class ProblemSpec:
    """Canonical section table plus builders for the live objects."""

    def __init__(self, sections):
        self.sections = sections

    def __eq__(self, other):
        return isinstance(other, ProblemSpec) and self.sections == other.sections

    @property
    def kind(self):
        return self.sections["problem"]["kind"]

    def _get(self, section, key):
        return self.sections[section][key]

    # -- builders ----------------------------------------------------------

    def build_grid(self):
        periodic = self.kind == "periodic_rd"
        return Grid1D(_fnum(self._get("grid", "length")),
                      _inum(self._get("grid", "nodes")), periodic=periodic)

    @property
    def components(self):
        return _inum(self._get("operator", "components"))

    def build_operator(self, grid=None):
        grid = grid or self.build_grid()
        sec = self.sections["operator"]
        shift_txt = sec["shift"]
        if self.kind == "bernstein_bvp":
            shift = -_fnum(self._get("bernstein", "c"))
        elif shift_txt == "auto":
            shift = None
        else:
            shift = _fnum(shift_txt)
        spec = OperatorSpec(d=_profile_fn(sec["d"]),
                            gamma=_profile_fn(sec["gamma"]),
                            bc=_KIND_BC[self.kind], shift=shift,
                            components=self.components)
        return assemble(spec, grid)

    def build_field(self, wrapped=True):
        sec = dict(self.sections["nonlinearity"])
        name = sec.pop("name")
        bound = sec.pop("bound", None)
        seed = _inum(sec.pop("seed", "0"))
        params = {k: (v if ":" in v or not _is_floatish(v) else float(v))
                  for k, v in sec.items()}
        base = make_nonlinearity(name, params, components=self.components,
                                 bound=None if bound in (None, "none")
                                 else _fnum(bound), seed=seed)
        if wrapped and self.kind == "bernstein_bvp":
            return StateShiftedField(base, _fnum(self._get("bernstein", "c")))
        return base

    def build_constraint(self, grid=None):
        N = self.components
        sec = self.sections.get("constraint", {})
        ckind = sec.get("kind", "none")
        if self.kind == "bernstein_bvp":
            return Ball(np.zeros(N), _fnum(self._get("bernstein", "radius")))
        if self.kind == "moving_rectangles":
            grid = grid or self.build_grid()
            return MovingBox(
                _sample_profile(sec["alpha"], grid.nodes, "alpha"),
                _sample_profile(sec["beta"], grid.nodes, "beta"))
        if ckind == "none":
            return None
        if ckind == "box":
            return Box(_vector(sec["lo"], N), _vector(sec["hi"], N))
        if ckind == "ball":
            return Ball(_vector(sec["center"], N), _fnum(sec["radius"]))
        if ckind == "simplex":
            return Simplex(_fnum(sec["total"]), N)
        raise InvalidSpec("unknown constraint kind %r" % (ckind,))

    def build_solver(self):
        sec = self.sections["solver"]
        return SolverConfig(step_schedule=sec["schedule"],
                            h0=_fnum(sec["h0"]),
                            max_iter=_inum(sec["max_iter"]),
                            tol_residual=_fnum(sec["tol_residual"]),
                            tol_step=_fnum(sec["tol_step"]),
                            damping=_fnum(sec["damping"]))

    @property
    def method(self):
        return self.sections["solver"]["method"]

    def initial_state(self, grid=None):
        grid = grid or self.build_grid()
        N = self.components
        text = self.sections["solver"]["u0"]
        if text == "zeros":
            return np.zeros((grid.n, N))
        vals = _sample_profile(text, grid.nodes, "u0")
        return np.tile(vals[:, None], (1, N))

    def verify_params(self):
        sec = self.sections["verify"]
        return {"samples": _count(sec["samples"], "[verify] samples"),
                "seed": _inum(sec["seed"])}

    def invariance_params(self):
        sec = self.sections["invariance"]
        return {"h_list": [float(t) for t in sec["h"].split(",")],
                "sample_count": _count(sec["samples"],
                                       "[invariance] samples"),
                "seed": _inum(sec["seed"]),
                "overshoot_tol": _fnum(sec["tol"])}

    def bernstein_params(self):
        sec = self.sections["bernstein"]
        return {k: _fnum(sec[k]) for k in ("radius", "c", "a", "b")}

    def simulate_params(self):
        sec = self.sections["simulate"]
        t_end, h = _fnum(sec["t_end"]), _fnum(sec["h"])
        if t_end <= 0 or h <= 0:
            raise InvalidSpec("[simulate] t_end and h must be positive")
        return {"t_end": t_end, "h": h}

    def miranda_params(self):
        sec = self.sections["miranda"]
        lo = np.asarray([float(t) for t in sec["lo"].split(",")])
        hi = np.asarray([float(t) for t in sec["hi"].split(",")])
        matrix = np.asarray([[float(t) for t in row.split(",")]
                             for row in sec["matrix"].split(";")])
        offset = np.asarray([float(t) for t in sec["offset"].split(",")])
        if matrix.shape != (lo.size, lo.size) or offset.size != lo.size:
            raise InvalidSpec("affine map shape does not fit the cube")
        return {"lo": lo, "hi": hi, "matrix": matrix, "offset": offset,
                "tol": _fnum(sec["tol"]),
                "resolution": _inum(sec["resolution"]),
                "max_depth": _inum(sec["max_depth"])}


def _is_floatish(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def _count(text, name):
    k = _inum(text)
    if k < 1:
        raise InvalidSpec("%s must be at least 1" % name)
    return k


def _vector(text, N):
    vals = [float(t) for t in str(text).split(",")]
    if len(vals) == 1:
        vals = vals * N
    if len(vals) != N:
        raise InvalidSpec("expected %d components, got %d" % (N, len(vals)))
    return np.asarray(vals)


# ---------------------------------------------------------------------------
# parsing


def parse_config(text):
    """Parse INI text into a canonical ProblemSpec (raises InvalidSpec)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise InvalidSpec("config syntax: %s" % (exc,)) from None

    raw = {s: dict(cp.items(s)) for s in cp.sections()}
    if "problem" not in raw or "kind" not in raw["problem"]:
        raise InvalidSpec("missing [problem] kind")
    kind = raw["problem"]["kind"].strip().lower()
    if kind not in _KIND_BC:
        raise InvalidSpec("unknown problem kind %r (have: %s)"
                          % (kind, ", ".join(sorted(_KIND_BC))))
    _check_layout(raw, kind)

    out = {"problem": {"kind": kind}}

    if kind == "miranda":
        m = raw.get("miranda", {})
        for key in ("lo", "hi", "offset"):
            if key not in m:
                raise InvalidSpec("[miranda] needs %r" % (key,))
        if "matrix" not in m:
            raise InvalidSpec("[miranda] needs 'matrix'")
        out["miranda"] = {
            "lo": _canon_list(m["lo"]),
            "hi": _canon_list(m["hi"]),
            "matrix": ";".join(_canon_list(r) for r in m["matrix"].split(";")),
            "offset": _canon_list(m["offset"]),
            "tol": _canon_float(m.get("tol", "1e-9")),
            "resolution": _canon_int(m.get("resolution", "9")),
            "max_depth": _canon_int(m.get("max_depth", "200")),
        }
        return _touched(ProblemSpec(out))

    g = raw.get("grid", {})
    out["grid"] = {"length": _canon_float(g.get("length", "1.0")),
                   "nodes": _canon_int(g.get("nodes", "101"))}

    o = raw.get("operator", {})
    if "bc" in o and o["bc"].strip().lower() != _KIND_BC[kind]:
        raise InvalidSpec("kind %r fixes bc=%s" % (kind, _KIND_BC[kind]))
    shift = o.get("shift", "auto").strip().lower()
    out["operator"] = {
        "d": _canon_profile(o.get("d", "1.0")),
        "gamma": _canon_profile(o.get("gamma",
                                      "0.5" if kind == "drift_rd" else "0.0")),
        "shift": shift if shift == "auto" else _canon_float(shift),
        "components": _canon_int(o.get("components", "1")),
    }
    N = int(out["operator"]["components"])
    if N < 1:
        raise InvalidSpec("components must be at least 1")

    f = raw.get("nonlinearity", {})
    fname = f.get("name", "linear").strip().lower()
    if fname not in NONLINEARITY_NAMES:
        raise InvalidSpec("unknown nonlinearity %r" % (fname,))
    fsec = {"name": fname}
    if "bound" in f:
        fsec["bound"] = _canon_float(f["bound"])
    if "seed" in f:
        fsec["seed"] = _canon_int(f["seed"])
    for key, val in f.items():
        if key in ("name", "bound", "seed"):
            continue
        if key not in NONLINEARITY_PARAMS[fname]:
            raise InvalidSpec("%r is not a parameter of the %s nonlinearity"
                              % (key, fname))
        fsec[key] = val.strip() if key == "path" else _canon_float(val)
    out["nonlinearity"] = fsec

    out["constraint"] = _canon_constraint(kind, raw.get("constraint", {}))

    s = raw.get("solver", {})
    method = s.get("method", "resolvent").strip().lower()
    if method not in ("resolvent", "truncation"):
        raise InvalidSpec("unknown solver method %r" % (method,))
    if method == "truncation" and _KIND_BC[kind] != "dirichlet":
        raise InvalidSpec("truncation method needs a dirichlet kind")
    schedule = s.get("schedule", "fixed").strip().lower()
    if schedule not in ("fixed", "harmonic"):
        raise InvalidSpec("unknown schedule %r" % (schedule,))
    out["solver"] = {
        "method": method,
        "schedule": schedule,
        "h0": _canon_float(s.get("h0", "0.5")),
        "max_iter": _canon_int(s.get("max_iter", "500")),
        "tol_residual": _canon_float(s.get("tol_residual", "1e-9")),
        "tol_step": _canon_float(s.get("tol_step", "1e-10")),
        "damping": _canon_float(s.get("damping", "1.0")),
        "u0": _canon_profile(s.get("u0", "zeros"))
        if s.get("u0", "zeros").strip().lower() != "zeros" else "zeros",
    }

    sim = raw.get("simulate", {})
    out["simulate"] = {"t_end": _canon_float(sim.get("t_end", "1.0")),
                       "h": _canon_float(sim.get("h", "0.05"))}

    v = raw.get("verify", {})
    out["verify"] = {"samples": _canon_int(v.get("samples", "10000")),
                     "seed": _canon_int(v.get("seed", "42"))}

    inv = raw.get("invariance", {})
    out["invariance"] = {"h": _canon_list(inv.get("h", "0.25,0.125,0.0625")),
                         "samples": _canon_int(inv.get("samples", "400")),
                         "seed": _canon_int(inv.get("seed", "0")),
                         "tol": _canon_float(inv.get("tol", "1e-10"))}

    if kind == "bernstein_bvp":
        bz = raw.get("bernstein", {})
        out["bernstein"] = {"radius": _canon_float(bz.get("radius", "2.0")),
                            "c": _canon_float(bz.get("c", "1.0")),
                            "a": _canon_float(bz.get("a", "0.0")),
                            "b": _canon_float(bz.get("b", "3.0"))}

    return _touched(ProblemSpec(out))


def _touched(spec):
    """``spec`` after every builder that only needs the table has run, so
    that bad values fail at parse time, for every command, rather than
    mid-run (a builder's ValueError or a missing data file becomes
    InvalidSpec)."""
    try:
        if spec.kind == "miranda":
            mp = spec.miranda_params()
            Cube(mp["lo"], mp["hi"])
            return spec
        spec.build_grid()
        spec.build_solver()
        spec.build_field()
        spec.build_constraint()
        spec.simulate_params()
        spec.verify_params()
        spec.invariance_params()
    except (ValueError, OSError) as exc:
        raise InvalidSpec(str(exc)) from None
    return spec


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except UnicodeDecodeError:
        raise InvalidSpec("config is not UTF-8 text: %s" % (path,)) from None


def serialize(spec):
    """Render a canonical spec back to INI text (stable key order)."""
    buf = io.StringIO()
    for name in _SECTION_ORDER:
        if name not in spec.sections:
            continue
        buf.write("[%s]\n" % name)
        for key in sorted(spec.sections[name]):
            buf.write("%s = %s\n" % (key, spec.sections[name][key]))
        buf.write("\n")
    return buf.getvalue()
