"""INI problem descriptions: parsing, canonicalization, and assembly.

A run is described by a small INI file.  Parsing normalizes every value
(floats through ``repr``, names lowercased, lists comma-joined) into a
canonical section table, so parse -> serialize -> parse is the identity
on that table.  The ``ProblemSpec`` of the table then builds the objects
of the run once, at parse: grid, solver settings, field and constraint.
Commands run those objects; the operator and the initial state are
assembled on the spec's grid when a command asks for them.

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

Every fixed-layout option is declared once, in ``_SCHEMA``; the options of
``[nonlinearity]`` and ``[constraint]`` depend on the name or kind given.
"""

import configparser
import io
import math

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

# the problem kinds each section applies to, in serialize order
_PDE = frozenset(_KIND_BC) - {"miranda"}
_SECTION_KINDS = {"problem": frozenset(_KIND_BC), "grid": _PDE,
                  "operator": _PDE, "nonlinearity": _PDE, "constraint": _PDE,
                  "solver": _PDE, "simulate": _PDE, "verify": _PDE,
                  "invariance": _PDE, "bernstein": {"bernstein_bvp"},
                  "miranda": {"miranda"}}
_SECTION_ORDER = tuple(_SECTION_KINDS)


# ---------------------------------------------------------------------------
# option types: each is a (canonicaliser, reader) pair; the canonicaliser
# turns raw text into the canonical string or raises InvalidSpec, the
# reader turns a canonical string into the typed value


def _fnum(text, finite=True):
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise InvalidSpec("expected a number, got %r" % (text,)) from None
    if finite and not math.isfinite(value):
        raise InvalidSpec("expected a finite number, got %r" % (text,))
    return value


def _inum(text):
    try:
        return int(str(text).strip())
    except (TypeError, ValueError):
        raise InvalidSpec("expected an integer, got %r" % (text,)) from None


def _canon_float(text):
    return repr(_fnum(text))


def _canon_list(text):
    return ",".join(repr(_fnum(t)) for t in str(text).split(","))


def _floats(text):
    return [float(t) for t in text.split(",")]


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


def _profile_fn(text):
    """Turn a canonical profile string into a callable of x (or a float)."""
    if ":" not in text:
        return float(text)
    name, args = text.split(":", 1)
    vals = _floats(args)
    vals += _PROFILE_DEFAULTS[name][len(vals):]
    if name == "const":
        return vals[0]
    if name == "sin":
        amp, period, offset = vals
        return lambda x: offset + amp * np.sin(2.0 * np.pi * x / period)
    a, b, c = vals
    return lambda x: a + b * x + c * x * x


def _choice(noun, *names):
    def canon(text):
        t = str(text).strip().lower()
        if t not in names:
            raise InvalidSpec("unknown %s %r (have: %s)"
                              % (noun, t, ", ".join(sorted(names))))
        return t
    return canon, str


def _or_word(word, value, canon, read):
    """``word`` itself, reading as ``value``, or a value of the type
    ``(canon, read)``."""
    def canon_or(text):
        t = str(text).strip().lower()
        return word if t == word else canon(t)
    return canon_or, lambda t: value if t == word else read(t)


_FLOAT = (_canon_float, float)
_INT = (lambda t: repr(_inum(t)), int)
_FLOATS = (_canon_list, _floats)
_PROFILE = (_canon_profile, _profile_fn)
_MATRIX = (lambda t: ";".join(_canon_list(r) for r in str(t).split(";")),
           lambda t: np.asarray([_floats(r) for r in t.split(";")]))

# checks: a (predicate, message) pair on the read value; the message is
# reported as "[section] message", with the option name for %(key)s
_AT_LEAST_1 = (lambda v: v >= 1, "%(key)s must be at least 1")
_AT_LEAST_3 = (lambda v: v >= 3, "%(key)s must be at least 3")
_POSITIVE = (lambda v: v > 0, "%(key)s must be positive")
_ALL_POSITIVE = (lambda v: min(v) > 0, "every %(key)s must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "%(key)s must be non-negative")
_SIMULATE = (lambda v: v > 0, "t_end and h must be positive")

# {section: {key: (type, default, check)}}; a None default marks a
# required key
_SCHEMA = {
    "problem": {"kind": (_choice("problem kind", *_KIND_BC), None, None)},
    "grid": {"length": (_FLOAT, "1.0", None),
             "nodes": (_INT, "101", _AT_LEAST_3)},
    "operator": {"d": (_PROFILE, "1.0", None),
                 "gamma": (_PROFILE, "0.0", None),
                 "shift": (_or_word("auto", None, *_FLOAT), "auto", None),
                 "components": (_INT, "1", _AT_LEAST_1)},
    "solver": {"method": (_choice("solver method", "resolvent", "truncation"),
                          "resolvent", None),
               "schedule": (_choice("schedule", "fixed", "harmonic"), "fixed",
                            None),
               "h0": (_FLOAT, "0.5", None),
               "max_iter": (_INT, "500", None),
               "tol_residual": (_FLOAT, "1e-9", _NON_NEGATIVE),
               "tol_step": (_FLOAT, "1e-10", _NON_NEGATIVE),
               "damping": (_FLOAT, "1.0", None),
               "u0": (_or_word("zeros", 0.0, *_PROFILE), "zeros", None)},
    "simulate": {"t_end": (_FLOAT, "1.0", _SIMULATE),
                 "h": (_FLOAT, "0.05", _SIMULATE)},
    "verify": {"samples": (_INT, "10000", _AT_LEAST_1),
               "seed": (_INT, "42", _NON_NEGATIVE)},
    "invariance": {"h": (_FLOATS, "0.25,0.125,0.0625", _ALL_POSITIVE),
                   "tol": (_FLOAT, "1e-10", _NON_NEGATIVE)},
    "bernstein": {"radius": (_FLOAT, "2.0", None), "c": (_FLOAT, "1.0", None),
                  "a": (_FLOAT, "0.0", None), "b": (_FLOAT, "3.0", None)},
    "miranda": {"lo": (_FLOATS, None, None), "hi": (_FLOATS, None, None),
                "matrix": (_MATRIX, None, None),
                "offset": (_FLOATS, None, None),
                "tol": (_FLOAT, "1e-9", _POSITIVE),
                "resolution": (_INT, "9", None),
                "max_depth": (_INT, "200", _NON_NEGATIVE)},
}


def _canon_value(section, key, canon, text):
    """``canon(text)``, its rejection prefixed by ``[section] key:``."""
    try:
        return canon(text)
    except InvalidSpec as exc:
        raise InvalidSpec("[%s] %s: %s" % (section, key, exc)) from None


def _canon_option(section, key, given):
    """Canonical ``[section] key`` from the raw options ``given``, checked."""
    (canon, read), default, check = _SCHEMA[section][key]
    if default is None and key not in given:
        raise InvalidSpec("[%s] needs %r" % (section, key))
    value = _canon_value(section, key, canon, given.get(key, default))
    if check is not None and not check[0](read(value)):
        raise InvalidSpec("[%s] %s" % (section, check[1] % {"key": key}))
    return value


def _check_layout(raw, kind):
    """Reject unknown sections and options instead of silently defaulting."""
    for name, body in raw.items():
        if name not in _SECTION_KINDS:
            raise InvalidSpec("unknown section [%s]" % (name,))
        if kind not in _SECTION_KINDS[name]:
            raise InvalidSpec("[%s] does not apply to kind %r" % (name, kind))
        for key in body:
            if name in _SCHEMA and key not in _SCHEMA[name]:
                raise InvalidSpec("unknown option %r in [%s]" % (key, name))


# type and default of each [constraint] option, by constraint kind;
# bernstein_bvp fixes a ball (radius in [bernstein]) and moving_rectangles
# a nodewise bound pair
_CONSTRAINT_OPTIONS = {
    "none": {},
    "box": {"lo": (_FLOATS, "0.0"), "hi": (_FLOATS, "1.0")},
    "ball": {"center": (_FLOATS, "0.0"), "radius": (_FLOAT, "1.0")},
    "simplex": {"total": (_FLOAT, "1.0")},
}
_FIXED_CONSTRAINTS = {
    "bernstein_bvp": ("ball", {}),
    "moving_rectangles": ("moving_box", {"alpha": (_PROFILE, None),
                                         "beta": (_PROFILE, None)}),
}


def _constraint_options(kind, c):
    """The constraint kind in the ``[constraint]`` table ``c`` of problem
    ``kind``, with its options; rejects one the problem kind does not take."""
    if kind in _FIXED_CONSTRAINTS:
        ckind, options = _FIXED_CONSTRAINTS[kind]
        if c.get("kind", ckind).strip().lower() != ckind:
            raise InvalidSpec("kind %r fixes [constraint] kind = %s"
                              % (kind, ckind))
        return ckind, options
    ckind = c.get("kind", "box").strip().lower()
    if ckind not in _CONSTRAINT_OPTIONS:
        raise InvalidSpec("unknown constraint kind %r" % (ckind,))
    return ckind, _CONSTRAINT_OPTIONS[ckind]


def _canon_constraint(kind, c):
    """The canonical ``[constraint]`` table of problem ``kind`` from the
    raw one ``c``; rejects an option the constraint kind would ignore."""
    ckind, options = _constraint_options(kind, c)
    extra = sorted(set(c) - {"kind"} - set(options))
    if extra:
        raise InvalidSpec("option %r in [constraint] does not apply to "
                          "constraint kind %r" % (extra[0], ckind))
    out = {"kind": ckind}
    for key, ((canon, _), default) in options.items():
        if default is None and key not in c:
            raise InvalidSpec("%s needs %s" % (kind, " and ".join(options)))
        out[key] = _canon_value("constraint", key, canon, c.get(key, default))
    return out


def _canon_nonlinearity(f):
    """The canonical ``[nonlinearity]`` table: the catalog name, ``bound``
    and a non-negative ``seed`` when given, and the name's own parameters
    (a non-finite one fails when ``ProblemSpec`` builds the field, after
    the catalog's own checks)."""
    fname = f.get("name", "linear").strip().lower()
    if fname not in NONLINEARITY_NAMES:
        raise InvalidSpec("unknown nonlinearity %r" % (fname,))
    out = {"name": fname}
    for key, canon in (("bound", _canon_float), ("seed", _INT[0])):
        if key in f:
            out[key] = _canon_value("nonlinearity", key, canon, f[key])
    if not _NON_NEGATIVE[0](int(out.get("seed", 0))):
        raise InvalidSpec("[nonlinearity] %s" % (_NON_NEGATIVE[1]
                                                 % {"key": "seed"}))
    for key, val in f.items():
        if key in ("name", "bound", "seed"):
            continue
        if key not in NONLINEARITY_PARAMS[fname]:
            raise InvalidSpec("%r is not a parameter of the %s nonlinearity"
                              % (key, fname))
        out[key] = val.strip() if key == "path" else _canon_value(
            "nonlinearity", key, lambda t: repr(_fnum(t, finite=False)), val)
    return out


class ProblemSpec:
    """A canonical section table and the objects of its run, built once
    so that a bad value fails at parse time (a ValueError or a missing
    data file becomes InvalidSpec): ``grid``, ``solver`` settings,
    ``field`` (for ``bernstein_bvp`` the state shift of the catalog field
    ``field.base``) and ``constraint`` (None for kind ``none``).  A
    ``miranda`` spec only checks its cube and holds none of them."""

    def __init__(self, sections):
        self.sections = sections
        self.grid = self.solver = self.field = self.constraint = None
        try:
            if self.kind == "miranda":
                mp = self.miranda_params()
                Cube(mp["lo"], mp["hi"])
                return
            self.grid = self.build_grid()
            self.solver = self._build_solver()
            self.field = self._build_field()
            self.constraint = self._build_constraint()
        except (ValueError, OSError) as exc:
            raise InvalidSpec(str(exc)) from None

    def __eq__(self, other):
        return isinstance(other, ProblemSpec) and self.sections == other.sections

    @property
    def kind(self):
        return self.sections["problem"]["kind"]

    def value(self, section, key):
        """The typed value of the fixed-layout option ``[section] key``."""
        read = _SCHEMA[section][key][0][1]
        return read(self.sections[section][key])

    def params(self, section):
        """Every option of a fixed-layout section, typed, by key."""
        return {key: self.value(section, key) for key in _SCHEMA[section]}

    # -- builders ----------------------------------------------------------

    def build_grid(self):
        g = self.params("grid")
        return Grid1D(g["length"], g["nodes"],
                      periodic=self.kind == "periodic_rd")

    @property
    def components(self):
        return self.value("operator", "components")

    def build_operator(self):
        op = self.params("operator")
        if self.kind == "bernstein_bvp":
            op["shift"] = -self.value("bernstein", "c")
        return assemble(OperatorSpec(bc=_KIND_BC[self.kind], **op), self.grid)

    def _build_field(self):
        sec = dict(self.sections["nonlinearity"])
        name, bound = sec.pop("name"), sec.pop("bound", None)
        seed = int(sec.pop("seed", "0"))
        params = {k: v if k == "path" else float(v) for k, v in sec.items()}
        base = make_nonlinearity(name, params, components=self.components,
                                 bound=None if bound is None else float(bound),
                                 seed=seed)
        for key, val in params.items():
            if key != "path" and not math.isfinite(val):
                raise InvalidSpec("[nonlinearity] %s must be finite, got %r"
                                  % (key, val))
        if self.kind == "bernstein_bvp":
            return StateShiftedField(base, self.value("bernstein", "c"))
        return base

    def _build_constraint(self):
        N = self.components
        sec = self.sections["constraint"]
        c = {key: read(sec[key]) for key, ((_, read), _)
             in _constraint_options(self.kind, sec)[1].items()}
        if self.kind == "bernstein_bvp":
            return Ball(np.zeros(N), self.value("bernstein", "radius"))
        if self.kind == "moving_rectangles":
            return MovingBox(_sample(c["alpha"], self.grid.nodes, "alpha"),
                             _sample(c["beta"], self.grid.nodes, "beta"))
        if sec["kind"] == "box":
            return Box(_vector(c["lo"], N), _vector(c["hi"], N))
        if sec["kind"] == "ball":
            return Ball(_vector(c["center"], N), c["radius"])
        if sec["kind"] == "simplex":
            return Simplex(c["total"], N)
        return None

    def _build_solver(self):
        s = self.params("solver")
        return SolverConfig(step_schedule=s["schedule"], h0=s["h0"],
                            max_iter=s["max_iter"],
                            tol_residual=s["tol_residual"],
                            tol_step=s["tol_step"], damping=s["damping"])

    @property
    def method(self):
        return self.value("solver", "method")

    def initial_state(self):
        vals = _sample(self.value("solver", "u0"), self.grid.nodes, "u0")
        return np.tile(vals[:, None], (1, self.components))

    def invariance_params(self):
        """``[invariance]`` under ``invariance_audit``'s keyword names."""
        inv = self.params("invariance")
        return {"h_list": inv["h"], "overshoot_tol": inv["tol"]}

    def miranda_params(self):
        """``[miranda]`` with the cube and the affine map as arrays, after
        the checks that need the cube's dimension."""
        mp = self.params("miranda")
        for key in ("lo", "hi", "offset"):
            mp[key] = np.asarray(mp[key])
        dim = mp["lo"].size
        if mp["matrix"].shape != (dim, dim) or mp["offset"].size != dim:
            raise InvalidSpec("affine map shape does not fit the cube")
        if mp["resolution"] < 2 and dim > 1:
            raise InvalidSpec("[miranda] resolution must be at least 2 on a "
                              "cube of dimension %d" % (dim,))
        return mp


def _vector(vals, N):
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
    kind = _canon_option("problem", "kind", raw["problem"])
    # the wall type is fixed by the kind: [operator] bc may only repeat it
    bc = raw.get("operator", {}).pop("bc", None)
    _check_layout(raw, kind)
    if bc is not None and bc.strip().lower() != _KIND_BC[kind]:
        raise InvalidSpec("kind %r fixes bc=%s" % (kind, _KIND_BC[kind]))
    if kind == "drift_rd":
        raw.setdefault("operator", {}).setdefault("gamma", "0.5")

    out = {section: {key: _canon_option(section, key, raw.get(section, {}))
                     for key in options}
           for section, options in _SCHEMA.items()
           if kind in _SECTION_KINDS[section]}
    if kind != "miranda":
        out["nonlinearity"] = _canon_nonlinearity(raw.get("nonlinearity", {}))
        out["constraint"] = _canon_constraint(kind, raw.get("constraint", {}))
        if out["solver"]["method"] == "truncation" \
                and _KIND_BC[kind] != "dirichlet":
            raise InvalidSpec("truncation method needs a dirichlet kind")
    return ProblemSpec(out)


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
