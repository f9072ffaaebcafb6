"""One-dimensional drift-diffusion operators in banded form.

The assembled operator acts on grid functions ``U`` of shape ``(n,)`` or
``(n, N)`` (N independent components sharing one scalar stencil):

    (A U)_j = (d_{j+1/2} (U_{j+1} - U_j) - d_{j-1/2} (U_j - U_{j-1})) / dx^2
              - gamma_j (U_{j+1} - U_{j-1}) / (2 dx) - shift * U_j

with ghost-node reflection at Neumann walls (which also cancels the drift
term there), eliminated boundary rows under Dirichlet conditions, and
wrapped indices on periodic grids.  Every linear solve is
``(a0 I - c A) u = f`` on the equation rows (the resolvent is ``(1, h)``,
the stationary solve ``(0, -1)``), factored once per system with a
Sherman-Morrison corner correction on periodic grids, and accepts stacked
right-hand sides, which is what keeps the invariance audits cheap.

The centered drift stencil is an M-matrix only while
``dx <= 2 d0 / max|gamma|``; assembly warns when a grid violates that.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import InvalidSpec, SingularSystem

_RESIDUAL_RTOL = 1e-10


class Grid1D:
    """Uniform grid on ``[0, length]``.

    Non-periodic grids carry both endpoints (spacing ``length/(n-1)``);
    periodic grids identify them (spacing ``length/n``, node n would
    coincide with node 0).
    """

    def __init__(self, length, n, periodic=False):
        if length <= 0:
            raise InvalidSpec("length must be positive")
        if n < 3:
            raise InvalidSpec("need at least 3 nodes")
        self.length = float(length)
        self.n = int(n)
        self.periodic = bool(periodic)
        self.dx = self.length / (self.n if self.periodic else self.n - 1)
        if self.periodic:
            self.nodes = self.dx * np.arange(self.n)
        else:
            self.nodes = np.linspace(0.0, self.length, self.n)
        # shared by every caller, so no caller may write into it
        self.nodes.flags.writeable = False

    def weights(self):
        """Trapezoid quadrature weights (uniform dx on periodic grids)."""
        w = np.full(self.n, self.dx)
        if not self.periodic:
            w[0] *= 0.5
            w[-1] *= 0.5
        return w

    def norm(self, U, mask=None):
        """Grid-weighted L2 norm; ``mask`` restricts the nodes counted."""
        U = np.asarray(U, dtype=float)
        sq = U * U if U.ndim == 1 else np.sum(U * U, axis=1)
        w = self.weights()
        if mask is not None:
            sq = sq * mask
        return float(np.sqrt(np.sum(w * sq)))


@dataclass
class OperatorSpec:
    """Description of the drift-diffusion operator.

    d and gamma may be constants or callables of position; d must stay
    strictly positive.  ``shift`` subtracts ``shift * I`` from the
    assembled operator; None selects the derived default
    ``max|gamma|^2 / (2 d0)`` (zero without drift), which renders the
    shifted operator dissipative.  ``components`` grid functions share the
    scalar stencil; componentwise-varying diffusion is not supported.
    """

    d: object = 1.0
    gamma: object = 0.0
    bc: str = "neumann"
    shift: float = None
    components: int = 1


def _sample(fn, xs, name):
    if callable(fn):
        vals = np.array([float(fn(x)) for x in xs])
    else:
        vals = np.full(len(xs), float(fn))
    if not np.all(np.isfinite(vals)):
        raise InvalidSpec("%s produced non-finite values" % name)
    return vals


def assemble(spec, grid):
    """Build the banded operator for ``spec`` on ``grid``."""
    if spec.bc not in ("dirichlet", "neumann", "periodic"):
        raise InvalidSpec("unknown bc %r" % (spec.bc,))
    if (spec.bc == "periodic") != grid.periodic:
        raise InvalidSpec("bc %r does not match grid periodicity" % (spec.bc,))
    if spec.components < 1:
        raise InvalidSpec("components must be at least 1")
    if np.ndim(spec.d) > 0 or np.ndim(spec.gamma) > 0:
        raise InvalidSpec("per-component coefficient arrays are not supported")
    return DiscreteOperator(spec, grid)


class DiscreteOperator:
    """Assembled operator; the factors of the last system solved are
    cached in one slot."""

    def __init__(self, spec, grid):
        self.spec = spec
        self.grid = grid
        n, dx = grid.n, grid.dx
        xs = grid.nodes

        if grid.periodic:
            mids = (xs + 0.5 * dx) % grid.length
        else:
            mids = xs[:-1] + 0.5 * dx
        self.d_mid = _sample(spec.d, mids, "d")
        if np.any(self.d_mid <= 0):
            raise InvalidSpec("diffusion must be strictly positive")
        self.d_floor = float(np.min(self.d_mid))
        self.gamma_nodes = _sample(spec.gamma, xs, "gamma")
        self.gamma_sup = float(np.max(np.abs(self.gamma_nodes)))

        if spec.shift is None:
            self.shift = self.gamma_sup ** 2 / (2.0 * self.d_floor) \
                if self.gamma_sup > 0 else 0.0
        else:
            self.shift = float(spec.shift)

        if self.gamma_sup > 0 and dx > 2.0 * self.d_floor / self.gamma_sup:
            warnings.warn(
                "dx=%.3g exceeds the positivity step bound 2*d0/|gamma| = %.3g;"
                " resolvent invariance may fail" %
                (dx, 2.0 * self.d_floor / self.gamma_sup))

        self._build_bands()
        self._factored = None    # ((a0, c), solve) of the last system

    # -- assembly ---------------------------------------------------------

    def _build_bands(self):
        n = self.grid.n
        dx = self.grid.dx
        g = self.gamma_nodes
        if self.grid.periodic:
            dm = self.d_mid                      # edge j -> j+1 (wrapping)
            dp = np.roll(self.d_mid, 1)          # edge j-1 -> j
            self.sub = dp / dx ** 2 + g / (2 * dx)      # couples to j-1
            self.sup = dm / dx ** 2 - g / (2 * dx)      # couples to j+1
            self.diag = -(dm + dp) / dx ** 2 - self.shift
            return
        dm = self.d_mid
        sub = np.zeros(n)
        sup = np.zeros(n)
        diag = np.zeros(n)
        j = np.arange(1, n - 1)
        sub[j] = dm[j - 1] / dx ** 2 + g[j] / (2 * dx)
        sup[j] = dm[j] / dx ** 2 - g[j] / (2 * dx)
        diag[j] = -(dm[j] + dm[j - 1]) / dx ** 2 - self.shift
        if self.spec.bc == "neumann":
            # ghost reflection u_{-1} = u_1: doubled flux, drift cancels
            sup[0] = 2.0 * dm[0] / dx ** 2
            diag[0] = -2.0 * dm[0] / dx ** 2 - self.shift
            sub[-1] = 2.0 * dm[-1] / dx ** 2
            diag[-1] = -2.0 * dm[-1] / dx ** 2 - self.shift
        # dirichlet: boundary rows stay zero (eliminated, u = 0 there)
        self.sub = sub
        self.sup = sup
        self.diag = diag

    def equation_mask(self):
        """Nodes carrying an equation row (False at Dirichlet walls)."""
        mask = np.ones(self.grid.n, dtype=bool)
        if self.spec.bc == "dirichlet":
            mask[0] = mask[-1] = False
        return mask

    # -- action -----------------------------------------------------------

    def apply(self, U):
        """A U, rows zeroed at eliminated Dirichlet boundary nodes."""
        U = np.asarray(U, dtype=float)
        flat = U.reshape(self.grid.n, -1)
        if self.grid.periodic:
            up = np.roll(flat, 1, axis=0)
            dn = np.roll(flat, -1, axis=0)
            out = (self.sub[:, None] * up + self.diag[:, None] * flat
                   + self.sup[:, None] * dn)
        else:
            out = self.diag[:, None] * flat
            out[:-1] += self.sup[:-1, None] * flat[1:]
            out[1:] += self.sub[1:, None] * flat[:-1]
            if self.spec.bc == "dirichlet":
                out[0] = 0.0
                out[-1] = 0.0
        return out.reshape(U.shape)

    def gradient(self, U):
        """Centered first differences matching the stencil's conventions:
        reflection (zero slope) at Neumann walls, one-sided differences at
        Dirichlet walls, wrapped on periodic grids."""
        U = np.asarray(U, dtype=float)
        flat = U.reshape(self.grid.n, -1)
        dx = self.grid.dx
        if self.grid.periodic:
            out = (np.roll(flat, -1, axis=0) - np.roll(flat, 1, axis=0)) / (2 * dx)
            return out.reshape(U.shape)
        out = np.zeros_like(flat)
        out[1:-1] = (flat[2:] - flat[:-2]) / (2 * dx)
        if self.spec.bc == "neumann":
            out[0] = 0.0
            out[-1] = 0.0
        else:
            out[0] = (flat[1] - flat[0]) / dx
            out[-1] = (flat[-1] - flat[-2]) / dx
        return out.reshape(U.shape)

    # -- linear solves ----------------------------------------------------

    def _factor(self, a0, c):
        """``solve(B)`` for ``(a0 I - c A) u = B`` on the equation rows,
        kept in one slot: every caller holds one step at a time (the
        harmonic schedule only lowers h, the audit visits each h once).
        Periodic grids move the corners into a Sherman-Morrison update
        whose ``q = T^-1 u`` and ``1 + v.q`` are computed here, once."""
        if self._factored is not None and self._factored[0] == (a0, c):
            return self._factored[1]
        rows = self.equation_mask()
        dl = -c * self.sub[rows][1:]
        d = a0 - c * self.diag[rows]
        du = -c * self.sup[rows][:-1]
        if not self.grid.periodic:
            solve = _tridiagonal_solver(dl, d, du)
        else:
            alpha = -c * self.sub[0]       # M[0, n-1]
            beta = -c * self.sup[-1]       # M[n-1, 0]
            gam = -d[0]
            d[0] -= gam
            d[-1] -= alpha * beta / gam
            tri = _tridiagonal_solver(dl, d, du)
            uvec = np.zeros(d.size)
            uvec[[0, -1]] = gam, beta
            vvec = np.zeros(d.size)
            vvec[[0, -1]] = 1.0, alpha / gam
            q = tri(uvec[:, None])[:, 0]
            denom = 1.0 + vvec @ q
            if abs(denom) < 1e-14:
                raise SingularSystem("periodic corner correction singular")

            def solve(B):
                y = tri(B)
                return y - np.outer(q, (vvec @ y) / denom)
        self._factored = ((a0, c), solve)
        return solve

    def _solve(self, a0, c, F):
        """Solve ``(a0 I - c A) u = F``, u = 0 off the equation rows.  The
        residual's max over those rows must stay within relative 1e-10 of
        ``max|F|`` there; a larger or non-finite one (a NaN in F) raises
        SingularSystem."""
        F = np.asarray(F, dtype=float)
        flat = F.reshape(self.grid.n, -1)
        rows = self.equation_mask()
        out = np.zeros_like(flat)
        out[rows] = self._factor(a0, c)(flat[rows])
        out = out.reshape(F.shape)
        r = (a0 * out - c * self.apply(out) - F).reshape(self.grid.n, -1)
        worst = np.max(np.abs(r[rows]), initial=0.0)
        scale = np.max(np.abs(flat[rows]), initial=0.0)
        if not worst <= _RESIDUAL_RTOL * max(scale, 1e-30) + 1e-300:
            raise SingularSystem(
                "%s residual %.3g exceeds %.3g * |F| (system near singular%s)"
                % ("resolvent" if a0 else "stationary", worst, _RESIDUAL_RTOL,
                   " at h=%.3g" % c if a0 else ""))
        return out

    def resolvent(self, h, F):
        """Solve ``(I - h A) u = F``; F may stack extra trailing axes.

        The per-solve residual is verified against the assembled stencil
        (max-norm, relative 1e-10); failure raises SingularSystem, as does
        the step guard ``h * shift < 1`` for positive shifts.
        """
        if h <= 0:
            raise InvalidSpec("resolvent step must be positive")
        if self.shift > 0 and h * self.shift >= 1.0:
            raise SingularSystem(
                "step h=%.3g violates h * shift < 1 (shift %.3g)"
                % (h, self.shift))
        return self._solve(1.0, h, F)

    def solve_stationary(self, F):
        """Solve ``A u = F`` directly (Dirichlet only, where A is regular),
        under the same residual guard as the resolvent."""
        if self.spec.bc != "dirichlet":
            raise InvalidSpec("stationary solve requires Dirichlet walls")
        return self._solve(0.0, -1.0, F)


def _tridiagonal_solver(dl, d, du):
    """Factor the tridiagonal matrix once; return ``B -> M^-1 B`` for
    right-hand sides of shape ``(rows, m)``."""
    if d.size < 3:
        # dgttrf needs three rows; Dirichlet grids of 3 or 4 nodes leave
        # one or two unknowns
        try:
            inv = np.linalg.inv(np.diag(d) + np.diag(dl, -1) + np.diag(du, 1))
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("banded solve failed: %s" % exc) from exc
        return lambda B: inv @ B
    dl, d, du, du2, ipiv, info = dgttrf(dl, d, du)
    if info > 0:
        raise SingularSystem("banded solve failed: zero pivot in row %d"
                             % info)

    def solve(B):
        # dgttrs corrupts the heap on a right-hand side without columns
        if B.shape[1] == 0:
            return np.zeros_like(B)
        return dgttrs(dl, d, du, du2, ipiv, B)[0]
    return solve


def _as_operator(spec, grid):
    if isinstance(spec, DiscreteOperator):
        return spec
    return assemble(spec, grid)


def quadratic_form(spec, grid, U, V):
    """Discrete drift-diffusion form  sum_cells dx * (d u' v' + gamma u' vbar).

    ``spec`` may be an OperatorSpec (assembled on ``grid``) or an already
    assembled operator.  Gradients live on cell midpoints, the drift
    factor pairs them with the midpoint average of v, and the diffusion
    part matches -<A u, u> under trapezoid weights exactly (for gamma = 0,
    no shift).  The operator's diagonal shift is deliberately not part of
    the form.
    """
    op = _as_operator(spec, grid)
    U = np.asarray(U, dtype=float).reshape(op.grid.n, -1)
    V = np.asarray(V, dtype=float).reshape(op.grid.n, -1)
    dx = op.grid.dx
    if op.grid.periodic:
        du = (np.roll(U, -1, axis=0) - U) / dx
        dv = (np.roll(V, -1, axis=0) - V) / dx
        vbar = 0.5 * (np.roll(V, -1, axis=0) + V)
        gmid = 0.5 * (np.roll(op.gamma_nodes, -1) + op.gamma_nodes)
        dmid = op.d_mid
    else:
        du = np.diff(U, axis=0) / dx
        dv = np.diff(V, axis=0) / dx
        vbar = 0.5 * (V[1:] + V[:-1])
        gmid = 0.5 * (op.gamma_nodes[1:] + op.gamma_nodes[:-1])
        dmid = op.d_mid
    diff_part = np.sum(dmid[:, None] * du * dv) * dx
    drift_part = np.sum(gmid[:, None] * du * vbar) * dx
    return float(diff_part + drift_part)


def gradient_seminorm_sq(spec, grid, U):
    """``sum_cells dx |u'|^2`` with midpoint gradients (periodic wraps)."""
    op = _as_operator(spec, grid)
    U = np.asarray(U, dtype=float).reshape(op.grid.n, -1)
    dx = op.grid.dx
    if op.grid.periodic:
        du = (np.roll(U, -1, axis=0) - U) / dx
    else:
        du = np.diff(U, axis=0) / dx
    return float(np.sum(du * du) * dx)


def garding_constants(op):
    """(c, C) with  c * |u'|^2 <= form(u,u) + C * |u|^2  for every u."""
    c = 0.5 * op.d_floor
    C = op.gamma_sup ** 2 / (2.0 * op.d_floor) if op.gamma_sup > 0 else 0.0
    return c, C


def semigroup_powers(op, t, m, U):
    """Repeated resolvent steps ``(I - (t/m) A)^{-m} U`` (first-order
    approximation of the flow at time t; exact as m grows)."""
    if t <= 0:
        raise InvalidSpec("time must be positive")
    if m < 1:
        raise InvalidSpec("need at least one factor")
    out = np.asarray(U, dtype=float)
    h = t / float(m)
    for _ in range(m):
        out = op.resolvent(h, out)
    return out


@dataclass
class InvarianceReport:
    passed: bool
    worst_overshoot: float
    tolerance: float
    h_list: list
    sample_count: int
    seed: int
    per_halfspace: list
    witness: dict = None

    def to_dict(self):
        return {
            "passed": bool(self.passed),
            "worst_overshoot": float(self.worst_overshoot),
            "tolerance": float(self.tolerance),
            "h_list": [float(h) for h in self.h_list],
            "sample_count": int(self.sample_count),
            "seed": int(self.seed),
            "per_halfspace": self.per_halfspace,
            "witness": self.witness,
        }


def invariance_audit(op, body, h_list, sample_count=1000, seed=0,
                     overshoot_tol=1e-10):
    """Check that resolvents map K-valued grid functions into K.

    K is the lift of ``body`` applied nodewise.  For each step size the
    audit solves all samples in one stacked banded solve and measures, for
    every supporting halfspace (p, a) of the body, the worst positive
    excess ``max_j (p . u_j - a)`` of the output.  Exact halfspace lists
    make the check conclusive for boxes and simplices; ball audits use the
    documented outer approximation.  A ``sample_count`` below 1 raises
    InvalidSpec.
    """
    if body.dim != op.spec.components:
        raise InvalidSpec("body dimension %d != operator components %d"
                          % (body.dim, op.spec.components))
    if sample_count < 1:
        raise InvalidSpec("sample_count must be at least 1, got %r"
                          % (sample_count,))
    rng = np.random.default_rng(seed)
    n = op.grid.n
    N = body.dim
    halfspaces = body.supporting_halfspaces()
    samples = body.sample(rng, sample_count, n)

    worst = -np.inf
    per_halfspace = [{"normal": [float(c) for c in p], "offset": float(a),
                      "worst_overshoot": -np.inf}
                     for p, a in halfspaces]
    witness = None
    for h in h_list:
        stacked = np.moveaxis(samples, 0, 2).reshape(n, N * sample_count)
        sol = op.resolvent(h, stacked)
        out = np.moveaxis(sol.reshape(n, N, sample_count), 2, 0)
        for ih, (p, a) in enumerate(halfspaces):
            over = np.tensordot(out, p, axes=([2], [0])) - a
            local = float(np.max(over))
            if local > per_halfspace[ih]["worst_overshoot"]:
                per_halfspace[ih]["worst_overshoot"] = local
            if local > worst:
                worst = local
                si, nj = np.unravel_index(np.argmax(over), over.shape)
                witness = {"h": float(h), "sample": int(si), "node": int(nj),
                           "halfspace": ih, "overshoot": local}
    worst = max(worst, 0.0)
    for entry in per_halfspace:
        entry["worst_overshoot"] = max(float(entry["worst_overshoot"]), 0.0)
    passed = worst <= overshoot_tol
    return InvarianceReport(passed=passed, worst_overshoot=worst,
                            tolerance=overshoot_tol,
                            h_list=list(h_list), sample_count=sample_count,
                            seed=seed, per_halfspace=per_halfspace,
                            witness=None if passed else witness)
