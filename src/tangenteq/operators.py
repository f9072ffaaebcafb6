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
right-hand sides, one column per component.  The equation rows are a
slice fixed at assembly, so a grid whose every node carries an equation
solves and checks without a mask.

Each solve checks its residual against the assembled stencil, and that
check is the solve's one banded product ``A u``.  The sweeps take it
with the solution (``_resolvent``), so a sweep that starts from a
resolvent's output measures its equation residual without applying
``A`` again: one banded product per sweep.  The bands, the operator's
lifted constants, are held at the grid's shape, and a solution comes
back in C order, as the sweeps' states are, so a sweep's product
neither broadcasts a column nor mixes two memory layouts.

The centered drift stencil is an M-matrix only while
``dx <= 2 d0 / max|gamma|``; assembly warns when a grid violates that.
``invariance_audit`` proves, with one resolvent solve per step, that the
resolvents map a nodewise convex constraint into itself.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .convex import _row_sums
from .errors import (CertificateFailed, InvalidSpec, SingularSystem,
                     check_count, check_positive)

_RESIDUAL_RTOL = 1e-10


def _flapack_file():
    """Path of LAPACK's Fortran extension ``scipy/linalg/_flapack``, found
    without importing scipy; ImportError when there is none."""
    spec = importlib.util.find_spec("scipy")
    if spec is not None and spec.submodule_search_locations:
        linalg = os.path.join(spec.submodule_search_locations[0], "linalg")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(linalg, "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    raise ImportError("scipy's _flapack extension not found")


@functools.cache
def _lapack():
    """LAPACK's Fortran extension, loaded at the first factorization.

    The package ``scipy.linalg`` takes about 0.2 s and 27 MiB to import
    (it pulls in scipy.sparse), more than most commands' own work, while
    its extension ``_flapack`` loads from its file in a few ms.  If the
    file is missing or fails to load, the routines come from
    ``scipy.linalg.lapack``, the same Fortran code.
    """
    try:
        spec = importlib.util.spec_from_file_location(
            "scipy.linalg._flapack", _flapack_file())
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except (ImportError, OSError):
        from scipy.linalg import lapack
        return lapack


# Both wrappers are module attributes, looked up at every call, so tests
# can patch them.
def dgttrf(*args):
    return _lapack().dgttrf(*args)


def dgttrs(*args):
    return _lapack().dgttrs(*args)


class Grid1D:
    """Uniform grid on ``[0, length]``.

    Non-periodic grids carry both endpoints (spacing ``length/(n-1)``);
    periodic grids identify them (spacing ``length/n``, node n would
    coincide with node 0).
    """

    def __init__(self, length, n, periodic=False):
        check_positive(InvalidSpec, length=length)
        self.length = float(length)
        self.n = check_count(InvalidSpec, 3, n=n)
        self.periodic = bool(periodic)
        self.dx = self.length / (self.n if self.periodic else self.n - 1)
        if self.periodic:
            self.nodes = self.dx * np.arange(self.n)
        else:
            self.nodes = np.linspace(0.0, self.length, self.n)
        w = np.full(self.n, self.dx)
        if not self.periodic:
            w[0] *= 0.5
            w[-1] *= 0.5
        self._weights = w
        # shared by every caller, so no caller may write into them
        self.nodes.flags.writeable = False
        self._weights.flags.writeable = False

    def weights(self):
        """Trapezoid quadrature weights (uniform dx on periodic grids)."""
        return self._weights.copy()

    def norm(self, U, mask=None):
        """Grid-weighted L2 norm; ``mask`` restricts the nodes counted."""
        U = np.asarray(U, dtype=float)
        sq = U * U
        if U.ndim > 1:
            sq = _row_sums(sq)
        if mask is not None:
            sq *= mask
        sq *= self._weights
        return math.sqrt(np.add.reduce(sq, axis=None))


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
    components = check_count(InvalidSpec, 1, components=spec.components)
    if np.ndim(spec.d) > 0 or np.ndim(spec.gamma) > 0:
        raise InvalidSpec("per-component coefficient arrays are not supported")
    return DiscreteOperator(replace(spec, components=components), grid)


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
        # the bands as columns, which scale every component alike, and
        # repeated to the spec's width, where a product of equal shapes
        # skips the broadcast
        self._columns = (self.sub[:, None], self.diag[:, None],
                         self.sup[:, None])
        N = spec.components
        self._bands = self._columns if N == 1 else tuple(
            np.repeat(b, N, axis=1) for b in self._columns)
        # the nodes that carry an equation row, as a slice and a read-only
        # mask shared by every residual norm
        self.equation_rows = slice(1, -1) if spec.bc == "dirichlet" \
            else slice(None)
        self._equation_mask = np.zeros(n, dtype=bool)
        self._equation_mask[self.equation_rows] = True
        self._equation_mask.flags.writeable = False
        self._factored = None    # ((a0, c), solve) of the last system

    # -- assembly ---------------------------------------------------------

    def _build_bands(self):
        n = self.grid.n
        dx = self.grid.dx
        g = self.gamma_nodes
        dm = self.d_mid                          # edge j -> j+1
        sub = np.zeros(n)
        sup = np.zeros(n)
        diag = np.zeros(n)
        # every row of a periodic grid (dm[-1] wraps), else the inner rows
        j = np.arange(n) if self.grid.periodic else np.arange(1, n - 1)
        sub[j] = dm[j - 1] / dx ** 2 + g[j] / (2 * dx)      # couples to j-1
        sup[j] = dm[j] / dx ** 2 - g[j] / (2 * dx)          # couples to j+1
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
        return self._equation_mask.copy()

    # -- action -----------------------------------------------------------

    def apply(self, U):
        """A U, rows zeroed at eliminated Dirichlet boundary nodes.  A state
        of the spec's width takes the bands at that width, any other
        column count (stacked right-hand sides, extra trailing axes) the
        bands as columns; the products are the same."""
        U = np.asarray(U, dtype=float)
        flat = U.reshape(self.grid.n, -1)
        sub, diag, sup = self._bands \
            if flat.shape[1] == self.spec.components else self._columns
        if self.grid.periodic:
            # sub * u_{j-1} + diag * u_j + sup * u_{j+1}, summed in that
            # order, with the wrapped neighbours taken by slicing
            out = np.empty_like(flat)
            np.multiply(sub[1:], flat[:-1], out=out[1:])
            np.multiply(sub[0], flat[-1], out=out[0])
            out += diag * flat
            out[:-1] += sup[:-1] * flat[1:]
            out[-1] += sup[-1] * flat[0]
        else:
            out = diag * flat
            out[:-1] += sup[:-1] * flat[1:]
            out[1:] += sub[1:] * flat[:-1]
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
        out = np.empty_like(flat)
        np.subtract(flat[2:], flat[:-2], out=out[1:-1])
        if self.grid.periodic:
            np.subtract(flat[1], flat[-1], out=out[0])
            np.subtract(flat[0], flat[-2], out=out[-1])
            out /= 2 * dx
        else:
            out[1:-1] /= 2 * dx
            if self.spec.bc == "neumann":
                out[0] = out[-1] = 0.0
            else:
                out[0] = (flat[1] - flat[0]) / dx
                out[-1] = (flat[-1] - flat[-2]) / dx
        return out.reshape(U.shape)

    # -- linear solves ----------------------------------------------------

    def _factor(self, a0, c):
        """Factor ``(a0 I - c A) u = B`` on the equation rows and keep
        ``solve(B)`` in the one slot ``_solve`` looks up: every caller
        holds one step at a time (the harmonic schedule only lowers h,
        the audit visits each h once).  Periodic grids move the corners
        into a Sherman-Morrison update whose ``q = T^-1 u`` and ``1 + v.q``
        are computed here, once."""
        rows = self.equation_rows
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
        """Solve ``(a0 I - c A) u = F``, u = 0 off the equation rows, and
        return ``(u, A u)``, both in F's shape.

        The residual's max over the equation rows must stay within
        relative 1e-10 of ``max|F|`` there; a larger or non-finite one (a
        NaN in F) raises SingularSystem.  ``A u`` is the product that
        residual is built from, handed on so that a sweep need not apply
        ``A`` to the same state again.
        """
        F = np.asarray(F, dtype=float)
        flat = F.reshape(self.grid.n, -1)
        rows = self.equation_rows
        slot = self._factored
        solve = slot[1] if slot is not None and slot[0] == (a0, c) \
            else self._factor(a0, c)
        if rows == slice(None):
            out = solve(flat)
        else:
            out = np.zeros_like(flat)
            out[rows] = solve(flat[rows])
        AU = self.apply(out)
        # the residual a0 u - c A u - F, formed in one buffer
        r = c * AU
        np.subtract(out if a0 == 1.0 else a0 * out, r, out=r)
        r -= flat
        worst = np.maximum.reduce(np.abs(r, out=r)[rows], axis=None,
                                  initial=0.0)
        scale = np.maximum.reduce(np.abs(flat[rows]), axis=None, initial=0.0)
        if not worst <= _RESIDUAL_RTOL * max(scale, 1e-30) + 1e-300:
            raise SingularSystem(
                "%s residual %.3g exceeds %.3g * |F| (system near singular%s)"
                % ("resolvent" if a0 else "stationary", worst, _RESIDUAL_RTOL,
                   " at h=%.3g" % c if a0 else ""))
        return out.reshape(F.shape), AU.reshape(F.shape)

    def _resolvent(self, h, F):
        """``resolvent(h, F)`` together with ``A u``."""
        if not 0.0 < h < math.inf:
            check_positive(InvalidSpec, h=h)
        if self.shift > 0 and h * self.shift >= 1.0:
            raise SingularSystem(
                "step h=%.3g violates h * shift < 1 (shift %.3g)"
                % (h, self.shift))
        return self._solve(1.0, h, F)

    def resolvent(self, h, F):
        """Solve ``(I - h A) u = F``; F may stack extra trailing axes.

        The per-solve residual is verified against the assembled stencil
        (max-norm, relative 1e-10); failure raises SingularSystem, as does
        the step guard ``h * shift < 1`` for positive shifts.
        """
        return self._resolvent(h, F)[0]

    def solve_stationary(self, F):
        """Solve ``A u = F`` directly (Dirichlet only, where A is regular),
        under the same residual guard as the resolvent."""
        if self.spec.bc != "dirichlet":
            raise InvalidSpec("stationary solve requires Dirichlet walls")
        return self._solve(0.0, -1.0, F)[0]


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
        # its solution comes in Fortran order; in C order, as every state
        # of the sweeps is, no later product mixes the two layouts
        return np.ascontiguousarray(dgttrs(dl, d, du, du2, ipiv, B)[0])
    return solve


def semigroup_powers(op, t, m, U):
    """Repeated resolvent steps ``(I - (t/m) A)^{-m} U`` (first-order
    approximation of the flow at time t; exact as m grows)."""
    check_positive(InvalidSpec, t=t)
    m = check_count(InvalidSpec, 1, m=m)
    out = np.asarray(U, dtype=float)
    h = t / m
    for _ in range(m):
        out = op.resolvent(h, out)
    return out


@dataclass
class InvarianceReport:
    passed: bool
    worst_overshoot: float
    tolerance: float
    h_list: list
    witness: dict = None

    def to_dict(self):
        return {
            "passed": bool(self.passed),
            "worst_overshoot": float(self.worst_overshoot),
            "tolerance": float(self.tolerance),
            "h_list": [float(h) for h in self.h_list],
            "witness": self.witness,
        }


def invariance_audit(op, body, h_list, overshoot_tol=1e-10):
    """Prove that resolvents map K-valued grid functions into K.

    K is the lift of ``body`` applied nodewise.  ``M = I - hA`` on the
    equation rows is a Z-matrix when no coupling of A between two
    equation rows is negative (corners included on periodic grids); if
    also ``s = M^-1 1``, one banded solve, is positive on those rows, M
    is a nonsingular M-matrix and ``G = M^-1 >= 0`` (Berman & Plemmons,
    *Nonnegative Matrices in the Mathematical Sciences*, 1994, ch. 6).
    Node j of the output ``sum_k G_jk F_k`` then ranges over exactly
    ``s_j K``, and ``body.overshoot(s)`` states exactly how far that
    reaches past K at each node.  The verdict passes when no overshoot
    exceeds ``overshoot_tol``; the witness names the worst step and node.

    Raises CertificateFailed, naming h and the node, when M is not a
    Z-matrix or s is not positive; InvalidSpec on an empty ``h_list``.
    """
    if body.dim != op.spec.components:
        raise InvalidSpec("%s of dimension %s != operator components %d"
                          % (type(body).__name__, body.dim,
                             op.spec.components))
    if len(h_list) == 0:
        raise InvalidSpec("h_list must hold at least one step")
    eq = op.equation_mask()
    left, right = eq & np.roll(eq, 1), eq & np.roll(eq, -1)
    if not op.grid.periodic:
        left[0] = right[-1] = False
    negative = np.flatnonzero(left & (op.sub < 0) | right & (op.sup < 0))
    if negative.size:
        raise CertificateFailed(
            "I - hA is not a Z-matrix at h=%.6g: node %d couples to a "
            "neighbour with a negative weight" % (h_list[0], negative[0]))
    worst, witness = -np.inf, None
    for h in h_list:
        s = op.resolvent(h, np.ones(op.grid.n))
        short = np.flatnonzero(eq & ~(s > 0))
        if short.size:
            raise CertificateFailed(
                "I - hA is not an M-matrix at h=%.6g: (I - hA)^-1 1 = %.3g "
                "at node %d" % (h, s[short[0]], short[0]))
        over = body.overshoot(s)
        j = int(np.argmax(over))
        if over[j] > worst:
            worst = float(over[j])
            witness = {"h": float(h), "node": j, "overshoot": worst}
    worst = max(0.0, worst)
    passed = worst <= overshoot_tol
    return InvarianceReport(
        passed=passed, worst_overshoot=worst, tolerance=overshoot_tol,
        h_list=list(h_list), witness=None if passed else witness)
