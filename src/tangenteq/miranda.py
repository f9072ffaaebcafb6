"""Zero location by sign certificates: bisection and its cube analogue.

The n-dimensional certificate asks, for each axis k, that the k-th
component of the map is nonnegative everywhere on the lower face and
nonpositive on the upper face.  When it holds (checked here on a sampled
face grid) the cube contains a zero, and bisecting the longest axis while
re-certifying children homes in on one.  A brute-force grid argmin backs
the subdivision solver as an oracle in low dimension.

Maps take an ``(m, dim)`` array of points, one per row, and return the
``(m, dim)`` array of their values, so each certificate, zoom level and
oracle grid is one call.  A map written with ``X[..., k]`` and
``np.stack(..., axis=-1)`` serves a single point too; a pointwise ``g``
is wrapped as ``lambda X: np.array([g(x) for x in X])``.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .convex import _row_norms
from .errors import (CertificateFailed, NoSignChange, check_bounds,
                     check_count, check_positive)

#: sampled margins at or below this count as exactly zero ("degenerate")
_DEGENERATE_EPS = 1e-15


def bolzano_bisect(f, a, b, tol=1e-12):
    """Classic interval bisection for a scalar sign change.

    Raises NoSignChange when f(a) and f(b) have the same strict sign.
    """
    a, b = float(a), float(b)
    check_bounds(ValueError, True, a=a, b=b)
    fa, fb = float(f(a)), float(f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if np.sign(fa) == np.sign(fb):
        raise NoSignChange("f(%g)=%g and f(%g)=%g carry the same sign"
                           % (a, fa, b, fb))
    max_iter = int(np.ceil(np.log2(max((b - a) / tol, 2.0)))) + 2
    for _ in range(max_iter):
        if (b - a) <= 2.0 * tol:
            break
        m = 0.5 * (a + b)
        fm = float(f(m))
        if fm == 0.0:
            return m
        if np.sign(fa) != np.sign(fm):
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


class Cube:
    """Axis-aligned cube with strictly positive side lengths."""

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        check_bounds(ValueError, True, lo=self.lo, hi=self.hi)
        self.dim = self.lo.size

    def diameter(self):
        """Longest side (sup-norm diameter)."""
        return float(np.max(self.hi - self.lo))

    def center(self):
        return 0.5 * (self.lo + self.hi)

    def split(self):
        """Halve the longest axis (ties broken toward the lowest index)."""
        k = int(np.argmax(self.hi - self.lo))
        mid = 0.5 * (self.lo[k] + self.hi[k])
        lo2 = self.lo.copy()
        hi1 = self.hi.copy()
        hi1[k] = mid
        lo2[k] = mid
        return Cube(self.lo, hi1), Cube(lo2, self.hi), k


@dataclass
class FaceVerdict:
    axis: int
    side: str                # "-" or "+"
    extreme_value: float     # min of f_k on the lower face, max on the upper
    margin: float            # >= 0 iff the sign requirement holds
    witness: np.ndarray      # sample point attaining the extreme


@dataclass
class MirandaCertificate:
    holds: bool
    degenerate: bool
    resolution: int
    faces: list = field(default_factory=list)
    witness: np.ndarray = None   # a failing sample point, when not holds

    @property
    def margin(self):
        return min(f.margin for f in self.faces)


def _values(f, X):
    """``f`` on the rows of ``X``: the one place a map is called."""
    Y = np.asarray(f(X), dtype=float)
    if Y.shape != X.shape:
        raise ValueError("map returned shape %s, expected %s"
                         % (Y.shape, X.shape))
    return Y


def _mesh_points(axes):
    """Every point of the tensor grid over ``axes``, one row each."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@functools.cache
def _face_rows(dim, resolution):
    """Rows of ``[linspace(lo, hi, resolution); lo; hi]`` that the
    coordinates of every face sample take, shape
    ``(2 dim, resolution**(dim - 1), dim)``: face ``2k`` is the lower and
    ``2k + 1`` the upper face of axis k, its samples in the ``ij`` order
    of the tensor grid over the other axes.  Read-only, as every check
    of that shape shares it."""
    others = np.indices((resolution,) * (dim - 1)).reshape(
        dim - 1, resolution ** (dim - 1)).T
    rows = np.stack([np.insert(others, k, wall, axis=1) for k in range(dim)
                     for wall in (resolution, resolution + 1)])
    rows.flags.writeable = False
    return rows


def miranda_check(f, cube, resolution=9):
    """Sample the sign certificate on every face of the cube.

    resolution is the number of grid points per face axis (endpoints
    included).  A certificate with some face margin exactly zero still
    holds but is flagged degenerate.  All faces are sampled with one
    index into the axis grids and checked in one map call.
    """
    dim = cube.dim
    resolution = check_count(ValueError, 2 if dim > 1 else 0,
                             resolution=resolution)
    table = np.concatenate([np.linspace(cube.lo, cube.hi, resolution),
                            cube.lo[None], cube.hi[None]])
    pts = table[_face_rows(dim, resolution), np.arange(dim)]
    vals = _values(f, pts.reshape(-1, dim)).reshape(pts.shape)
    ids = np.arange(2 * dim)
    # f_k on the two faces of each axis k; margin = f_k on the lower
    # face, -f_k on the upper face
    fk = vals[ids, :, ids // 2]
    margins = np.array([1.0, -1.0] * dim)[:, None] * fk
    faces = [FaceVerdict(axis=face // 2, side="-+"[face % 2],
                         extreme_value=float(fk[face, i]),
                         margin=float(margins[face, i]), witness=pts[face, i])
             for face, i in enumerate(np.argmin(margins, axis=1).tolist())]
    holds = all(fv.margin >= 0 for fv in faces)
    degenerate = holds and any(fv.margin <= _DEGENERATE_EPS for fv in faces)
    return MirandaCertificate(
        holds=holds, degenerate=degenerate, resolution=resolution,
        faces=faces,
        witness=next((fv.witness for fv in faces if fv.margin < 0), None))


@dataclass
class ZeroResult:
    point: np.ndarray
    status: str              # "converged" or "depth_exceeded"
    depth: int
    residual_norm: float
    f_at_point: np.ndarray
    certified_path: bool     # False if any kept child lacked a certificate
    fallback_steps: int
    final_cube: Cube


def miranda_solve(f, cube, tol=1e-9, resolution=9, max_depth=200):
    """Certified bisection toward a zero inside the cube.

    The initial certificate must hold (else CertificateFailed).  Each step
    splits the longest axis and keeps the first child whose re-sampled
    certificate holds; with no certified child the child holding the
    smallest sampled |f| is kept instead (an uncertified but recorded
    fallback).  Stops when the cube diameter drops to ``tol`` or depth is
    exhausted, returning the center with a post-verified residual.  A
    ``tol`` that is not finite and positive, or a ``max_depth`` that is not
    an integer of at least 0, raises ValueError.
    """
    check_positive(tol=tol)
    max_depth = check_count(ValueError, 0, max_depth=max_depth)
    cert = miranda_check(f, cube, resolution)
    if not cert.holds:
        raise CertificateFailed(
            "initial certificate fails (margin %.3g)" % cert.margin)
    resolution = cert.resolution

    certified_path = True
    fallback_steps = 0
    depth = 0
    while cube.diameter() > tol and depth < max_depth:
        lower, upper, axis = cube.split()
        chosen = None
        for child in (lower, upper):
            c = miranda_check(f, child, resolution)
            if c.holds:
                chosen = child
                break
        if chosen is None:
            best, _ = _sampled_argmin(f, cube, resolution)
            chosen = lower if best[axis] <= lower.hi[axis] else upper
            certified_path = False
            fallback_steps += 1
        cube = chosen
        depth += 1

    point = cube.center()
    fval = _values(f, point[None])[0]
    status = "converged" if cube.diameter() <= tol else "depth_exceeded"
    return ZeroResult(point=point, status=status, depth=depth,
                      residual_norm=float(_row_norms(fval[None])[0]),
                      f_at_point=fval, certified_path=certified_path,
                      fallback_steps=fallback_steps, final_cube=cube)


def _sampled_argmin(f, cube, resolution):
    """Approximate argmin of |f| over the cube by zooming grids.

    Samples at cell centers (so siblings never share a sample, which
    would tie the fallback choice) and refines around the best point
    three times; a zero strictly inside one child wins the comparison even
    when it hugs the splitting plane.
    """
    lo, hi = cube.lo.copy(), cube.hi.copy()
    best_pt, best_val = None, np.inf
    for _ in range(3):
        off = 0.5 * (hi - lo) / resolution
        pts = _mesh_points([np.linspace(lo[j] + off[j], hi[j] - off[j],
                                        resolution) for j in range(cube.dim)])
        vals = _row_norms(_values(f, pts))
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_pt, best_val = pts[i], float(vals[i])
        cell = (hi - lo) / resolution
        lo = np.maximum(cube.lo, best_pt - cell)
        hi = np.minimum(cube.hi, best_pt + cell)
    return best_pt, best_val


def brute_force_zero(f, cube, grid):
    """Grid argmin of |f| over the cube (oracle; dimensions 1 to 3 only)."""
    if cube.dim > 3:
        raise ValueError("brute force supports dimension <= 3")
    grid = check_count(ValueError, 1, grid=grid)
    if grid ** cube.dim > 1e7:
        raise ValueError("grid too fine: %d^%d points" % (grid, cube.dim))
    pts = _mesh_points([np.linspace(cube.lo[j], cube.hi[j], grid)
                        for j in range(cube.dim)])
    return pts[int(np.argmin(_row_norms(_values(f, pts))))]
