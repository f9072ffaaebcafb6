"""Sign-change certificates and certified bisection for grid reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangenteq import (Cube, bolzano_bisect, miranda_check, miranda_solve,
                       brute_force_zero, NoSignChange, CertificateFailed)
from tangenteq.miranda import _sampled_argmin


# maps take one point per row (and so a single point too)
def _affine(pt):
    x, y = pt[..., 0], pt[..., 1]
    return np.stack([0.25 - x, -0.5 - y], axis=-1)


def _rotation(pt):
    x, y = pt[..., 0], pt[..., 1]
    return np.stack([y - x, -x - y], axis=-1)


def _warped(pt):
    x, y = pt[..., 0], pt[..., 1]
    return np.stack([np.sin(np.pi * y) - x ** 3, -x - y ** 3], axis=-1)


def _weighted3(pt):
    # weak cyclic coupling on the truncated weighted cube |x_k| <= 1/k
    x, y, z = pt[..., 0], pt[..., 1], pt[..., 2]
    return np.stack([-x + 0.3 * y, -y + 0.2 * z, -z + 0.1 * x], axis=-1)


_SQUARE = Cube([-1.0, -1.0], [1.0, 1.0])
_WEIGHTED_CUBE = Cube([-1.0, -0.5, -1.0 / 3.0], [1.0, 0.5, 1.0 / 3.0])


def test_bolzano_linear():
    assert bolzano_bisect(lambda x: x, -1.0, 1.0, tol=1e-12) == pytest.approx(
        0.0, abs=1e-11)


def test_bolzano_cosine():
    root = bolzano_bisect(np.cos, 0.0, 2.0, tol=1e-12)
    assert root == pytest.approx(np.pi / 2.0, abs=1e-10)


def test_bolzano_no_sign_change():
    with pytest.raises(NoSignChange):
        bolzano_bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bolzano_endpoint_zeros_and_bad_interval():
    assert bolzano_bisect(lambda x: x, 0.0, 1.0) == 0.0
    assert bolzano_bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        bolzano_bisect(lambda x: x, 1.0, -1.0)


def test_one_dimensional_solver_agrees_with_bolzano():
    """On an interval with a single descending sign change, the certified
    bisection and plain Bolzano bisection land on the same root."""
    rng = np.random.default_rng(37)
    done = 0
    while done < 100:
        c = rng.uniform(-2.0, 2.0, 4)
        a, b = -1.5, 1.5

        def poly(x, c=c):
            return c[0] + x * (c[1] + x * (c[2] + x * c[3]))

        xs = np.linspace(a, b, 400)
        signs = np.sign(poly(xs))
        crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
        if crossings != 1 or poly(a) == 0.0 or poly(b) == 0.0:
            continue
        f = poly if poly(a) > 0 else (lambda x, c=c: -poly(x, c))
        root = bolzano_bisect(f, a, b, tol=1e-12)
        res = miranda_solve(f, Cube([a], [b]), tol=1e-12)
        assert res.status == "converged"
        assert abs(res.point[0] - root) <= 1e-10
        done += 1


def test_certificate_holds_for_affine_map():
    cert = miranda_check(_affine, Cube([-1.0, -1.0], [1.0, 1.0]))
    assert cert.holds
    assert not cert.degenerate
    # worst face is y = -1 where -0.5 - y bottoms out at 0.5
    assert cert.margin == pytest.approx(0.5, abs=1e-12)
    assert cert.witness is None
    assert len(cert.faces) == 4


def test_certificate_fails_with_witness_for_identity():
    cert = miranda_check(lambda p: p.copy(), Cube([-1.0, -1.0], [1.0, 1.0]))
    assert not cert.holds
    assert cert.witness is not None
    assert cert.witness[0] == -1.0
    first_bad = next(f for f in cert.faces if f.margin < 0)
    assert first_bad.axis == 0 and first_bad.side == "-"
    assert first_bad.extreme_value == pytest.approx(-1.0)


def test_certificate_equivalences_with_box_tangency():
    """For f continuous on a box, the sampled sign certificate holds
    exactly when every sampled boundary value points into the box."""
    from tangenteq import Box

    cube = Cube([-1.0, -1.0], [1.0, 1.0])
    box = Box(cube.lo, cube.hi)
    for f, expected in ((_affine, True), (lambda p: p.copy(), False)):
        cert = miranda_check(f, cube, resolution=7)
        tangent_everywhere = True
        for k in range(2):
            for side, val in ((0, cube.lo[k]), (1, cube.hi[k])):
                for t in np.linspace(-1.0, 1.0, 7):
                    pt = np.array([val, t]) if k == 0 else np.array([t, val])
                    if not box.tangent_cone_contains(pt, f(pt)).contains:
                        tangent_everywhere = False
        assert cert.holds == tangent_everywhere == expected


def test_failing_verdict_survives_nested_refinement():
    # the sample grids nest for resolutions 2^k + 1, so a recorded witness
    # is re-tested at every finer level and the verdict cannot flip back
    def f(pt):
        x, y = pt[..., 0], pt[..., 1]
        return np.stack([0.25 - x - 1.6 * np.exp(-8.0 * y * y), -y], axis=-1)

    cube = Cube([-1.0, -1.0], [1.0, 1.0])
    assert miranda_check(f, cube, resolution=2).holds  # spike missed
    verdicts = [miranda_check(f, cube, resolution=r) for r in (3, 5, 9, 17)]
    assert all(not c.holds for c in verdicts)
    for c in verdicts:
        k, side = 0, "-"
        bad = next(fv for fv in c.faces if fv.axis == k and fv.side == side)
        assert f(bad.witness)[0] < 0


def test_solve_affine_root():
    res = miranda_solve(_affine, Cube([-1.0, -1.0], [1.0, 1.0]), tol=1e-10)
    assert res.status == "converged"
    assert res.certified_path
    assert res.fallback_steps == 0
    assert np.max(np.abs(res.point - np.array([0.25, -0.5]))) <= 1e-10
    assert res.residual_norm <= 1e-9


def test_solve_rotation_root_at_origin():
    res = miranda_solve(_rotation, Cube([-1.0, -1.0], [1.0, 1.0]), tol=1e-10)
    assert res.status == "converged"
    assert np.max(np.abs(res.point)) <= 1e-10


def test_solve_nonlinear_map_matches_grid_oracle():
    cube = Cube([-1.0, -1.0], [1.0, 1.0])
    res = miranda_solve(_warped, cube, tol=1e-9)
    oracle = brute_force_zero(_warped, cube, grid=400)
    cell = cube.diameter() / 400.0
    assert np.linalg.norm(res.point - oracle) <= 2.0 * cell
    assert res.residual_norm <= 1e-8


def test_solve_result_is_locally_optimal():
    # |f| varies by Lipschitz * diameter across the final cube, so the
    # center can only lose that much against any grid point of the cube
    for f in (_affine, _warped):
        res = miranda_solve(f, Cube([-1.0, -1.0], [1.0, 1.0]), tol=1e-9)
        slack = 5.0 * res.final_cube.diameter()
        axes = [np.linspace(res.final_cube.lo[j], res.final_cube.hi[j], 5)
                for j in range(2)]
        for x in axes[0]:
            for y in axes[1]:
                here = np.linalg.norm(f(np.array([x, y])))
                assert res.residual_norm <= here + slack


def test_solve_rejects_bad_certificate():
    with pytest.raises(CertificateFailed):
        miranda_solve(lambda p: p.copy(), Cube([-1.0, -1.0], [1.0, 1.0]))


def test_solve_depth_exhaustion_still_returns_point():
    res = miranda_solve(_affine, Cube([-1.0, -1.0], [1.0, 1.0]),
                        tol=1e-12, max_depth=5)
    assert res.status == "depth_exceeded"
    assert res.depth == 5
    assert np.max(np.abs(res.point - np.array([0.25, -0.5]))) <= 1.0


def test_weighted_three_dimensional_box():
    assert miranda_check(_weighted3, _WEIGHTED_CUBE, resolution=5).holds
    res = miranda_solve(_weighted3, _WEIGHTED_CUBE, tol=1e-9)
    assert res.status == "converged"
    assert np.max(np.abs(res.point)) <= 1e-9


@pytest.mark.parametrize("f,cube,pin", [
    (_warped, _SQUARE,
     ([-4.656612873077393e-10, -4.656612873077393e-10], 62, 62, False)),
    (_weighted3, _WEIGHTED_CUBE,
     ([-4.656612873077393e-10, -4.656612873077393e-10,
       -3.104408582051595e-10], 91, 3, False)),
], ids=["warped", "weighted3"])
def test_solve_pins_point_depth_and_fallbacks(f, cube, pin):
    # the values of the point-by-point evaluation, to the last bit: the
    # row calls change neither the child choice nor the fallback rule
    res = miranda_solve(f, cube, tol=1e-9)
    assert ([float(v) for v in res.point], res.depth, res.fallback_steps,
            res.certified_path) == pin


def test_one_map_call_per_check_zoom_level_and_grid():
    shapes = []

    def f(X):
        shapes.append(X.shape)
        return _affine(X)

    miranda_check(f, _SQUARE, resolution=9)
    assert shapes == [(4 * 9, 2)]
    del shapes[:]
    _sampled_argmin(f, _SQUARE, 9)
    assert shapes == [(9 * 9, 2)] * 3
    del shapes[:]
    brute_force_zero(f, _SQUARE, grid=31)
    assert shapes == [(31 * 31, 2)]
    del shapes[:]
    # the solve: whole-face checks, then the residual at the centre
    res = miranda_solve(f, _SQUARE, tol=1e-3)
    assert set(shapes[:-1]) == {(4 * 9, 2)} and shapes[-1] == (1, 2)
    assert res.depth + 1 <= len(shapes) - 1 <= 2 * res.depth + 1


def _faces_by_meshgrid(f, cube, resolution):
    """The certificate one face at a time, each face a meshgrid over the
    other axes: the reference for the one-index build of all faces."""
    axes = [np.linspace(cube.lo[j], cube.hi[j], resolution)
            for j in range(cube.dim)]
    faces = []
    for k in range(cube.dim):
        for side, wall in (("-", cube.lo), ("+", cube.hi)):
            mesh = np.meshgrid(*(axes[:k] + [wall[k:k + 1]] + axes[k + 1:]),
                               indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            vals = f(pts)
            margins = (1.0 if side == "-" else -1.0) * vals[:, k]
            i = int(np.argmin(margins))
            faces.append((k, side, float(vals[i, k]), float(margins[i]),
                          pts[i]))
    return faces


@st.composite
def _certificate_problems(draw):
    """A cube of dimension 1 to 3, a resolution, and a row map whose
    rounded values tie, vanish on faces and turn NaN."""
    dim = draw(st.integers(1, 3))
    resolution = draw(st.integers(1 if dim == 1 else 2, 9))
    coords = st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)
    lo = np.array(draw(coords))
    hi = lo + np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=dim,
                                     max_size=dim)))
    A = np.array(draw(st.lists(st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)),
                               min_size=dim * dim, max_size=dim * dim)))
    b = np.array(draw(coords))
    digits = draw(st.sampled_from((None, 0, 1)))
    nan_above = draw(st.sampled_from((np.inf, 0.0, 5.0)))

    def f(X):
        # products summed in a fixed order per row, so the value at a
        # point does not depend on which other rows share the call
        Y = b + (X[:, None, :] * A.reshape(dim, dim)).sum(axis=2)
        Y = Y if digits is None else np.round(Y, digits)
        return np.where(X[:, :1] > nan_above, np.nan, Y)
    return f, Cube(lo, hi), resolution


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(_certificate_problems())
def test_one_index_faces_equal_the_meshgrid_faces_bit_for_bit(problem):
    f, cube, resolution = problem
    cert = miranda_check(f, cube, resolution)
    want = _faces_by_meshgrid(f, cube, resolution)
    assert len(cert.faces) == len(want)
    for fv, (k, side, extreme, margin, witness) in zip(cert.faces, want):
        assert (fv.axis, fv.side) == (k, side)
        assert _bits(fv.extreme_value, fv.margin) == _bits(extreme, margin)
        assert fv.witness.tobytes() == witness.tobytes()
    margins = [margin for _, _, _, margin, _ in want]
    holds = all(m >= 0 for m in margins)
    assert cert.holds == holds
    assert cert.degenerate == (holds and any(m <= 1e-15 for m in margins))
    failing = [w for _, _, _, m, w in want if m < 0]
    assert (cert.witness is None) == (not failing)
    if failing:
        assert cert.witness.tobytes() == failing[0].tobytes()


def test_one_point_faces_in_one_dimension():
    cert = miranda_check(lambda X: 0.5 - X, Cube([0.0], [1.0]), resolution=1)
    assert [(fv.side, fv.witness.tolist(), fv.margin) for fv in cert.faces] \
        == [("-", [0.0], 0.5), ("+", [1.0], 0.5)]
    with pytest.raises(ValueError, match="at least 2"):
        miranda_check(_affine, _SQUARE, resolution=1)


@pytest.mark.parametrize("pointwise", [
    lambda p: np.array([0.25 - p[0], -0.5 - p[1]]),
    lambda p: np.array([1.0, -1.0]),
], ids=["indexed", "constant"])
def test_pointwise_map_is_rejected_by_shape(pointwise):
    for call in (lambda: miranda_check(pointwise, _SQUARE),
                 lambda: miranda_solve(pointwise, _SQUARE),
                 lambda: _sampled_argmin(pointwise, _SQUARE, 9),
                 lambda: brute_force_zero(pointwise, _SQUARE, grid=11)):
        with pytest.raises(ValueError, match=r"map returned shape \("):
            call()


def test_brute_force_affine_and_gridded_roots():
    cube2 = Cube([-1.0, -1.0], [1.0, 1.0])
    z = brute_force_zero(_affine, cube2, grid=101)
    assert abs(z[0] - 0.25) <= 0.011
    assert z[1] == pytest.approx(-0.5, abs=1e-12)
    z1 = brute_force_zero(lambda p: p - 0.3, Cube([0.0], [1.0]), grid=11)
    assert z1[0] == pytest.approx(0.3, abs=1e-12)
    zr = brute_force_zero(_rotation, cube2, grid=101)
    assert np.max(np.abs(zr)) <= 1e-12


def test_brute_force_matches_a_loop_over_the_grid():
    xs = np.linspace(-1.0, 1.0, 31)
    best, best_norm = None, np.inf
    for x in xs:
        for y in xs:
            pt = np.array([x, y])
            norm = np.linalg.norm(_warped(pt))
            if norm < best_norm:
                best, best_norm = pt, norm
    assert np.array_equal(brute_force_zero(_warped, _SQUARE, grid=31), best)


def test_brute_force_guards():
    with pytest.raises(ValueError):
        brute_force_zero(lambda p: p, Cube([-1.0] * 4, [1.0] * 4), grid=5)
    with pytest.raises(ValueError):
        brute_force_zero(lambda p: p, Cube([-1.0] * 3, [1.0] * 3), grid=500)


def test_cube_split_longest_axis_with_low_index_ties():
    c = Cube([0.0, 0.0], [1.0, 1.0])
    left, right, axis = c.split()
    assert axis == 0
    assert left.hi[0] == 0.5 and right.lo[0] == 0.5
    c2 = Cube([0.0, 0.0], [1.0, 3.0])
    _, _, axis2 = c2.split()
    assert axis2 == 1
    with pytest.raises(ValueError):
        Cube([0.0, 1.0], [1.0, 1.0])
