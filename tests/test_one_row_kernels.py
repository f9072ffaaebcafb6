"""Each one-point measure is the one-row case of its grid kernel, bit for
bit.

``SetValue.distance``, ``sup_norm`` and ``excess_over`` against
``_box_distances``, ``_sup_norms`` and ``_excesses``;
``tangent_cone_contains(...).directional_derivative`` against
``_tangency_at`` of the body's one-row lift and against ``_cone_gaps`` on
the whole grid; ``distance`` against ``distances``.  The grids hold rows
of 1 to 7 entries in C or Fortran order, and their entries are
full-precision draws, so a second summation order would show in the last
bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangenteq import Ball, Box, SetValue, Simplex
from tangenteq.convex import _box_distances, _cone_gaps
from tangenteq.fields import _excesses, _sup_norms

_ROWS = 5
_SEEDS = st.integers(0, 2**32 - 1)
_WIDTHS = st.integers(1, 7)
_ORDERS = st.sampled_from("CF")


def _grid(rng, width, order, scale=1.0):
    return np.asarray(scale * rng.standard_normal((_ROWS, width)),
                      order=order)


@settings(deadline=None)
@given(seed=_SEEDS, width=_WIDTHS, order=_ORDERS)
@example(seed=0, width=3, order="C")
@example(seed=0, width=7, order="F")
def test_value_box_measures_are_their_one_row_case(seed, width, order):
    rng = np.random.default_rng(seed)
    a, b, c, d, Y = (_grid(rng, width, order) for _ in range(5))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    olo, ohi = np.minimum(c, d), np.maximum(c, d)
    distances = _box_distances(Y, lo, hi)
    sup_norms = _sup_norms(lo, hi)
    excesses = _excesses(lo, hi, olo, ohi)
    for j in range(_ROWS):
        box = SetValue(lo[j], hi[j])
        assert box.distance(Y[j]) == distances[j]
        assert box.sup_norm() == sup_norms[j]
        assert box.excess_over(SetValue(olo[j], ohi[j])) == excesses[j]


def _body(kind, width, rng):
    if kind == "box":
        a, b = rng.standard_normal((2, width))
        return Box(np.minimum(a, b), np.maximum(a, b))
    if kind == "ball":
        return Ball(rng.standard_normal(width), 0.5 + rng.random())
    return Simplex(0.5 + rng.random(), width)


@settings(deadline=None)
@given(kind=st.sampled_from(("box", "ball", "simplex")),
       seed=_SEEDS, width=_WIDTHS, order=_ORDERS)
@example(kind="ball", seed=5, width=3, order="C")
@example(kind="ball", seed=2, width=7, order="F")
@example(kind="box", seed=11, width=3, order="C")
@example(kind="simplex", seed=0, width=3, order="C")
def test_cone_and_distance_queries_are_their_one_row_case(kind, seed, width,
                                                          order):
    rng = np.random.default_rng(seed)
    body = _body(kind, width, rng)
    # states far out, so most projections land on the boundary
    U = _grid(rng, width, order, scale=3.0)
    X = np.asarray(body.project_rows(U), order=order)
    V = _grid(rng, width, order)
    gaps = _cone_gaps(body, X, V)
    distances = body.distances(U)
    lift = body.lift(1, width)
    for j in range(_ROWS):
        dd = body.tangent_cone_contains(X[j], V[j]).directional_derivative
        assert dd == lift._tangency_at(X[j][None], V[j][None]) == gaps[j]
        assert body.distance(U[j]) == distances[j]
