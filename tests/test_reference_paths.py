"""The probe grid against the form it replaced, byte for byte.

``_row_major_probe_grid`` builds the probe grid state-first, drawing the
probe table at every call.  The current code must return the same bytes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangenteq import (Box, Grid1D, OperatorSpec, assemble,
                       make_nonlinearity, verify_bernstein, verify_tangency,
                       viability_simulate)
from tangenteq import fields
from tangenteq.fields import _probe_grid, _probe_table


def _row_major_probe_grid(seed, count, radius, xs, U, P):
    """The probe grid state-first: every state's row plus each row of a
    freshly drawn, scaled probe table."""
    S = np.column_stack([xs, U, P])
    dim = S.shape[1]
    offsets = np.vstack([np.zeros(dim),
                         radius * _probe_table(seed, count, dim)])
    probes = (S[:, None, :] + offsets).reshape(-1, dim)
    k = np.shape(U)[1]
    return probes[:, 0], probes[:, 1:1 + k], probes[:, 1 + k:]


@st.composite
def probed_grids(draw):
    """States of probe dimension 1 to 3: a position, ``k`` values and
    ``q`` gradient components."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, 2))
    q = draw(st.integers(0, 2 - k))
    reals = st.floats(-2.0, 2.0)
    xs = np.array(draw(st.lists(reals, min_size=m, max_size=m)))
    U = np.array(draw(st.lists(reals, min_size=m * k, max_size=m * k)))
    P = np.array(draw(st.lists(reals, min_size=m * q, max_size=m * q)))
    return xs, U.reshape(m, k), P.reshape(m, q)


@settings(max_examples=150, deadline=None)
@given(probed_grids(), st.integers(1, 70), st.integers(0, 5),
       st.sampled_from((1e-3, 0.05, 0.7)))
@example((np.zeros(1), np.zeros((1, 0)), np.zeros((1, 0))), 70, 0, 0.05)
@example((np.array([0.5, -0.0]), np.array([[0.5, -0.0], [1.0, 2.0]]),
          np.zeros((2, 0))), 1, 3, 0.7)
def test_the_probe_grid_is_the_row_major_build(grid, count, seed, radius):
    want = _row_major_probe_grid(seed, count, radius, *grid)
    got = _probe_grid(seed, count, radius, *grid)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert (np.ascontiguousarray(a).tobytes()
                == np.ascontiguousarray(b).tobytes())


def test_the_cached_offsets_are_read_only_and_shared():
    offsets = fields._probe_offsets(0, 64, 0.05, 3)
    assert offsets.shape == (3, 65) and not offsets.flags.writeable
    with pytest.raises(ValueError):
        offsets[0, 1] = 1.0
    assert fields._probe_offsets(0, 64, 0.05, 3) is offsets


def test_a_relay_simulation_draws_its_probe_table_once(monkeypatch):
    n = 101
    op = assemble(OperatorSpec(bc="neumann"), Grid1D(1.0, n))
    relay = make_nonlinearity("heaviside", {}, seed=5)
    u0 = fields.SplitMix64(5).random(n)
    draws = []

    class Counted(fields.SplitMix64):
        def __init__(self, seed):
            draws.append(seed)
            super().__init__(seed)

    fields._probe_offsets.cache_clear()
    monkeypatch.setattr(fields, "SplitMix64", Counted)
    rep = viability_simulate(op, relay, Box([0.0], [1.0]), u0, 1.0, 0.05)
    assert rep.status == "completed" and rep.steps == 20
    # 21 hull evaluations, one per step and the terminal measure
    assert len(draws) == 1


def test_a_seed_that_is_not_an_integer_is_refused():
    field = fields.SingleValued(lambda x, u, p: u)
    for seed in (None, 0.5, [1, 2], 2.0):
        with pytest.raises(TypeError, match=r"^seed must be an integer"):
            fields.semicontinuity_probe(field, 0.0, 0.5, 0.0, 0.1, seed=seed)
        with pytest.raises(TypeError, match=r"^base_seed must be an integer"):
            fields.FilippovHull(lambda x, u, p: u, 0.1, base_seed=seed)
    assert fields.FilippovHull(lambda x, u, p: u, 0.1,
                               base_seed=np.int64(2)).base_seed == 2


def test_a_negative_seed_is_refused_where_it_enters():
    field = fields.SingleValued(lambda x, u, p: u)
    with pytest.raises(ValueError, match=r"^seed must be non-negative, "
                                         r"got -1$"):
        fields.semicontinuity_probe(field, 0.0, 0.5, 0.0, 0.1, seed=-1)
    with pytest.raises(ValueError, match=r"^base_seed must be non-negative"):
        fields.FilippovHull(lambda x, u, p: u, 0.1, base_seed=-1)
    grid = Grid1D(1.0, 11)
    with pytest.raises(ValueError, match=r"^seed must be non-negative"):
        verify_tangency(field, Box([0.0], [1.0]), grid, samples=4, seed=-1)
    with pytest.raises(ValueError, match=r"^seed must be non-negative"):
        verify_bernstein(lambda x, u, p: -u, 1.0, 0.0, 1.0, 1.0, samples=4,
                         seed=-1)
