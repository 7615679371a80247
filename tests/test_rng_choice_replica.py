"""The plan's draws equal numpy's own, draw for draw.

``RngStream.choice_indices(replace=False, p=...)`` runs numpy's weighted
sampling loop itself instead of calling ``Generator.choice``; the plan's
vector draws rely on numpy facts about scalar vs vector sequences.  These
tests hold both to numpy: the indices and the bit generator's state
afterwards must match, and every input numpy rejects is still rejected.
If a numpy upgrade breaks one of the facts, it fails here before the
pinned plan and store digests do.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.rng import (
    RngStream,
    choice_weights,
    derive_stream_seed,
    weight_cdf,
)
from repro.workload.targets import in_set_cumulative


def numpy_twin(stream: RngStream) -> np.random.Generator:
    """A raw generator seeded exactly like ``stream``."""
    return np.random.Generator(np.random.PCG64(
        derive_stream_seed(stream.master_seed, stream.name)))


def state_of(stream: RngStream) -> dict:
    return stream._gen.bit_generator.state


def assert_matches_numpy(n, size, p, seed=0, hoisted=False):
    stream = RngStream(seed, "replica")
    twin = numpy_twin(stream)
    if hoisted:
        q = choice_weights(p, n)
        got = stream.choice_indices(n, size, p=q, replace=False,
                                    cdf=weight_cdf(q))
    else:
        got = stream.choice_indices(n, size, p=p, replace=False)
    want = twin.choice(n, size=size, replace=False, p=p)
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype
    assert state_of(stream) == twin.bit_generator.state


@st.composite
def weighted_cases(draw):
    n = draw(st.integers(1, 240))
    seed = draw(st.integers(0, 2**32))
    rng = np.random.default_rng(seed)
    p = rng.random(n) ** draw(st.floats(0.2, 6.0))
    if draw(st.booleans()):
        p[rng.random(n) < draw(st.floats(0.0, 0.9))] = 0.0
    if not p.any():
        p[draw(st.integers(0, n - 1))] = 1.0
    p = p / p.sum()
    nonzero = int(np.count_nonzero(p))
    size = draw(st.integers(1, nonzero))
    return n, size, p, seed


@settings(max_examples=400, deadline=None)
@given(weighted_cases(), st.booleans())
def test_without_replacement_matches_numpy(case, hoisted):
    n, size, p, seed = case
    assert_matches_numpy(n, size, p, seed, hoisted)


@pytest.mark.parametrize("n,size,zeros", [
    (1, 1, ()),            # a one-element pool
    (7, 1, ()),            # one draw
    (7, 6, ()),            # n - 1 draws
    (221, 220, ()),        # n - 1 over the farm's pot count
    (9, 5, (0, 3, 4, 8)),  # size equal to the non-zero count
    (9, 2, (0, 8)),        # zeros at both ends
    (221, 150, tuple(range(0, 221, 4))),  # many zeros, many rounds
])
def test_edge_cases_match_numpy(n, size, zeros):
    rng = np.random.default_rng(n * 1000 + size)
    p = rng.lognormal(0.0, 1.0, n)
    p[list(zeros)] = 0.0
    p /= p.sum()
    for seed in range(25):
        assert_matches_numpy(n, size, p, seed)


def test_renormalised_weights_match_numpy_on_normalised_input():
    # Sums further than sqrt(eps) from 1 are renormalised first (numpy
    # would reject them): the draw equals numpy's on the normalised p.
    weights = np.array([2.0, 5.0, 1.0, 0.0, 4.0])
    stream = RngStream(3, "replica")
    twin = numpy_twin(stream)
    got = stream.choice_indices(5, 3, p=weights, replace=False)
    want = twin.choice(5, size=3, replace=False, p=weights / weights.sum())
    assert np.array_equal(got, want)
    assert state_of(stream) == twin.bit_generator.state


@pytest.mark.parametrize("n,size,p", [
    (3, 2, [0.5, -0.25, 0.75]),          # negative weight
    (3, 2, [0.5, np.nan, 0.5]),          # NaN weight
    (4, 3, [0.5, 0.5, 0.0, 0.0]),        # too few non-zero entries
    (3, 4, [0.2, 0.3, 0.5]),             # size > n
    (3, 2, [0.0, 0.0, 0.0]),             # nothing to draw
    (3, 2, [0.5, 0.5]),                  # wrong length
])
def test_invalid_weights_still_raise(n, size, p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(n, size=size, replace=False, p=p)
    with pytest.raises(ValueError):
        RngStream(0, "replica").choice_indices(n, size, p=p, replace=False)


def test_size_zero_leaves_the_stream_alone():
    stream = RngStream(5, "replica")
    twin = numpy_twin(stream)
    assert stream.choice_indices(4, 0, p=[0.25] * 4, replace=False).size == 0
    assert state_of(stream) == twin.bit_generator.state


def test_caller_weights_are_not_mutated():
    p = np.array([0.7, 0.1, 0.1, 0.05, 0.05])
    before = p.copy()
    RngStream(1, "replica").choice_indices(5, 5, p=p, replace=False)
    assert np.array_equal(p, before)


# -- numpy facts the vector draws rely on -----------------------------------


@pytest.mark.parametrize("draw,args", [
    ("lognormal", (0.0, 1.0)), ("lognormal", (0.0, 0.8)),
    ("lognormal", (0.0, 1.3)), ("normal", (0.0, 1.0)),
])
def test_vector_draw_equals_scalar_sequence(draw, args):
    a = np.random.Generator(np.random.PCG64(11))
    b = np.random.Generator(np.random.PCG64(11))
    vector = getattr(a, draw)(*args, size=257)
    scalars = np.array([getattr(b, draw)(*args) for _ in range(257)])
    assert np.array_equal(vector, scalars)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 6, 87, 221])
def test_scalar_weighted_choice_is_one_double_inverted(n):
    p = np.random.default_rng(n).random(n)
    p /= p.sum()
    cdf = weight_cdf(p)
    a = np.random.Generator(np.random.PCG64(n))
    b = np.random.Generator(np.random.PCG64(n))
    chosen = [int(a.choice(n, p=p)) for _ in range(300)]
    # One vector of doubles, inverted at once, is the same sequence.
    inverted = cdf.searchsorted(b.random(300), side="right").tolist()
    assert chosen == inverted
    assert a.bit_generator.state == b.bit_generator.state
    c = np.random.Generator(np.random.PCG64(n))
    d = np.random.Generator(np.random.PCG64(n))
    assert int(c.choice(n, p=p)) == int(cdf.searchsorted(d.random(), "right"))


def test_row_wise_in_set_cumulative_equals_one_dimensional():
    rng = np.random.default_rng(9)
    weights = rng.lognormal(0.0, 0.6, 221)
    for breadth in (1, 2, 7, 8, 9, 16, 60, 128, 129, 220):
        rows = np.stack([rng.choice(221, breadth, replace=False)
                         for _ in range(17)])
        block = in_set_cumulative(rows, weights)
        for row, got in zip(rows, block):
            assert np.array_equal(got, in_set_cumulative(row, weights))
