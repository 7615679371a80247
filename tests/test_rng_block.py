"""Batched-draw edge cases surfaced by vectorised session emission.

Emission draws whole day-bucket batches instead of per-session scalars,
which makes three RNG edge cases load-bearing: zero-size draws (empty day
buckets must not perturb the stream), single-element pools (one-honeypot
campaigns), and weight vectors that do not sum to exactly 1.0 after float
arithmetic.  The properties here pin each of them, plus the split-vs-batch
equivalences every vectorised call site relies on to draw the same values
as a scalar loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.rng import RngStream, weight_cdf
from repro.workload.samplers import TransitionTable
from repro.workload.targets import TargetSet


def pair(name: str = "t") -> tuple:
    """Two independent but identically-seeded streams."""
    return RngStream(1234, name), RngStream(1234, name)


# -- zero-size draws ---------------------------------------------------------


def test_size_zero_draw_is_empty_and_stateless():
    a, b = pair()
    out = a.choice_indices(5, size=0)
    assert out.shape == (0,)
    # The empty draw must leave the bit stream exactly where it was.
    assert a.randint(0, 1 << 30) == b.randint(0, 1 << 30)


def test_size_zero_weighted_draw_is_stateless():
    a, b = pair()
    assert a.choice_indices(3, size=0, p=[0.2, 0.3, 0.5]).size == 0
    assert np.array_equal(a.random_array(8), b.random_array(8))


def test_size_zero_from_empty_pool_is_allowed():
    # An empty day bucket over an empty pool is a no-op, not an error.
    assert RngStream(7).choice_indices(0, size=0).size == 0


def test_positive_draw_from_empty_pool_raises():
    with pytest.raises(ValueError):
        RngStream(7).choice_indices(0, size=3)


def test_choose_many_empty_batch_returns_empty():
    ts = TargetSet(pots=np.array([4, 9]), cumulative=np.array([0.5, 1.0]))
    assert ts.choose_many(np.empty(0)).size == 0


def test_choose_many_empty_target_set_raises():
    ts = TargetSet(pots=np.empty(0, np.int64), cumulative=np.empty(0))
    with pytest.raises(ValueError):
        ts.choose_many(np.array([0.5]))


# -- single-element pools ----------------------------------------------------


@given(size=st.integers(min_value=1, max_value=64))
@settings(max_examples=25, deadline=None)
def test_single_element_pool_always_returns_zero(size):
    out = RngStream(99).choice_indices(1, size=size)
    assert np.array_equal(out, np.zeros(size, dtype=out.dtype))


@given(weight=st.floats(min_value=1e-6, max_value=1e6),
       size=st.integers(min_value=1, max_value=32))
@settings(max_examples=25, deadline=None)
def test_single_element_weighted_pool(weight, size):
    out = RngStream(99).choice_indices(1, size=size, p=[weight])
    assert np.array_equal(out, np.zeros(size, dtype=out.dtype))


def test_choose_many_single_pot_set():
    ts = TargetSet(pots=np.array([17]), cumulative=np.array([1.0]))
    u = RngStream(3).random_array(16)
    assert np.array_equal(ts.choose_many(u), np.full(16, 17))


# -- weights that do not sum to 1.0 ------------------------------------------


@given(
    weights=st.lists(st.floats(min_value=0.01, max_value=10.0),
                     min_size=2, max_size=8),
    scale=st.floats(min_value=0.25, max_value=4.0),
)
@settings(max_examples=40, deadline=None)
def test_weighted_replace_draws_are_scale_invariant(weights, scale):
    # The inverse-CDF draw normalises, so scaling every weight by the
    # same factor must not change a single drawn index.
    a, b = pair()
    scaled = [w * scale for w in weights]
    assert np.array_equal(
        a.choice_indices(len(weights), size=32, p=weights),
        b.choice_indices(len(weights), size=32, p=scaled),
    )


@given(
    weights=st.lists(st.floats(min_value=0.01, max_value=10.0),
                     min_size=3, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_replace_false_accepts_unnormalised_weights(weights):
    # Generator.choice(replace=False) rejects weight sums off by more than
    # sqrt(eps); choice_indices renormalises those instead of crashing,
    # and draws exactly what the pre-normalised spelling draws.
    a, b = pair()
    n = len(weights)
    norm = np.asarray(weights) / np.sum(weights)
    got = a.choice_indices(n, size=n - 1, replace=False, p=weights)
    want = b.choice_indices(n, size=n - 1, replace=False, p=norm)
    assert np.array_equal(np.asarray(got), np.asarray(want))
    assert len(set(np.asarray(got).tolist())) == n - 1


def test_already_normalised_weights_are_not_renormalised():
    # An unconditional divide would change the float bits of normalised
    # weight vectors; exactly-normalised input must pass through as-is.
    a, b = pair()
    p = np.array([0.25, 0.25, 0.5])
    assert np.array_equal(
        np.asarray(a.choice_indices(3, size=2, replace=False, p=p)),
        np.asarray(b.choice_indices(3, size=2, replace=False, p=p)),
    )


# -- precomputed CDFs and transition tables ----------------------------------


@given(
    weights=st.lists(st.floats(min_value=0.01, max_value=10.0),
                     min_size=1, max_size=8),
    size=st.integers(min_value=0, max_value=64),
)
@settings(max_examples=40, deadline=None)
def test_cdf_precompute_matches_per_call_weights(weights, size):
    a, b = pair()
    assert np.array_equal(
        a.choice_indices(len(weights), size=size, p=weights),
        b.choice_indices(len(weights), size=size,
                         cdf=weight_cdf(weights)),
    )


def test_transition_table_matches_inline_weights():
    table = TransitionTable([0.24, 0.16, 0.60])
    a, b = pair()
    assert np.array_equal(
        table.sample(a, 500),
        np.asarray(b.choice_indices(3, size=500, p=[0.24, 0.16, 0.60])),
    )


def test_weight_cdf_rejects_degenerate_vectors():
    with pytest.raises(ValueError):
        weight_cdf([])
    with pytest.raises(ValueError):
        weight_cdf([0.0, 0.0])


# -- split-vs-batch equivalences ---------------------------------------------


@given(
    bounds=st.lists(st.integers(min_value=1, max_value=1000),
                    min_size=1, max_size=40),
)
@settings(max_examples=40, deadline=None)
def test_randint_array_matches_scalar_loop(bounds):
    # One batched call over a varying-bounds array consumes the bit
    # stream exactly as a loop of scalar draws — the property the
    # vectorised locality redirects rely on.
    a, b = pair()
    batched = a.randint_array(0, np.asarray(bounds))
    scalar = np.array([b.randint(0, bound) for bound in bounds])
    assert np.array_equal(batched, scalar)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_choose_many_matches_scalar_choose(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    weights = data.draw(st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n))
    cumulative = np.cumsum(weights) / np.sum(weights)
    cumulative[-1] = 1.0
    ts = TargetSet(pots=np.arange(10, 10 + n), cumulative=cumulative)
    u = RngStream(5).random_array(data.draw(
        st.integers(min_value=0, max_value=32)))
    assert np.array_equal(ts.choose_many(u),
                          np.array([ts.choose(x) for x in u], dtype=ts.pots.dtype))
