"""Tests for deterministic named RNG streams."""

import numpy as np
import pytest

from repro.simulation.rng import RngStream


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RngStream(42, "x")
        b = RngStream(42, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_differ(self):
        a = RngStream(42, "x")
        b = RngStream(42, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RngStream(1, "x")
        b = RngStream(2, "x")
        assert a.random() != b.random()

    def test_child_is_deterministic(self):
        a = RngStream(42, "root").child("sub")
        b = RngStream(42, "root").child("sub")
        assert a.random() == b.random()

    def test_child_independent_of_parent_consumption(self):
        parent1 = RngStream(42, "root")
        parent1.random()  # consume from parent
        child1 = parent1.child("sub")
        child2 = RngStream(42, "root").child("sub")
        assert child1.random() == child2.random()

    def test_child_name_composition(self):
        assert RngStream(1, "a").child("b").name == "a.b"


class TestDraws:
    @pytest.fixture
    def rng(self):
        return RngStream(7, "test")

    def test_random_in_unit_interval(self, rng):
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_uniform_bounds(self, rng):
        for _ in range(100):
            assert 2.0 <= rng.uniform(2.0, 3.0) < 3.0

    def test_randint_bounds(self, rng):
        values = {rng.randint(0, 5) for _ in range(200)}
        assert values == {0, 1, 2, 3, 4}

    def test_pareto_minimum(self, rng):
        assert all(rng.pareto(1.5, scale=2.0) >= 2.0 for _ in range(100))

    def test_bernoulli_extremes(self, rng):
        assert not rng.bernoulli(0.0)
        assert rng.bernoulli(1.0)

    def test_choice_returns_element(self, rng):
        seq = ["a", "b", "c"]
        assert rng.choice(seq) in seq

    def test_choice_with_weights(self, rng):
        # All weight on one element -> always chosen.
        assert all(rng.choice(["x", "y"], p=[1.0, 0.0]) == "x" for _ in range(20))

    def test_sample_distinct(self, rng):
        sample = rng.sample(list(range(100)), 10)
        assert len(sample) == len(set(sample)) == 10

    def test_sample_clamps_k(self, rng):
        assert len(rng.sample([1, 2, 3], 10)) == 3

    def test_shuffled_preserves_elements(self, rng):
        data = list(range(20))
        assert sorted(rng.shuffled(data)) == data

    def test_multinomial_sums_to_n(self, rng):
        counts = rng.multinomial(1000, [0.2, 0.3, 0.5])
        assert counts.sum() == 1000

    def test_multinomial_unnormalised_weights(self, rng):
        counts = rng.multinomial(100, [2.0, 2.0])
        assert counts.sum() == 100

    def test_multinomial_rejects_zero_weights(self, rng):
        with pytest.raises(ValueError):
            rng.multinomial(10, [0.0, 0.0])

    def test_array_shapes(self, rng):
        assert rng.random_array(10).shape == (10,)
        assert rng.uniform_array(0, 1, 7).shape == (7,)
        assert rng.lognormal_array(0, 1, 5).shape == (5,)
        assert rng.exponential_array(1.0, 4).shape == (4,)

    def test_choice_indices_with_p(self, rng):
        idx = rng.choice_indices(3, size=50, p=[1.0, 0.0, 0.0])
        assert (np.asarray(idx) == 0).all()
