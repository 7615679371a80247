"""Property suites pinning the sketches (``repro.analytics.sketches``).

Hypothesis pins the *sound* invariants — the ones that hold for every
input: scalar path equals batch path, count monotonicity, the
Misra–Gries lower/upper bound envelope.  The *probabilistic* accuracy
claims (HLL relative error) are checked on fixed deterministic sample
sets, where the documented bounds must hold for the pinned seeds —
hypothesis-generated adversaries are exactly the inputs those
guarantees are *not* made for.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.sketches import (
    ExactCounter,
    HyperLogLog,
    SpaceSaving,
    hash_key,
    hash_keys,
)

SEED = 99

keys = st.integers(min_value=0, max_value=60)
key_lists = st.lists(keys, max_size=80)
str_keys = st.text(alphabet="abcdef0123456789", min_size=1, max_size=8)


def build_hll(values, p=8, name="t"):
    h = HyperLogLog(SEED, name, p)
    h.add_many(list(values))
    return h


def build_ss(values, capacity=4, name="s"):
    s = SpaceSaving(capacity, name)
    s.add_many(values)
    return s


class TestHashing:
    def test_hash_key_deterministic_and_seeded(self):
        assert hash_key(42, 7) == hash_key(42, 7)
        assert hash_key(42, 7) != hash_key(42, 8)
        assert hash_key("ab", 7) == hash_key("ab", 7)
        assert hash_key("ab", 7) != hash_key("ab", 8)

    def test_hash_keys_matches_scalar(self):
        values = [0, 1, 2, 2**63, 2**64 - 1]
        vec = hash_keys(values, 123)
        assert [int(v) for v in vec] == [hash_key(v, 123) for v in values]
        strs = ["", "a", "deadbeef"]
        vec_s = hash_keys(strs, 123)
        assert [int(v) for v in vec_s] == [hash_key(s, 123) for s in strs]

    def test_empty_input(self):
        assert len(hash_keys([], 1)) == 0

    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_hash_key_rejects_ints_outside_uint64(self, value):
        with pytest.raises(OverflowError):
            hash_key(value, 123)
        with pytest.raises(OverflowError):
            hash_keys([value], 123)

    @pytest.mark.parametrize("values", [["a", 1], [1, "a"], [0, 1, "x", 2]])
    def test_hash_keys_rejects_mixed_str_and_int(self, values):
        with pytest.raises(TypeError, match="str"):
            hash_keys(values, 123)
        with pytest.raises(TypeError):
            HyperLogLog(SEED, "t", 8).add_many(values)

    def test_hash_keys_accepts_int_arrays(self):
        values = np.array([0, 7, 2**40], dtype=np.int64)
        assert [int(v) for v in hash_keys(values, 5)] == \
            [hash_key(int(v), 5) for v in values]


u64_keys = st.integers(min_value=0, max_value=2**64 - 1)
scalar_key_lists = st.one_of(
    st.lists(st.one_of(u64_keys, st.sampled_from([0, 2**64 - 1])), max_size=60),
    st.lists(st.text(max_size=12), max_size=60),
)


class TestScalarPathEqualsBatchPath:
    """One-by-one ``add`` must leave exactly the state the batch paths do."""

    @given(values=scalar_key_lists)
    @settings(max_examples=60)
    def test_hll_add_equals_add_many_and_add_hashes(self, values):
        for p in (4, 12, 18):
            scalar = HyperLogLog(SEED, "t", p)
            for value in values:
                scalar.add(value)
            batch = HyperLogLog(SEED, "t", p)
            batch.add_many(values)
            hashed = HyperLogLog(SEED, "t", p)
            hashed.add_hashes(hash_keys(values, hashed.seed))
            assert np.array_equal(scalar.registers, batch.registers)
            assert np.array_equal(scalar.registers, hashed.registers)

    @given(data=st.data())
    @settings(max_examples=60)
    def test_hll_cell_equals_add_hashes(self, data):
        # Crafted hashes reach the rank cap (an all-zero tail) and every
        # leading-zero count, which hashed keys essentially never do.
        for p in (4, 12, 18):
            tail_bits = 64 - p
            tails = st.one_of(
                st.just(0),
                st.integers(0, tail_bits - 1).map(lambda b: 1 << b),
                st.integers(0, (1 << tail_bits) - 1),
            )
            hashes = data.draw(st.lists(
                st.tuples(st.integers(0, (1 << p) - 1), tails).map(
                    lambda it: (it[0] << tail_bits) | it[1]
                ),
                max_size=40,
            ))
            scalar = HyperLogLog(SEED, "t", p)
            for h in hashes:
                idx, rank = scalar._cell(h)
                scalar.registers[idx] = max(scalar.registers[idx], rank)
            batch = HyperLogLog(SEED, "t", p)
            batch.add_hashes(np.array(hashes, dtype=np.uint64))
            assert np.array_equal(scalar.registers, batch.registers)

    def test_hll_rank_cap(self):
        for p in (4, 12, 18):
            h = HyperLogLog(SEED, "t", p)
            assert h._cell(5 << (64 - p)) == (5, 65 - p)
            assert h._cell(1) == (0, 64 - p)

    def test_hash_key_equals_batch_hash_at_the_uint64_edges(self):
        values = [0, 1, 2**32, 2**63, 2**64 - 1]
        for seed in (0, 1, 2**64 - 1, SEED):
            assert [hash_key(v, seed) for v in values] == \
                [int(h) for h in hash_keys(values, seed)]


# sha256 digests of sketches built one key at a time from a fixed stream:
# 5k ints from random.Random(1).getrandbits(32), then 1k "sha{i}" strings.
# Any change to hashing, register ranks or row indexing moves them.
GOLDEN_HLL = {
    4: "2a52808077601cedb5b4919e6a38694cf3ba6369a56408a8b0fcb23efba50808",
    12: "aca6603f6cc1cec6bbeccf0de28cc57895b1a75ff4436b47cf675fefb6d1edea",
    18: "25c018a4edd64c1fa871b8a2818da9095eb25d00d79cd9b69b4985f8a52a7bda",
}


def _golden_stream():
    rng = random.Random(1)
    return [rng.getrandbits(32) for _ in range(5000)] + \
        [f"sha{i}" for i in range(1000)]


class TestPinnedGoldens:
    @pytest.mark.parametrize("p", sorted(GOLDEN_HLL))
    def test_hll_registers(self, p):
        h = HyperLogLog(2023, "golden.hll", p)
        for key in _golden_stream():
            h.add(key)
        assert hashlib.sha256(h.registers.tobytes()).hexdigest() == GOLDEN_HLL[p]


class TestHyperLogLog:
    @given(a=key_lists, b=key_lists)
    def test_registers_monotone_under_adds(self, a, b):
        before = build_hll(a)
        after = build_hll(a + b)
        assert np.all(after.registers >= before.registers)

    @given(a=key_lists)
    def test_estimate_deterministic(self, a):
        assert build_hll(a).estimate() == build_hll(a).estimate()

    def test_different_stream_names_derive_different_seeds(self):
        assert build_hll([1, 2, 3], name="x").seed != \
            build_hll([1, 2, 3], name="y").seed

    def test_small_cardinalities_essentially_exact(self):
        # Linear-counting regime at p=12 (m=4096).
        for n in (0, 1, 10, 100, 500):
            est = build_hll(range(n), p=12).estimate()
            assert abs(est - n) <= max(1.0, 0.01 * n)

    def test_documented_error_bound_on_fixed_sets(self):
        # |est - n| / n <= 3 * 1.04/sqrt(m) for pinned seeds/sets.
        h = HyperLogLog(SEED, "t", 12)
        assert h.rel_error == pytest.approx(1.04 / math.sqrt(4096))
        for n in (2_000, 10_000, 50_000):
            ints = build_hll(range(n), p=12)
            assert abs(ints.estimate() - n) / n <= 3 * ints.rel_error
            strs = build_hll([f"k{i}" for i in range(n)], p=12)
            assert abs(strs.estimate() - n) / n <= 3 * strs.rel_error

    def test_interval_brackets_truth_on_fixed_sets(self):
        h = build_hll(range(10_000), p=12)
        low, high = h.interval()
        assert low <= 10_000 <= high

    def test_p_range_validated(self):
        with pytest.raises(ValueError):
            HyperLogLog(SEED, "t", p=3)
        with pytest.raises(ValueError):
            HyperLogLog(SEED, "t", p=19)


class TestSpaceSaving:
    @given(a=key_lists)
    def test_counts_are_lower_bounds(self, a):
        s = build_ss(a)
        true = Counter(a)
        for key, count in s.counts.items():
            assert count <= true[key]

    @given(a=key_lists)
    def test_error_envelope_covers_every_key(self, a):
        s = build_ss(a)
        true = Counter(a)
        for key, count in true.items():
            lower, upper = s.estimate(key)
            assert lower <= count <= upper
        assert s.n == len(a)

    @given(a=key_lists)
    def test_heavy_hitters_always_present(self, a):
        s = build_ss(a)
        for key, count in Counter(a).items():
            if count > s.error():
                assert key in s.counts

    @given(a=key_lists, b=key_lists, capacity=st.integers(1, 6))
    def test_add_many_equals_add_in_order(self, a, b, capacity):
        one_by_one = SpaceSaving(capacity)
        for key in a + b:
            one_by_one.add(key)
        batched = SpaceSaving(capacity)
        batched.add_many(a)
        batched.add_many(b)
        assert batched == one_by_one

    @given(a=key_lists)
    def test_capacity_respected_and_error_bounded(self, a):
        s = build_ss(a)
        assert len(s.counts) <= s.capacity
        assert s.error() <= s.n // (s.capacity + 1)

    @given(a=key_lists)
    def test_top_order_is_total(self, a):
        s = build_ss(a)
        table = s.top()
        assert table == sorted(table, key=lambda row: (-row[1], row[0]))
        assert all(upper - lower == s.error() for _, lower, upper in table)

    def test_truncation_example(self):
        s = SpaceSaving(2, "s")
        s.add_many(["a", "a", "a", "b", "b", "c"])
        assert len(s.counts) <= 2
        lower, upper = s.estimate("a")
        assert lower <= 3 <= upper
        assert s.top(1)[0][0] == "a"

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SpaceSaving(0)

    def test_nonpositive_adds_ignored(self):
        s = SpaceSaving(4)
        s.add("a", 0)
        s.add("a", -3)
        assert s.n == 0
        assert s.counts == {}

    def test_eq_other_types_is_false(self):
        assert build_ss(["a"]) != "a"
        assert build_hll([1]) != 1
        assert ExactCounter() != {}


class TestExactCounter:
    @given(a=key_lists)
    def test_exactly_counts(self, a):
        e = ExactCounter()
        for key in a:
            e.add(key)
        assert dict(e.items()) == dict(Counter(a))
        assert e.total == len(a)
        batched = ExactCounter()
        batched.add_many(a)
        assert batched == e

    def test_items_sorted_by_key(self):
        e = ExactCounter()
        for key in (5, 1, 3, 1):
            e.add(key)
        assert e.items() == [(1, 2), (3, 1), (5, 1)]

    def test_get_defaults_to_zero(self):
        e = ExactCounter()
        e.add("x", 2)
        assert e.get("x") == 2
        assert e.get("missing") == 0
