"""Property suites pinning the sketch algebra (``repro.analytics.sketches``).

Hypothesis pins the *sound* invariants — the ones that hold for every
input: merge commutativity/associativity (idempotence for HLL), count
monotonicity, one-sided count-min error, the Misra–Gries lower/upper
bound envelope.  The *probabilistic* accuracy claims (HLL relative
error, count-min ``epsilon * N`` slack) are checked on fixed
deterministic sample sets, where the documented bounds must hold for
the pinned seeds — hypothesis-generated adversaries are exactly the
inputs those guarantees are *not* made for.
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
    CountMinSketch,
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


def build_cms(values, width=64, depth=3, name="c"):
    c = CountMinSketch(SEED, name, width, depth)
    c.add_many(list(values))
    return c


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
        with pytest.raises(TypeError):
            CountMinSketch(SEED, "c", 64, 3).add_many(values)

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

    @given(values=scalar_key_lists, data=st.data())
    @settings(max_examples=60)
    def test_cms_add_equals_weighted_add_many(self, values, data):
        counts = data.draw(st.lists(
            st.integers(min_value=0, max_value=5),
            min_size=len(values), max_size=len(values),
        ))
        scalar = CountMinSketch(SEED, "c", 97, 4)
        for value, count in zip(values, counts):
            scalar.add(value, count)
        batch = CountMinSketch(SEED, "c", 97, 4)
        batch.add_many(values, counts)
        assert np.array_equal(scalar.table, batch.table)
        assert scalar.total == batch.total
        for value in values:
            assert scalar.estimate(value) == int(min(
                batch.table[row, int(hash_keys([value], s)[0]) % 97]
                for row, s in enumerate(batch.row_seeds)
            ))

    @given(data=st.data())
    @settings(max_examples=60)
    def test_hll_add_hash_equals_add_hashes(self, data):
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
                scalar.add_hash(h)
            batch = HyperLogLog(SEED, "t", p)
            batch.add_hashes(np.array(hashes, dtype=np.uint64))
            assert np.array_equal(scalar.registers, batch.registers)

    def test_hll_rank_cap(self):
        for p in (4, 12, 18):
            h = HyperLogLog(SEED, "t", p)
            h.add_hash(5 << (64 - p))
            assert h.registers[5] == 65 - p
            h.add_hash(1)
            assert h.registers[0] == 64 - p

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
GOLDEN_CMS = "e95fd1dd60887fc98618bfa7cfccd4d7992d6ea56ea32bb4c0a7b5f2f30237a6"


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

    def test_cms_table_and_total(self):
        c = CountMinSketch(2023, "golden.cms", 2048, 4)
        for i, key in enumerate(_golden_stream()):
            c.add(key, 1 + i % 3)
        assert c.total == 12000
        payload = c.table.astype("<i8").tobytes() + str(c.total).encode()
        assert hashlib.sha256(payload).hexdigest() == GOLDEN_CMS


class TestHyperLogLog:
    @given(a=key_lists, b=key_lists)
    def test_merge_commutative(self, a, b):
        assert build_hll(a).merge(build_hll(b)) == build_hll(b).merge(build_hll(a))

    @given(a=key_lists, b=key_lists, c=key_lists)
    @settings(max_examples=50)
    def test_merge_associative(self, a, b, c):
        left = build_hll(a).merge(build_hll(b)).merge(build_hll(c))
        right = build_hll(a).merge(build_hll(b).merge(build_hll(c)))
        assert left == right

    @given(a=key_lists)
    def test_merge_idempotent(self, a):
        h = build_hll(a)
        assert h.copy().merge(h) == h

    @given(a=key_lists, b=key_lists)
    def test_merge_equals_union_stream(self, a, b):
        # Folding two shard sketches == sketching the concatenated stream.
        assert build_hll(a).merge(build_hll(b)) == build_hll(a + b)

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

    def test_incompatible_merge_raises(self):
        with pytest.raises(ValueError):
            build_hll([], p=8).merge(build_hll([], p=10))
        with pytest.raises(ValueError):
            build_hll([], name="x").merge(build_hll([], name="y"))

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


class TestCountMin:
    @given(a=key_lists)
    def test_one_sided_overestimate(self, a):
        c = build_cms(a)
        true = Counter(a)
        for key, count in true.items():
            assert c.estimate(key) >= count
        assert c.total == len(a)

    @given(a=key_lists, b=key_lists)
    def test_merge_commutative(self, a, b):
        assert build_cms(a).merge(build_cms(b)) == build_cms(b).merge(build_cms(a))

    @given(a=key_lists, b=key_lists, c=key_lists)
    @settings(max_examples=50)
    def test_merge_associative(self, a, b, c):
        left = build_cms(a).merge(build_cms(b)).merge(build_cms(c))
        right = build_cms(a).merge(build_cms(b).merge(build_cms(c)))
        assert left == right

    @given(a=key_lists, b=key_lists)
    def test_merge_equals_union_stream(self, a, b):
        assert build_cms(a).merge(build_cms(b)) == build_cms(a + b)

    @given(a=key_lists, b=key_lists)
    def test_estimates_monotone_under_adds(self, a, b):
        before = build_cms(a)
        after = build_cms(a + b)
        for key in set(a) | set(b):
            assert after.estimate(key) >= before.estimate(key)

    @given(a=key_lists)
    def test_weighted_adds_equal_repeats(self, a):
        weighted = CountMinSketch(SEED, "c", 64, 3)
        for key, count in sorted(Counter(a).items()):
            weighted.add(key, count)
        repeated = build_cms(sorted(a))
        assert weighted == repeated

    def test_documented_epsilon_delta(self):
        c = CountMinSketch(SEED, "c", width=2048, depth=4)
        assert c.epsilon == pytest.approx(math.e / 2048)
        assert c.delta == pytest.approx(math.exp(-4))

    def test_error_bound_holds_on_fixed_stream(self):
        # A pinned stream of 500 keys x 40 occurrences.  The eps*N slack
        # is a per-query guarantee at confidence 1 - delta, not a uniform
        # one: a few full-row collisions out of 500 keys are within spec
        # (expected miss rate <= delta ~ 1.8%).  Never an underestimate.
        c = CountMinSketch(SEED, "c", width=2048, depth=4)
        stream = [f"key{i % 500}" for i in range(20_000)]
        c.add_many(stream)
        true = Counter(stream)
        slack = c.error_bound()
        misses = 0
        for key, count in true.items():
            est = c.estimate(key)
            assert est >= count
            if est > count + slack:
                misses += 1
        assert misses / len(true) <= 2 * c.delta

    def test_incompatible_merge_raises(self):
        with pytest.raises(ValueError):
            build_cms([], width=32).merge(build_cms([], width=64))

    def test_width_depth_validated(self):
        with pytest.raises(ValueError):
            CountMinSketch(SEED, "c", width=0)
        with pytest.raises(ValueError):
            CountMinSketch(SEED, "c", depth=0)

    def test_copy_is_independent(self):
        original = build_cms([1, 2, 3])
        clone = original.copy()
        assert clone == original
        clone.add(4)
        assert clone != original
        assert original.estimate(4) == 0


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

    @given(a=key_lists)
    def test_capacity_respected_and_error_bounded(self, a):
        s = build_ss(a)
        assert len(s.counts) <= s.capacity
        assert s.error() <= s.n // (s.capacity + 1)

    @given(a=key_lists, b=key_lists)
    def test_merge_commutative(self, a, b):
        assert build_ss(a).merge(build_ss(b)) == build_ss(b).merge(build_ss(a))

    @given(a=key_lists, b=key_lists)
    def test_merge_preserves_envelope(self, a, b):
        merged = build_ss(a).merge(build_ss(b))
        true = Counter(a + b)
        for key, count in true.items():
            lower, upper = merged.estimate(key)
            assert lower <= count <= upper
        assert merged.n == len(a) + len(b)

    @given(a=key_lists, b=key_lists, c=key_lists)
    @settings(max_examples=50)
    def test_merge_associative_without_truncation(self, a, b, c):
        # Capacity covers the whole key universe -> no reduction fires
        # and the fold is exactly associative (and equals the union).
        big = 1000
        left = build_ss(a, big).merge(build_ss(b, big)).merge(build_ss(c, big))
        right = build_ss(a, big).merge(build_ss(b, big).merge(build_ss(c, big)))
        assert left == right == build_ss(a + b + c, big)
        assert left.error() == 0

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

    def test_copy_is_independent(self):
        original = build_ss(["a", "b"])
        clone = original.copy()
        assert clone == original
        clone.add("c")
        assert clone != original
        assert "c" not in original.counts

    def test_eq_other_types_is_false(self):
        assert build_ss(["a"]) != "a"
        assert build_hll([1]) != 1
        assert build_cms([1]) != object()
        assert ExactCounter() != {}


class TestExactCounter:
    @given(a=key_lists)
    def test_exactly_counts(self, a):
        e = ExactCounter()
        for key in a:
            e.add(key)
        assert dict(e.items()) == dict(Counter(a))
        assert e.total == len(a)

    @given(a=key_lists, b=key_lists)
    def test_merge_commutative_and_exact(self, a, b):
        ab = ExactCounter()
        for key in a + b:
            ab.add(key)
        left = ExactCounter()
        for key in a:
            left.add(key)
        right = ExactCounter()
        for key in b:
            right.add(key)
        assert left.copy().merge(right) == right.copy().merge(left) == ab

    @given(a=key_lists, b=key_lists, c=key_lists)
    @settings(max_examples=50)
    def test_merge_associative(self, a, b, c):
        def build(values):
            e = ExactCounter()
            for key in values:
                e.add(key)
            return e

        left = build(a).merge(build(b)).merge(build(c))
        right = build(a).merge(build(b).merge(build(c)))
        assert left == right

    @given(a=key_lists)
    def test_empty_merge_is_identity(self, a):
        e = ExactCounter()
        for key in a:
            e.add(key)
        assert e.copy().merge(ExactCounter()) == e

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
