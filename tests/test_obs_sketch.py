"""Tests for the mergeable quantile sketch (repro.obs.sketch)."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import (
    DEFAULT_EXACT_LIMIT,
    DEFAULT_RELATIVE_ERROR,
    QuantileSketch,
)
from repro.service.slo import pooled_percentile


def exact_nearest_rank(values: list[float], q: float) -> float:
    """Reference nearest-rank percentile (matches pooled_percentile)."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * len(ordered)) // 100))
    return ordered[rank - 1]


class TestValidation:
    def test_bad_relative_error(self):
        with pytest.raises(ValueError):
            QuantileSketch(-0.1)
        with pytest.raises(ValueError):
            QuantileSketch(1.0)

    def test_bad_exact_limit(self):
        with pytest.raises(ValueError):
            QuantileSketch(exact_limit=0)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch().add(-1)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch().add(1, count=0)

    def test_empty_has_no_percentiles(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(50)

    def test_quantile_range(self):
        sketch = QuantileSketch()
        sketch.add(1)
        with pytest.raises(ValueError):
            sketch.quantile(101)
        with pytest.raises(ValueError):
            sketch.quantile_at_rank(2)

    def test_defaults(self):
        sketch = QuantileSketch()
        assert sketch.relative_error == DEFAULT_RELATIVE_ERROR
        assert sketch.exact_limit == DEFAULT_EXACT_LIMIT


class TestExactMode:
    def test_small_counts_are_exact(self):
        sketch = QuantileSketch(0.01)
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        for v in values:
            sketch.observe(v)
        assert sketch.is_exact
        for q in (0, 25, 50, 75, 90, 99, 100):
            assert sketch.quantile(q) == exact_nearest_rank(values, q)

    def test_matches_pooled_percentile_and_keeps_ints(self):
        counts = {0: 3, 2: 5, 7: 1, 40: 2}
        sketch = QuantileSketch(0)  # permanently exact
        for value, count in counts.items():
            sketch.add(value, count)
        for q in (1, 50, 95, 99, 100):
            got = sketch.quantile(q)
            assert got == pooled_percentile(counts, q)
            assert isinstance(got, int)

    def test_zero_error_never_collapses(self):
        sketch = QuantileSketch(0, exact_limit=4)
        for v in range(100):
            sketch.add(v)
        assert sketch.is_exact
        assert sketch.quantile(50) == exact_nearest_rank(list(range(100)), 50)

    def test_stats(self):
        sketch = QuantileSketch()
        for v in (2, 4, 9):
            sketch.add(v)
        assert len(sketch) == 3
        assert sketch.min == 2
        assert sketch.max == 9
        assert sketch.mean == pytest.approx(5.0)


class TestBucketedMode:
    def test_collapse_past_limit(self):
        sketch = QuantileSketch(0.01, exact_limit=8)
        for v in range(1, 20):
            sketch.add(v)
        assert not sketch.is_exact
        assert sketch.count == 19

    def test_relative_error_bound(self):
        alpha = 0.01
        rng = random.Random(7)
        values = [rng.uniform(0.5, 10_000) for _ in range(5000)]
        sketch = QuantileSketch(alpha, exact_limit=16)
        for v in values:
            sketch.add(v)
        assert not sketch.is_exact
        for q in (1, 10, 50, 90, 99, 100):
            exact = exact_nearest_rank(values, q)
            assert abs(sketch.quantile(q) - exact) <= alpha * exact + 1e-9

    def test_zero_bucket_is_exact(self):
        sketch = QuantileSketch(0.05, exact_limit=2)
        sketch.add(0, 10)
        sketch.add(5)
        sketch.add(9)
        sketch.add(13)  # force collapse
        assert not sketch.is_exact
        assert sketch.quantile(50) == 0.0


class TestAddMany:
    @pytest.mark.parametrize("relative_error,limit", [(0.0, 4), (0.02, 3), (0.02, 64)])
    def test_equals_add_loop(self, relative_error, limit):
        # Repeated floats whose repeated sum differs from value * count.
        values = [0.1, 0.7, 0.1, 0.0, 3.3, 0.1, 12.0, 0.7, 0.2]
        loop = QuantileSketch(relative_error, exact_limit=limit)
        bulk = QuantileSketch(relative_error, exact_limit=limit)
        for value in values:
            loop.add(value)
        bulk.add_many(values[:2])
        bulk.add_many([])
        bulk.add_many(values[2:])  # may collapse here; limit 3 does
        if limit == 3:
            assert not bulk.is_exact
        assert bulk.to_dict() == loop.to_dict()
        assert bulk.sum.hex() == loop.sum.hex()

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch().add_many([1, -1])


class TestMerge:
    def test_error_bound_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_merge_empty_is_identity(self):
        sketch = QuantileSketch()
        sketch.add(4)
        sketch.merge(QuantileSketch())
        assert sketch.count == 1

    def test_merge_matches_single_sketch(self):
        rng = random.Random(3)
        values = [rng.randint(0, 500) for _ in range(2000)]
        whole = QuantileSketch(0.01, exact_limit=32)
        parts = [QuantileSketch(0.01, exact_limit=32) for _ in range(5)]
        for i, v in enumerate(values):
            whole.add(v)
            parts[i % 5].add(v)
        merged = QuantileSketch(0.01, exact_limit=32)
        for part in parts:
            merged.merge(part)
        assert merged.count == whole.count
        for q in (5, 50, 95, 99):
            assert merged.quantile(q) == whole.quantile(q)

    def test_merge_order_invariant(self):
        rng = random.Random(11)
        shards = []
        for _ in range(4):
            shard = QuantileSketch(0.02, exact_limit=8)
            for _ in range(50):
                shard.add(rng.randint(0, 99))
            shards.append(shard)
        forward = QuantileSketch(0.02, exact_limit=8)
        for shard in shards:
            forward.merge(shard)
        backward = QuantileSketch(0.02, exact_limit=8)
        for shard in reversed(shards):
            backward.merge(shard)
        assert forward.to_dict() == backward.to_dict()

    def test_exact_into_bucketed(self):
        bucketed = QuantileSketch(0.01, exact_limit=2)
        for v in (1, 5, 9):
            bucketed.add(v)
        assert not bucketed.is_exact
        exact = QuantileSketch(0.01, exact_limit=2)
        exact.add(0)
        exact.add(7)
        bucketed.merge(exact)
        assert bucketed.count == 5
        assert bucketed.min == 0


class TestSerialization:
    def test_exact_round_trip(self):
        sketch = QuantileSketch(0)
        for v in (3, 3, 8, 0):
            sketch.add(v)
        clone = QuantileSketch.from_dict(json.loads(json.dumps(sketch.to_dict())))
        assert clone.to_dict() == sketch.to_dict()
        assert clone.quantile(50) == sketch.quantile(50)

    def test_bucketed_round_trip(self):
        sketch = QuantileSketch(0.01, exact_limit=4)
        for v in range(1, 50):
            sketch.add(v)
        assert not sketch.is_exact
        clone = QuantileSketch.from_dict(json.loads(json.dumps(sketch.to_dict())))
        assert clone.to_dict() == sketch.to_dict()
        assert clone.quantile(99) == sketch.quantile(99)
        clone.add(51)  # still usable after round trip
        assert clone.count == sketch.count + 1


class TestShardedMergeProperty:
    """Merged shard sketches stay within the documented bound of exact
    pooled nearest-rank percentiles, for every shard split."""

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=300),
        num_shards=st.integers(min_value=1, max_value=7),
        split_seed=st.integers(min_value=0, max_value=2**31),
        q=st.sampled_from([0, 1, 25, 50, 75, 90, 95, 99, 100]),
    )
    def test_merged_shards_within_bound(self, values, num_shards, split_seed, q):
        alpha = 0.01
        rng = random.Random(split_seed)
        shards = [QuantileSketch(alpha, exact_limit=16) for _ in range(num_shards)]
        for v in values:
            shards[rng.randrange(num_shards)].add(v)
        merged = QuantileSketch(alpha, exact_limit=16)
        for shard in shards:
            merged.merge(shard)
        assert merged.count == len(values)
        exact = exact_nearest_rank(values, q)
        assert abs(merged.quantile(q) - exact) <= alpha * exact + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=200),
        num_shards=st.integers(min_value=1, max_value=5),
    )
    def test_exact_mode_shards_identical_to_pooled(self, values, num_shards):
        shards = [QuantileSketch(0) for _ in range(num_shards)]
        for i, v in enumerate(values):
            shards[i % num_shards].add(v)
        merged = QuantileSketch(0)
        for shard in shards:
            merged.merge(shard)
        counts: dict[int, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        for q in (1, 50, 99):
            assert merged.quantile(q) == pooled_percentile(counts, q)
