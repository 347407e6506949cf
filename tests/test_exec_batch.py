"""Unit tests for the vectorized batch-replay kernel (``repro.exec.batch``).

The slot-for-slot identity against the scalar path and the engine is
property-tested in ``test_exec_properties.py``; here we pin the kernel's
contract surface — validation, chunking, mask determinism, counters, the
``BatchMetrics`` accessors, the ``replay_point`` batch-of-1 shim, the
schedule lowering, and the cached prefix-pruned views.
"""

from __future__ import annotations

import pickle
from array import array

import numpy as np
import pytest

from repro.core.errors import ReproError
from repro.exec import (
    BatchMetrics,
    bernoulli_mask,
    bernoulli_masks,
    compile_schedule,
    replay_batch,
    replay_point,
    spawn_seeds,
)
from repro.core.metrics import collect_repair_metrics
from repro.exec.batch import _prune, _pruned_masks, _score
from repro.exec.compiler import CompiledSchedule
from repro.exec.replay import replay_arrivals
from repro.obs import MetricsRegistry
from repro.obs.registry import use_registry


@pytest.fixture(scope="module")
def schedule():
    return compile_schedule("multi-tree", 15, 2, num_packets=8)


class TestSpawnSeeds:
    def test_children_depend_only_on_master_and_index(self):
        # Session i's stream is fixed by (master, i) — not by how many
        # siblings were spawned alongside it.
        a = spawn_seeds(7, 4)
        b = spawn_seeds(7, 9)
        for i in range(4):
            ra = np.random.default_rng(a[i]).random(16)
            rb = np.random.default_rng(b[i]).random(16)
            assert np.array_equal(ra, rb)

    def test_distinct_masters_diverge(self):
        a = np.random.default_rng(spawn_seeds(0, 1)[0]).random(16)
        b = np.random.default_rng(spawn_seeds(1, 1)[0]).random(16)
        assert not np.array_equal(a, b)

    def test_negative_count_rejected(self):
        with pytest.raises(ReproError):
            spawn_seeds(0, -1)

    def test_zero_is_empty(self):
        assert spawn_seeds(0, 0) == ()


class TestBernoulliMasks:
    def test_rows_match_scalar_masks(self, schedule):
        seeds = [3, np.random.SeedSequence(11), 42]
        rates = [0.1, 0.4, 0.9]
        masks = bernoulli_masks(schedule, rates, seeds)
        assert masks is not None and masks.shape == (3, schedule.size)
        for b, (seed, rate) in enumerate(zip(seeds, rates)):
            solo = bernoulli_mask(schedule, rate, seed)
            assert np.array_equal(masks[b], np.asarray(solo, dtype=bool))

    def test_all_zero_rates_return_none(self, schedule):
        assert bernoulli_masks(schedule, [0.0, 0.0], [1, 2]) is None

    def test_length_mismatch_rejected(self, schedule):
        with pytest.raises(ReproError, match="2 seeds but 1 drop rates"):
            bernoulli_masks(schedule, [0.1], [1, 2])

    def test_rate_out_of_range_rejected(self, schedule):
        with pytest.raises(ReproError, match=r"drop rate must be in \[0, 1\]"):
            bernoulli_masks(schedule, [1.5], [1])


class TestReplayBatchValidation:
    def test_empty_seed_batch_rejected(self, schedule):
        with pytest.raises(ReproError, match="at least one session seed"):
            replay_batch(schedule, (), 0.0, num_packets=4)

    def test_rate_vector_length_mismatch(self, schedule):
        with pytest.raises(ReproError, match="2 seeds but 3 drop rates"):
            replay_batch(schedule, (1, 2), (0.1, 0.1, 0.1), num_packets=4)

    def test_rate_out_of_range(self, schedule):
        with pytest.raises(ReproError, match=r"drop rate must be in \[0, 1\]"):
            replay_batch(schedule, (1,), -0.2, num_packets=4)

    def test_horizon_outside_compiled_range(self, schedule):
        with pytest.raises(ReproError, match="replay horizon"):
            replay_batch(
                schedule, (1,), 0.0, num_packets=4,
                num_slots=schedule.num_slots + 1,
            )

    def test_nonpositive_packets(self, schedule):
        with pytest.raises(ReproError, match="num_packets must be positive"):
            replay_batch(schedule, (1,), 0.0, num_packets=0)

    def test_session_index_out_of_range(self, schedule):
        batch = replay_batch(schedule, (1, 2), 0.05, num_packets=4)
        with pytest.raises(ReproError, match=r"outside batch \[0, 2\)"):
            batch.metrics(2)


class TestReplayBatch:
    def test_scalar_rate_broadcasts(self, schedule):
        batch = replay_batch(schedule, (1, 2, 3), 0.2, num_packets=6)
        assert batch.drop_rates == (0.2, 0.2, 0.2)
        assert batch.num_sessions == 3

    def test_chunked_run_is_identical(self, schedule):
        seeds = spawn_seeds(0, 12)
        full = replay_batch(schedule, seeds, 0.15, num_packets=6)
        # Budget of 1 element forces one-session kernel chunks.
        tiny = replay_batch(
            schedule, seeds, 0.15, num_packets=6, element_budget=1
        )
        for field in ("residual", "available", "max_delay", "avg_delay",
                      "max_buffer", "avg_buffer", "node_delays",
                      "node_buffers"):
            assert np.array_equal(getattr(full, field), getattr(tiny, field))

    def test_node_columns_optional(self, schedule):
        batch = replay_batch(
            schedule, (1,), 0.0, num_packets=6, keep_node_columns=False
        )
        assert batch.node_delays is None and batch.node_buffers is None

    def test_node_column_shape(self, schedule):
        batch = replay_batch(schedule, (1, 2), 0.1, num_packets=6)
        assert batch.node_delays is not None
        assert batch.node_delays.shape == (2, batch.num_nodes)
        assert batch.node_buffers is not None
        assert batch.node_buffers.shape == (2, batch.num_nodes)
        # Aggregates are exactly the column reductions.
        assert int(batch.max_delay[0]) == int(batch.node_delays[0].max())
        assert float(batch.avg_buffer[1]) == float(batch.node_buffers[1].mean())

    def test_rows_shape(self, schedule):
        batch = replay_batch(schedule, (5, 6), 0.1, num_packets=6)
        rows = batch.rows()
        assert len(rows) == 2
        assert rows[0]["seed"] == 5 and rows[1]["seed"] == 6
        assert rows[0]["drop_rate"] == 0.1
        assert rows[0]["max_delay"] == int(batch.max_delay[0])
        assert rows[1]["residual"] == int(batch.residual[1])

    def test_counters(self, schedule):
        registry = MetricsRegistry()
        with use_registry(registry):
            replay_batch(schedule, (1, 2, 3, 4), 0.1, num_packets=6)
        sessions = registry.counter("sweep.batch_sessions", scheme="multi-tree")
        assert sessions.value == 4
        tx = registry.counter("sweep.batched_tx", scheme="multi-tree")
        assert tx.value == 4 * schedule.size

    def test_loss_free_batch_is_uniform(self, schedule):
        batch = replay_batch(schedule, (1, 2, 3), 0.0, num_packets=6)
        assert batch.metrics(0) == batch.metrics(1) == batch.metrics(2)
        assert int(batch.residual[0]) == 0

    def test_isinstance_batch_metrics(self, schedule):
        batch = replay_batch(schedule, (1,), 0.0, num_packets=4)
        assert isinstance(batch, BatchMetrics)


class TestReplayPointShim:
    def test_shim_equals_batch_of_one(self, schedule):
        for seed, rate in ((0, 0.0), (9, 0.25), (123, 0.6)):
            point = replay_point(
                schedule, num_packets=6, seed=seed, drop_rate=rate
            )
            batch = replay_batch(schedule, (seed,), rate, num_packets=6)
            assert point == batch.metrics(0), (seed, rate)

    def test_shim_keeps_historical_counters(self, schedule):
        registry = MetricsRegistry()
        with use_registry(registry):
            replay_point(schedule, num_packets=6, seed=1, drop_rate=0.1)
        points = registry.counter("sweep.points", scheme="multi-tree")
        assert points.value == 1
        tx = registry.counter("sweep.replayed_tx", scheme="multi-tree")
        assert tx.value == schedule.size
        hist = registry.histogram("sweep.max_delay", scheme="multi-tree")
        assert hist.count == 1


def _loop_lowering(schedule):
    """The lowering as the kernel first built it, one transmission at a
    time: node rows by dict lookup, sources on the extra row, and a per-slot
    ``np.unique`` distinct-target flag over full-width flat
    ``row * packets + packet`` cells.  Kept as the reference the vectorized
    lowering must reproduce."""
    starts = np.asarray(schedule.starts, dtype=np.int64)
    senders = np.asarray(schedule.senders, dtype=np.int64)
    receivers = np.asarray(schedule.receivers, dtype=np.int64)
    packets = np.asarray(schedule.packets, dtype=np.int64)
    node_row = {nid: row for row, nid in enumerate(schedule.node_ids)}
    num_rows = len(node_row)
    sources = frozenset(schedule.source_ids)
    num_packets = int(packets.max()) + 1 if packets.size else 1
    size = len(senders)
    snd_row = np.empty(size, dtype=np.int64)
    is_source = np.zeros(size, dtype=np.bool_)
    rcv_row = np.empty(size, dtype=np.int64)
    for i in range(size):
        sender = int(senders[i])
        if sender in sources:
            snd_row[i] = num_rows
            is_source[i] = True
        else:
            snd_row[i] = node_row[sender]
        rcv_row[i] = node_row[int(receivers[i])]
    rcv_flat = rcv_row * num_packets + packets
    slot_unique = np.ones(schedule.num_slots, dtype=np.bool_)
    for slot in range(schedule.num_slots):
        lo, hi = int(starts[slot]), int(starts[slot + 1])
        if hi - lo > 1:
            slot_unique[slot] = len(np.unique(rcv_flat[lo:hi])) == hi - lo
    return {
        "starts": starts,
        "snd_row": snd_row,
        "rcv_row": rcv_row,
        "packets": packets,
        "is_source": is_source,
        "arrivals": np.asarray(schedule.arrivals, dtype=np.int32),
        "slot_unique": slot_unique,
        "num_rows": num_rows,
        "num_packets": num_packets,
    }


def _repeated_target_schedule():
    """Two slot-0 deliveries of packet 0 to node 1, the later-listed one
    arriving later, so only a true min-fold keeps the earlier arrival."""

    def column(*values):
        return array("i", values)

    return CompiledSchedule(
        key=None,
        num_slots=2,
        node_ids=(1, 2),
        source_ids=(0,),
        starts=column(0, 2, 3),
        senders=column(0, 0, 1),
        receivers=column(1, 1, 2),
        packets=column(0, 0, 0),
        arrivals=column(0, 1, 1),
        latencies=column(0, 1, 0),
        trees=column(-1, -1, -1),
    )


class TestLowering:
    @pytest.mark.parametrize(
        "scheme,n,d,packets",
        [
            ("multi-tree", 31, 2, 8),
            ("hypercube", 12, 3, 8),
            ("grouped-hypercube", 20, 2, 6),
            ("chain", 9, 2, 6),
            ("single-tree", 15, 3, 6),
            ("multi-tree", 1023, 2, 16),
        ],
    )
    def test_vectorized_lowering_equals_loop(self, scheme, n, d, packets):
        compiled = compile_schedule(scheme, n, d, num_packets=packets)
        reference = _loop_lowering(compiled)
        compiled._np_cache = None
        rows, width = reference["num_rows"], reference["num_packets"]
        full = _prune(compiled, width)
        assert full.num_rows == rows
        assert full.num_packets == width
        assert np.array_equal(full.columns, np.arange(compiled.size))
        assert np.array_equal(full.arrivals[:, 0], reference["arrivals"])
        # The kernel's holdings are packet-major with sources in a trailing
        # block: cell packet * rows + row, or rows * width + packet.
        packet = reference["packets"]
        assert np.array_equal(
            full.snd_flat,
            np.where(
                reference["is_source"],
                rows * width + packet,
                packet * rows + reference["snd_row"],
            ),
        )
        assert np.array_equal(
            full.rcv_flat, packet * rows + reference["rcv_row"]
        )
        starts = reference["starts"]
        assert [(slot, lo, hi) for slot, lo, hi, _ in full.slots] == [
            (slot, int(starts[slot]), int(starts[slot + 1]))
            for slot in range(compiled.num_slots)
            if starts[slot + 1] > starts[slot]
        ]
        assert [unique for *_, unique in full.slots] == [
            bool(reference["slot_unique"][slot])
            for slot, *_ in full.slots
        ]

    def test_repeated_target_slot_is_flagged_and_min_folded(self):
        compiled = _repeated_target_schedule()
        assert not _loop_lowering(compiled)["slot_unique"][0]
        view = _prune(compiled, 1)
        assert [unique for *_, unique in view.slots] == [False, True]
        batch = replay_batch(compiled, (0, 1), 0.0, num_packets=1)
        scalar = collect_repair_metrics(
            replay_arrivals(compiled), num_packets=1, num_slots=2
        )
        assert batch.metrics(0) == batch.metrics(1) == scalar
        assert scalar.max_effective_delay == 2

    def test_unknown_node_rejected(self):
        compiled = _repeated_target_schedule()
        compiled.receivers[2] = 9
        with pytest.raises(ReproError, match="outside its node_ids"):
            _prune(compiled, 1)


class TestPrunedViews:
    def test_prefix_lengths_get_separate_views(self):
        compiled = compile_schedule("multi-tree", 31, 2, num_packets=8)
        compiled._np_cache = None
        replay_batch(compiled, (1,), 0.1, num_packets=3)
        replay_batch(compiled, (1,), 0.1, num_packets=5)
        views = compiled._np_cache
        assert set(views) == {3, 5}
        three, five = views[3], views[5]
        assert three is not five
        assert len(three.columns) < len(five.columns) < compiled.size
        assert _prune(compiled, 3) is three
        # Prefixes at or past the compiled packets share one full view.
        width = int(max(compiled.packets)) + 1
        full = _prune(compiled, width)
        assert len(full.columns) == compiled.size
        assert _prune(compiled, width + 4) is _prune(compiled, 2 * width)
        assert _prune(compiled, 2 * width) is full
        assert set(views) == {3, 5, width}

    def test_pickle_round_trip_drops_cached_views(self, schedule):
        replay_batch(schedule, (1,), 0.1, num_packets=4)
        assert schedule._np_cache
        restored = pickle.loads(pickle.dumps(schedule))
        assert restored._np_cache is None
        assert restored == schedule
        assert schedule._np_cache is not None

    def test_pruned_mask_rows_are_scalar_mask_columns(self, schedule):
        view = _prune(schedule, 4)
        seeds = [3, np.random.SeedSequence(11), 42]
        rates = [0.1, 0.0, 0.9]
        drops = _pruned_masks(schedule, view, rates, seeds)
        assert drops is not None
        assert drops.shape == (len(view.columns), len(seeds))
        for b, (seed, rate) in enumerate(zip(seeds, rates, strict=True)):
            solo = bernoulli_mask(schedule, rate, seed)
            expected = (
                np.zeros(len(view.columns), dtype=bool)
                if solo is None
                else np.asarray(solo, dtype=bool)[view.columns]
            )
            assert np.array_equal(drops[:, b], expected)

    def test_loss_free_batch_draws_no_masks(self, schedule):
        view = _prune(schedule, 4)
        assert _pruned_masks(schedule, view, [0.0, 0.0], [1, 2]) is None


class TestMaskPrefix:
    def test_prefix_rows_equal_full_rows_prefix(self, schedule):
        seeds = [3, np.random.SeedSequence(11), 42, 7]
        rates = [0.1, 0.0, 0.9, 0.5]
        full = bernoulli_masks(schedule, rates, seeds)
        assert full is not None
        for length in (0, 1, 17, schedule.size // 2, schedule.size - 1, schedule.size):
            drawn = bernoulli_masks(schedule, rates, seeds, length=length)
            assert drawn is not None
            assert drawn.shape == (len(seeds), length)
            assert np.array_equal(drawn, full[:, :length]), length

    def test_length_outside_the_timetable_is_rejected(self, schedule):
        for length in (-1, schedule.size + 1):
            with pytest.raises(ReproError):
                bernoulli_masks(schedule, [0.1], [1], length=length)

    def test_view_draws_through_its_last_kept_column(self):
        compiled = compile_schedule("multi-tree", 31, 2, num_packets=8)
        view = _prune(compiled, 8)
        assert view.drawn == int(view.columns[-1]) + 1
        assert (view.drawn, compiled.size) == (341, 821)


class TestBufferPeakBlocks:
    def test_blocks_of_arrival_packets_agree(self):
        rng = np.random.default_rng(5)
        held = rng.integers(0, 30, size=(9, 4, 6), dtype=np.int32)
        held[rng.random(held.shape) < 0.3] = np.iinfo(np.int32).max
        whole = _score(held, 9)
        for block in (1, 2, 4, 8):
            for got, want in zip(_score(held, block), whole, strict=True):
                assert np.array_equal(got, want), block

    def test_long_prefix_under_small_budget_equals_scalar(self):
        # 2 * rows * P^2 = 2 * 15 * 40^2 = 48,000 elements per session, far
        # over the budget, so the buffer-peak comparison runs in blocks.
        compiled = compile_schedule("multi-tree", 15, 2, num_packets=40)
        seeds = spawn_seeds(3, 10)
        small = replay_batch(
            compiled, seeds, 0.3, num_packets=40, element_budget=5_000
        )
        full = replay_batch(compiled, seeds, 0.3, num_packets=40)
        assert len(np.unique(small.node_buffers)) > 1
        assert np.array_equal(small.node_buffers, full.node_buffers)
        for i, seed in enumerate(seeds):
            mask = bernoulli_mask(compiled, 0.3, seed)
            scalar = collect_repair_metrics(
                replay_arrivals(compiled, drop_mask=mask),
                num_packets=40, num_slots=compiled.num_slots,
            )
            assert small.metrics(i) == full.metrics(i) == scalar, i
