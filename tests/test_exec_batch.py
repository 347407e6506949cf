"""Unit tests for the vectorized batch-replay kernel (``repro.exec.batch``).

The slot-for-slot identity against the scalar path and the engine is
property-tested in ``test_exec_properties.py``; here we pin the kernel's
contract surface — validation, chunking, mask determinism, counters, the
``BatchMetrics`` accessors, the ``replay_point`` batch-of-1 shim, the
schedule lowering, and the cached prefix-pruned views.
"""

from __future__ import annotations

import dataclasses
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
from repro.core.metrics import collect_repair_metrics, summarize_lossy_playback
from repro.exec import ExecutorPolicy
from repro.exec.batch import (
    DEFAULT_ELEMENT_BUDGET,
    _hold_and_deliver,
    _kernel_dtype,
    _prune,
    _pruned_masks,
    _score,
)
from repro.exec.compiler import CompiledSchedule
from repro.experiments import ExperimentSpec, run
from repro.exec.replay import replay_arrivals
from repro.obs import MetricsRegistry
from repro.obs.registry import use_registry
from repro.service import CapacityModel, FleetRunner, FleetSpec, SessionSpec


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

    def test_loss_free_sessions_still_count(self, schedule):
        # Loss-free sessions share one replay but count as sessions.
        registry = MetricsRegistry()
        with use_registry(registry):
            replay_batch(schedule, (1, 2, 3, 4), 0.0, num_packets=6)
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
    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    @pytest.mark.parametrize("packets,holes", [(1, 0.3), (9, 0.3), (300, 0.05)])
    def test_score_equals_scalar_summary(self, dtype, packets, holes):
        # Random holdings with INF holes, one node column at a time against
        # the scalar playback summary.  At 300 packets the per-cell count
        # runs in uint16 and the peaks pass 255.
        rng = np.random.default_rng(packets)
        never = np.iinfo(dtype).max
        held = rng.integers(0, 2 * packets, size=(packets, 3, 4)).astype(dtype)
        held[rng.random(held.shape) < holes] = never
        held[:, 0, 0] = never  # a node that received nothing
        delays, peaks, navail = _score(held)
        for row in range(held.shape[1]):
            for b in range(held.shape[2]):
                column = held[:, row, b]
                summary = summarize_lossy_playback(
                    {p: int(slot) for p, slot in enumerate(column) if slot < never},
                    packets,
                )
                assert (
                    int(delays[row, b]), int(peaks[row, b]), int(navail[row, b])
                ) == (
                    summary.startup_delay, summary.buffer_peak, summary.available
                ), (row, b)
        if packets >= 256:
            assert peaks.dtype == np.uint16 and int(peaks.max()) > 255

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_negative_start_leaves_missing_packets_out(self, dtype):
        # Packet 2 alone, at slot 0: start = 0 - 2 + 1 = -1, and the missing
        # packets 0 and 1 must not count as held.
        never = np.iinfo(dtype).max
        held = np.full((3, 1, 1), never, dtype=dtype)
        held[2, 0, 0] = 0
        delays, peaks, navail = _score(held)
        summary = summarize_lossy_playback({2: 0}, 3)
        assert (int(delays[0, 0]), int(peaks[0, 0]), int(navail[0, 0])) == (
            summary.startup_delay, summary.buffer_peak, summary.available
        ) == (-1, 1, 1)
        # Random columns whose packets arrive early, so most starts are < 0.
        rng = np.random.default_rng(11)
        held = rng.integers(0, 4, size=(16, 5, 6)).astype(dtype)
        held[rng.random(held.shape) < 0.6] = never
        delays, peaks, _ = _score(held)
        assert (delays < 0).any()
        for row in range(held.shape[1]):
            for b in range(held.shape[2]):
                column = held[:, row, b]
                summary = summarize_lossy_playback(
                    {p: int(slot) for p, slot in enumerate(column) if slot < never},
                    16,
                )
                assert (int(delays[row, b]), int(peaks[row, b])) == (
                    summary.startup_delay, summary.buffer_peak
                ), (row, b)

    @pytest.mark.parametrize("num_slots", [1, 2, 3])
    def test_short_multi_tree_horizon_equals_scalar(self, num_slots):
        # With d = 3 the source sends packet k + m*d of tree k to its first
        # position in slot m*d, so after a short horizon some nodes hold
        # only packets that arrived well before their number (start < 0)
        # while missing the earlier ones.
        compiled = compile_schedule("multi-tree", 12, 3, num_slots=num_slots)
        seeds = spawn_seeds(1, 4)
        rates = (0.0, 0.3, 0.0, 0.5)
        batch = replay_batch(compiled, seeds, rates, num_packets=3)
        assert batch.node_delays is not None and batch.node_buffers is not None
        for i, (seed, rate) in enumerate(zip(seeds, rates, strict=True)):
            arrivals = replay_arrivals(
                compiled, drop_mask=bernoulli_mask(compiled, rate, seed)
            )
            nodes = [
                summarize_lossy_playback(arrivals[node], 3)
                for node in compiled.node_ids
            ]
            assert batch.node_delays[i].tolist() == [
                node.startup_delay for node in nodes
            ], i
            assert batch.node_buffers[i].tolist() == [
                node.buffer_peak for node in nodes
            ], i
            assert batch.metrics(i) == collect_repair_metrics(
                arrivals, num_packets=3, num_slots=compiled.num_slots
            ), i
        if num_slots == 1:
            assert int(batch.node_delays.min()) < 0

    def test_long_prefix_under_small_budget_equals_scalar(self):
        # (rows + 1) * P = 16 * 40 = 640 elements per session against a
        # 5,000-element budget: the lossy sessions replay in chunks of 7.
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


class TestNarrowDtype:
    def test_dtype_widens_at_the_int16_sentinel(self):
        limit = 2**15 - 1
        assert _kernel_dtype(limit - 17, 16) is np.int16
        assert _kernel_dtype(limit - 16, 16) is np.int32
        assert _kernel_dtype(0, limit) is np.int32

    def test_int16_view_and_int32_copy_agree(self):
        compiled = compile_schedule("multi-tree", 31, 2, num_packets=8)
        narrow = _prune(compiled, 8)
        assert narrow.arrivals.dtype == np.int16
        wide = dataclasses.replace(narrow, arrivals=narrow.arrivals.astype(np.int32))
        drops = _pruned_masks(compiled, narrow, [0.2] * 6, spawn_seeds(2, 6))
        short = _hold_and_deliver(narrow, drops, compiled.num_slots, 6)
        long = _hold_and_deliver(wide, drops, compiled.num_slots, 6)
        assert (short.dtype, long.dtype) == (np.int16, np.int32)
        # Same arrivals, each dtype's maximum standing for "never".
        missing = short == np.iinfo(np.int16).max
        assert missing.any()
        assert np.array_equal(missing, long == np.iinfo(np.int32).max)
        assert np.array_equal(short[~missing], long[~missing])
        for got, want in zip(_score(short), _score(long), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "delay,dtype",
        [(2**15 - 3, np.int16), (2**15 - 2, np.int32), (2**15, np.int32)],
    )
    def test_late_relay_scores_like_the_scalar_path(self, delay, dtype):
        # Source 0 sends packet 0 to node 1 in slot 0; node 1 relays it to
        # node 2 in slot ``delay``.  The view's last arrival plus its one
        # packet decides the dtype; either way the kernel equals the scalar
        # path.
        compiled = CompiledSchedule(
            key=None,
            num_slots=delay + 1,
            node_ids=(1, 2),
            source_ids=(0,),
            starts=array("i", [0] + [1] * delay + [2]),
            senders=array("i", (0, 1)),
            receivers=array("i", (1, 2)),
            packets=array("i", (0, 0)),
            arrivals=array("i", (0, delay)),
            latencies=array("i", (0, 0)),
            trees=array("i", (-1, -1)),
        )
        assert _prune(compiled, 1).arrivals.dtype == dtype
        seeds = spawn_seeds(9, 6)
        rates = (0.0, 0.5, 0.5, 0.0, 0.5, 0.5)
        batch = replay_batch(compiled, seeds, rates, num_packets=1)
        for i, (seed, rate) in enumerate(zip(seeds, rates, strict=True)):
            scalar = collect_repair_metrics(
                replay_arrivals(
                    compiled, drop_mask=bernoulli_mask(compiled, rate, seed)
                ),
                num_packets=1, num_slots=compiled.num_slots,
            )
            assert batch.metrics(i) == scalar, i
        assert batch.metrics(0).max_effective_delay == delay + 1


class TestLossFreeBroadcast:
    RATES = (0.0, 0.3, 0.0, 0.0, 0.1, 0.6, 0.0, 0.05, 0.2, 0.0)

    def _oracle(self, compiled, seed, rate, packets):
        """The scalar path's metrics and per-node (delay, buffer) columns."""
        mask = bernoulli_mask(compiled, rate, seed)
        arrivals = replay_arrivals(compiled, drop_mask=mask)
        metrics = collect_repair_metrics(
            arrivals, num_packets=packets, num_slots=compiled.num_slots
        )
        nodes = [
            summarize_lossy_playback(arrivals[node], packets)
            for node in compiled.node_ids
        ]
        return (
            metrics,
            [node.startup_delay for node in nodes],
            [node.buffer_peak for node in nodes],
        )

    @pytest.mark.parametrize("budget", [1, 700, DEFAULT_ELEMENT_BUDGET])
    def test_interleaved_rates_equal_replay_point_and_oracle(self, schedule, budget):
        seeds = spawn_seeds(4, len(self.RATES))
        batch = replay_batch(
            schedule, seeds, self.RATES, num_packets=6, element_budget=budget
        )
        assert batch.node_delays is not None and batch.node_buffers is not None
        for i, (seed, rate) in enumerate(zip(seeds, self.RATES, strict=True)):
            metrics, delays, buffers = self._oracle(schedule, seed, rate, 6)
            point = replay_point(schedule, num_packets=6, seed=seed, drop_rate=rate)
            assert batch.metrics(i) == point == metrics, i
            assert batch.node_delays[i].tolist() == delays, i
            assert batch.node_buffers[i].tolist() == buffers, i
        assert batch.drop_rates == self.RATES and batch.seeds == seeds


class TestLossFreeCache:
    def test_two_horizons_each_equal_the_scalar_oracle(self):
        compiled = compile_schedule("multi-tree", 15, 3, num_packets=8)
        compiled._np_cache = None
        full, short = compiled.num_slots, compiled.num_slots // 2
        seeds = (1, 2, 3)
        registry = MetricsRegistry()
        with use_registry(registry):
            for horizon in (full, short, full):
                batch = replay_batch(compiled, seeds, 0.0, num_packets=8, num_slots=horizon)
                arrivals = replay_arrivals(compiled, num_slots=horizon)
                expected = collect_repair_metrics(arrivals, num_packets=8, num_slots=horizon)
                nodes = [
                    summarize_lossy_playback(arrivals[node], 8) for node in compiled.node_ids
                ]
                assert batch.node_delays is not None and batch.node_buffers is not None
                for i in range(len(seeds)):
                    assert batch.metrics(i) == expected, (horizon, i)
                    assert batch.node_delays[i].tolist() == [n.startup_delay for n in nodes]
                    assert batch.node_buffers[i].tolist() == [n.buffer_peak for n in nodes]
        sessions = registry.counter("sweep.batch_sessions", scheme="multi-tree")
        assert sessions.value == 3 * len(seeds)
        view = _prune(compiled, 8)
        assert sorted(view.lossless) == [short, full]
        for scores in view.lossless.values():
            for column in scores:
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0, 0] = 0

    def test_cached_scores_are_reused_not_recomputed(self, monkeypatch):
        import repro.exec.batch as batch_module

        compiled = compile_schedule("multi-tree", 15, 2, num_packets=8)
        compiled._np_cache = None
        calls = []
        original = batch_module._hold_and_deliver

        def counted(view, drops, horizon, batch):
            calls.append(drops is None)
            return original(view, drops, horizon, batch)

        monkeypatch.setattr(batch_module, "_hold_and_deliver", counted)
        first = replay_batch(compiled, (1, 2), 0.0, num_packets=8)
        second = replay_batch(compiled, (5, 6, 7), (0.0, 0.2, 0.0), num_packets=8)
        assert calls == [True, False]  # one loss-free replay, then the lossy row
        assert second.metrics(0) == second.metrics(2) == first.metrics(0)


class TestNumpyScalarRates:
    @pytest.mark.parametrize(
        "rate", [np.float32(0.05), np.int64(0), np.array(0.05)],
        ids=["float32", "int64", "0-d array"],
    )
    def test_numpy_rates_run_as_floats(self, schedule, rate):
        expected = float(rate)
        batch = replay_batch(schedule, (1, 2), rate, num_packets=6)
        assert batch.drop_rates == (expected, expected)
        assert batch.metrics(1) == replay_batch(
            schedule, (1, 2), expected, num_packets=6
        ).metrics(1)

        kind = SessionSpec(num_nodes=15, degree=3, num_packets=6, drop_rate=rate)
        assert type(kind.drop_rate) is float and kind.drop_rate == expected
        fleet = FleetRunner(policy=ExecutorPolicy(mode="serial")).run(FleetSpec(
            sessions=(kind,), num_sessions=6,
            capacity=CapacityModel(source_fanout=1e6, backbone=1e6), seed=3,
        ))
        assert fleet.report.num_sessions == 6

        spec = ExperimentSpec(
            kind="sweep", scheme="multi-tree", num_nodes=15, degree=2,
            num_packets=6, seeds=(1, 2), drop_rates=(rate,),
            executor=ExecutorPolicy(mode="serial"),
        )
        assert type(spec.drop_rates[0]) is float
        rows = run(spec).rows
        assert [row["drop_rate"] for row in rows] == [expected, expected]

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_sweep_rate_outside_unit_interval_is_named(self, bad):
        with pytest.raises(ReproError, match=r"drop_rates\[1\]"):
            ExperimentSpec(kind="sweep", drop_rates=(0.1, bad))


class TestSeedValidation:
    @pytest.mark.parametrize("rate", [0.0, 0.1])
    @pytest.mark.parametrize("bad", [-2, True, 1.5, "3", None])
    def test_bad_seed_is_named_whatever_its_rate(self, schedule, bad, rate):
        with pytest.raises(ReproError, match=r"seeds\[1\]"):
            replay_batch(schedule, (1, bad, 3), rate, num_packets=4)

    def test_accepted_seed_types(self, schedule):
        seeds = (0, np.int64(7), np.random.SeedSequence(3))
        batch = replay_batch(schedule, seeds, 0.1, num_packets=4)
        assert batch.num_sessions == 3

    def test_experiment_spec_checks_seeds_at_construction(self):
        with pytest.raises(ReproError, match=r"seeds\[1\]"):
            ExperimentSpec(kind="sweep", seeds=(1, -2), drop_rates=(0.1,))
        with pytest.raises(ReproError, match=r"seeds\[0\]"):
            ExperimentSpec(kind="sweep", seeds=(False,), drop_rates=(0.0,))

    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_sweep_fallback_seed_is_checked_under_its_own_name(self, rate):
        # Without seeds the sweep replays (seed,); a bad seed is named as
        # the field the caller set.
        with pytest.raises(ReproError, match=r"^seed must be"):
            ExperimentSpec(kind="sweep", seed=-1, drop_rate=rate)
        with pytest.raises(ReproError, match=r"^seed must be"):
            ExperimentSpec(kind="sweep", seed=True, drop_rates=(rate,))
        # Other kinds, and sweeps with their own seeds, do not read it so.
        ExperimentSpec(kind="stream", seed=-1)
        ExperimentSpec(kind="sweep", seed=-1, seeds=(2,), drop_rate=rate)
