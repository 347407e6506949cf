"""SLO scoring: pooled percentiles, session scoring, fleet aggregation."""

from __future__ import annotations

import dataclasses
import json
import pickle
from collections import Counter

import numpy as np
import pytest

from repro.core.errors import ReproError
from repro.exec import (
    bernoulli_mask, compile_schedule, replay_arrivals, replay_batch, spawn_seeds,
)
from repro.obs import MetricsRegistry
from repro.service.admission import AdmissionDecision
from repro.service.slo import (
    FleetAggregator,
    FleetSLOReport,
    SessionColumns,
    SessionSLO,
    aggregate_fleet,
    pooled_percentile,
    score_batch_sessions,
    score_session,
)


def _decision(session_id, status, *, wait=0):
    return AdmissionDecision(
        session_id=session_id,
        status=status,
        arrival_slot=0,
        start_slot=wait,
        wait_slots=wait,
        degree=3,
        duration=0 if status == "rejected" else 10,
        reason="capacity" if status == "rejected" else "",
    )


class TestPooledPercentile:
    def test_nearest_rank_on_split_population(self):
        counts = {1: 50, 10: 50}
        assert pooled_percentile(counts, 50) == 1
        assert pooled_percentile(counts, 51) == 10
        assert pooled_percentile(counts, 100) == 10

    def test_degenerate_distribution(self):
        assert pooled_percentile({5: 1}, 0) == 5
        assert pooled_percentile({5: 1}, 100) == 5

    def test_bad_inputs(self):
        with pytest.raises(ReproError):
            pooled_percentile({1: 1}, -1)
        with pytest.raises(ReproError):
            pooled_percentile({1: 1}, 101)
        with pytest.raises(ReproError):
            pooled_percentile({}, 50)


class TestScoreSession:
    def test_hand_computed_two_nodes(self):
        # Node 1 receives both packets on time; node 2 loses packet 1.
        arrivals = {1: {0: 1, 1: 2}, 2: {0: 3}}
        slo = score_session(
            arrivals, session_id=7, label="k", num_packets=2, num_slots=10
        )
        assert slo.startup_delay == 4          # node 2: slot 3 - packet 0 + 1
        assert slo.rebuffer_ratio == 0.25      # 1 missing of 4 pairs
        assert slo.delay_p50 == 2
        assert slo.delay_p99 == 4
        assert slo.buffer_p99 == 1
        assert slo.goodput == pytest.approx(3 / 20)
        assert slo.delay_counts == ((2, 1), (4, 1))
        assert slo.num_nodes == 2

    def test_wait_charges_startup_only(self):
        arrivals = {1: {0: 1, 1: 2}}
        slo = score_session(
            arrivals, session_id=0, label="k", num_packets=2, num_slots=10,
            wait_slots=5, status="degraded",
        )
        assert slo.startup_delay == 2 + 5
        assert slo.status == "degraded"
        # The per-node delay distribution is wait-free.
        assert slo.delay_counts == ((2, 1),)

    def test_empty_trace_node_counts_as_full_loss(self):
        arrivals = {1: {0: 0, 1: 1}, 2: {}}
        slo = score_session(
            arrivals, session_id=0, label="k", num_packets=2, num_slots=4
        )
        assert slo.rebuffer_ratio == 0.5  # node 2 missed both packets
        assert 0 in dict(slo.delay_counts)

    def test_bad_inputs(self):
        with pytest.raises(ReproError):
            score_session({}, session_id=0, label="k", num_packets=2, num_slots=4)
        with pytest.raises(ReproError):
            score_session(
                {1: {0: 0}}, session_id=0, label="k", num_packets=1, num_slots=0
            )

    def test_row_is_flat(self):
        slo = score_session(
            {1: {0: 0}}, session_id=3, label="k", num_packets=1, num_slots=2
        )
        row = slo.row()
        assert row["session"] == 3
        assert "delay_counts" not in row


class TestAggregateFleet:
    def _slo(self, session_id, *, delay=2, wait=0):
        return score_session(
            {1: {0: delay - 1}},
            session_id=session_id,
            label="k",
            num_packets=1,
            num_slots=10,
            wait_slots=wait,
        )

    def test_admission_tallies(self):
        decisions = [
            _decision(0, "admitted"),
            _decision(1, "admitted", wait=4),
            _decision(2, "degraded"),
            _decision(3, "rejected"),
        ]
        slos = [self._slo(0), self._slo(1, wait=4), self._slo(2)]
        report = aggregate_fleet(decisions, slos, cache_hits=2, cache_misses=1)
        assert report.num_sessions == 4
        assert report.admitted == 2
        assert report.degraded == 1
        assert report.queued == 1
        assert report.rejected == 1
        assert report.reject_rate == 0.25
        assert report.cache_hit_rate == pytest.approx(2 / 3)

    def test_percentiles_pool_across_sessions(self):
        # 50 nodes at delay 2 in one session, 1 node at delay 9 in another:
        # the pooled p99 must see the tail node, a mean-of-percentiles won't.
        fast = score_session(
            {n: {0: 1} for n in range(50)},
            session_id=0, label="k", num_packets=1, num_slots=10,
        )
        slow = score_session(
            {0: {0: 8}}, session_id=1, label="k", num_packets=1, num_slots=10
        )
        decisions = [_decision(0, "admitted"), _decision(1, "admitted")]
        report = aggregate_fleet(decisions, [fast, slow])
        assert report.delay_p50 == 2
        assert report.delay_p99 == 9
        assert report.startup_max == 9

    def test_empty_fleet_raises(self):
        with pytest.raises(ReproError):
            aggregate_fleet([], [])

    def test_all_rejected_raises(self):
        with pytest.raises(ReproError):
            aggregate_fleet([_decision(0, "rejected")], [])

    def test_dict_round_trip_through_json(self):
        decisions = [_decision(0, "admitted"), _decision(1, "rejected")]
        report = aggregate_fleet(decisions, [self._slo(0)], cache_hits=1)
        payload = json.loads(json.dumps(report.to_dict()))
        assert FleetSLOReport.from_dict(payload) == report


# --------------------------------------------------------------------------
# Columnar scoring and folding
# --------------------------------------------------------------------------

SCHEMES = (("multi-tree", 15, 2), ("hypercube", 16, 3))


def _scored_batch(scheme, nodes, degree, *, horizon_share=1.0, rate=0.1):
    """A lossy kernel batch scored column-wise, plus what the scalar oracle
    needs to score the same sessions one by one."""
    schedule = compile_schedule(scheme, nodes, degree, num_packets=8)
    horizon = max(1, int(horizon_share * schedule.num_slots))
    num_packets = 8
    if horizon < schedule.num_slots:
        # The runner's churn rule: score only what the watched prefix carries.
        num_packets = max(1, int(8 * horizon / schedule.num_slots))
    seeds = spawn_seeds(17, 12)
    batch = replay_batch(
        schedule, seeds, rate, num_packets=num_packets, num_slots=horizon
    )
    ids = list(range(100, 100 + len(seeds)))
    waits = [i % 3 for i in range(len(seeds))]
    statuses = ["degraded" if i % 4 == 0 else "admitted" for i in range(len(seeds))]
    columns = score_batch_sessions(
        batch,
        session_ids=ids,
        labels=[scheme] * len(seeds),
        wait_slots=waits,
        statuses=statuses,
    )
    return schedule, seeds, horizon, num_packets, ids, waits, statuses, columns


def _fold(slos, *, bulk, **options):
    aggregator = FleetAggregator(**options)
    for _ in range(len(slos)):
        aggregator.add_decision(_decision(0, "admitted"))
    if bulk:
        aggregator.add_sessions(slos)
    else:
        for slo in slos:
            aggregator.add_session(slo)
    return aggregator


class TestScoreBatchSessions:
    @pytest.mark.parametrize("scheme,nodes,degree", SCHEMES)
    @pytest.mark.parametrize("horizon_share", [1.0, 0.5])
    def test_items_equal_scalar_oracle(self, scheme, nodes, degree, horizon_share):
        (
            schedule, seeds, horizon, num_packets, ids, waits, statuses, columns,
        ) = _scored_batch(scheme, nodes, degree, horizon_share=horizon_share)
        expected = [
            score_session(
                replay_arrivals(
                    schedule,
                    num_slots=horizon,
                    drop_mask=bernoulli_mask(schedule, 0.1, seed),
                ),
                session_id=session_id,
                label=scheme,
                num_packets=num_packets,
                num_slots=horizon,
                wait_slots=wait,
                status=status,
            )
            for seed, session_id, wait, status in zip(
                seeds, ids, waits, statuses, strict=True
            )
        ]
        assert isinstance(columns, SessionColumns)
        assert len(columns) == len(expected)
        assert list(columns) == expected
        assert columns[3] == expected[3]
        assert columns[-2:] == tuple(expected[-2:])
        # Some sessions lost packets, so the identity covers the loss model.
        assert any(slo.rebuffer_ratio > 0 for slo in expected)

    def test_columns_hold_the_kernel_matrices(self):
        *_, columns = _scored_batch("multi-tree", 15, 2)
        assert columns.delays.shape == (len(columns), 15)
        assert columns.buffers.shape == (len(columns), 15)
        for slo, row in zip(columns, columns.delays, strict=True):
            values, counts = np.unique(row, return_counts=True)
            assert slo.delay_counts == tuple(
                zip(values.tolist(), counts.tolist())
            )

    def test_from_slos_keeps_the_objects(self):
        *_, columns = _scored_batch("hypercube", 16, 3)
        slos = list(columns)
        rebuilt = SessionColumns.from_slos(slos)
        assert SessionColumns.from_slos(rebuilt) is rebuilt
        assert all(a is b for a, b in zip(rebuilt, slos, strict=True))
        for name in ("startup_delay", "rebuffer_ratio", "goodput", "delay_p99"):
            assert np.array_equal(getattr(rebuilt, name), getattr(columns, name))
        assert np.array_equal(rebuilt.delays, np.sort(columns.delays, axis=1))

    def test_pickle_round_trip(self):
        *_, columns = _scored_batch("multi-tree", 15, 2)
        restored = pickle.loads(pickle.dumps(columns))
        assert isinstance(restored, SessionColumns)
        assert list(restored) == list(columns)
        assert (
            _fold(restored, bulk=True).report()
            == _fold(columns, bulk=True).report()
        )


class TestColumnFold:
    @pytest.mark.parametrize("scheme,nodes,degree", SCHEMES)
    def test_exact_fold_equals_one_at_a_time(self, scheme, nodes, degree):
        *_, columns = _scored_batch(scheme, nodes, degree)
        bulk = _fold(columns, bulk=True).report()
        single = _fold(list(columns), bulk=False).report()
        assert bulk == single
        assert bulk.rebuffer_mean.hex() == single.rebuffer_mean.hex()
        assert bulk.goodput_mean.hex() == single.goodput_mean.hex()
        assert bulk.sessions == tuple(columns)

    def test_exact_fold_pools_every_node(self):
        *_, columns = _scored_batch("multi-tree", 15, 2)
        report = _fold(columns, bulk=True).report()
        delays = Counter(columns.delays.ravel().tolist())
        buffers = Counter(columns.buffers.ravel().tolist())
        assert report.delay_p99 == pooled_percentile(delays, 99)
        assert report.buffer_p50 == pooled_percentile(buffers, 50)
        total = 0.0
        for slo in columns:
            total += slo.rebuffer_ratio
        assert report.rebuffer_mean == total / len(columns)

    def test_sketch_fold_equals_one_at_a_time_through_a_collapse(self):
        *_, columns = _scored_batch("multi-tree", 15, 2, rate=0.3)
        options = dict(relative_error=0.05, exact_limit=2, keep_sessions=False)
        bulk = _fold(columns, bulk=True, **options)
        single = _fold(list(columns), bulk=False, **options)
        assert not bulk.startup_sketch().is_exact  # the limit forced a collapse
        assert bulk.report() == single.report()
        assert bulk.report().sessions == ()
        assert (
            bulk.startup_sketch().to_dict() == single.startup_sketch().to_dict()
        )

    def test_plain_list_folds_identically(self):
        *_, columns = _scored_batch("hypercube", 16, 3)
        assert (
            _fold(list(columns), bulk=True).report()
            == _fold(columns, bulk=True).report()
        )

    def test_mixed_node_counts_fold_like_single_sessions(self):
        *_, wide = _scored_batch("hypercube", 16, 3)
        *_, narrow = _scored_batch("multi-tree", 15, 2)
        mixed = [*list(wide)[:5], *list(narrow)[:5]]
        columns = SessionColumns.from_slos(mixed)
        assert columns.delays.shape == (10, 16)
        assert (columns.delays[5:, 15] == -1).all()
        assert (
            _fold(mixed, bulk=True).report()
            == _fold(mixed, bulk=False).report()
        )

    def test_float_tallies_accumulate_in_session_order(self):
        # Ratios whose sum depends on the order of the additions.
        slos = [
            SessionSLO(
                session_id=i, label="k", status="admitted", wait_slots=0,
                startup_delay=3, rebuffer_ratio=0.1 * i, delay_p50=2,
                delay_p95=3, delay_p99=3, buffer_p50=1, buffer_p99=1,
                goodput=0.05 * i, num_nodes=2, num_packets=4,
                delay_counts=((2, 1), (3, 1)), buffer_counts=((1, 2),),
            )
            for i in range(1, 13)
        ]
        aggregator = FleetAggregator()
        for _ in slos:
            aggregator.add_decision(_decision(0, "admitted"))
        aggregator.add_sessions(slos[:1])
        aggregator.add_sessions(SessionColumns.from_slos(slos[1:]))
        report = aggregator.report()
        rebuffer = goodput = 0.0
        for slo in slos:
            rebuffer += slo.rebuffer_ratio
            goodput += slo.goodput
        assert report.rebuffer_mean.hex() == (rebuffer / len(slos)).hex()
        assert report.goodput_mean.hex() == (goodput / len(slos)).hex()
        assert report == _fold(slos, bulk=False).report()

    def test_empty_fold_is_a_no_op(self):
        aggregator = FleetAggregator()
        aggregator.add_sessions([])
        assert aggregator.num_sessions_aggregated == 0


class TestMergedColumns:
    def test_merge_orders_by_id_and_pads_the_narrow_parts(self):
        *_, wide = _scored_batch("hypercube", 16, 3)  # ids 100..111
        *_, narrow = _scored_batch("multi-tree", 15, 2)
        later = SessionColumns.from_slos(
            [dataclasses.replace(slo, session_id=slo.session_id - 50) for slo in narrow]
        )
        merged = SessionColumns.merge([wide, later])
        expected = sorted([*wide, *later], key=lambda slo: slo.session_id)
        assert merged.session_ids.tolist() == [slo.session_id for slo in expected]
        assert merged.delays.shape == (len(expected), 16)
        assert (merged.delays[: len(later), 15] == -1).all()
        assert list(merged) == expected

    def test_merge_of_nothing_is_empty(self):
        merged = SessionColumns.merge([])
        assert len(merged) == 0 and merged == () and merged == []
        assert list(merged) == []

    def test_equality_is_element_wise(self):
        *_, columns = _scored_batch("multi-tree", 15, 2)
        slos = list(columns)
        assert columns == slos and columns == tuple(slos)
        assert columns != slos[:-1]
        assert columns != [*slos[:-1], dataclasses.replace(slos[-1], wait_slots=99)]
        assert columns != "not a sequence of sessions"
        with pytest.raises(TypeError):
            hash(columns)

    def test_report_sessions_are_columns_whatever_was_given(self):
        decisions = [_decision(0, "admitted"), _decision(1, "admitted")]
        slos = [
            score_session({1: {0: 1}}, session_id=1, label="k", num_packets=1, num_slots=10),
            score_session({1: {0: 3}}, session_id=0, label="k", num_packets=1, num_slots=10),
        ]
        report = aggregate_fleet(decisions, slos)
        assert isinstance(report.sessions, SessionColumns)
        assert report.sessions == [slos[1], slos[0]]
        as_tuple = dataclasses.replace(report, sessions=tuple(report.sessions))
        assert isinstance(as_tuple.sessions, SessionColumns)
        assert as_tuple == report


class TestHistogramBulkObserve:
    def test_equals_observe_loop(self):
        *_, columns = _scored_batch("multi-tree", 15, 2, rate=0.3)
        for values in (
            columns.startup_delay.tolist(),
            columns.rebuffer_ratio.tolist(),
            # A second call's values summed on their own would round
            # differently from the running sum.
            [0.2, 0.001, 0.1, 0.3, 0.1, 3, 700, 2_000],
        ):
            loop = MetricsRegistry().histogram("h")
            for value in values:
                loop.observe(value)
            bulk = MetricsRegistry().histogram("h")
            bulk.observe_many(values[:1])
            bulk.observe_many(values[1:])
            bulk.observe_many([])
            for name in ("bucket_counts", "count", "min", "max"):
                assert getattr(bulk, name) == getattr(loop, name), name
            assert bulk.sum.hex() == float(loop.sum).hex()
