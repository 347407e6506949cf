"""Admission control: reject/queue/degrade policies against capacity budgets."""

from __future__ import annotations

import pytest

from repro.core.errors import ReproError
from repro.obs import EventTracer, MetricsRegistry, RingBufferSink
from repro.obs.registry import use_registry
from repro.service.admission import SessionManager
from repro.service.spec import CapacityModel, ResolvedSession, SessionSpec


def _sessions(arrival_slots, spec=None):
    spec = spec if spec is not None else SessionSpec(num_nodes=10, degree=3)
    return [
        ResolvedSession(session_id=i, spec=spec, arrival_slot=slot, seed=i)
        for i, slot in enumerate(arrival_slots)
    ]


def _duration(slots=10):
    def duration_of(session, degree):
        return slots

    return duration_of


class TestRejectPolicy:
    def test_overload_rejects_excess(self):
        # fanout budget 6 fits two d=3 sessions; the third (same slot) is out.
        manager = SessionManager(
            CapacityModel(source_fanout=6.0, backbone=1000.0), policy="reject"
        )
        decisions = manager.admit_all(_sessions([0, 0, 0]), _duration())
        assert [d.status for d in decisions] == ["admitted", "admitted", "rejected"]
        assert decisions[2].reason == "capacity"

    def test_departures_free_capacity(self):
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0), policy="reject"
        )
        # Session 0 holds [0, 10); arrival at 10 fits again, arrival at 5 not.
        decisions = manager.admit_all(_sessions([0, 5, 10]), _duration(10))
        assert [d.status for d in decisions] == ["admitted", "rejected", "admitted"]

    def test_backbone_budget_binds_independently(self):
        manager = SessionManager(
            CapacityModel(source_fanout=100.0, backbone=15.0), policy="reject"
        )
        decisions = manager.admit_all(_sessions([0, 0]), _duration())
        assert [d.status for d in decisions] == ["admitted", "rejected"]


class TestQueuePolicy:
    def test_queued_session_starts_at_departure(self):
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=64,
        )
        decisions = manager.admit_all(_sessions([0, 2]), _duration(10))
        assert decisions[0].start_slot == 0
        assert decisions[1].status == "admitted"
        assert decisions[1].start_slot == 10
        assert decisions[1].wait_slots == 8

    def test_wait_bound_times_out(self):
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=4,
        )
        decisions = manager.admit_all(_sessions([0, 2]), _duration(10))
        assert decisions[1].status == "rejected"
        assert decisions[1].reason == "queue_timeout"

    def test_fifo_no_overtaking(self):
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=64,
        )
        decisions = manager.admit_all(_sessions([0, 1, 2]), _duration(10))
        starts = [d.start_slot for d in decisions]
        assert starts == [0, 10, 20]
        assert [d.wait_slots for d in decisions] == [0, 9, 18]


class TestDegradePolicy:
    def test_degrades_to_fitting_degree(self):
        spec = SessionSpec(num_nodes=10, degree=4)
        manager = SessionManager(
            CapacityModel(source_fanout=6.0, backbone=1000.0),
            policy="degrade", min_degree=2,
        )
        decisions = manager.admit_all(_sessions([0, 0], spec), _duration())
        assert decisions[0].status == "admitted"
        assert decisions[0].degree == 4
        assert decisions[1].status == "degraded"
        assert decisions[1].degree == 2  # only 2 fanout units were left

    def test_rejects_below_min_degree(self):
        spec = SessionSpec(num_nodes=10, degree=4)
        manager = SessionManager(
            CapacityModel(source_fanout=5.0, backbone=1000.0),
            policy="degrade", min_degree=3,
        )
        decisions = manager.admit_all(_sessions([0, 0], spec), _duration())
        assert decisions[1].status == "rejected"

    def test_duration_resolved_at_degraded_degree(self):
        spec = SessionSpec(num_nodes=10, degree=4)
        seen = []

        def duration_of(session, degree):
            seen.append(degree)
            return 5 + degree

        manager = SessionManager(
            CapacityModel(source_fanout=6.0, backbone=1000.0),
            policy="degrade", min_degree=2,
        )
        decisions = manager.admit_all(_sessions([0, 0], spec), duration_of)
        assert seen == [4, 2]
        assert decisions[1].duration == 7


class TestObservability:
    def test_counters_and_peaks(self):
        registry = MetricsRegistry()
        manager = SessionManager(
            CapacityModel(source_fanout=6.0, backbone=1000.0), policy="reject"
        )
        with use_registry(registry):
            manager.admit_all(_sessions([0, 0, 0]), _duration())
        counters = {
            (row["name"], row["labels"]): row["value"]
            for row in registry.rows()
            if row["kind"] == "counter"
        }
        assert counters[("fleet.sessions", "status=admitted")] == 2
        assert counters[("fleet.sessions", "status=rejected")] == 1
        gauges = {
            row["name"]: row["value"]
            for row in registry.rows()
            if row["kind"] == "gauge"
        }
        assert gauges["fleet.peak_fanout"] == 6.0
        assert gauges["fleet.peak_backbone"] == 20.0
        assert manager.peak_fanout == 6.0
        assert manager.peak_backbone == 20.0

    def test_events_emitted(self):
        sink = RingBufferSink()
        tracer = EventTracer(sink)
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=64, tracer=tracer,
        )
        manager.admit_all(_sessions([0, 1]), _duration(10))
        names = [e.name for e in sink.events]
        assert names.count("session_admitted") == 2
        assert names.count("session_queued") == 1

    def test_single_terminal_status_per_session(self):
        # A queued-then-admitted (or queued-then-timed-out) session must
        # land on exactly ONE fleet.sessions status: the terminal one.
        # Queue transit is observable separately (fleet.queue.entered /
        # fleet.queue.depth), never in the status totals.
        registry = MetricsRegistry()
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=12,
        )
        with use_registry(registry):
            # 0 admitted at 0; 1 queued then admitted at 10; 2 queued then
            # timed out (wait would be 20 - 2 > 12).
            decisions = manager.admit_all(_sessions([0, 1, 2]), _duration(10))
        statuses = [d.status for d in decisions]
        assert statuses == ["admitted", "admitted", "rejected"]
        counters = {
            (row["name"], row["labels"]): row["value"]
            for row in registry.rows()
            if row["kind"] == "counter"
        }
        status_total = sum(
            value for (name, _), value in counters.items()
            if name == "fleet.sessions"
        )
        assert status_total == 3  # one terminal status per offered session
        assert counters[("fleet.sessions", "status=admitted")] == 2
        assert counters[("fleet.sessions", "status=rejected")] == 1
        assert ("fleet.sessions", "status=queued") not in counters
        assert counters[("fleet.queue.entered", "")] == 2
        gauges = {
            row["name"]: row["value"]
            for row in registry.rows()
            if row["kind"] == "gauge"
        }
        assert gauges["fleet.queue.depth"] == 0  # everyone left the queue

    def test_status_totals_sum_to_offered_across_policies(self):
        for policy in ("reject", "queue", "degrade"):
            registry = MetricsRegistry()
            manager = SessionManager(
                CapacityModel(source_fanout=6.0, backbone=1000.0),
                policy=policy, max_queue_slots=4, min_degree=2,
            )
            spec = SessionSpec(num_nodes=10, degree=4)
            with use_registry(registry):
                manager.admit_all(_sessions([0, 0, 0, 0], spec), _duration(40))
            total = sum(
                row["value"]
                for row in registry.rows()
                if row["kind"] == "counter" and row["name"] == "fleet.sessions"
            )
            assert total == 4, policy


class TestChunkedAdmission:
    def test_chunked_pass_equals_admit_all(self):
        arrivals = _sessions([0, 1, 2, 5, 9, 14])
        whole = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=64,
        ).admit_all(arrivals, _duration(4))

        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=64,
        )
        manager.start()
        made = []
        for lo in range(0, len(arrivals), 2):
            made += manager.admit_chunk(arrivals[lo:lo + 2], _duration(4))
        made += manager.finalize(_duration(4))
        by_id = {d.session_id: d for d in made}
        assert [by_id[s.session_id] for s in arrivals] == whole

    def test_policy_may_move_between_chunks(self):
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=64,
        )
        manager.start()
        first = manager.admit_chunk(_sessions([0]), _duration(50))
        assert first[0].status == "admitted"
        # The control plane escalates queue -> reject mid-run.
        manager.policy = "reject"
        late = [
            ResolvedSession(
                session_id=1, spec=SessionSpec(num_nodes=10, degree=3),
                arrival_slot=1, seed=1,
            )
        ]
        second = manager.admit_chunk(late, _duration(50))
        assert second[0].status == "rejected"
        assert second[0].reason == "capacity"
        manager.finalize(_duration(50))

    def test_chunk_before_start_raises(self):
        manager = SessionManager(CapacityModel())
        with pytest.raises(ReproError):
            manager.admit_chunk(_sessions([0]), _duration())
        with pytest.raises(ReproError):
            manager.finalize(_duration())

    def test_unsorted_arrivals_rejected(self):
        manager = SessionManager(CapacityModel())
        spec = SessionSpec(num_nodes=10)
        sessions = [
            ResolvedSession(session_id=0, spec=spec, arrival_slot=5, seed=0),
            ResolvedSession(session_id=1, spec=spec, arrival_slot=2, seed=1),
        ]
        with pytest.raises(ReproError):
            manager.admit_all(sessions, _duration())

    def test_unknown_policy(self):
        with pytest.raises(ReproError):
            SessionManager(CapacityModel(), policy="drop")


class TestPerCallTallies:
    """``fleet.sessions``, ``fleet.queue.entered`` and ``fleet.queue.depth``
    are tallied once per ``admit_chunk``/``finalize`` call."""

    @staticmethod
    def _values(registry):
        snapshot = registry.snapshot()
        counters = {
            (row["name"], row["labels"].get("status", "")): row["value"]
            for row in snapshot["counters"]
        }
        gauges = {row["name"]: row["value"] for row in snapshot["gauges"]}
        return counters, gauges

    def test_each_call_ends_with_the_per_session_totals(self):
        registry = MetricsRegistry()
        sink = RingBufferSink()
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=12, tracer=EventTracer(sink),
        )
        arrivals = _sessions([0, 1, 2, 3, 11, 12, 30, 31])
        made = []
        with use_registry(registry):
            manager.start()
            for lo in range(0, len(arrivals), 3):
                made += manager.admit_chunk(arrivals[lo:lo + 3], _duration(10))
                counters, gauges = self._values(registry)
                statuses = [d.status for d in made]
                for status in ("admitted", "rejected"):
                    assert counters.get(("fleet.sessions", status), 0) == statuses.count(status)
                parked = [e for e in sink.events if e.name == "session_queued"]
                assert counters[("fleet.queue.entered", "")] == len(parked)
                assert gauges["fleet.queue.depth"] == manager.queued_count
            made += manager.finalize(_duration(10))
        # The trace queues, admits from the queue and times a session out.
        assert {d.reason for d in made} == {"", "queue_timeout"}
        assert any(d.wait_slots > 0 for d in made)
        counters, gauges = self._values(registry)
        assert sum(
            value for (name, _), value in counters.items() if name == "fleet.sessions"
        ) == len(arrivals)
        assert gauges["fleet.queue.depth"] == 0 == manager.queued_count

    def test_a_call_touches_only_what_a_session_touched(self):
        # No session queues: the queue instruments are never created, and
        # only the statuses that occurred are.
        registry = MetricsRegistry()
        manager = SessionManager(
            CapacityModel(source_fanout=6.0, backbone=1000.0), policy="reject"
        )
        with use_registry(registry):
            manager.admit_all(_sessions([0, 0, 0]), _duration())
        counters, gauges = self._values(registry)
        assert list(counters) == [
            ("fleet.sessions", "admitted"), ("fleet.sessions", "rejected"),
        ]
        assert "fleet.queue.depth" not in gauges

    def test_instruments_are_created_in_per_session_order(self):
        # duration_of creates an instrument per degree (as a schedule
        # compile does); the status counters must still be created between
        # them, where one update per session would have created them.
        registry = MetricsRegistry()
        manager = SessionManager(
            CapacityModel(source_fanout=5.0, backbone=1000.0),
            policy="degrade", min_degree=2,
        )

        def duration_of(session, degree):
            registry.counter("compile", degree=str(degree)).inc()
            return 10

        with use_registry(registry):
            made = manager.admit_all(_sessions([0, 0]), duration_of)
        assert [d.status for d in made] == ["admitted", "degraded"]
        order = [
            (row["name"], *row["labels"].values()) for row in registry.snapshot()["counters"]
        ]
        assert order == [
            ("compile", "3"), ("fleet.sessions", "admitted"),
            ("compile", "2"), ("fleet.sessions", "degraded"),
        ]

    def test_counts_made_before_an_error_are_kept(self):
        registry = MetricsRegistry()
        manager = SessionManager(
            CapacityModel(source_fanout=6.0, backbone=1000.0), policy="reject"
        )
        with use_registry(registry):
            manager.start()
            with pytest.raises(ReproError, match="sorted"):
                manager.admit_chunk(_sessions([0, 5, 1]), _duration())
        counters, _ = self._values(registry)
        assert counters == {("fleet.sessions", "admitted"): 2}
