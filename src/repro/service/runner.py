"""Fleet execution: one epoch loop from a FleetSpec to a FleetSLOReport.

:class:`FleetRunner` resolves the scenario into sessions, then walks arrival
windows: admit (:class:`~repro.service.admission.SessionManager`; each
configuration compiles once per fleet through the shared
:class:`~repro.exec.cache.ScheduleCache`) → build :class:`SessionTask`
records → execute them on the :class:`~repro.exec.SweepExecutor` pool, one
:func:`~repro.exec.replay_batch` pass per unit of sessions sharing a
``(schedule token, drop_rate, packets, horizon)`` coordinate → fold each
unit's :class:`~repro.service.slo.SessionColumns` as it completes.  A plain
run is one window of every arrival; ``run_until_converged`` executes it in
slices of ``convergence.check_every`` until the tracked quantile's CI is
tight; a ``controller`` windows arrivals into epochs and steps the control
plane before each admission.  Loss masks are deterministic in each
session's seed, so results do not depend on grouping or worker count.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, ContextManager, NamedTuple

from repro.exec.batch import replay_batch
from repro.exec.cache import ScheduleCache
from repro.exec.compiler import compile_schedule
from repro.exec.executor import ExecutorPolicy, SweepExecutor, worker_payload
from repro.obs.convergence import ConvergenceDetector, ConvergenceState
from repro.obs.events import EventTracer
from repro.obs.names import (
    FLEET_ABR_SESSIONS,
    FLEET_CACHE_HIT_RATE,
    FLEET_REBUFFER_RATIO,
    FLEET_SESSIONS_REPLAYED,
    FLEET_STARTUP_DELAY,
)
from repro.obs.registry import MetricsRegistry, active_registry, use_registry
from repro.obs.spans import SpanTracer, worker_span
from repro.service.admission import AdmissionDecision, SessionManager
from repro.service.slo import (
    FleetAggregator,
    FleetSLOReport,
    SessionColumns,
    pooled_percentile,
    score_batch_sessions,
)
from repro.service.spec import FleetSpec, ResolvedSession, SessionSpec
from repro.service.telemetry import FleetTelemetry

# perfbench's tracer patches these oracle names on this module as well.
from repro.exec.replay import replay_arrivals  # noqa: F401
from repro.service.slo import score_session  # noqa: F401

__all__ = ["FleetRunner", "FleetRunResult", "SessionTask", "fleet_unit_task"]

Coordinate = tuple[str, float, int, int]  # (token, drop_rate, num_packets, horizon)


class SessionTask(NamedTuple):
    """One admitted session, ready to execute: its fleet-global task ``index``
    (its result and shard timing are filed under it), SLO identity, kernel
    coordinate (``num_packets`` after churn truncation), loss/ABR ``seed``
    and the ``arrival_slot`` that keys its telemetry window.  Immutable and
    slotted; a NamedTuple because one per session costs a third of a frozen
    dataclass."""

    index: int
    session_id: int
    label: str
    status: str
    token: str
    seed: int
    drop_rate: float
    num_packets: int
    wait_slots: int
    horizon: int
    arrival_slot: int
    abr_profile: str | None = None


Unit = tuple[Coordinate, tuple[SessionTask, ...]]


def fleet_unit_task(unit: Unit) -> tuple[tuple[int, ...], SessionColumns]:
    """Executor worker: score one ``(coordinate, members)`` unit.

    One :func:`~repro.exec.replay_batch` pass over the token's schedule (the
    pool payload) replays every member; ABR members then play their
    profile's trace (seeded by the session seed, one chunk per measured
    packet), a loop that does not read the replay.  Returns the members'
    task indices and SLO columns, in member order.
    """
    (token, drop_rate, num_packets, horizon), members = unit
    registry = active_registry()
    with worker_span("session.replay", sessions=len(members), label=members[0].label):
        batch = replay_batch(
            worker_payload()[token], [member.seed for member in members], drop_rate,
            num_packets=num_packets, num_slots=horizon, keep_node_columns=True,
        )
        qoe: list[dict | None] | None = None
        if any(member.abr_profile is not None for member in members):
            from repro import abr  # resolved per call, so a patched repro.abr runs

            spec = abr.AbrSessionSpec(num_chunks=num_packets)
            qoe = []
            for member in members:
                metrics = None
                if member.abr_profile is not None:
                    slots = max(64, num_packets * spec.chunk_slots)
                    trace = abr.build_profile(member.abr_profile, slots, seed=member.seed)
                    metrics = abr.collect_qoe(abr.run_session(spec, trace))
                    registry.counter(FLEET_ABR_SESSIONS, tier=metrics.tier).inc()
                qoe.append(metrics.to_dict() if metrics is not None else None)
        # from_slos returns columns as they are; it only converts a scorer
        # that hands back a plain SessionSLO list.
        columns = SessionColumns.from_slos(score_batch_sessions(
            batch,
            session_ids=[member.session_id for member in members],
            labels=[member.label for member in members],
            wait_slots=[member.wait_slots for member in members],
            statuses=[member.status for member in members],
            qoe=qoe,
        ))
        for label, count in Counter(member.label for member in members).items():
            registry.counter(FLEET_SESSIONS_REPLAYED, label=label).inc(count)
        registry.histogram(FLEET_STARTUP_DELAY).observe_many(columns.startup_delay.tolist())
        registry.histogram(FLEET_REBUFFER_RATIO).observe_many(columns.rebuffer_ratio.tolist())
    return tuple(member.index for member in members), columns


def _units(window: Sequence[SessionTask], workers: int) -> list[Unit]:
    """Group tasks by coordinate, each group split into about one block per
    worker.  Unit order (groups first-seen, members in task order) does not
    depend on the split, so the fold is identical serial or parallel."""
    groups: dict[Coordinate, list[SessionTask]] = {}
    for t in window:
        groups.setdefault((t.token, t.drop_rate, t.num_packets, t.horizon), []).append(t)
    units: list[Unit] = []
    for coordinate, members in groups.items():
        block = max(1, -(-len(members) // workers))
        units += [(coordinate, tuple(members[lo:lo + block]))
                  for lo in range(0, len(members), block)]
    return units


_session_id = attrgetter("session_id")


def _tally(made: Sequence[AdmissionDecision]) -> dict[str, int]:
    counts = Counter(decision.status for decision in made)
    return {status: counts[status] for status in ("admitted", "degraded", "rejected")}


@dataclass(frozen=True, slots=True)
class FleetRunResult:
    """Everything a fleet run produced.

    Attributes:
        report: the aggregated :class:`~repro.service.slo.FleetSLOReport`.
        decisions: per-session admission outcomes, in arrival order.
        sessions: the resolved scenario the run executed.
        executor_info: the last :attr:`SweepExecutor.last_run` plus ``tasks``
            (sessions run) and ``units`` (executor tasks after grouping);
            converged runs add ``batches``, controlled runs ``epochs``.
        shard_timings: per-session ``{"shard": task index, "elapsed_s": s}``
            rows (a unit's wall clock split evenly over its members).
        telemetry: the :class:`FleetTelemetry` bundle, if any.
        convergence: the final detector state of a converged run.
        control_decisions: the control plane's
            :class:`~repro.control.ControlDecision` records, in order.
        control_epochs: one row per control epoch — observed p99, the knobs
            in force, and the epoch's admitted/degraded/rejected tallies.
    """

    report: FleetSLOReport
    decisions: tuple[AdmissionDecision, ...]
    sessions: tuple[ResolvedSession, ...]
    executor_info: dict
    shard_timings: tuple[dict, ...] = ()
    telemetry: FleetTelemetry | None = None
    convergence: ConvergenceState | None = None
    control_decisions: tuple[Any, ...] = ()
    control_epochs: tuple[dict, ...] = ()


class _ControlHook:
    """The :class:`~repro.control.ControlPlane` step before each window.

    The plane reads the previous window's p99 startup delay and admission
    tallies plus the coming window's mix and churn; its knobs (admission
    policy, queue bound, per-kind degrees) then apply to this window.
    """

    def __init__(self, runner: FleetRunner, fleet: FleetSpec, manager: SessionManager,
                 spans: SpanTracer | None) -> None:
        from repro.control.controllers import ControlPlane

        self.plane = ControlPlane(
            fleet.controller, initial_policy=fleet.policy, max_queue_slots=fleet.max_queue_slots,
            min_degree=fleet.min_degree, cache=runner.cache, seed=fleet.seed, spans=spans,
            tracer=runner.tracer,
        )
        self.manager = manager
        self.kinds = {kind.label: kind for kind in fleet.sessions}
        self.delays: list[int] = []  # startup delays executed this window
        self.rows: list[dict[str, Any]] = []
        self._seen: Counter[int] = Counter()
        self._last: tuple[list[int], Sequence[AdmissionDecision]] = ([], ())
        self._p99: float | None = None
        self._stepped = 0

    def before(self, epoch: int, window: Sequence[ResolvedSession]) -> Sequence[ResolvedSession]:
        """Step the plane; returns the window's arrivals at their new degrees."""
        from repro.control.controllers import EpochObservation

        delays, made = self._last
        self._p99, self._stepped = None, 0
        if not window:  # the drain window: nothing arrives, nothing to decide
            return window
        if delays:
            self._p99 = float(pooled_percentile(Counter(delays), 99))
        obs = EpochObservation(
            epoch=epoch, p99=self._p99,
            cumulative_p99=float(pooled_percentile(self._seen, 99)) if self._seen else None,
            **_tally(made), arrivals=len(window), joins=len(window),
            leaves=sum(1 for s in window if s.leave_fraction is not None),
            mix=tuple(sorted(Counter(s.spec.label for s in window).items())),
        )
        self._stepped = len(self.plane.step(obs, self.kinds))
        self.manager.policy = self.plane.admission_policy
        self.manager.max_queue_slots = self.plane.max_queue_slots
        degrees = self.plane.degree_overrides
        # One retuned spec per kind for the whole window, keyed by the kind
        # object itself (the window's sessions share their fleet's kinds).
        retuned: dict[int, SessionSpec] = {}
        out: list[ResolvedSession] = []
        for s in window:
            spec = s.spec
            degree = degrees.get(spec.label, spec.degree)
            if degree != spec.degree:
                new = retuned.get(id(spec))
                if new is None:
                    new = retuned[id(spec)] = spec.with_degree(degree)
                s = ResolvedSession(s.session_id, new, s.arrival_slot, s.seed, s.leave_fraction)
            out.append(s)
        return out

    def after(self, epoch: int, window: Sequence[ResolvedSession],
              made: Sequence[AdmissionDecision]) -> None:
        """Record the window's epoch row; its results feed the next step."""
        manager = self.manager
        if window or made:
            self.rows.append({
                "epoch": epoch, "arrivals": len(window), "observed_p99": self._p99,
                "policy": manager.policy, "max_queue_slots": manager.max_queue_slots,
                **_tally(made), "queued": manager.queued_count, "decisions": self._stepped,
            })
        self._seen.update(self.delays)
        self._last, self.delays = (self.delays, made), []


class FleetRunner:
    """Execute fleet scenarios against a shared schedule cache.

    Args:
        cache: schedule cache shared across the fleet (a private in-process
            cache by default; pass one with a disk layer to amortize across
            runs too).
        policy: executor fan-out policy (worker count / serial / parallel).
        registry: metrics registry the run reports into (the active registry
            by default); admission counters, cache traffic, and merged worker
            snapshots all land here.
        tracer: optional :class:`~repro.obs.EventTracer` receiving
            ``session_*`` admission events.
        telemetry: optional :class:`FleetTelemetry` bundle; when given, the
            run records windowed time series and pipeline spans into it and
            attaches it to the :class:`FleetRunResult`.
    """

    def __init__(
        self,
        *,
        cache: ScheduleCache | None = None,
        policy: ExecutorPolicy | None = None,
        registry: MetricsRegistry | None = None,
        tracer: EventTracer | None = None,
        telemetry: FleetTelemetry | None = None,
    ) -> None:
        self.cache = cache if cache is not None else ScheduleCache(capacity=64)
        self.policy = policy if policy is not None else ExecutorPolicy()
        self.registry = registry
        self.tracer = tracer
        self.telemetry = telemetry
        #: Cache traffic of the last :meth:`run` (one lookup per admission).
        self.cache_hits = 0
        self.cache_misses = 0

    def _span(self, name: str, **attrs: Any) -> ContextManager:
        """A pipeline span scope when telemetry traces, else a no-op."""
        if self.telemetry is not None and self.telemetry.spans is not None:
            return self.telemetry.spans.span(name, **attrs)
        return nullcontext()

    def run(self, fleet: FleetSpec) -> FleetRunResult:
        """Resolve, admit, execute, and score one fleet scenario.

        A converged run that stops early reports exactly the executed arrival
        prefix, well-defined as admitting session *i* reads only earlier ones.
        """
        registry = self.registry if self.registry is not None else active_registry()
        telemetry = self.telemetry
        spans = telemetry.spans if telemetry is not None else None
        lookups = self.cache_misses = 0
        schedules: dict[str, Any] = {}  # token -> schedule: the pool payload
        compiled: dict[tuple, tuple[str, Any]] = {}  # configuration -> (token, schedule)
        assigned: dict[int, tuple[str, Any]] = {}  # session id -> its (token, schedule)
        with self._span("fleet.resolve"):
            sessions = fleet.resolve()
        by_id = {session.session_id: session for session in sessions}

        def duration_of(session: ResolvedSession, degree: int) -> int:
            # Memoized per configuration: compile_schedule rebuilds the protocol
            # before it consults the cache.  A lookup that is no miss is a hit.
            nonlocal lookups
            lookups += 1
            spec = session.spec
            key = (spec.scheme, spec.num_nodes, degree, spec.num_packets,
                   spec.construction, spec.mode, spec.latency)
            if key not in compiled:
                provenance: dict[str, Any] = {}
                schedule = compile_schedule(
                    spec.scheme, spec.num_nodes, degree, num_packets=spec.num_packets,
                    construction=spec.construction, mode=spec.mode,
                    latency=spec.latency, cache=self.cache, provenance=provenance,
                )
                self.cache_misses += provenance["cache"] == "miss"
                compiled[key] = (provenance["cache_token"], schedule)
                schedules[provenance["cache_token"]] = schedule
            assigned[session.session_id] = compiled[key]
            horizon = compiled[key][1].num_slots
            if session.leave_fraction is not None:
                # Churned viewer: capacity and the SLO cover the watched prefix.
                horizon = max(1, int(session.leave_fraction * horizon))
            return horizon

        manager = SessionManager(fleet.capacity, policy=fleet.policy, tracer=self.tracer,
                                 max_queue_slots=fleet.max_queue_slots, min_degree=fleet.min_degree)
        hook: _ControlHook | None = None
        windows: list[Sequence[ResolvedSession]] = [sessions]
        if fleet.controller is not None:
            hook = _ControlHook(self, fleet, manager, spans)
            size = fleet.controller.epoch_sessions
            windows = [sessions[lo:lo + size] for lo in range(0, len(sessions), size)]
            windows.append(())  # the last, empty window drains the queue on departures
        detector = ConvergenceDetector(fleet.convergence) if fleet.run_until_converged else None
        sketch = fleet.aggregation == "sketch"
        aggregator = FleetAggregator(relative_error=fleet.sketch_error if sketch else 0.0,
                                     keep_sessions=not sketch)
        executor = SweepExecutor(self.policy, registry=registry, spans=spans)
        workers = max(1, self.policy.resolved_workers())
        tasks: list[SessionTask] = []
        made_all: list[AdmissionDecision] = []
        shard_timings: list[dict] = []
        info: dict = {}
        executed = units_run = batches = 0
        conv_state: ConvergenceState | None = None

        def on_result(_: int, result: tuple[tuple[int, ...], SessionColumns]) -> None:
            task_indices, columns = result
            aggregator.add_sessions(columns)
            if hook is not None:
                hook.delays += columns.startup_delay.tolist()
            if telemetry is not None:
                telemetry.record_sessions(columns, [tasks[i].arrival_slot for i in task_indices])
            if detector is not None:
                for delay in columns.startup_delay.tolist():
                    detector.add(delay)

        with use_registry(registry), self._span("fleet.execute", sessions=len(sessions)):
            manager.start()
            for epoch, window in enumerate(windows):
                if hook is not None:
                    window = hook.before(epoch, window)
                    by_id.update((s.session_id, s) for s in window)
                with self._span("fleet.admit", sessions=len(window)):
                    made = manager.admit_chunk(window, duration_of)
                    if epoch == len(windows) - 1:
                        made += manager.finalize(duration_of)
                if hook is None:  # arrival order: a converged run executes a prefix
                    made.sort(key=_session_id)
                made_all += made
                for d in made:
                    if d.admitted:
                        tasks.append(self._task(len(tasks), d, by_id[d.session_id], assigned))
                step = len(tasks) if detector is None else fleet.convergence.check_every
                while executed < len(tasks):
                    units = _units(tasks[executed:executed + step], workers)
                    executor.map(fleet_unit_task, units, payload=schedules,
                                 on_result=on_result, collect=False)
                    info = dict(executor.last_run)
                    for row in executor.last_shards:
                        members = units[int(row["shard"])][1]  # type: ignore[call-overload]
                        share = float(row["elapsed_s"]) / len(members)  # type: ignore[arg-type]
                        shard_timings += [{"shard": m.index, "elapsed_s": share} for m in members]
                    executed = min(len(tasks), executed + step)
                    units_run += len(units)
                    batches += 1
                    if detector is not None:
                        conv_state = detector.state()
                        if conv_state.converged:
                            break
                if hook is not None:
                    hook.after(epoch, window, made)

            if detector is not None:
                info["batches"] = batches
            info.update(tasks=executed, units=units_run)
            if hook is not None:
                info["epochs"] = len(windows) - 1
            if executed < len(tasks):
                cutoff = tasks[executed - 1].session_id
                made_all = [d for d in made_all if d.session_id <= cutoff]
            decisions = sorted(made_all, key=_session_id)
            shard_timings.sort(key=lambda row: row["shard"])
            for decision in decisions:
                aggregator.add_decision(decision)
                if telemetry is not None:
                    telemetry.record_decision(decision, decision.arrival_slot)
            self.cache_hits = lookups - self.cache_misses
            with self._span("fleet.aggregate", sessions=executed):
                report = aggregator.report(
                    cache_hits=self.cache_hits, cache_misses=self.cache_misses)
            registry.gauge(FLEET_CACHE_HIT_RATE).set(report.cache_hit_rate)
        return FleetRunResult(
            report=report, decisions=tuple(decisions), sessions=sessions, executor_info=info,
            shard_timings=tuple(shard_timings), telemetry=telemetry, convergence=conv_state,
            control_decisions=tuple(hook.plane.decisions) if hook is not None else (),
            control_epochs=tuple(hook.rows) if hook is not None else (),
        )

    @staticmethod
    def _task(index: int, decision: AdmissionDecision, session: ResolvedSession,
              assigned: dict[int, tuple[str, Any]]) -> SessionTask:
        spec = session.spec
        token, schedule = assigned[decision.session_id]
        full, num_packets = schedule.num_slots, spec.num_packets
        if decision.duration < full:  # score only what the watched prefix can carry
            num_packets = max(1, int(num_packets * decision.duration / full))
        return SessionTask(
            index=index, session_id=decision.session_id, label=spec.label,
            status=decision.status, token=token, seed=session.seed,
            drop_rate=spec.drop_rate, num_packets=num_packets,
            wait_slots=decision.wait_slots, horizon=decision.duration,
            arrival_slot=session.arrival_slot, abr_profile=spec.abr_profile,
        )
