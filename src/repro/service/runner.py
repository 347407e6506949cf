"""Fleet execution: run every admitted session, sharded across processes.

:class:`FleetRunner` turns a :class:`~repro.service.spec.FleetSpec` into a
:class:`~repro.service.slo.FleetSLOReport` in four steps:

1. **resolve** the scenario into concrete sessions (arrival slots, kinds,
   seeds, churn draws);
2. **admit** them through :class:`~repro.service.admission.SessionManager`,
   compiling each admitted configuration's schedule through the shared
   content-addressed :class:`~repro.exec.cache.ScheduleCache` to learn its
   true horizon — identical ``(scheme, N, d, ...)`` configs compile once per
   fleet, not once per session (the amortization the acceptance benchmark
   measures);
3. **execute** admitted sessions with the :class:`~repro.exec.SweepExecutor`
   process pool — the token-indexed schedule dict ships once per worker as
   the pool payload.  Batch-first since v2.0: sessions sharing a
   ``(schedule token, drop_rate, packets, horizon)`` coordinate group into
   **units** scored by one vectorized kernel pass each
   (:func:`~repro.exec.replay_batch`; the 0.992 cache hit rate means almost
   every session lands in a large unit), while ABR sessions — and fleets
   with ``FleetSpec(execution="scalar")`` — replay one session per task.
   Every session's loss mask is deterministic in its own seed, so results
   are identical batched or scalar, on any worker count, and per-worker
   metric snapshots merge back into the caller's registry;
4. **aggregate** per-session SLOs and admission decisions into the fleet
   report (exact pooled percentiles, reject rate, cache hit-rate).

Aggregation is **streaming** and **columnar**: each unit returns its
sessions' SLOs as :class:`~repro.service.slo.SessionColumns`, which fold
into a :class:`~repro.service.slo.FleetAggregator` — and feed the
telemetry series, the convergence detector and the control epoch's delays
— through the executor's ``on_result`` callback the moment the unit
completes.  With ``FleetSpec.aggregation="sketch"`` no per-session object
is ever built, which is what lets ``bench_fleet_scale.py`` run 10k+
sessions in bounded memory.  ``FleetSpec.run_until_converged`` executes
admitted sessions in batches and stops early once the tracked SLO
quantile's confidence interval is narrow enough
(:mod:`repro.obs.convergence`) — the open-loop steady-state mode.  A
:class:`FleetTelemetry` bundle adds tumbling-window time series keyed by
arrival slot and pipeline spans (compile/admit/execute/aggregate plus
per-session worker spans) exportable as a Chrome trace.

Everything is deterministic in ``FleetSpec.seed`` regardless of worker count.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Callable, ContextManager

from repro.exec.cache import ScheduleCache
from repro.exec.compiler import compile_schedule
from repro.exec.batch import replay_batch
from repro.exec.executor import ExecutorPolicy, SweepExecutor, worker_payload
from repro.exec.replay import bernoulli_mask, replay_arrivals
from repro.obs.convergence import ConvergenceDetector, ConvergenceState
from repro.obs.events import EventTracer
from repro.obs.names import (
    FLEET_ABR_SESSIONS,
    FLEET_CACHE_HIT_RATE,
    FLEET_GOODPUT,
    FLEET_QUEUE_WAIT,
    FLEET_REBUFFER_RATIO,
    FLEET_SESSIONS_COMPLETED,
    FLEET_SESSIONS_REPLAYED,
    FLEET_STARTUP_DELAY,
)
from repro.obs.registry import MetricsRegistry, active_registry, use_registry
from repro.obs.sketch import DEFAULT_RELATIVE_ERROR
from repro.obs.spans import SpanTracer, worker_span
from repro.obs.timeseries import TimeSeries
from repro.service.admission import AdmissionDecision, SessionManager
from repro.service.slo import (
    FleetAggregator,
    FleetSLOReport,
    SessionColumns,
    SessionSLO,
    pooled_percentile,
    score_session,
    score_batch_sessions,
)
from repro.service.spec import FleetSpec, ResolvedSession, SessionSpec

__all__ = [
    "FleetRunner",
    "FleetRunResult",
    "FleetTelemetry",
    "fleet_session_task",
    "fleet_unit_task",
]


def fleet_session_task(task: tuple[Any, ...]) -> SessionSLO:
    """Executor worker: replay one admitted session and score its SLO.

    Task tuple: ``(session_id, label, status, token, seed, drop_rate,
    num_packets, wait_slots, horizon, abr_profile)``.  The token-indexed
    schedule dict arrives via :func:`~repro.exec.executor.worker_payload`;
    the loss mask is deterministic in the session seed, so results do not
    depend on which worker (or how many) ran the session.

    When ``abr_profile`` is set, the worker additionally plays the session
    through a deterministic ABR playback loop (one chunk per measured
    packet) against the named bandwidth profile, seeded by the session seed,
    and attaches the resulting QoE metrics to the SLO.
    """
    (
        session_id, label, status, token, seed,
        drop_rate, num_packets, wait_slots, horizon, abr_profile,
    ) = task
    with worker_span("session.replay", session=session_id, label=label):
        schedule = worker_payload()[token]
        mask = bernoulli_mask(schedule, drop_rate, seed)
        arrivals = replay_arrivals(schedule, num_slots=horizon, drop_mask=mask)
        slo = score_session(
            arrivals,
            session_id=session_id,
            label=label,
            num_packets=num_packets,
            num_slots=horizon,
            wait_slots=wait_slots,
            status=status,
        )
    registry = active_registry()
    if abr_profile is not None:
        from dataclasses import replace

        from repro.abr import AbrSessionSpec, build_profile, collect_qoe, run_session

        abr_spec = AbrSessionSpec(num_chunks=num_packets)
        trace = build_profile(
            abr_profile,
            max(64, num_packets * abr_spec.chunk_slots),
            seed=seed,
        )
        qoe = collect_qoe(run_session(abr_spec, trace))
        slo = replace(slo, qoe=qoe.to_dict())
        registry.counter(FLEET_ABR_SESSIONS, tier=qoe.tier).inc()
    registry.counter(FLEET_SESSIONS_REPLAYED, label=label).inc()
    registry.histogram(FLEET_STARTUP_DELAY).observe(slo.startup_delay)
    registry.histogram(FLEET_REBUFFER_RATIO).observe(slo.rebuffer_ratio)
    return slo


def fleet_unit_task(
    unit: tuple[Any, ...],
) -> tuple[tuple[int, ...], SessionColumns]:
    """Executor worker: score one execution unit — a batch group or one
    scalar session.

    Units come in two shapes:

    * ``("batch", token, drop_rate, num_packets, horizon, members)`` —
      every member session shares the token's compiled schedule and the
      replay coordinate, so one :func:`~repro.exec.replay_batch` kernel
      pass scores the whole group.  ``members`` is a tuple of
      ``(task_index, session_id, label, status, seed, wait_slots)``.
    * ``("scalar", task_index, task)`` — delegates to
      :func:`fleet_session_task` (ABR sessions, and fleets running with
      ``execution="scalar"``).

    Returns ``(task_indices, columns)``: the members' SLOs as
    :class:`~repro.service.slo.SessionColumns`, in member order, and their
    fleet-global task indices, so the runner can attribute results
    (telemetry windows, shard timings) to the right session no matter how
    sessions were grouped.  Per-session counters/histograms match the
    scalar worker exactly, so registry snapshots are grouping-independent.
    """
    kind = unit[0]
    if kind == "scalar":
        _, task_index, task = unit
        return (task_index,), SessionColumns.from_slos([fleet_session_task(task)])
    _, token, drop_rate, num_packets, horizon, members = unit
    label = members[0][2]
    with worker_span(
        "session.replay", sessions=len(members), label=label
    ):
        schedule = worker_payload()[token]
        batch = replay_batch(
            schedule,
            [member[4] for member in members],
            drop_rate,
            num_packets=num_packets,
            num_slots=horizon,
            keep_node_columns=True,
        )
        registry = active_registry()
        # from_slos returns columns as they are; it only converts a scorer
        # that hands back a plain SessionSLO list.
        columns = SessionColumns.from_slos(score_batch_sessions(
            batch,
            session_ids=[member[1] for member in members],
            labels=[member[2] for member in members],
            wait_slots=[member[5] for member in members],
            statuses=[member[3] for member in members],
        ))
        for label, count in Counter(member[2] for member in members).items():
            registry.counter(FLEET_SESSIONS_REPLAYED, label=label).inc(count)
        registry.histogram(FLEET_STARTUP_DELAY).observe_many(
            columns.startup_delay.tolist()
        )
        registry.histogram(FLEET_REBUFFER_RATIO).observe_many(
            columns.rebuffer_ratio.tolist()
        )
    return tuple(member[0] for member in members), columns


class FleetTelemetry:
    """Optional fleet-run telemetry bundle: time series + pipeline spans.

    Args:
        window: tumbling-window width (arrival slots) of the time series.
        relative_error: per-window sketch error bound.
        trace: record pipeline spans (compile/admit/execute/aggregate and
            per-session worker spans) under one trace id.
    """

    __slots__ = ("series", "spans")

    def __init__(
        self,
        *,
        window: int = 8,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        trace: bool = True,
    ) -> None:
        self.series = TimeSeries(window, relative_error=relative_error)
        self.spans: SpanTracer | None = SpanTracer() if trace else None

    def record_decision(self, decision: AdmissionDecision, arrival_slot: int) -> None:
        """Window the admission outcome at the session's arrival slot."""
        self.series.count(f"fleet.{decision.status}", arrival_slot)
        if decision.admitted and decision.wait_slots > 0:
            self.series.observe(FLEET_QUEUE_WAIT, arrival_slot, decision.wait_slots)

    def record_session(self, slo: SessionSLO, arrival_slot: int) -> None:
        """Window one completed session's SLO at its arrival slot."""
        self.series.count(FLEET_SESSIONS_COMPLETED, arrival_slot)
        self.series.observe(FLEET_STARTUP_DELAY, arrival_slot, slo.startup_delay)
        self.series.observe(FLEET_REBUFFER_RATIO, arrival_slot, slo.rebuffer_ratio)
        self.series.gauge(FLEET_GOODPUT, arrival_slot, slo.goodput)

    def record_sessions(
        self, columns: SessionColumns, arrival_slots: Sequence[int]
    ) -> None:
        """Window a batch of completed sessions, read from their columns.

        The same series state as one :meth:`record_session` per session,
        in order, without building any :class:`SessionSLO`.
        """
        self.series.record_many(
            arrival_slots,
            counters=(FLEET_SESSIONS_COMPLETED,),
            sketches={
                FLEET_STARTUP_DELAY: columns.startup_delay.tolist(),
                FLEET_REBUFFER_RATIO: columns.rebuffer_ratio.tolist(),
            },
            gauges={FLEET_GOODPUT: columns.goodput.tolist()},
        )

    def rows(self) -> list[dict[str, Any]]:
        """Flat (window, series) rows for table rendering."""
        return self.series.rows()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dump: the full time series plus any finished spans."""
        payload: dict[str, Any] = {"series": self.series.to_dict()}
        if self.spans is not None:
            payload["trace_id"] = self.spans.trace_id
            payload["spans"] = self.spans.to_dicts()
        return payload


@dataclass(frozen=True, slots=True)
class FleetRunResult:
    """Everything a fleet run produced.

    Attributes:
        report: the aggregated :class:`~repro.service.slo.FleetSLOReport`.
        decisions: per-session admission outcomes, in arrival order.
        sessions: the resolved scenario the run executed.
        executor_info: how the execution fanned out
            (:attr:`SweepExecutor.last_run` plus ``tasks`` = sessions
            actually run, ``units`` = executor tasks after batch grouping,
            and ``execution`` = the fleet's execution mode;
            convergence-mode runs add the ``batches`` executed).
        shard_timings: per-shard wall-clock rows ``{"shard": task index,
            "elapsed_s": seconds}`` in completion order (shard ids are
            fleet-global even across convergence batches).
        telemetry: the :class:`FleetTelemetry` bundle the run recorded into
            (``None`` when telemetry was off).
        convergence: the final detector state for
            ``run_until_converged`` runs (``None`` otherwise).
        control_decisions: the control plane's
            :class:`~repro.control.ControlDecision` records, in decision
            order (empty for uncontrolled runs).
        control_epochs: one row per control epoch — observed p99, the
            policy/queue-bound knobs in force, and the epoch's
            admitted/degraded/rejected tallies (empty for uncontrolled
            runs).
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

    # ------------------------------------------------------------------ build
    def _compile(
        self, spec: SessionSpec, degree: int, schedules: dict[str, Any]
    ) -> tuple[str, Any]:
        """Compile one configuration through the shared cache.

        Returns ``(token, schedule)`` and tallies the hit/miss.  ``run``
        memoizes this per configuration and tallies memo hits itself, so
        the fleet hit-rate still counts one lookup per admitted session
        and directly measures compile amortization.
        """
        provenance: dict = {}
        schedule = compile_schedule(
            spec.scheme,
            spec.num_nodes,
            degree,
            num_packets=spec.num_packets,
            construction=spec.construction,
            mode=spec.mode,
            latency=spec.latency,
            cache=self.cache,
            provenance=provenance,
        )
        if provenance["cache"] == "miss":
            self.cache_misses += 1
        else:
            self.cache_hits += 1
        token = provenance["cache_token"]
        schedules[token] = schedule
        return token, schedule

    # -------------------------------------------------------------------- api
    def run(self, fleet: FleetSpec) -> FleetRunResult:
        """Resolve, admit, execute, and score one fleet scenario.

        Sessions stream into a :class:`~repro.service.slo.FleetAggregator`
        as their shards complete; nothing per-session is retained when
        ``fleet.aggregation == "sketch"``.  With
        ``fleet.run_until_converged`` sessions execute in batches of
        ``fleet.convergence.check_every`` and the run stops once the
        tracked quantile's CI half-width criterion is met — decisions (and
        the report's admission tallies) then cover exactly the arrival
        prefix that was executed, which is well-defined because admission
        of session *i* depends only on earlier arrivals.  With
        ``fleet.controller`` set, admission and execution instead proceed
        in control epochs (:meth:`_run_controlled`) and the result carries
        the control plane's decision log and per-epoch rows.
        """
        registry = self.registry if self.registry is not None else active_registry()
        telemetry = self.telemetry
        self.cache_hits = 0
        self.cache_misses = 0
        schedules: dict[str, object] = {}
        tokens: dict[int, str] = {}
        compile_memo: dict[tuple, tuple[str, Any]] = {}
        with self._span("fleet.resolve"):
            sessions = fleet.resolve()

        def duration_of(session: ResolvedSession, degree: int) -> int:
            # Memoize per configuration for the run: the shared cache makes
            # repeat compiles cheap, but compile_schedule still rebuilds the
            # protocol to derive the horizon before it can consult the
            # cache — at fleet scale that dominates admission.  A memo hit
            # is the same outcome as a shared-cache hit, so the fleet
            # hit-rate (one lookup per admission) is unchanged.
            spec = session.spec
            key = (
                spec.scheme, spec.num_nodes, degree, spec.num_packets,
                spec.construction, spec.mode, spec.latency,
            )
            cached = compile_memo.get(key)
            if cached is None:
                cached = self._compile(spec, degree, schedules)
                compile_memo[key] = cached
            else:
                self.cache_hits += 1
            token, schedule = cached
            tokens[session.session_id] = token
            horizon = schedule.num_slots
            if session.leave_fraction is not None:
                # Churned viewer: capacity (and the SLO window) only cover
                # the watched prefix.
                horizon = max(1, int(session.leave_fraction * horizon))
            return horizon

        manager = SessionManager(
            fleet.capacity,
            policy=fleet.policy,
            max_queue_slots=fleet.max_queue_slots,
            min_degree=fleet.min_degree,
            tracer=self.tracer,
        )
        controlled = fleet.controller is not None
        with use_registry(registry):
            tasks: list[tuple] = []
            task_arrivals: list[int] = []
            by_id = {s.session_id: s for s in sessions}
            epoch_delays: list[int] = []

            def build_task(decision: AdmissionDecision) -> None:
                """Append one admitted session's executor task."""
                if not decision.admitted:
                    return
                session = by_id[decision.session_id]
                token = tokens[decision.session_id]
                full = schedules[token].num_slots
                horizon = decision.duration
                num_packets = session.spec.num_packets
                if horizon < full:
                    # Score only the packets the watched prefix can carry.
                    num_packets = max(1, int(num_packets * horizon / full))
                tasks.append(
                    (
                        decision.session_id,
                        session.spec.label,
                        decision.status,
                        token,
                        session.seed,
                        session.spec.drop_rate,
                        num_packets,
                        decision.wait_slots,
                        horizon,
                        session.spec.abr_profile,
                    )
                )
                task_arrivals.append(session.arrival_slot)

            sketch_mode = fleet.aggregation == "sketch"
            aggregator = FleetAggregator(
                relative_error=fleet.sketch_error if sketch_mode else 0.0,
                keep_sessions=not sketch_mode,
            )
            detector = (
                ConvergenceDetector(fleet.convergence)
                if fleet.run_until_converged else None
            )
            spans = telemetry.spans if telemetry is not None else None
            executor = SweepExecutor(self.policy, registry=registry, spans=spans)
            shard_timings: list[dict] = []
            batch_first = fleet.execution == "batch"
            workers = max(1, self.policy.resolved_workers())

            def build_units(
                window: list[tuple[Any, ...]], base: int
            ) -> tuple[list[tuple[Any, ...]], list[list[int]]]:
                """Group a task window into execution units.

                Batch-first mode groups sessions sharing a ``(schedule
                token, drop_rate, num_packets, horizon)`` coordinate into
                kernel units (each group split into roughly one block per
                worker so homogeneous fleets still fan out); ABR sessions
                — and everything in ``execution="scalar"`` mode — become
                scalar units.  Unit order is deterministic and independent
                of the worker count-driven split (group first-seen order,
                members in arrival order), so streaming aggregation folds
                identically serial or parallel.
                """
                units: list = []
                unit_members: list[list[int]] = []
                scalars: list[tuple[int, tuple]] = []
                groups: dict[tuple, list[tuple]] = {}
                for offset, task in enumerate(window):
                    task_index = base + offset
                    if not batch_first or task[9] is not None:
                        scalars.append((task_index, task))
                        continue
                    key = (task[3], task[5], task[6], task[8])
                    member = (
                        task_index, task[0], task[1], task[2], task[4], task[7],
                    )
                    groups.setdefault(key, []).append(member)
                for key, members in groups.items():
                    block = max(1, -(-len(members) // workers))
                    for lo in range(0, len(members), block):
                        chunk = tuple(members[lo:lo + block])
                        units.append(("batch", *key, chunk))
                        unit_members.append([m[0] for m in chunk])
                for task_index, task in scalars:
                    units.append(("scalar", task_index, task))
                    unit_members.append([task_index])
                return units, unit_members

            def execute_window(window: list[tuple[Any, ...]], base: int) -> int:
                if not window:
                    return 0
                units, unit_members = build_units(window, base)

                def on_result(
                    index: int, result: tuple[tuple[int, ...], SessionColumns]
                ) -> None:
                    task_indices, columns = result
                    aggregator.add_sessions(columns)
                    if controlled:
                        epoch_delays.extend(columns.startup_delay.tolist())
                    if telemetry is not None:
                        telemetry.record_sessions(
                            columns, [task_arrivals[i] for i in task_indices]
                        )
                    if detector is not None:
                        for delay in columns.startup_delay.tolist():
                            detector.add(delay)

                executor.map(
                    fleet_unit_task, units, payload=schedules,
                    on_result=on_result, collect=False,
                )
                # One timing row per session: a unit's wall clock is split
                # evenly over its members, keyed by fleet-global task index.
                for row in executor.last_shards:
                    members = unit_members[int(row["shard"])]  # type: ignore[call-overload]
                    share = float(row["elapsed_s"]) / len(members)  # type: ignore[arg-type]
                    for task_index in members:
                        shard_timings.append(
                            {"shard": task_index, "elapsed_s": share}
                        )
                return len(units)

            conv_state: ConvergenceState | None = None
            control_decisions: tuple[Any, ...] = ()
            control_epochs: tuple[dict, ...] = ()
            if controlled:
                (
                    used_decisions, executor_info,
                    control_decisions, control_epochs,
                ) = self._run_controlled(
                    fleet, sessions, manager, duration_of,
                    build_task=build_task, execute_window=execute_window,
                    epoch_delays=epoch_delays, tasks=tasks, executor=executor,
                    by_id=by_id,
                )
                executed = len(tasks)
            else:
                with self._span("fleet.admit", sessions=fleet.num_sessions):
                    decisions = manager.admit_all(sessions, duration_of)
                for decision in decisions:
                    build_task(decision)
                with self._span("fleet.execute", tasks=len(tasks)):
                    if detector is None:
                        units_run = execute_window(tasks, 0)
                        executed = len(tasks)
                        executor_info = dict(executor.last_run)
                    else:
                        batch = fleet.convergence.check_every
                        executed = 0
                        batches = 0
                        units_run = 0
                        while executed < len(tasks):
                            chunk = tasks[executed:executed + batch]
                            units_run += execute_window(chunk, executed)
                            executed += len(chunk)
                            batches += 1
                            conv_state = detector.state()
                            if conv_state.converged:
                                break
                        executor_info = dict(executor.last_run)
                        executor_info["batches"] = batches
                    executor_info["tasks"] = executed
                    executor_info["units"] = units_run
                    executor_info["execution"] = fleet.execution
                # On early stop, the report covers exactly the arrival
                # prefix that was executed: admission decisions for session
                # i depend only on earlier arrivals, so the prefix is
                # self-consistent.
                if executed < len(tasks):
                    cutoff = tasks[executed - 1][0] if executed else -1
                    used_decisions = [
                        d for d in decisions if d.session_id <= cutoff
                    ]
                else:
                    used_decisions = list(decisions)
            shard_timings.sort(key=lambda row: row["shard"])
            for decision in used_decisions:
                aggregator.add_decision(decision)
                if telemetry is not None:
                    telemetry.record_decision(
                        decision, by_id[decision.session_id].arrival_slot
                    )

            with self._span("fleet.aggregate", sessions=executed):
                report = aggregator.report(
                    cache_hits=self.cache_hits,
                    cache_misses=self.cache_misses,
                )
            registry.gauge(FLEET_CACHE_HIT_RATE).set(report.cache_hit_rate)
        return FleetRunResult(
            report=report,
            decisions=tuple(used_decisions),
            sessions=sessions,
            executor_info=executor_info,
            shard_timings=tuple(shard_timings),
            telemetry=telemetry,
            convergence=conv_state,
            control_decisions=control_decisions,
            control_epochs=control_epochs,
        )

    def _run_controlled(
        self,
        fleet: FleetSpec,
        sessions: tuple[ResolvedSession, ...],
        manager: SessionManager,
        duration_of: Callable[[ResolvedSession], int],
        *,
        build_task: Callable[[AdmissionDecision], None],
        execute_window: Callable[[list[tuple[Any, ...]], int], int],
        epoch_delays: list[int],
        tasks: list,
        executor: SweepExecutor,
        by_id: dict[int, ResolvedSession],
    ) -> tuple[
        list[AdmissionDecision], dict[str, Any],
        tuple[Any, ...], tuple[dict[str, Any], ...],
    ]:
        """The control plane's decide→act→observe epoch loop.

        Arrivals are admitted in epochs of ``controller.epoch_sessions``.
        At the top of each epoch the :class:`~repro.control.ControlPlane`
        reads the *previous* epoch's p99 startup delay and admission
        tallies plus the upcoming chunk's mix and churn, decides, and its
        knobs (admission policy, queue bound, per-kind degree overrides)
        are applied before the chunk is admitted and executed — so every
        decision is observed one epoch later.  Runs inside the caller's
        ``use_registry`` scope.

        Returns ``(decisions_in_arrival_order, executor_info,
        control_decisions, control_epoch_rows)``.
        """
        from repro.control.controllers import ControlPlane, EpochObservation

        spans = (
            self.telemetry.spans if self.telemetry is not None else None
        )
        plane = ControlPlane(
            fleet.controller,
            initial_policy=fleet.policy,
            max_queue_slots=fleet.max_queue_slots,
            min_degree=fleet.min_degree,
            cache=self.cache,
            seed=fleet.seed,
            spans=spans,
            tracer=self.tracer,
        )
        kinds = {s.label: s for s in fleet.sessions}
        epoch_size = fleet.controller.epoch_sessions
        manager.start()
        made_all: list[AdmissionDecision] = []
        epoch_rows: list[dict] = []
        seen_delays: Counter[int] = Counter()
        prev_delays: list[int] = []
        prev_made: list[AdmissionDecision] = []
        executor_info: dict | None = None
        units_run = 0
        epochs = 0

        def run_window(base: int) -> None:
            nonlocal units_run, executor_info
            epoch_delays.clear()
            ran = execute_window(tasks[base:], base)
            units_run += ran
            if ran:
                executor_info = dict(executor.last_run)

        def tally(made: list[AdmissionDecision]) -> dict[str, int]:
            counts = Counter(d.status for d in made)
            return {
                "admitted": counts["admitted"],
                "degraded": counts["degraded"],
                "rejected": counts["rejected"],
            }

        with self._span("fleet.execute", tasks=len(sessions)):
            for lo in range(0, len(sessions), epoch_size):
                chunk = list(sessions[lo:lo + epoch_size])
                p99 = (
                    float(pooled_percentile(Counter(prev_delays), 99))
                    if prev_delays else None
                )
                cumulative = (
                    float(pooled_percentile(seen_delays, 99))
                    if seen_delays else None
                )
                prev = tally(prev_made)
                mix = Counter(s.spec.label for s in chunk)
                obs = EpochObservation(
                    epoch=epochs,
                    p99=p99,
                    cumulative_p99=cumulative,
                    admitted=prev["admitted"],
                    degraded=prev["degraded"],
                    rejected=prev["rejected"],
                    arrivals=len(chunk),
                    joins=len(chunk),
                    leaves=sum(
                        1 for s in chunk if s.leave_fraction is not None
                    ),
                    mix=tuple(sorted(mix.items())),
                )
                stepped = plane.step(obs, kinds)
                manager.policy = plane.admission_policy
                manager.max_queue_slots = plane.max_queue_slots
                overrides = plane.degree_overrides
                if overrides:
                    chunk = [
                        replace(s, spec=s.spec.with_degree(
                            overrides[s.spec.label]
                        ))
                        if overrides.get(s.spec.label, s.spec.degree)
                        != s.spec.degree
                        else s
                        for s in chunk
                    ]
                    for session in chunk:
                        by_id[session.session_id] = session
                made = manager.admit_chunk(chunk, duration_of)
                base = len(tasks)
                for decision in made:
                    build_task(decision)
                run_window(base)
                prev_delays = list(epoch_delays)
                seen_delays.update(epoch_delays)
                made_all.extend(made)
                prev_made = made
                epoch_rows.append({
                    "epoch": epochs,
                    "arrivals": len(chunk),
                    "observed_p99": p99,
                    "policy": manager.policy,
                    "max_queue_slots": manager.max_queue_slots,
                    **tally(made),
                    "queued": manager.queued_count,
                    "decisions": len(stepped),
                })
                epochs += 1
            # All arrivals seen: drain the queue on departures alone and
            # execute the stragglers as one final window.
            made = manager.finalize(duration_of)
            base = len(tasks)
            for decision in made:
                build_task(decision)
            run_window(base)
            made_all.extend(made)
            if made:
                epoch_rows.append({
                    "epoch": epochs,
                    "arrivals": 0,
                    "observed_p99": None,
                    "policy": manager.policy,
                    "max_queue_slots": manager.max_queue_slots,
                    **tally(made),
                    "queued": 0,
                    "decisions": 0,
                })
        if executor_info is None:
            executor_info = dict(executor.last_run) or {
                "mode": "empty", "workers": 0, "fallback": False,
            }
        executor_info["tasks"] = len(tasks)
        executor_info["units"] = units_run
        executor_info["execution"] = fleet.execution
        executor_info["epochs"] = epochs
        by_session = {d.session_id: d for d in made_all}
        decisions = [by_session[s.session_id] for s in sessions]
        return (
            decisions, executor_info,
            tuple(plane.decisions), tuple(epoch_rows),
        )
