"""Fleet-scale acceptance: 100k batched sessions, amortized compiles.

The v2.0 headline is the vectorized batch-replay kernel: the fleet groups
admitted sessions by compiled-schedule identity and scores each group with
one :func:`~repro.exec.batch.replay_batch` call instead of one Python
replay per session.  ``test_batched_kernel_at_100k_sessions`` runs a
100,000-session fleet through the batched path in bounded memory (sketch
aggregation, no per-session SLO list) and requires the batched kernel to be
at least **5x** faster per session than the pure-Python oracle —
``bernoulli_mask`` + ``replay_arrivals`` + ``score_session``, one session
at a time — timed directly over the admitted sessions of a 10k-session
fleet of the same workload in the same serial process.  Both timings land
in ``results/fleet_scale.json``.

The older amortization claim still holds and stays pinned: the shared
content-addressed schedule cache turns 1000 session admissions into 8
compiles plus 1000 engine-free replays.  ``test_fleet_scale_amortizes_compiles``
runs one 1000-session fleet over 8 distinct ``(scheme, N, d)``
configurations and compares its wall-clock against 8 isolated single-kind
runs covering the same sessions with private caches — the fleet must stay
under 2x the isolated total (it does the same replay work plus admission
control) and its schedule-cache hit rate must be at least 0.99 (8 misses
in 1000 lookups = 0.992).

Two further acceptance tests cover the telemetry layer (docs/TELEMETRY.md):

* **sketch aggregation at 10k sessions** — ``aggregation="sketch"`` streams
  every SLO into mergeable quantile sketches (no per-session list is ever
  materialized: ``report.sessions == ()``), and the sketch percentiles must
  agree with exact pooled aggregation within the documented
  ``relative_error`` bound;
* **run-until-converged** — with ``run_until_converged=True`` the runner
  executes sessions in batches and must stop well before the full scenario
  once the p99 startup-delay CI is tight.
"""

from __future__ import annotations

from conftest import report

from repro.exec.compiler import compile_schedule
from repro.exec.executor import ExecutorPolicy
from repro.exec.replay import bernoulli_mask, replay_arrivals
from repro.obs import Timer
from repro.obs.convergence import ConvergenceCriterion
from repro.service import (
    CapacityModel,
    FleetRunner,
    FleetRunResult,
    FleetSpec,
    SessionSpec,
    score_session,
)

NUM_SESSIONS = 1000
NUM_PACKETS = 8
MAX_RATIO = 2.0
MIN_HIT_RATE = 0.99

CONFIGS = (
    SessionSpec(scheme="multi-tree", num_nodes=31, degree=2, num_packets=NUM_PACKETS),
    SessionSpec(scheme="multi-tree", num_nodes=31, degree=3, num_packets=NUM_PACKETS),
    SessionSpec(scheme="multi-tree", num_nodes=63, degree=2, num_packets=NUM_PACKETS),
    SessionSpec(scheme="multi-tree", num_nodes=63, degree=3, num_packets=NUM_PACKETS),
    SessionSpec(scheme="hypercube", num_nodes=32, degree=3, num_packets=NUM_PACKETS),
    SessionSpec(scheme="hypercube", num_nodes=64, degree=3, num_packets=NUM_PACKETS),
    SessionSpec(scheme="single-tree", num_nodes=31, degree=3, num_packets=NUM_PACKETS),
    SessionSpec(scheme="chain", num_nodes=16, degree=1, num_packets=NUM_PACKETS),
)

CAPACITY = CapacityModel(source_fanout=1e9, backbone=1e9)
SERIAL = ExecutorPolicy(mode="serial")


BATCH_SESSIONS = 100_000
ORACLE_SESSIONS = 10_000
MIN_SPEEDUP = 5.0


def _oracle_replay(result: FleetRunResult, runner: FleetRunner) -> tuple[int, float]:
    """Replay and score a run's admitted sessions with the pure-Python oracle.

    Each session draws its mask with ``bernoulli_mask``, replays with
    ``replay_arrivals`` and scores with ``score_session`` — the per-session
    path the batch kernel replaces.  Schedules come from the run's cache
    before the clock starts.  Returns ``(sessions, seconds)``.
    """
    schedules = {}
    work = []
    for decision in result.decisions:
        if not decision.admitted:
            continue
        session = result.sessions[decision.session_id]
        kind = session.spec
        key = (kind.label, decision.degree)
        if key not in schedules:
            schedules[key] = compile_schedule(
                kind.scheme, kind.num_nodes, decision.degree,
                num_packets=kind.num_packets, construction=kind.construction,
                mode=kind.mode, latency=kind.latency, cache=runner.cache,
            )
        work.append((schedules[key], session, decision))
    with Timer() as timer:
        for schedule, session, decision in work:
            horizon = decision.duration
            num_packets = session.spec.num_packets
            if horizon < schedule.num_slots:
                num_packets = max(1, int(num_packets * horizon / schedule.num_slots))
            mask = bernoulli_mask(schedule, session.spec.drop_rate, session.seed)
            arrivals = replay_arrivals(schedule, num_slots=horizon, drop_mask=mask)
            score_session(
                arrivals, session_id=session.session_id, label=session.spec.label,
                num_packets=num_packets, num_slots=horizon,
                wait_slots=decision.wait_slots, status=decision.status,
            )
    return len(work), timer.elapsed


def test_batched_kernel_at_100k_sessions():
    """100k sessions through the batched kernel, >= 5x the per-session oracle."""

    def fleet_spec(num_sessions: int) -> FleetSpec:
        return FleetSpec(
            sessions=CONFIGS,
            num_sessions=num_sessions,
            capacity=CAPACITY,
            arrival_rate=16.0,
            seed=21,
            aggregation="sketch",
            sketch_error=0.01,
        )

    with Timer() as batch_timer:
        batched = FleetRunner(policy=SERIAL).run(fleet_spec(BATCH_SESSIONS))
    # The oracle comparator replays the admitted sessions of a 10k fleet of
    # the same workload; the subset keeps the bench bounded and per-session
    # rates comparable (every session replays one of the same 8 compiled
    # schedules).
    runner = FleetRunner(policy=SERIAL)
    oracle_sessions, oracle_replay = _oracle_replay(
        runner.run(fleet_spec(ORACLE_SESSIONS)), runner
    )

    batch_rate = batch_timer.elapsed / BATCH_SESSIONS
    # The 5x floor is on the replay kernel itself: shard timings cover
    # exactly the batched replay+scoring work, so their sum isolates the
    # kernel from admission control, which the oracle timing leaves out too.
    batch_replay = sum(row["elapsed_s"] for row in batched.shard_timings)
    batch_replay_rate = batch_replay / BATCH_SESSIONS
    oracle_replay_rate = oracle_replay / oracle_sessions
    speedup = oracle_replay_rate / batch_replay_rate

    report_100k = batched.report
    assert report_100k.num_sessions == BATCH_SESSIONS
    assert report_100k.rejected == 0, "capacity was sized to admit everything"
    # Bounded memory: sketch aggregation never materializes the SLO list.
    assert report_100k.sessions == ()
    assert batched.executor_info["units"] < batched.executor_info["tasks"], (
        "batch grouping should collapse many sessions into few kernel calls"
    )
    assert oracle_sessions == ORACLE_SESSIONS, "capacity was sized to admit everything"
    assert speedup >= MIN_SPEEDUP, (
        f"batched kernel {speedup:.1f}x the oracle (floor {MIN_SPEEDUP:.0f}x): "
        f"{batch_replay_rate * 1e6:.0f}us vs "
        f"{oracle_replay_rate * 1e6:.0f}us per session replayed"
    )

    lines = [
        f"batched fleet kernel ({BATCH_SESSIONS} sessions, "
        f"{len(CONFIGS)} configs, P={NUM_PACKETS}, sketch aggregation):",
        "",
        f"  batched fleet run:           {batch_timer.elapsed:7.3f}s "
        f"wall for {BATCH_SESSIONS} sessions "
        f"({batch_rate * 1e6:6.0f}us/session, "
        f"{batched.executor_info['units']} kernel calls, "
        f"replay {batch_replay_rate * 1e6:.0f}us/session)",
        f"  oracle (mask+replay+score):  {oracle_replay:7.3f}s "
        f"for {oracle_sessions} admitted sessions "
        f"(replay {oracle_replay_rate * 1e6:.0f}us/session)",
        f"  replay-kernel speedup: {speedup:.1f}x "
        f"(acceptance floor {MIN_SPEEDUP:.0f}x)",
        "",
        f"  fleet SLOs at 100k: startup_p50={report_100k.startup_p50} "
        f"startup_p99={report_100k.startup_p99} "
        f"delay_p99={report_100k.delay_p99} "
        f"buffer_p99={report_100k.buffer_p99} "
        f"goodput={report_100k.goodput_mean:.3f}",
    ]
    report(
        "fleet_scale",
        "\n".join(lines),
        elapsed=batch_timer.elapsed,
        phases={
            "sessions": BATCH_SESSIONS,
            "batch_s": round(batch_timer.elapsed, 6),
            "oracle_sessions": oracle_sessions,
            "oracle_replay_s": round(oracle_replay, 6),
            "batch_us_per_session": round(batch_rate * 1e6, 2),
            "batch_replay_us_per_session": round(batch_replay_rate * 1e6, 2),
            "oracle_replay_us_per_session": round(oracle_replay_rate * 1e6, 2),
            "speedup": round(speedup, 2),
            "kernel_calls": batched.executor_info["units"],
        },
    )


def test_fleet_scale_amortizes_compiles():
    fleet = FleetSpec(
        sessions=CONFIGS,
        num_sessions=NUM_SESSIONS,
        capacity=CAPACITY,
        arrival_rate=8.0,
        seed=42,
    )
    with Timer() as fleet_timer:
        result = FleetRunner(policy=SERIAL).run(fleet)
    fleet_report = result.report

    per_config = NUM_SESSIONS // len(CONFIGS)
    isolated_total = 0.0
    isolated_admitted = 0
    for i, kind in enumerate(CONFIGS):
        single = FleetSpec(
            sessions=(kind,),
            num_sessions=per_config,
            capacity=CAPACITY,
            arrival_rate=8.0,
            seed=100 + i,
        )
        with Timer() as timer:
            isolated = FleetRunner(policy=SERIAL).run(single)
        isolated_total += timer.elapsed
        isolated_admitted += isolated.report.admitted + isolated.report.degraded

    ratio = fleet_timer.elapsed / isolated_total

    assert fleet_report.num_sessions == NUM_SESSIONS
    assert fleet_report.rejected == 0, "capacity was sized to admit everything"
    assert isolated_admitted == NUM_SESSIONS
    assert fleet_report.cache_misses == len(CONFIGS)
    assert fleet_report.cache_hit_rate >= MIN_HIT_RATE, (
        f"hit rate {fleet_report.cache_hit_rate:.4f} below {MIN_HIT_RATE}"
    )
    assert ratio < MAX_RATIO, (
        f"fleet took {ratio:.2f}x the isolated runs (ceiling {MAX_RATIO}x)"
    )

    lines = [
        f"fleet scale ({NUM_SESSIONS} sessions, {len(CONFIGS)} configs, "
        f"P={NUM_PACKETS}, serial executor):",
        "",
        f"  one fleet run:               {fleet_timer.elapsed:7.3f}s "
        f"({fleet_report.cache_misses} compiles, "
        f"hit rate {fleet_report.cache_hit_rate:.3f})",
        f"  8 isolated per-config runs:  {isolated_total:7.3f}s "
        f"({len(CONFIGS)} compiles, private caches)",
        f"  ratio: {ratio:.2f}x (acceptance ceiling {MAX_RATIO:.0f}x)",
        "",
        f"  fleet SLOs: startup_p50={fleet_report.startup_p50} "
        f"startup_p99={fleet_report.startup_p99} "
        f"delay_p99={fleet_report.delay_p99} "
        f"buffer_p99={fleet_report.buffer_p99} "
        f"goodput={fleet_report.goodput_mean:.3f}",
    ]
    report(
        "fleet_scale_amortize",
        "\n".join(lines),
        elapsed=fleet_timer.elapsed + isolated_total,
        phases={
            "fleet_s": round(fleet_timer.elapsed, 6),
            "isolated_s": round(isolated_total, 6),
            "ratio": round(ratio, 4),
            "cache_hit_rate": round(fleet_report.cache_hit_rate, 4),
            "sessions": NUM_SESSIONS,
        },
    )


SKETCH_SESSIONS = 10_000
SKETCH_ERROR = 0.01


def test_sketch_aggregation_matches_exact_at_10k_sessions():
    """10k sessions stream through sketches; percentiles match exact."""

    def fleet_spec(aggregation: str) -> FleetSpec:
        return FleetSpec(
            sessions=CONFIGS,
            num_sessions=SKETCH_SESSIONS,
            capacity=CAPACITY,
            arrival_rate=16.0,
            seed=7,
            aggregation=aggregation,
            sketch_error=SKETCH_ERROR,
        )

    with Timer() as exact_timer:
        exact = FleetRunner(policy=SERIAL).run(fleet_spec("exact")).report
    with Timer() as sketch_timer:
        sketch = FleetRunner(policy=SERIAL).run(fleet_spec("sketch")).report

    # Bounded memory: sketch mode never materializes per-session SLOs.
    assert sketch.sessions == ()
    assert len(exact.sessions) == SKETCH_SESSIONS
    # Admission bookkeeping is aggregation-independent.
    assert sketch.num_sessions == exact.num_sessions == SKETCH_SESSIONS
    assert sketch.admitted == exact.admitted
    assert sketch.rejected == exact.rejected

    fields = ("startup_p50", "startup_p99", "delay_p50", "delay_p95",
              "delay_p99", "buffer_p99")
    drifts = {}
    for name in fields:
        exact_value = getattr(exact, name)
        sketch_value = getattr(sketch, name)
        # Documented bound: |sketch - exact| <= alpha * exact, plus 1 slot
        # for the report's integer rounding.
        tolerance = SKETCH_ERROR * exact_value + 1.0
        drift = abs(sketch_value - exact_value)
        assert drift <= tolerance, (
            f"{name}: sketch {sketch_value} vs exact {exact_value} "
            f"(drift {drift}, bound {tolerance:.2f})"
        )
        drifts[name] = drift

    lines = [
        f"sketch aggregation at {SKETCH_SESSIONS} sessions "
        f"(alpha={SKETCH_ERROR}, serial executor):",
        "",
        f"  exact pooled percentiles:  {exact_timer.elapsed:7.3f}s "
        f"({len(exact.sessions)} SLOs materialized)",
        f"  sketch streaming:          {sketch_timer.elapsed:7.3f}s "
        "(0 SLOs materialized)",
        "",
        "  field        exact  sketch  drift (bound = alpha*exact + 1)",
    ]
    for name in fields:
        lines.append(
            f"  {name:<12} {getattr(exact, name):>5} "
            f"{getattr(sketch, name):>6}  {drifts[name]:.0f}"
        )
    report(
        "fleet_sketch_10k",
        "\n".join(lines),
        elapsed=sketch_timer.elapsed,
        phases={
            "exact_s": round(exact_timer.elapsed, 6),
            "sketch_s": round(sketch_timer.elapsed, 6),
            "sessions": SKETCH_SESSIONS,
            "sketch_error": SKETCH_ERROR,
        },
    )


def test_run_until_converged_stops_early():
    """Convergence mode executes a fraction of the scenario and stops."""
    criterion = ConvergenceCriterion(
        quantile=99.0, rel_half_width=0.05, min_count=512, check_every=256
    )
    fleet = FleetSpec(
        sessions=CONFIGS,
        num_sessions=SKETCH_SESSIONS,
        capacity=CAPACITY,
        arrival_rate=16.0,
        seed=7,
        aggregation="sketch",
        sketch_error=SKETCH_ERROR,
        run_until_converged=True,
        convergence=criterion,
    )
    with Timer() as timer:
        result = FleetRunner(policy=SERIAL).run(fleet)

    state = result.convergence
    executed = result.executor_info["tasks"]
    assert state is not None and state.converged, (
        f"did not converge after {executed} sessions: {state}"
    )
    assert executed < SKETCH_SESSIONS // 2, (
        f"expected early stop, but executed {executed}/{SKETCH_SESSIONS}"
    )
    # The report covers exactly the executed arrival prefix.
    assert result.report.num_sessions == len(result.decisions)
    assert result.report.num_sessions >= executed

    lines = [
        f"run-until-converged (p99 startup delay, rel half-width "
        f"{criterion.rel_half_width}, batches of {criterion.check_every}):",
        "",
        f"  executed {executed} of {SKETCH_SESSIONS} sessions in "
        f"{result.executor_info['batches']} batches ({timer.elapsed:.3f}s)",
        f"  p99 estimate {state.estimate:.0f} in "
        f"[{state.ci_lower:.0f}, {state.ci_upper:.0f}] "
        f"(half-width {state.half_width:.2f} <= "
        f"target {state.target_half_width:.2f})",
    ]
    report(
        "fleet_converged_early_stop",
        "\n".join(lines),
        elapsed=timer.elapsed,
        phases={
            "executed": executed,
            "total": SKETCH_SESSIONS,
            "batches": result.executor_info["batches"],
        },
    )
