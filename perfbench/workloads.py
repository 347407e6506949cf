"""The benchmark's four workloads and the output checks that judge them.

Every workload is a closed-loop batch job: one run hands the program a
generated scenario, waits for the whole result, and only then starts the
next run.  Inputs depend only on the workload seed and a size ``scale``
(1.0 is the benchmarked size; the benchmark's own tests use tiny scales).

A :class:`Workload` has three phases:

* :meth:`Workload.prepare` is the set-up the ``setup_s`` metric times: a
  cold compile plus lowering of every schedule the workload uses, into the
  :class:`~repro.exec.cache.ScheduleCache` the timed runs then share;
* :meth:`Workload.execute` is one timed run, the only code inside the
  timed region;
* :meth:`Workload.check` compares a sample of a run's sessions against the
  scalar oracle and the paper's Table 1 bounds, outside the timed region.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro
from repro.abr import AbrSessionSpec, build_profile, collect_qoe, run_session
from repro.control import control_record, decisions_from_record
from repro.control.scenario import ramp_fleet
from repro.exec import ExecutorPolicy, ScheduleCache, default_cache
from repro.exec.batch import replay_batch
from repro.exec.compiler import compile_schedule
from repro.core.metrics import collect_repair_metrics
from repro.exec.replay import bernoulli_mask, replay_arrivals
from repro.service import CapacityModel, FleetRunner, FleetSpec, SessionSpec
from repro.service.slo import FleetAggregator, SessionSLO, score_session
from repro.theory.bounds import hypercube_arbitrary_claims, multi_tree_claims

#: The process pool is left out on purpose: on a small shared host a
#: parallel run would measure the scheduler rather than the program.
SERIAL = ExecutorPolicy(mode="serial")

#: Sessions (sweep: grid points) whose output is compared with the oracle.
CHECK_SAMPLE = 48

#: Loss profile of the eight ``bench_fleet_scale.py`` configurations in
#: ``fleet-mixed``: three of eight are loss-free, so mask draws are skipped
#: for part of the fleet.
_MIXED_KINDS = (
    ("multi-tree", 31, 2, 0.0),
    ("multi-tree", 31, 3, 0.01),
    ("multi-tree", 63, 2, 0.02),
    ("multi-tree", 63, 3, 0.0),
    ("hypercube", 32, 3, 0.01),
    ("hypercube", 64, 3, 0.0),
    ("single-tree", 31, 3, 0.02),
    ("chain", 16, 1, 0.01),
)


def p99(values: list[int]) -> int:
    """Nearest-rank 99th percentile, as the program's SLO reports use."""
    ordered = sorted(values)
    rank = max(1, -(-99 * len(ordered) // 100))
    return ordered[rank - 1]


@dataclass
class CheckReport:
    """Outcome of one output check pass.

    Attributes:
        checked: sessions (sweep: grid points) compared with an oracle.
        failed: ids of the sessions that failed a check.
        notes: one line per failure, for the run log.
    """

    checked: int = 0
    failed: set[int] = field(default_factory=set)
    notes: list[str] = field(default_factory=list)

    def fail(self, session: int, note: str) -> None:
        self.failed.add(session)
        if len(self.notes) < 20:
            self.notes.append(note)


class Workload:
    """One benchmark workload; subclasses fill in the program calls."""

    name: str
    #: Sessions offered per run (sweep: grid points): the denominator of
    #: every per-session figure, so refusing work cannot look faster.
    offered: int

    def prepare(self) -> None:
        """Cold-compile and lower every schedule the workload uses."""
        raise NotImplementedError

    def execute(self) -> Any:
        """One timed run; returns the program's result."""
        raise NotImplementedError

    def simulated(self, result: Any) -> dict[str, float]:
        """The three simulated end-to-end figures of one run."""
        raise NotImplementedError

    def fingerprint(self, result: Any) -> Any:
        """A value that must be identical for every run of one workload."""
        raise NotImplementedError

    def check(self, result: Any, folded: list[SessionSLO], seed: int) -> CheckReport:
        """Compare a seeded sample of the run's output with the oracles."""
        raise NotImplementedError


def _lower(schedule: Any, num_packets: int) -> None:
    """Lower a compiled schedule into the kernel's index space.

    The lowered view is cached on the schedule object, so one single-session
    kernel call is enough to move the one-off lowering cost into set-up.
    """
    replay_batch(schedule, (0,), 0.0, num_packets=num_packets)


# ------------------------------------------------------------------ fleets
class FleetWorkload(Workload):
    """A :class:`~repro.service.FleetRunner` run of one generated fleet."""

    def __init__(self, name: str, fleet: FleetSpec) -> None:
        self.name = name
        self.fleet = fleet
        self.offered = fleet.num_sessions
        self.cache = ScheduleCache(capacity=64)

    def _degrees(self, kind: SessionSpec) -> list[int]:
        """Every degree a session of ``kind`` may run at in this fleet."""
        degrees = {kind.degree}
        if self.fleet.policy == "degrade" or self.fleet.controller is not None:
            degrees.update(range(self.fleet.min_degree, kind.degree))
        return sorted(degrees)

    def prepare(self) -> None:
        for kind in self.fleet.sessions:
            for degree in self._degrees(kind):
                _lower(self._schedule(kind, degree), kind.num_packets)

    def _schedule(self, kind: SessionSpec, degree: int) -> Any:
        return compile_schedule(
            kind.scheme, kind.num_nodes, degree,
            num_packets=kind.num_packets, construction=kind.construction,
            mode=kind.mode, latency=kind.latency, cache=self.cache,
        )

    def execute(self) -> Any:
        return FleetRunner(cache=self.cache, policy=SERIAL).run(self.fleet)

    def simulated(self, result: Any) -> dict[str, float]:
        report = result.report
        return {
            "executed_share": (report.admitted + report.degraded) / self.offered,
            "startup_p99_slots": float(report.startup_p99),
            "buffer_p99_pkts": float(report.buffer_p99),
        }

    def fingerprint(self, result: Any) -> Any:
        decisions = tuple(
            (d.status, d.wait_slots, d.degree, d.duration) for d in result.decisions
        )
        return result.report.row(), decisions, tuple(result.control_decisions)

    def check(self, result: Any, folded: list[SessionSLO], seed: int) -> CheckReport:
        out = CheckReport()
        report = result.report
        decisions = {d.session_id: d for d in result.decisions}
        if (
            report.admitted + report.degraded + report.rejected != self.offered
            or len(decisions) != self.offered
        ):
            out.notes.append(
                f"admission lost sessions: {report.admitted} admitted + "
                f"{report.degraded} degraded + {report.rejected} rejected "
                f"!= {self.offered} offered"
            )
            out.failed.update(range(self.offered))
        executed = {d for d, dec in decisions.items() if dec.admitted}
        seen = {slo.session_id for slo in folded}
        if seen != executed or len(folded) != len(executed):
            out.fail(-1, "folded sessions differ from the admitted sessions")
        if folded:
            rng = np.random.default_rng(seed)
            picks = rng.choice(len(folded), size=min(CHECK_SAMPLE, len(folded)),
                               replace=False)
            for index in sorted(int(i) for i in picks):
                slo = folded[index]
                out.checked += 1
                self._check_session(result, decisions[slo.session_id], slo, out)
        return out

    def _check_session(self, result: Any, decision: Any, slo: SessionSLO,
                       out: CheckReport) -> None:
        """One session against the scalar oracle and the Table 1 bounds."""
        session = result.sessions[slo.session_id]
        kind = session.spec
        schedule = self._schedule(kind, decision.degree)
        horizon = decision.duration
        num_packets = kind.num_packets
        if horizon < schedule.num_slots:
            num_packets = max(1, int(num_packets * horizon / schedule.num_slots))
        mask = bernoulli_mask(schedule, kind.drop_rate, session.seed)
        arrivals = replay_arrivals(schedule, num_slots=horizon, drop_mask=mask)
        expected = score_session(
            arrivals, session_id=slo.session_id, label=slo.label,
            num_packets=num_packets, num_slots=horizon,
            wait_slots=decision.wait_slots, status=decision.status,
        )
        if kind.abr_profile is not None:
            abr = AbrSessionSpec(num_chunks=num_packets)
            trace = build_profile(
                kind.abr_profile, max(64, num_packets * abr.chunk_slots),
                seed=session.seed,
            )
            expected = dataclasses.replace(
                expected, qoe=collect_qoe(run_session(abr, trace)).to_dict()
            )
        if expected != slo:
            out.fail(slo.session_id, f"session {slo.session_id}: batch SLO != oracle")
            return
        if kind.drop_rate > 0 or session.leave_fraction is not None:
            return
        if kind.scheme == "multi-tree":
            claims = multi_tree_claims(kind.num_nodes, decision.degree)
        elif kind.scheme == "hypercube":
            claims = hypercube_arbitrary_claims(kind.num_nodes, decision.degree)
        else:
            return
        delay = slo.startup_delay - slo.wait_slots
        buffer = max(value for value, _ in slo.buffer_counts)
        if delay > claims.max_delay_value or buffer > claims.buffer_value:
            out.fail(
                slo.session_id,
                f"session {slo.session_id}: delay {delay} / buffer {buffer} "
                f"beyond Table 1 ({claims.max_delay_value} / {claims.buffer_value})",
            )


class ControlWorkload(FleetWorkload):
    """The control plane's load ramp; adds the decision-log replay check."""

    def check(self, result: Any, folded: list[SessionSLO], seed: int) -> CheckReport:
        out = super().check(result, folded, seed)
        decisions = list(result.control_decisions)
        replayed = decisions_from_record(
            control_record(decisions, epochs=result.control_epochs)
        )
        if replayed != decisions:
            out.fail(-2, "control decisions do not survive the ledger round trip")
        return out


# ------------------------------------------------------------------- sweep
class SweepWorkload(Workload):
    """``repro.run`` sweeps: the figure-reproduction path."""

    def __init__(self, name: str, specs: tuple[Any, ...]) -> None:
        self.name = name
        self.specs = specs
        self.offered = sum(len(spec.grid()) for spec in specs)

    def _schedule(self, spec: Any) -> Any:
        return compile_schedule(
            spec.scheme, spec.num_nodes, spec.degree,
            num_packets=spec.num_packets, construction=spec.construction,
            mode=spec.mode, latency=spec.latency, cache=default_cache(),
        )

    def prepare(self) -> None:
        # ``repro.run`` sweeps compile through the process-wide cache.
        for spec in self.specs:
            _lower(self._schedule(spec), spec.num_packets)

    def execute(self) -> Any:
        return [repro.run(spec, ledger=None) for spec in self.specs]

    def _rows(self, result: Any) -> list[dict[str, Any]]:
        return [row for run in result for row in run.rows]

    def simulated(self, result: Any) -> dict[str, float]:
        rows = self._rows(result)
        return {
            "executed_share": len(rows) / self.offered,
            "startup_p99_slots": float(p99([row["max_delay"] for row in rows])),
            "buffer_p99_pkts": float(p99([row["max_buffer"] for row in rows])),
        }

    def fingerprint(self, result: Any) -> Any:
        return [tuple(sorted(row.items())) for row in self._rows(result)]

    def check(self, result: Any, folded: list[SessionSLO], seed: int) -> CheckReport:
        out = CheckReport()
        rng = np.random.default_rng(seed)
        point = 0
        for spec, run in zip(self.specs, result):
            grid = spec.grid()
            if len(run.rows) != len(grid):
                out.fail(point, f"{spec.scheme}: {len(run.rows)} rows for "
                                f"{len(grid)} grid points")
                out.failed.update(range(point, point + len(grid)))
                point += len(grid)
                continue
            schedule = self._schedule(spec)
            share = max(1, CHECK_SAMPLE // len(self.specs))
            picks = rng.choice(len(grid), size=min(share, len(grid)), replace=False)
            for index in sorted(int(i) for i in picks):
                out.checked += 1
                row = run.rows[index]
                seed_i, rate, packets = grid[index]
                # The scalar replay, not replay_point: that is a batch-of-1
                # call of the kernel under test.
                arrivals = replay_arrivals(
                    schedule, drop_mask=bernoulli_mask(schedule, rate, seed_i),
                )
                expected = {"seed": seed_i, "drop_rate": rate}
                expected.update(collect_repair_metrics(
                    arrivals, num_packets=packets, num_slots=schedule.num_slots,
                ).row())
                if row != expected:
                    out.fail(point + index,
                             f"{spec.scheme} point {index}: row != scalar replay")
                    continue
                if rate > 0:
                    continue
                claims = (
                    multi_tree_claims(spec.num_nodes, spec.degree)
                    if spec.scheme == "multi-tree"
                    else hypercube_arbitrary_claims(spec.num_nodes, spec.degree)
                )
                if (row["max_delay"] > claims.max_delay_value
                        or row["max_buffer"] > claims.buffer_value):
                    out.fail(point + index,
                             f"{spec.scheme} point {index}: beyond Table 1")
            point += len(grid)
        return out


# ------------------------------------------------------------- definitions
def _fleet_homogeneous(seed: int, scale: float) -> Workload:
    kind = SessionSpec(scheme="multi-tree", num_nodes=31, degree=2,
                       num_packets=8, drop_rate=0.01)
    return FleetWorkload("fleet-homogeneous", FleetSpec(
        sessions=(kind,),
        num_sessions=max(8, round(6144 * scale)),
        arrival_rate=16.0,
        seed=seed,
        capacity=CapacityModel(source_fanout=1e9, backbone=1e9),
        aggregation="sketch",
    ))


def _sweep_large_n(seed: int, scale: float) -> Workload:
    # 16 seeds keep each kernel call's batch small: the per-session working
    # set stays large (N=1023), but a 48-seed batch made the timing track the
    # host's memory-bandwidth contention rather than the program.
    rng = np.random.default_rng(seed)
    seeds = tuple(int(s) for s in rng.integers(0, 2**31 - 1,
                                                size=max(2, round(16 * scale))))
    common = dict(kind="sweep", num_packets=16, seeds=seeds,
                  drop_rates=(0.0, 0.01, 0.05), executor=SERIAL)
    return SweepWorkload("sweep-large-n", (
        repro.ExperimentSpec(scheme="multi-tree", num_nodes=1023, degree=2, **common),
        repro.ExperimentSpec(scheme="hypercube", num_nodes=1024, degree=3, **common),
    ))


def _fleet_mixed(seed: int, scale: float) -> Workload:
    kinds = tuple(
        SessionSpec(scheme=scheme, num_nodes=n, degree=d, num_packets=8,
                    drop_rate=rate)
        for scheme, n, d, rate in _MIXED_KINDS
    ) + (
        SessionSpec(scheme="multi-tree", num_nodes=31, degree=3, num_packets=8,
                    abr_profile="onoff", weight=0.05),
    )
    return FleetWorkload("fleet-mixed", FleetSpec(
        sessions=kinds,
        num_sessions=max(16, round(4096 * scale)),
        arrival_rate=16.0,
        seed=seed,
        # Binds at 16 arrivals/slot: about 1% degraded and 12% rejected.
        capacity=CapacityModel(source_fanout=900.0, backbone=1e9),
        policy="degrade",
        churn_rate=0.1,
        aggregation="sketch",
    ))


def _control_ramp(seed: int, scale: float) -> Workload:
    # The simulated result depends on the ramp's scale (offered p99 17 at
    # scale 1, 21 at scale 10), so the scale is pinned here.
    return ControlWorkload("control-ramp", ramp_fleet(
        "adaptive", scale=10.0 * scale, seed=seed,
    ))


FACTORIES: dict[str, Callable[[int, float], Workload]] = {
    "fleet-homogeneous": _fleet_homogeneous,
    "sweep-large-n": _sweep_large_n,
    "fleet-mixed": _fleet_mixed,
    "control-ramp": _control_ramp,
}

#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = tuple(FACTORIES)


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The named workload's generated inputs for ``seed``."""
    return FACTORIES[name](seed, scale)


class FoldCapture:
    """Collect every session SLO the run folds into its aggregator.

    Sketch aggregation keeps no per-session results, so the check run
    records what :meth:`FleetAggregator.add_sessions` receives.
    """

    def __init__(self) -> None:
        self.slos: list[SessionSLO] = []
        self._original = FleetAggregator.add_sessions

    def __enter__(self) -> "FoldCapture":
        original = self._original
        sink = self.slos

        def add_sessions(aggregator: FleetAggregator, slos: Any) -> None:
            sink.extend(slos)
            original(aggregator, slos)

        FleetAggregator.add_sessions = add_sessions  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: object) -> None:
        FleetAggregator.add_sessions = self._original  # type: ignore[method-assign]
