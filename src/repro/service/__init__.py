"""repro.service — the fleet service layer: many sessions, one infrastructure.

The paper (and every subsystem below this one) models a *single* streaming
session: one source, one receiver population, one schedule.  The service
layer is where the ROADMAP's production framing starts — thousands of
concurrent sessions sharing source fan-out and backbone capacity:

* :mod:`repro.service.spec` — the scenario model (:class:`SessionSpec` kinds,
  :class:`FleetSpec` mixes, :class:`CapacityModel` budgets, deterministic
  :meth:`FleetSpec.resolve` expansion);
* :mod:`repro.service.admission` — :class:`SessionManager` with
  reject/queue/degrade policies against the capacity model;
* :mod:`repro.service.runner` — :class:`FleetRunner`, sharding sessions
  across the ``exec`` process pool while amortizing schedule compilation
  through the shared :class:`~repro.exec.cache.ScheduleCache`;
* :mod:`repro.service.slo` — per-session and fleet SLOs
  (:class:`SessionSLO`, the columnar batch record :class:`SessionColumns`,
  :class:`FleetSLOReport` with exact pooled percentiles, and the streaming
  :class:`FleetAggregator` whose sketch mode bounds memory at fleet scale).

Fleet-scale telemetry (``docs/TELEMETRY.md``): :mod:`repro.service.telemetry`'s
:class:`FleetTelemetry` records windowed time series and pipeline spans;
``FleetSpec(aggregation="sketch")`` streams aggregation through quantile
sketches; ``FleetSpec(run_until_converged=True)`` stops once the p99 SLO
estimate's confidence interval is tight (open-loop steady-state mode).

Entry points: ``repro.run(ExperimentSpec(kind="fleet", fleet=...))`` or the
``repro fleet`` CLI subcommand.
"""

from repro.service.admission import AdmissionDecision, SessionManager
from repro.service.runner import FleetRunner, FleetRunResult
from repro.service.slo import (
    FleetAggregator,
    FleetSLOReport,
    SessionColumns,
    SessionSLO,
    aggregate_fleet,
    pooled_percentile,
    score_batch_sessions,
    score_session,
    score_session_columns,
)
from repro.service.spec import (
    ADMISSION_POLICIES,
    ARRIVAL_PROCESSES,
    CapacityModel,
    FleetSpec,
    ResolvedSession,
    SessionSpec,
)
from repro.service.telemetry import FleetTelemetry

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_PROCESSES",
    "AdmissionDecision",
    "CapacityModel",
    "FleetAggregator",
    "FleetRunResult",
    "FleetRunner",
    "FleetSLOReport",
    "FleetSpec",
    "FleetTelemetry",
    "ResolvedSession",
    "SessionColumns",
    "SessionManager",
    "SessionSLO",
    "SessionSpec",
    "aggregate_fleet",
    "pooled_percentile",
    "score_batch_sessions",
    "score_session",
    "score_session_columns",
]
