"""The telemetry bundle a :class:`~repro.service.runner.FleetRunner` records
into (``docs/TELEMETRY.md``)."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.obs.names import (
    FLEET_GOODPUT,
    FLEET_QUEUE_WAIT,
    FLEET_REBUFFER_RATIO,
    FLEET_SESSIONS_COMPLETED,
    FLEET_STARTUP_DELAY,
)
from repro.obs.sketch import DEFAULT_RELATIVE_ERROR
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import TimeSeries
from repro.service.admission import AdmissionDecision
from repro.service.slo import SessionColumns, SessionSLO

__all__ = ["FleetTelemetry"]


class FleetTelemetry:
    """Optional fleet-run telemetry bundle: time series windowed by arrival
    slot + pipeline spans.

    Args:
        window: tumbling-window width (arrival slots) of the time series.
        relative_error: per-window sketch error bound.
        trace: record pipeline spans (compile/admit/execute/aggregate and
            per-unit worker spans) under one trace id.
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

    def record_sessions(self, columns: SessionColumns, arrival_slots: Sequence[int]) -> None:
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
