"""Per-session and fleet-level SLOs: what the users of the fleet experience.

The paper scores a single run by worst/average playback delay and buffer
peak; a service tracks the same quantities as *distributions over sessions*
plus the smoothness metrics the throughput-smoothness literature argues users
actually feel (rebuffer/skip behavior), and the admission metrics the
capacity literature adds (reject rate, queue wait):

* :func:`score_session` turns one session's replayed arrival traces into a
  :class:`SessionSLO` — startup delay (including any admission queue wait),
  rebuffer ratio, per-node playback-delay and buffer percentiles, goodput —
  carrying compact ``(value, count)`` distributions so fleet-level
  percentiles pool *exactly* across sessions;
* :func:`score_batch_sessions` scores a whole kernel batch at once into
  :class:`SessionColumns`: one column per :class:`SessionSLO` field plus the
  batch's ``(B, nodes)`` per-node delay and buffer matrices.  It reads like
  a ``Sequence[SessionSLO]``, but builds those objects (all at once) only
  when an item is read;
* :class:`FleetSLOReport` aggregates sessions + admission decisions into the
  fleet report (p50/p95/p99 over the pooled per-node populations, reject
  rate, schedule-cache amortization) and round-trips through
  ``reporting/export.py``; its ``sessions`` are one :class:`SessionColumns`
  ordered by session id;
* :class:`FleetAggregator` is the streaming aggregator behind
  :func:`aggregate_fleet`: admission decisions and session SLOs fold into
  mergeable :class:`~repro.obs.sketch.QuantileSketch` populations as they
  arrive.  The fold reads columns: one ``bincount`` each pools the startup
  column and the per-node matrices, and any plain ``SessionSLO`` sequence
  is first converted by :meth:`SessionColumns.from_slos` — there is one
  fold path, and no fleet builds a per-session object while it runs: an
  exact-mode aggregator keeps the folded columns and merges them into the
  report's ``sessions`` with one ``argsort``.
  ``relative_error=0`` (the :func:`aggregate_fleet` default) keeps every
  sketch in exact mode — reports are identical to the historical
  Counter-based pooling; ``relative_error>0`` bounds memory at fleet scale
  with the sketch's documented error guarantee (see ``docs/TELEMETRY.md``).
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from typing import Any, overload
from dataclasses import asdict, dataclass, fields
from operator import attrgetter, eq

import numpy as np
import numpy.typing as npt

from repro.core.errors import ReproError
from repro.exec.batch import BatchMetrics
from repro.core.metrics import summarize_lossy_playback
from repro.obs.sketch import QuantileSketch

__all__ = [
    "pooled_percentile",
    "SessionSLO",
    "SessionColumns",
    "FleetSLOReport",
    "FleetAggregator",
    "score_session",
    "score_session_columns",
    "score_batch_sessions",
    "aggregate_fleet",
]


def pooled_percentile(counts: Mapping[int, int], q: float) -> int:
    """Nearest-rank percentile of a ``value -> count`` distribution.

    Exact over the pooled population (no per-session approximation); ``q``
    is in ``[0, 100]``.
    """
    if not 0 <= q <= 100:
        raise ReproError(f"percentile must be in [0, 100], got {q}")
    total = sum(counts.values())
    if total == 0:
        raise ReproError("empty distribution has no percentiles")
    rank = max(1, -(-int(q * total) // 100))  # ceil(q/100 * total), min 1
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value
    return max(counts)  # pragma: no cover - rank <= total by construction


@dataclass(frozen=True, slots=True)
class SessionSLO:
    """What one session's viewers experienced.

    Attributes:
        session_id: fleet session index.
        label: the session kind's display label.
        status: admission status (``admitted`` / ``degraded``).
        wait_slots: admission queue wait (part of startup delay).
        startup_delay: worst per-node playback delay plus the queue wait.
        rebuffer_ratio: share of measured ``(node, packet)`` pairs that
            missed playback (skipped or stalled) — the smoothness SLO.
        delay_p50 / delay_p95 / delay_p99: per-node playback-delay
            percentiles inside the session.
        buffer_p50 / buffer_p99: per-node peak-buffer percentiles.
        goodput: available pairs per node per slot.
        num_nodes / num_packets: session population and measured prefix.
        delay_counts / buffer_counts: compact ``(value, count)`` histograms
            of the per-node delay/buffer populations (for exact fleet-level
            pooling).
        qoe: for ABR session kinds, the playback session's
            :class:`~repro.abr.qoe.QoEMetrics` as a dict (``None`` for
            non-ABR sessions).
    """

    session_id: int
    label: str
    status: str
    wait_slots: int
    startup_delay: int
    rebuffer_ratio: float
    delay_p50: int
    delay_p95: int
    delay_p99: int
    buffer_p50: int
    buffer_p99: int
    goodput: float
    num_nodes: int
    num_packets: int
    delay_counts: tuple[tuple[int, int], ...]
    buffer_counts: tuple[tuple[int, int], ...]
    qoe: dict | None = None

    def row(self) -> dict:
        """Flat dict for table/JSON rendering (drops the histograms)."""
        out = {
            "session": self.session_id,
            "label": self.label,
            "status": self.status,
            "wait": self.wait_slots,
            "startup": self.startup_delay,
            "rebuffer": round(self.rebuffer_ratio, 5),
            "delay_p50": self.delay_p50,
            "delay_p99": self.delay_p99,
            "buffer_p99": self.buffer_p99,
            "goodput": round(self.goodput, 4),
        }
        if self.qoe is not None:
            out["qoe_tier"] = self.qoe["tier"]
        return out


def score_session(
    arrivals_by_node: Mapping[int, Mapping[int, int]],
    *,
    session_id: int,
    label: str,
    num_packets: int,
    num_slots: int,
    wait_slots: int = 0,
    status: str = "admitted",
) -> SessionSLO:
    """Score one session's replayed arrival traces into its SLO.

    Args:
        arrivals_by_node: node -> (packet -> arrival slot), from
            :func:`repro.exec.replay.replay_arrivals`.
        num_packets: measured stream prefix (post churn truncation).
        num_slots: slots the session ran (goodput denominator).
        wait_slots: admission queue wait, charged to startup delay.
        status: admission status carried into the report.
    """
    if not arrivals_by_node:
        raise ReproError("session has no receiver traces to score")
    if num_slots < 1:
        raise ReproError(f"num_slots must be >= 1, got {num_slots}")
    delay_counts: Counter[int] = Counter()
    buffer_counts: Counter[int] = Counter()
    missing = 0
    available = 0
    for arrivals in arrivals_by_node.values():
        summary = summarize_lossy_playback(arrivals, num_packets)
        delay_counts[summary.startup_delay] += 1
        buffer_counts[summary.buffer_peak] += 1
        missing += len(summary.missing)
        available += summary.available
    num_nodes = len(arrivals_by_node)
    return SessionSLO(
        session_id=session_id,
        label=label,
        status=status,
        wait_slots=wait_slots,
        startup_delay=max(delay_counts) + wait_slots,
        rebuffer_ratio=missing / (num_nodes * num_packets),
        delay_p50=pooled_percentile(delay_counts, 50),
        delay_p95=pooled_percentile(delay_counts, 95),
        delay_p99=pooled_percentile(delay_counts, 99),
        buffer_p50=pooled_percentile(buffer_counts, 50),
        buffer_p99=pooled_percentile(buffer_counts, 99),
        goodput=available / (num_nodes * num_slots),
        num_nodes=num_nodes,
        num_packets=num_packets,
        delay_counts=tuple(sorted(delay_counts.items())),
        buffer_counts=tuple(sorted(buffer_counts.items())),
    )


def score_session_columns(
    batch: BatchMetrics,
    index: int,
    *,
    session_id: int,
    label: str,
    wait_slots: int = 0,
    status: str = "admitted",
) -> SessionSLO:
    """Score one session of a batched kernel result into its SLO.

    The column-space counterpart of :func:`score_session`: session ``index``
    of a :class:`~repro.exec.batch.BatchMetrics` (run with
    ``keep_node_columns=True``) produces exactly the SLO that
    :func:`score_session` would compute from that session's replayed arrival
    traces — the kernel's per-node delay/buffer columns are slot-identical
    to :func:`~repro.core.metrics.summarize_lossy_playback`.
    """
    if batch.node_delays is None or batch.node_buffers is None:
        raise ReproError(
            "score_session_columns needs a batch run with keep_node_columns=True"
        )
    delay_counts: Counter[int] = Counter(int(v) for v in batch.node_delays[index])
    buffer_counts: Counter[int] = Counter(int(v) for v in batch.node_buffers[index])
    num_nodes = batch.num_nodes
    num_packets = batch.num_packets
    missing = int(batch.residual[index])
    available = int(batch.available[index])
    return SessionSLO(
        session_id=session_id,
        label=label,
        status=status,
        wait_slots=wait_slots,
        startup_delay=max(delay_counts) + wait_slots,
        rebuffer_ratio=missing / (num_nodes * num_packets),
        delay_p50=pooled_percentile(delay_counts, 50),
        delay_p95=pooled_percentile(delay_counts, 95),
        delay_p99=pooled_percentile(delay_counts, 99),
        buffer_p50=pooled_percentile(buffer_counts, 50),
        buffer_p99=pooled_percentile(buffer_counts, 99),
        goodput=available / (num_nodes * batch.num_slots),
        num_nodes=num_nodes,
        num_packets=num_packets,
        delay_counts=tuple(sorted(delay_counts.items())),
        buffer_counts=tuple(sorted(buffer_counts.items())),
    )


def _row_histograms(
    matrix: np.ndarray,
) -> list[tuple[tuple[int, int], ...]]:
    """Per-row ``(value, count)`` tuples of an int matrix, ``-1`` padding
    left out.

    One ``bincount`` over row-offset values replaces a Python ``Counter``
    per row — the per-session cost is proportional to the row's distinct
    values, not its length.
    """
    num_rows = matrix.shape[0]
    # Column 0 of each row's bins counts the padding; it is dropped.
    width = int(matrix.max(initial=-1)) + 2
    offsets = np.arange(num_rows, dtype=np.int64)[:, None] * width + 1
    counts = np.bincount(
        (matrix.astype(np.int64) + offsets).ravel(), minlength=num_rows * width
    ).reshape(num_rows, width)[:, 1:]
    rows, values = np.nonzero(counts)
    tallies = counts[rows, values].tolist()
    present = values.tolist()
    bounds = np.searchsorted(rows, np.arange(num_rows + 1)).tolist()
    return [
        tuple(zip(present[lo:hi], tallies[lo:hi]))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


#: :class:`SessionSLO` field names in declaration (constructor) order.
_SLO_FIELDS = tuple(field.name for field in fields(SessionSLO))
_slo_fields = attrgetter(*_SLO_FIELDS)

#: The ``(B,)`` numeric columns of :class:`SessionColumns`.
_NUMERIC_COLUMNS = (
    "session_ids", "wait_slots", "startup_delay", "rebuffer_ratio", "goodput",
    "delay_p50", "delay_p95", "delay_p99", "buffer_p50", "buffer_p99",
    "num_nodes", "num_packets",
)


class SessionColumns(Sequence[SessionSLO]):
    """The SLOs of a batch of sessions, stored column by column.

    A read-only ``Sequence[SessionSLO]``: ``len``, indexing and iteration
    work as on a list, but the :class:`SessionSLO` objects are only built
    when someone reads an item, and then all at once (one vectorized
    :func:`_row_histograms` pass per matrix).  The fleet fold
    (:meth:`FleetAggregator.add_sessions`) reads the columns directly, so a
    sketch-mode run never builds them at all.

    Attributes:
        session_ids / wait_slots / startup_delay / delay_p50 / delay_p95 /
            delay_p99 / buffer_p50 / buffer_p99 / num_nodes / num_packets:
            ``(B,)`` int64 columns of the :class:`SessionSLO` fields of the
            same names.
        rebuffer_ratio / goodput: ``(B,)`` float64 columns.
        labels / statuses / qoe: per-session tuples.
        delays / buffers: ``(B, width)`` per-node playback-delay and
            peak-buffer matrices; a session with fewer than ``width``
            nodes pads its row with ``-1``, which no fold counts.

    Build one with :func:`score_batch_sessions` (from a kernel batch) or
    :meth:`from_slos` (from any ``SessionSLO`` sequence).
    """

    __slots__ = (
        "session_ids", "labels", "statuses", "wait_slots", "startup_delay",
        "rebuffer_ratio", "goodput", "delay_p50", "delay_p95", "delay_p99",
        "buffer_p50", "buffer_p99", "num_nodes", "num_packets", "delays",
        "buffers", "qoe", "_items",
    )

    def __init__(
        self,
        *,
        session_ids: npt.ArrayLike,
        labels: Sequence[str],
        statuses: Sequence[str],
        wait_slots: npt.ArrayLike,
        startup_delay: npt.ArrayLike,
        rebuffer_ratio: npt.ArrayLike,
        goodput: npt.ArrayLike,
        delay_p50: npt.ArrayLike,
        delay_p95: npt.ArrayLike,
        delay_p99: npt.ArrayLike,
        buffer_p50: npt.ArrayLike,
        buffer_p99: npt.ArrayLike,
        num_nodes: npt.ArrayLike,
        num_packets: npt.ArrayLike,
        delays: npt.NDArray[np.integer],
        buffers: npt.NDArray[np.integer],
        qoe: Sequence[dict | None] | None = None,
        items: tuple[SessionSLO, ...] | None = None,
    ) -> None:
        def ints(column: npt.ArrayLike) -> npt.NDArray[np.int64]:
            return np.asarray(column, dtype=np.int64)

        self.session_ids = ints(session_ids)
        total = len(self.session_ids)
        self.labels = tuple(labels)
        self.statuses = tuple(statuses)
        self.wait_slots = ints(wait_slots)
        self.startup_delay = ints(startup_delay)
        self.rebuffer_ratio = np.asarray(rebuffer_ratio, dtype=np.float64)
        self.goodput = np.asarray(goodput, dtype=np.float64)
        self.delay_p50 = ints(delay_p50)
        self.delay_p95 = ints(delay_p95)
        self.delay_p99 = ints(delay_p99)
        self.buffer_p50 = ints(buffer_p50)
        self.buffer_p99 = ints(buffer_p99)
        self.num_nodes = ints(num_nodes)
        self.num_packets = ints(num_packets)
        self.delays = delays
        self.buffers = buffers
        self.qoe = tuple(qoe) if qoe is not None else (None,) * total
        self._items = items
        if not (
            len(self.labels) == len(self.statuses) == len(self.qoe)
            == len(self.startup_delay) == len(delays) == len(buffers) == total
        ):
            raise ReproError("session columns must all have one row per session")

    @classmethod
    def from_slos(cls, slos: Sequence[SessionSLO]) -> "SessionColumns":
        """Columns of a plain ``SessionSLO`` sequence (returned as is when
        it already is a :class:`SessionColumns`).

        The per-node matrices are rebuilt from each session's compact
        histograms; the given objects are kept as the items, so reading
        the result back returns them unchanged.
        """
        if isinstance(slos, SessionColumns):
            return slos
        items = tuple(slos)
        total = len(items)
        (
            ids, labels, statuses, waits, startup, rebuffer, d50, d95, d99,
            b50, b99, goodput, nodes, packets, delay_counts, buffer_counts, qoe,
        ) = list(zip(*map(_slo_fields, items))) or [()] * len(_SLO_FIELDS)
        width = max(nodes, default=0)

        def matrix(histograms: tuple[tuple[tuple[int, int], ...], ...]) -> np.ndarray:
            rows = [
                [value for value, count in histogram for _ in range(count)]
                for histogram in histograms
            ]
            return np.array(
                [row + [-1] * (width - len(row)) for row in rows], dtype=np.int64
            ).reshape(total, width)

        ints = np.array(
            [ids, waits, startup, d50, d95, d99, b50, b99, nodes, packets],
            dtype=np.int64,
        ).reshape(10, total)
        floats = np.array([rebuffer, goodput], dtype=np.float64).reshape(2, total)
        return cls(
            session_ids=ints[0],
            labels=labels,
            statuses=statuses,
            wait_slots=ints[1],
            startup_delay=ints[2],
            rebuffer_ratio=floats[0],
            goodput=floats[1],
            delay_p50=ints[3],
            delay_p95=ints[4],
            delay_p99=ints[5],
            buffer_p50=ints[6],
            buffer_p99=ints[7],
            num_nodes=ints[8],
            num_packets=ints[9],
            delays=matrix(delay_counts),
            buffers=matrix(buffer_counts),
            qoe=qoe,
            items=items,
        )

    def _materialize(self) -> tuple[SessionSLO, ...]:
        """Every session's :class:`SessionSLO`, built once, in bulk."""
        if self._items is None:
            self._items = tuple(
                map(
                    SessionSLO,
                    self.session_ids.tolist(),
                    self.labels,
                    self.statuses,
                    self.wait_slots.tolist(),
                    self.startup_delay.tolist(),
                    self.rebuffer_ratio.tolist(),
                    self.delay_p50.tolist(),
                    self.delay_p95.tolist(),
                    self.delay_p99.tolist(),
                    self.buffer_p50.tolist(),
                    self.buffer_p99.tolist(),
                    self.goodput.tolist(),
                    self.num_nodes.tolist(),
                    self.num_packets.tolist(),
                    _row_histograms(self.delays),
                    _row_histograms(self.buffers),
                    self.qoe,
                )
            )
        return self._items

    def __len__(self) -> int:
        return len(self.session_ids)

    @overload
    def __getitem__(self, index: int) -> SessionSLO: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[SessionSLO, ...]: ...

    def __getitem__(self, index: int | slice) -> SessionSLO | tuple[SessionSLO, ...]:
        return self._materialize()[index]

    def __iter__(self) -> Iterator[SessionSLO]:
        return iter(self._materialize())

    def __eq__(self, other: object) -> bool:
        """Equal to any sequence holding equal sessions in the same order."""
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SessionColumns(sessions={len(self)})"

    @classmethod
    def merge(cls, parts: Sequence["SessionColumns"]) -> "SessionColumns":
        """Every session of ``parts`` in one set of columns, ordered by
        session id.

        One stable ``argsort`` of the concatenated ids orders every column;
        the per-node matrices pad to the widest part with ``-1``.  Nothing
        per session is built.
        """
        if not parts:
            return cls.from_slos(())
        order = np.argsort(
            np.concatenate([part.session_ids for part in parts]), kind="stable"
        )
        pick = order.tolist()
        width = max(part.delays.shape[1] for part in parts)

        def column(name: str) -> np.ndarray:
            return np.concatenate([getattr(part, name) for part in parts])[order]

        def matrix(name: str) -> np.ndarray:
            blocks = [getattr(part, name) for part in parts]
            dtype = np.result_type(*dict.fromkeys(block.dtype for block in blocks))
            out = np.full((len(pick), width), -1, dtype=dtype)
            row = 0
            for block in blocks:
                out[row:row + len(block), :block.shape[1]] = block
                row += len(block)
            return out[order]

        def per_session(name: str) -> list[Any]:
            values = [value for part in parts for value in getattr(part, name)]
            return [values[i] for i in pick]

        return cls(
            labels=per_session("labels"),
            statuses=per_session("statuses"),
            qoe=per_session("qoe"),
            delays=matrix("delays"),
            buffers=matrix("buffers"),
            **{name: column(name) for name in _NUMERIC_COLUMNS},
        )


def score_batch_sessions(
    batch: BatchMetrics,
    *,
    session_ids: Sequence[int],
    labels: Sequence[str],
    wait_slots: Sequence[int] | None = None,
    statuses: Sequence[str] | None = None,
    qoe: Sequence[dict | None] | None = None,
) -> SessionColumns:
    """Score every session of a batched kernel result in one column pass.

    Reading item ``i`` of the result gives exactly
    ``score_session_columns(batch, i, ...)``, but nothing per session is
    built here: the nearest-rank percentiles and aggregates come from the
    batch's ``(B, num_nodes)`` delay/buffer columns by whole-matrix NumPy
    reductions, and the returned :class:`SessionColumns` keeps the two
    matrices for the fold.  ``qoe`` passes per-session ABR QoE dicts
    (``None`` for non-ABR sessions) through to the columns unchanged.
    """
    if batch.node_delays is None or batch.node_buffers is None:
        raise ReproError(
            "score_batch_sessions needs a batch run with keep_node_columns=True"
        )
    total = batch.num_sessions
    if not len(session_ids) == len(labels) == total:
        raise ReproError(
            f"batch has {total} sessions but got {len(session_ids)} ids "
            f"and {len(labels)} labels"
        )
    waits = tuple(wait_slots) if wait_slots is not None else (0,) * total
    kinds = tuple(statuses) if statuses is not None else ("admitted",) * total
    if len(waits) != total or len(kinds) != total:
        raise ReproError("wait_slots/statuses must align with the batch")
    num_nodes = batch.num_nodes
    num_packets = batch.num_packets
    sorted_delays = np.sort(batch.node_delays, axis=1)
    sorted_buffers = np.sort(batch.node_buffers, axis=1)

    def rank(q: float) -> int:
        # pooled_percentile's nearest rank over a population of num_nodes.
        return max(1, -(-int(q * num_nodes) // 100)) - 1

    wait_column = np.asarray(waits, dtype=np.int64)
    return SessionColumns(
        session_ids=session_ids,
        labels=labels,
        statuses=kinds,
        wait_slots=wait_column,
        startup_delay=sorted_delays[:, -1] + wait_column,
        rebuffer_ratio=batch.residual / (num_nodes * num_packets),
        goodput=batch.available / (num_nodes * batch.num_slots),
        delay_p50=sorted_delays[:, rank(50)],
        delay_p95=sorted_delays[:, rank(95)],
        delay_p99=sorted_delays[:, rank(99)],
        buffer_p50=sorted_buffers[:, rank(50)],
        buffer_p99=sorted_buffers[:, rank(99)],
        num_nodes=np.full(total, num_nodes),
        num_packets=np.full(total, num_packets),
        delays=batch.node_delays,
        buffers=batch.node_buffers,
        qoe=qoe,
    )


@dataclass(frozen=True, slots=True)
class FleetSLOReport:
    """The fleet-level SLO report — the service's scorecard.

    Percentile fields pool the per-node populations of every admitted
    session exactly (via the sessions' compact histograms), so a 1000-session
    fleet's ``delay_p99`` is the true 99th percentile over all viewers, not
    an average of per-session percentiles.

    Attributes:
        num_sessions / admitted / degraded / queued / rejected: admission
            tallies (``queued`` counts sessions that waited, whatever their
            final outcome).
        reject_rate: rejected over offered sessions.
        startup_p50 / startup_p95 / startup_p99 / startup_max: session
            startup delay distribution (queue wait included).
        rebuffer_mean / rebuffer_max: smoothness SLO over sessions.
        delay_p50 / delay_p95 / delay_p99: pooled per-node playback delay.
        buffer_p50 / buffer_p99: pooled per-node peak buffer occupancy.
        goodput_mean: mean session goodput.
        cache_hits / cache_misses / cache_hit_rate: schedule-compile
            amortization across the fleet.
        sessions: every executed session's SLO, ordered by session id, as
            one :class:`SessionColumns` (a read-only
            ``Sequence[SessionSLO]`` that builds its objects only when an
            item is read; empty in sketch mode).  A plain ``SessionSLO``
            sequence given here is converted by
            :meth:`SessionColumns.from_slos`.
        qoe_tiers: ``(tier, count)`` tallies over the ABR sessions in the
            fleet (empty when no session kind carries an ``abr_profile``).
    """

    num_sessions: int
    admitted: int
    degraded: int
    queued: int
    rejected: int
    reject_rate: float
    startup_p50: int
    startup_p95: int
    startup_p99: int
    startup_max: int
    rebuffer_mean: float
    rebuffer_max: float
    delay_p50: int
    delay_p95: int
    delay_p99: int
    buffer_p50: int
    buffer_p99: int
    goodput_mean: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    sessions: SessionColumns
    qoe_tiers: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sessions", SessionColumns.from_slos(self.sessions))

    def row(self) -> dict:
        """Flat fleet summary (drops the per-session detail)."""
        return {
            "sessions": self.num_sessions,
            "admitted": self.admitted,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "reject_rate": round(self.reject_rate, 4),
            "startup_p50": self.startup_p50,
            "startup_p99": self.startup_p99,
            "rebuffer": round(self.rebuffer_mean, 5),
            "delay_p50": self.delay_p50,
            "delay_p95": self.delay_p95,
            "delay_p99": self.delay_p99,
            "buffer_p99": self.buffer_p99,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            **{f"qoe_{tier}": count for tier, count in self.qoe_tiers},
        }

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-serializable snapshot (inverse of :meth:`from_dict`)."""
        payload = {field.name: getattr(self, field.name) for field in fields(self)}
        payload["sessions"] = [asdict(s) for s in self.sessions]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetSLOReport":
        """Rebuild a report from :meth:`to_dict` output (JSON round-trip)."""
        payload = dict(payload)
        sessions = []
        for row in payload.pop("sessions", []):
            row = dict(row)
            row["delay_counts"] = tuple(tuple(p) for p in row["delay_counts"])
            row["buffer_counts"] = tuple(tuple(p) for p in row["buffer_counts"])
            sessions.append(SessionSLO(**row))
        qoe_tiers = tuple(
            (str(tier), int(count)) for tier, count in payload.pop("qoe_tiers", ())
        )
        return cls(
            sessions=SessionColumns.from_slos(sessions), qoe_tiers=qoe_tiers, **payload
        )


def _fold_counts(sketch: QuantileSketch, values: np.ndarray) -> None:
    """Add every non-negative entry of ``values`` to ``sketch``, one
    ``add(value, count)`` per distinct value (``-1`` padding is skipped)."""
    counts = np.bincount(values[values >= 0])
    present = np.flatnonzero(counts)
    for value, count in zip(present.tolist(), counts[present].tolist()):
        sketch.add(value, count)


class FleetAggregator:
    """Streaming fleet-SLO aggregation with bounded memory.

    Feed admission decisions (:meth:`add_decision`) and session SLOs
    (:meth:`add_session`) as they arrive — e.g. from the executor's
    ``on_result`` streaming callback — then :meth:`report` at any point.

    Args:
        relative_error: sketch error bound for the pooled startup/delay/
            buffer populations.  ``0`` = exact (identical to the historical
            Counter pooling, memory grows with distinct values); ``> 0`` =
            bounded memory with quantiles within that relative error of
            exact (the documented :class:`~repro.obs.sketch.QuantileSketch`
            bound).
        exact_limit: distinct-value budget before a lossy sketch collapses.
        keep_sessions: retain every folded batch's columns for the
            report's ``sessions``.  Set False at fleet scale — the whole
            point of streaming aggregation is not keeping per-session
            results.
    """

    __slots__ = (
        "relative_error", "keep_sessions",
        "_startup", "_delay", "_buffer",
        "_admitted", "_degraded", "_rejected", "_queued", "_decisions",
        "_rebuffer_sum", "_rebuffer_max", "_goodput_sum", "_slos",
        "_tiers", "_sessions",
    )

    def __init__(
        self,
        *,
        relative_error: float = 0.0,
        exact_limit: int = 4096,
        keep_sessions: bool = True,
    ) -> None:
        self.relative_error = relative_error
        self.keep_sessions = keep_sessions
        self._startup = QuantileSketch(relative_error, exact_limit=exact_limit)
        self._delay = QuantileSketch(relative_error, exact_limit=exact_limit)
        self._buffer = QuantileSketch(relative_error, exact_limit=exact_limit)
        self._admitted = 0
        self._degraded = 0
        self._rejected = 0
        self._queued = 0
        self._decisions = 0
        self._rebuffer_sum = 0.0
        self._rebuffer_max = 0.0
        self._goodput_sum = 0.0
        self._slos = 0
        self._tiers: Counter[str] = Counter()
        self._sessions: list[SessionColumns] = []

    @property
    def num_sessions_aggregated(self) -> int:
        return self._slos

    def add_decision(self, decision: Any) -> None:
        """Tally one admission decision (any object with ``status`` /
        ``admitted`` / ``wait_slots``, i.e. ``SessionDecision``)."""
        self._decisions += 1
        if decision.status == "admitted":
            self._admitted += 1
        elif decision.status == "degraded":
            self._degraded += 1
        elif decision.status == "rejected":
            self._rejected += 1
        if decision.admitted and decision.wait_slots > 0:
            self._queued += 1

    def add_session(self, slo: SessionSLO) -> None:
        """Fold one session's SLO into the pooled populations."""
        self.add_sessions((slo,))

    def add_sessions(self, slos: Sequence[SessionSLO]) -> None:
        """Fold many SLOs at once — identical end state to one-at-a-time.

        Reads the sessions as :class:`SessionColumns` (a plain sequence is
        converted by :meth:`SessionColumns.from_slos`): one ``bincount``
        each pools the startup column and the per-node delay and buffer
        matrices, and each distinct value folds into its quantile sketch
        once.  The float tallies accumulate in session order, so
        ``rebuffer_mean`` and ``goodput_mean`` match the one-at-a-time fold
        bit for bit.  No :class:`SessionSLO` is built: ``keep_sessions``
        retains the columns themselves.
        """
        columns = SessionColumns.from_slos(slos)
        if not len(columns):
            return
        _fold_counts(self._startup, columns.startup_delay)
        _fold_counts(self._delay, columns.delays)
        _fold_counts(self._buffer, columns.buffers)
        self._slos += len(columns)
        rebuffer = columns.rebuffer_ratio.tolist()
        for ratio in rebuffer:
            self._rebuffer_sum += ratio
        self._rebuffer_max = max(self._rebuffer_max, max(rebuffer))
        for goodput in columns.goodput.tolist():
            self._goodput_sum += goodput
        self._tiers.update(qoe["tier"] for qoe in columns.qoe if qoe is not None)
        if self.keep_sessions:
            self._sessions.append(columns)

    def startup_sketch(self) -> QuantileSketch:
        """The pooled per-session startup-delay sketch (read-only use)."""
        return self._startup

    def report(
        self, *, cache_hits: int = 0, cache_misses: int = 0
    ) -> FleetSLOReport:
        """Materialize the fleet report from everything folded so far."""
        if self._decisions == 0:
            raise ReproError("fleet produced no admission decisions")
        if self._slos == 0:
            raise ReproError("every session was rejected; no SLOs to aggregate")
        lookups = cache_hits + cache_misses
        # In exact mode the sketches store the original ints and quantile()
        # returns them unchanged; once collapsed, representatives are floats
        # and the report's integer fields round to the nearest slot.
        def as_slots(value: float) -> int:
            return int(value) if isinstance(value, int) else int(round(value))

        startup_max = self._startup.max
        return FleetSLOReport(
            num_sessions=self._decisions,
            admitted=self._admitted,
            degraded=self._degraded,
            queued=self._queued,
            rejected=self._rejected,
            reject_rate=self._rejected / self._decisions,
            startup_p50=as_slots(self._startup.quantile(50)),
            startup_p95=as_slots(self._startup.quantile(95)),
            startup_p99=as_slots(self._startup.quantile(99)),
            startup_max=as_slots(startup_max if startup_max is not None else 0),
            rebuffer_mean=self._rebuffer_sum / self._slos,
            rebuffer_max=self._rebuffer_max,
            delay_p50=as_slots(self._delay.quantile(50)),
            delay_p95=as_slots(self._delay.quantile(95)),
            delay_p99=as_slots(self._delay.quantile(99)),
            buffer_p50=as_slots(self._buffer.quantile(50)),
            buffer_p99=as_slots(self._buffer.quantile(99)),
            goodput_mean=self._goodput_sum / self._slos,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            cache_hit_rate=cache_hits / lookups if lookups else 0.0,
            # Batch-grouped execution folds sessions in schedule-group
            # order; the report always lists them by session id.
            sessions=SessionColumns.merge(self._sessions),
            qoe_tiers=tuple(sorted(self._tiers.items())),
        )


def aggregate_fleet(
    decisions: Sequence,
    session_slos: Sequence[SessionSLO],
    *,
    cache_hits: int = 0,
    cache_misses: int = 0,
) -> FleetSLOReport:
    """Fold admission decisions and per-session SLOs into the fleet report.

    The batch entry point over :class:`FleetAggregator` in exact mode —
    byte-identical to the historical Counter-based pooling.
    """
    aggregator = FleetAggregator(relative_error=0.0, keep_sessions=True)
    for decision in decisions:
        aggregator.add_decision(decision)
    aggregator.add_sessions(session_slos)
    return aggregator.report(cache_hits=cache_hits, cache_misses=cache_misses)
