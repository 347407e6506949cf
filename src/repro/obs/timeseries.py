"""Tumbling-window time-series aggregation for fleet telemetry.

A :class:`TimeSeries` buckets observations into fixed-width tumbling
windows keyed by an integer time coordinate (for fleet runs: the session
arrival slot).  Each window independently aggregates three kinds of
series, mirroring the registry instrument set:

* **counter** — monotone totals per window; :meth:`rate` divides by the
  window width to expose per-slot rates (throughput, admissions).
* **gauge** — last value written in the window wins (matching
  :class:`repro.obs.registry.Gauge` semantics).
* **sketch** — a :class:`repro.obs.sketch.QuantileSketch` per window, so
  each window answers p50/p99 queries with the sketch's documented
  relative-error bound.

Windows are created lazily on first touch, so sparse series stay sparse.
:meth:`rows` emits one flat dict per ``(window, series)`` pair for table
rendering, and :meth:`to_dict` serializes the whole series (sketches via
their own ``to_dict``) for export.

The fleet runner feeds a ``TimeSeries`` from shard-completion callbacks
(see :class:`repro.service.telemetry.FleetTelemetry`); nothing here touches
wall clocks — time is whatever integer coordinate the caller supplies.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from .sketch import DEFAULT_RELATIVE_ERROR, QuantileSketch

__all__ = ["TimeSeries", "WindowStats"]


class WindowStats:
    """Aggregates for one tumbling window (created lazily)."""

    __slots__ = ("counters", "gauges", "sketches")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.sketches: dict[str, QuantileSketch] = {}


class TimeSeries:
    """Tumbling-window aggregation over an integer time coordinate.

    Args:
        window: window width in time units (slots); each window ``w``
            covers ``[w * window, (w + 1) * window)``.
        relative_error: error bound forwarded to per-window sketches.
    """

    __slots__ = ("window", "relative_error", "_windows")

    def __init__(
        self,
        window: int = 8,
        *,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0 <= relative_error < 1:
            raise ValueError(
                f"relative_error must be in [0, 1), got {relative_error}"
            )
        self.window = window
        self.relative_error = relative_error
        self._windows: dict[int, WindowStats] = {}

    # ------------------------------------------------------------ ingestion
    def _window_of(self, time: int) -> WindowStats:
        if time < 0:
            raise ValueError(f"time coordinate must be >= 0, got {time}")
        key = time // self.window
        stats = self._windows.get(key)
        if stats is None:
            stats = self._windows[key] = WindowStats()
        return stats

    def count(self, name: str, time: int, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` in ``time``'s window."""
        stats = self._window_of(time)
        stats.counters[name] = stats.counters.get(name, 0.0) + amount

    def gauge(self, name: str, time: int, value: float) -> None:
        """Set gauge ``name`` in ``time``'s window (last write wins)."""
        self._window_of(time).gauges[name] = value

    def _sketch_of(self, stats: WindowStats, name: str) -> QuantileSketch:
        sketch = stats.sketches.get(name)
        if sketch is None:
            sketch = stats.sketches[name] = QuantileSketch(self.relative_error)
        return sketch

    def observe(self, name: str, time: int, value: float) -> None:
        """Feed ``value`` into the per-window sketch for ``name``."""
        self._sketch_of(self._window_of(time), name).add(value)

    def record_many(
        self,
        times: Sequence[int],
        *,
        counters: Sequence[str] = (),
        sketches: Mapping[str, Sequence[float]] | None = None,
        gauges: Mapping[str, Sequence[float]] | None = None,
    ) -> None:
        """Bulk ingest: the same state as, for each ``i`` in order,
        ``count(name, times[i])`` for every name in ``counters``, then
        ``observe(name, times[i], values[i])`` for every sketch series, then
        ``gauge(name, times[i], values[i])`` for every gauge series.

        Each run of consecutive times in one window looks its window up
        once.  Sketch values go in one by one, in the given order
        (:meth:`QuantileSketch.add_many`, never as ``value * count``), so
        sketch sums keep their bits; a counter gains the run length at once,
        which is exact because its total is an integer-valued float.
        """
        sketches = sketches or {}
        gauges = gauges or {}
        total = len(times)
        lo = 0
        while lo < total:
            stats = self._window_of(times[lo])
            key = times[lo] // self.window
            hi = lo + 1
            while hi < total and times[hi] // self.window == key:
                hi += 1
            for name in counters:
                stats.counters[name] = stats.counters.get(name, 0.0) + (hi - lo)
            for name, values in sketches.items():
                self._sketch_of(stats, name).add_many(values[lo:hi])
            for name, values in gauges.items():
                stats.gauges[name] = values[hi - 1]
            lo = hi

    # -------------------------------------------------------------- queries
    @property
    def num_windows(self) -> int:
        return len(self._windows)

    def windows(self) -> list[int]:
        """Sorted window indices that received any data."""
        return sorted(self._windows)

    def total(self, name: str) -> float:
        """Sum of counter ``name`` across all windows."""
        return sum(
            stats.counters.get(name, 0.0) for stats in self._windows.values()
        )

    def series(self, name: str) -> list[tuple[int, float]]:
        """``(window, total)`` pairs for counter ``name`` (sorted, dense
        over the touched range; untouched windows report 0)."""
        if not self._windows:
            return []
        lo, hi = min(self._windows), max(self._windows)
        return [
            (w, self._windows[w].counters.get(name, 0.0) if w in self._windows else 0.0)
            for w in range(lo, hi + 1)
        ]

    def rate(self, name: str) -> list[tuple[int, float]]:
        """``(window, per-slot rate)`` pairs for counter ``name``."""
        return [(w, total / self.window) for w, total in self.series(name)]

    def last(self, name: str) -> list[tuple[int, float]]:
        """``(window, value)`` pairs for gauge ``name`` (touched windows)."""
        return [
            (w, self._windows[w].gauges[name])
            for w in sorted(self._windows)
            if name in self._windows[w].gauges
        ]

    def quantile(self, name: str, q: float) -> list[tuple[int, float]]:
        """``(window, q-th percentile)`` for sketch series ``name``."""
        return [
            (w, self._windows[w].sketches[name].quantile(q))
            for w in sorted(self._windows)
            if name in self._windows[w].sketches
        ]

    # ------------------------------------------------------------ rendering
    def rows(self) -> list[dict[str, Any]]:
        """One flat dict per (window, series) pair, table-ready."""
        out: list[dict[str, Any]] = []
        for w in sorted(self._windows):
            stats = self._windows[w]
            start = w * self.window
            for name in sorted(stats.counters):
                total = stats.counters[name]
                out.append({
                    "window": w, "start_slot": start, "series": name,
                    "kind": "counter", "value": total,
                    "rate": total / self.window,
                })
            for name in sorted(stats.gauges):
                out.append({
                    "window": w, "start_slot": start, "series": name,
                    "kind": "gauge", "value": stats.gauges[name],
                })
            for name in sorted(stats.sketches):
                sketch = stats.sketches[name]
                out.append({
                    "window": w, "start_slot": start, "series": name,
                    "kind": "sketch", "count": sketch.count,
                    "p50": sketch.quantile(50), "p99": sketch.quantile(99),
                    "max": sketch.max,
                })
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable dump of every window."""
        return {
            "window": self.window,
            "relative_error": self.relative_error,
            "windows": {
                str(w): {
                    "counters": dict(stats.counters),
                    "gauges": dict(stats.gauges),
                    "sketches": {
                        name: sketch.to_dict()
                        for name, sketch in stats.sketches.items()
                    },
                }
                for w, stats in sorted(self._windows.items())
            },
        }
