"""Mergeable bounded-memory quantile sketch (log-bucketed histogram).

Fleet-scale SLO reporting needs percentiles over millions of pooled
per-node observations without materializing them.  :class:`QuantileSketch`
is a DDSketch-style estimator specialized to the non-negative integer
populations this reproduction measures (playback delays, buffer peaks,
startup delays, all in slots):

* **Exact small-count mode** — while the number of *distinct* observed
  values stays within ``exact_limit``, the sketch stores an exact
  ``value -> count`` map and every quantile query returns the exact pooled
  nearest-rank answer (byte-identical to
  :func:`repro.service.slo.pooled_percentile`).
* **Log-bucketed mode** — past the limit the map collapses into
  logarithmic buckets with ratio ``gamma = (1 + a) / (1 - a)`` where
  ``a = relative_error``.  A value ``v > 0`` lands in bucket
  ``i = ceil(log_gamma(v))`` covering ``(gamma**(i-1), gamma**i]``; the
  bucket's representative ``2 * gamma**i / (gamma + 1)`` is within
  ``a * v`` of every value in the bucket.  Zero is counted exactly in its
  own bucket.

**Error bound.**  For any rank-based query (:meth:`quantile`,
:meth:`quantile_at_rank`), the returned estimate ``x`` satisfies
``|x - x*| <= relative_error * x*`` where ``x*`` is the exact nearest-rank
answer over the observed population — a *relative* guarantee, independent
of how many values were observed or how the observations were sharded.
``relative_error=0`` selects a permanently-exact sketch (memory then grows
with the number of distinct values, which for slot-valued populations is
bounded by the schedule horizon).

**Merge.**  Two sketches with the same ``relative_error`` merge by bucket
(or exact-map) addition; merging is associative and commutative, so worker
shards can be folded in any order with the same result.  :meth:`to_dict` /
:meth:`from_dict` round-trip through JSON for cross-process snapshots
(:meth:`repro.obs.registry.MetricsRegistry.snapshot`).

Memory is ``O(exact_limit + log(max/min) / log(gamma))`` — bounded
regardless of population size once collapsed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

__all__ = ["QuantileSketch", "DEFAULT_RELATIVE_ERROR", "DEFAULT_EXACT_LIMIT"]

#: Default relative-error bound: quantile estimates within 1% of exact.
DEFAULT_RELATIVE_ERROR = 0.01

#: Default distinct-value budget of the exact small-count mode.
DEFAULT_EXACT_LIMIT = 256

_INDEX_EPS = 1e-9  # absorbs float error so v == gamma**i maps to bucket i


class QuantileSketch:
    """Mergeable quantile sketch over non-negative values.

    Args:
        relative_error: the documented relative error bound ``a`` of
            bucketed quantile estimates; ``0`` keeps the sketch exact
            forever (never collapses).
        exact_limit: distinct-value budget of the exact mode (ignored when
            ``relative_error`` is 0).
    """

    __slots__ = (
        "relative_error", "exact_limit", "count", "sum", "min", "max",
        "_gamma", "_log_gamma", "_exact", "_buckets", "_zero",
    )

    def __init__(
        self,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        *,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
    ) -> None:
        if not 0 <= relative_error < 1:
            raise ValueError(
                f"relative_error must be in [0, 1), got {relative_error}"
            )
        if exact_limit < 1:
            raise ValueError(f"exact_limit must be >= 1, got {exact_limit}")
        self.relative_error = relative_error
        self.exact_limit = exact_limit
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        if relative_error > 0:
            self._gamma = (1 + relative_error) / (1 - relative_error)
            self._log_gamma = math.log(self._gamma)
        else:
            self._gamma = 0.0
            self._log_gamma = 0.0
        #: value -> count while exact; None once collapsed to buckets.
        self._exact: dict[float, int] | None = {}
        self._buckets: dict[int, int] = {}
        self._zero = 0

    # ------------------------------------------------------------------ state
    @property
    def is_exact(self) -> bool:
        """True while every query is exact (small-count mode)."""
        return self._exact is not None

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        mode = "exact" if self.is_exact else f"~{self.relative_error:g}"
        return f"QuantileSketch(count={self.count}, mode={mode})"

    # ---------------------------------------------------------------- updates
    def add(self, value: float, count: int = 1) -> None:
        """Observe ``value`` ``count`` times."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if value < 0:
            raise ValueError(f"sketch values must be >= 0, got {value}")
        self.count += count
        self.sum += value * count
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if self._exact is not None:
            self._exact[value] = self._exact.get(value, 0) + count
            if (
                self.relative_error > 0
                and len(self._exact) > self.exact_limit
            ):
                self._collapse()
        elif value == 0:
            self._zero += count
        else:
            index = self._bucket_index(value)
            self._buckets[index] = self._buckets.get(index, 0) + count

    def observe(self, value: float) -> None:
        """Histogram-compatible alias for :meth:`add` with count 1."""
        self.add(value)

    def add_many(self, values: Sequence[float]) -> None:
        """Observe each of ``values`` once — the same state as one
        :meth:`add` per value, in order.

        ``sum`` accumulates in the given order, so float sums keep their
        bits.  The exact map may collapse only after the whole batch is in,
        which ends in the same buckets: a collapse moves every exact count
        into the bucket its value would have gone to.
        """
        if not values:
            return
        low, high = min(values), max(values)
        if low < 0:
            raise ValueError(f"sketch values must be >= 0, got {low}")
        self.count += len(values)
        total = self.sum
        for value in values:
            total += value
        self.sum = total
        self.min = low if self.min is None else min(self.min, low)
        self.max = high if self.max is None else max(self.max, high)
        exact = self._exact
        if exact is not None:
            for value in values:
                exact[value] = exact.get(value, 0) + 1
            if self.relative_error > 0 and len(exact) > self.exact_limit:
                self._collapse()
            return
        for value in values:
            if value == 0:
                self._zero += 1
            else:
                index = self._bucket_index(value)
                self._buckets[index] = self._buckets.get(index, 0) + 1

    def _bucket_index(self, value: float) -> int:
        return math.ceil(math.log(value) / self._log_gamma - _INDEX_EPS)

    def _bucket_value(self, index: int) -> float:
        return 2.0 * self._gamma**index / (self._gamma + 1.0)

    def _collapse(self) -> None:
        """Fold the exact map into log buckets (exact -> bucketed mode)."""
        exact = self._exact
        if exact is None:  # pragma: no cover - callers check first
            return
        self._exact = None
        for value, count in exact.items():
            if value == 0:
                self._zero += count
            else:
                index = self._bucket_index(value)
                self._buckets[index] = self._buckets.get(index, 0) + count

    # ------------------------------------------------------------------ merge
    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (associative, commutative)."""
        if other.relative_error != self.relative_error:
            raise ValueError(
                f"cannot merge sketches with different error bounds "
                f"({self.relative_error} vs {other.relative_error})"
            )
        if other.count == 0:
            return
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        if self._exact is not None and other._exact is not None:
            for value, count in other._exact.items():
                self._exact[value] = self._exact.get(value, 0) + count
            if (
                self.relative_error > 0
                and len(self._exact) > self.exact_limit
            ):
                self._collapse()
            return
        if self._exact is not None:
            self._collapse()
        if other._exact is not None:
            for value, count in other._exact.items():
                if value == 0:
                    self._zero += count
                else:
                    index = self._bucket_index(value)
                    self._buckets[index] = self._buckets.get(index, 0) + count
        else:
            self._zero += other._zero
            for index, count in other._buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + count

    # ---------------------------------------------------------------- queries
    def quantile(self, q: float) -> float:
        """Nearest-rank ``q``-th percentile estimate (``q`` in [0, 100]).

        Exact in small-count mode; within ``relative_error`` of the exact
        pooled nearest-rank value once collapsed.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            raise ValueError("empty sketch has no percentiles")
        rank = max(1, -(-int(q * self.count) // 100))  # ceil, min 1
        return self.quantile_at_rank(rank)

    def quantile_at_rank(self, rank: int) -> float:
        """Value estimate at 1-based ``rank`` of the sorted population."""
        if not 1 <= rank <= self.count:
            raise ValueError(
                f"rank must be in [1, {self.count}], got {rank}"
            )
        seen = 0
        if self._exact is not None:
            for value in sorted(self._exact):
                seen += self._exact[value]
                if seen >= rank:
                    return value
            return max(self._exact)  # pragma: no cover - rank <= count
        if self._zero:
            seen += self._zero
            if seen >= rank:
                return 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return self._bucket_value(index)
        # rank <= count by construction, so the walk always returns above.
        raise RuntimeError("sketch invariant violated")  # pragma: no cover

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot (inverse of :meth:`from_dict`)."""
        payload: dict[str, Any] = {
            "relative_error": self.relative_error,
            "exact_limit": self.exact_limit,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }
        if self._exact is not None:
            payload["exact"] = sorted(self._exact.items())
        else:
            payload["zero"] = self._zero
            payload["buckets"] = sorted(self._buckets.items())
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output (JSON round-trip)."""
        sketch = cls(
            payload["relative_error"], exact_limit=payload["exact_limit"]
        )
        sketch.count = payload["count"]
        sketch.sum = payload["sum"]
        sketch.min = payload["min"]
        sketch.max = payload["max"]
        if "exact" in payload:
            sketch._exact = {value: count for value, count in payload["exact"]}
        else:
            sketch._exact = None
            sketch._zero = payload.get("zero", 0)
            sketch._buckets = {
                int(index): count for index, count in payload.get("buckets", ())
            }
        return sketch
