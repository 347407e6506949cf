"""One million sessions through the batch kernel in bounded memory.

The v2.0 scaling demonstration: compile one schedule, spawn a million
per-session seed sequences from one master seed
(:func:`~repro.exec.batch.spawn_seeds`), and stream chunked
:func:`~repro.exec.batch.replay_batch` calls straight into a sketch-mode
:class:`~repro.service.FleetAggregator`.  Nothing in the pipeline scales
with the full population: the kernel's working set is capped by its element
budget, each chunk's metric columns are dropped after scoring, and the
aggregator holds three quantile sketches instead of a million
:class:`~repro.service.SessionSLO` objects.

Each chunk is scored in one :func:`~repro.service.slo.score_batch_sessions`
pass into :class:`~repro.service.SessionColumns` and folded in one
:meth:`~repro.service.FleetAggregator.add_sessions` call straight from the
columns, so no per-session object is built.  The bench asserts that this bulk fold of the first chunk reports
exactly what the one-session-at-a-time fold reports, and times each stage
(seed spawn, mask draw, kernel, score, fold) per session.

The chunk decomposition is also a correctness claim — a session's score is
a function of ``(schedule, seed, drop_rate)`` alone, so slicing the million
seeds into any chunking yields the same pooled percentiles.  The bench
spot-checks this by re-scoring the first chunk's sessions solo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from conftest import report

import repro.exec.batch as batch_module
from repro.exec import compile_schedule, replay_batch, spawn_seeds
from repro.obs import Timer
from repro.service.slo import (
    FleetAggregator,
    score_batch_sessions,
    score_session_columns,
)

NUM_SESSIONS = 1_000_000
CHUNK = 50_000
NUM_PACKETS = 8
DROP_RATE = 0.01
SKETCH_ERROR = 0.01
LABEL = "multi-tree-31"


@dataclass(frozen=True, slots=True)
class _Decision:
    """Minimal stand-in for SessionDecision (every seed is admitted)."""

    status: str = "admitted"
    admitted: bool = True
    wait_slots: int = 0


class _Stages:
    """Wall seconds per pipeline stage, accumulated over the chunks."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(
            ("spawn", "mask", "kernel", "score", "fold"), 0.0
        )

    def timed_masks(self, draw: Any) -> Any:
        """Wrap the kernel's mask draw so its time is charged to ``mask``."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with Timer() as timer:
                masks = draw(*args, **kwargs)
            self.seconds["mask"] += timer.elapsed
            return masks

        return wrapper

    def per_session_us(self) -> dict[str, float]:
        return {
            f"{stage}_us": round(seconds / NUM_SESSIONS * 1e6, 2)
            for stage, seconds in self.seconds.items()
        }


def _fold(batch: Any, lo: int, *, bulk: bool) -> FleetAggregator:
    """A fresh aggregator holding one chunk, folded in bulk or one by one."""
    aggregator = FleetAggregator(
        relative_error=SKETCH_ERROR, keep_sessions=False
    )
    ids = range(lo, lo + batch.num_sessions)
    for _ in ids:
        aggregator.add_decision(_Decision())
    if bulk:
        aggregator.add_sessions(
            score_batch_sessions(
                batch, session_ids=ids, labels=[LABEL] * len(ids)
            )
        )
    else:
        for i, session_id in enumerate(ids):
            aggregator.add_session(
                score_session_columns(batch, i, session_id=session_id, label=LABEL)
            )
    return aggregator


def test_million_sessions_bounded_memory(monkeypatch):
    schedule = compile_schedule("multi-tree", 31, 2, num_packets=NUM_PACKETS)
    stages = _Stages()
    monkeypatch.setattr(
        batch_module,
        "bernoulli_masks",
        stages.timed_masks(batch_module.bernoulli_masks),
    )
    with Timer() as timer:
        seeds = spawn_seeds(0, NUM_SESSIONS)
    stages.seconds["spawn"] = timer.elapsed
    aggregator = FleetAggregator(
        relative_error=SKETCH_ERROR, keep_sessions=False
    )
    decision = _Decision()

    with Timer() as timer:
        for lo in range(0, NUM_SESSIONS, CHUNK):
            chunk_seeds = seeds[lo : lo + CHUNK]
            with Timer() as kernel:
                batch = replay_batch(
                    schedule,
                    chunk_seeds,
                    DROP_RATE,
                    num_packets=NUM_PACKETS,
                    keep_node_columns=True,
                )
            stages.seconds["kernel"] += kernel.elapsed
            with Timer() as score:
                slos = score_batch_sessions(
                    batch,
                    session_ids=range(lo, lo + batch.num_sessions),
                    labels=[LABEL] * batch.num_sessions,
                )
            stages.seconds["score"] += score.elapsed
            with Timer() as fold:
                # Count, not iterate: iterating would build the sessions'
                # SessionSLO objects inside the fold timer.
                for _ in range(len(slos)):
                    aggregator.add_decision(decision)
                aggregator.add_sessions(slos)
            stages.seconds["fold"] += fold.elapsed
    # The kernel's timer also ran across its own mask draw.  Stop charging
    # masks before the spot checks below replay more sessions.
    monkeypatch.undo()
    stages.seconds["kernel"] -= stages.seconds["mask"]
    per_stage = stages.per_session_us()
    fleet = aggregator.report(cache_hits=NUM_SESSIONS - 1, cache_misses=1)
    rate = timer.elapsed / NUM_SESSIONS

    assert fleet.num_sessions == NUM_SESSIONS
    assert fleet.admitted == NUM_SESSIONS
    # Bounded memory: no per-session SLO list survives aggregation.
    assert fleet.sessions == ()
    assert 0 <= fleet.startup_p50 <= fleet.startup_p99 <= fleet.startup_max

    # Chunk-independence spot check: session 0 scored from a batch of one
    # equals session 0 scored inside its 50k-session chunk.
    solo = replay_batch(
        schedule, seeds[:1], DROP_RATE, num_packets=NUM_PACKETS
    )
    first_chunk = replay_batch(
        schedule, seeds[:CHUNK], DROP_RATE, num_packets=NUM_PACKETS
    )
    assert solo.metrics(0) == first_chunk.metrics(0)

    # The bulk fold is exact: the first chunk reports the same fleet figures
    # folded in one call as folded one session at a time.
    assert (
        _fold(first_chunk, 0, bulk=True).report()
        == _fold(first_chunk, 0, bulk=False).report()
    )

    lines = [
        f"one million sessions (multi-tree N=31 d=2, P={NUM_PACKETS}, "
        f"drop rate {DROP_RATE}, chunks of {CHUNK}):",
        "",
        f"  wall clock: {timer.elapsed:7.3f}s "
        f"({rate * 1e6:.0f}us/session, 1 compile, "
        f"{NUM_SESSIONS // CHUNK} kernel calls; seed spawn not included)",
        "  stages (us/session): "
        + " ".join(
            f"{stage.removesuffix('_us')}={value}"
            for stage, value in per_stage.items()
        ),
        f"  startup delay: p50={fleet.startup_p50} p99={fleet.startup_p99} "
        f"max={fleet.startup_max} (sketch alpha={SKETCH_ERROR})",
        f"  playback delay p99={fleet.delay_p99} "
        f"buffer p99={fleet.buffer_p99} "
        f"rebuffer_mean={fleet.rebuffer_mean:.4f} "
        f"goodput={fleet.goodput_mean:.3f}",
    ]
    report(
        "fleet_million",
        "\n".join(lines),
        elapsed=timer.elapsed,
        phases={
            "sessions": NUM_SESSIONS,
            "chunk": CHUNK,
            "us_per_session": round(rate * 1e6, 2),
            **per_stage,
            "startup_p99": fleet.startup_p99,
            "delay_p99": fleet.delay_p99,
        },
    )
