"""Per-layer tracing for the benchmark, measured from outside the program.

The traced run wraps the program's public functions listed in
:data:`PROBES`, patching each name where its caller looks it up (for
example ``repro.service.runner.replay_batch``, which the fleet runner
imported by name).  Each call becomes one span: name, start, end, parent,
workload and repeat.  Spans stay in memory until the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; the per-layer metrics add self times up by
layer, so time spent in a wrapped callee is charged to the callee's layer
only.  Nothing in the program changes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One wrapped call."""

    name: str
    layer: str
    start: float
    end: float
    parent: int
    workload: str
    repeat: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "layer": self.layer, "start": self.start,
            "end": self.end, "parent": self.parent, "workload": self.workload,
            "repeat": self.repeat, **self.attrs,
        }


# ------------------------------------------------------------- observers
def _decisions(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    statuses = [d.status for d in result]
    return {
        "decisions": len(statuses),
        "degraded": statuses.count("degraded"),
        "rejected": statuses.count("rejected"),
        "queued": sum(1 for d in result if d.wait_slots > 0),
    }


def _seed_count(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    seeds = args[1] if len(args) > 1 else kwargs["seeds"]
    return {"sessions": len(seeds)}


def _item_count(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    items = args[2] if len(args) > 2 else kwargs["items"]
    return {"units": len(items)}


def _result_count(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"count": len(result)}


@dataclass(frozen=True)
class Probe:
    """One wrapped name: its layer, where it is looked up, what to record.

    ``attr`` is a module attribute (``replay_batch``) or a method on a
    class defined in ``module`` (``SessionManager.admit_all``).
    """

    layer: str
    module: str
    attr: str
    observe: Callable[[tuple, dict, Any], dict[str, Any]] | None = None


#: Every wrapped name, grouped by layer.  Module-level functions are patched
#: in each module that imported them by name; methods are patched once on
#: their class.
PROBES: tuple[Probe, ...] = (
    Probe("service.spec", "repro.service.spec", "FleetSpec.resolve"),
    Probe("service.admission", "repro.service.admission",
          "SessionManager.admit_all", _decisions),
    Probe("service.admission", "repro.service.admission",
          "SessionManager.admit_chunk", _decisions),
    Probe("service.admission", "repro.service.admission",
          "SessionManager.finalize", _decisions),
    Probe("exec.compiler", "repro.service.runner", "compile_schedule"),
    Probe("exec.compiler", "repro.experiments", "compile_schedule"),
    Probe("exec.compiler", "repro.control.controllers", "compile_schedule"),
    Probe("exec.compiler", "workloads", "compile_schedule"),
    Probe("exec.batch", "repro.service.runner", "replay_batch", _seed_count),
    Probe("exec.batch", "repro.exec.batch", "replay_batch", _seed_count),
    Probe("exec.batch.masks", "repro.exec.batch", "bernoulli_masks"),
    Probe("exec.replay", "repro.service.runner", "replay_arrivals"),
    Probe("abr", "repro.abr", "run_session"),
    Probe("abr", "repro.abr", "collect_qoe"),
    Probe("service.slo.score", "repro.service.runner", "score_batch_sessions"),
    Probe("service.slo.score", "repro.service.runner", "score_session"),
    Probe("service.slo.fold", "repro.service.slo", "FleetAggregator.add_sessions"),
    Probe("service.slo.fold", "repro.service.slo", "FleetAggregator.report"),
    Probe("exec.executor", "repro.exec.executor", "SweepExecutor.map", _item_count),
    Probe("control", "repro.control.controllers", "ControlPlane.step",
          _result_count),
    Probe("service.runner", "repro.service.runner", "FleetRunner.run"),
    Probe("experiments", "repro", "run"),
    Probe("experiments.rows", "repro.exec.batch", "BatchMetrics.rows"),
)


def _owner(probe: Probe) -> tuple[Any, str]:
    """The object holding the probed name, and the name itself."""
    target: Any = importlib.import_module(probe.module)
    *path, name = probe.attr.split(".")
    for part in path:
        target = getattr(target, part)
    return target, name


class Tracer:
    """Records spans for the probed calls while :meth:`installed` is active."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, probe: Probe, fn: Callable, repeat: str) -> Callable:
        spans, stack = self.spans, self._stack
        name = f"{probe.layer}:{probe.attr}"
        workload = self.workload
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = Span(name, probe.layer, clock(), 0.0,
                        stack[-1] if stack else -1, workload, repeat)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe.observe is not None:
                span.attrs = probe.observe(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, repeat: str) -> Iterator["Tracer"]:
        """Patch every probe for the duration of one repeat (or set-up)."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for probe in PROBES:
                owner, name = _owner(probe)
                original = getattr(owner, name)
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(probe, original, repeat))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [span.to_dict() for span in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def _figures(spans: list[Span], selfs: list[float], repeat: str, offered: int,
             counters: dict[str, float]) -> dict[str, float]:
    """Per-layer figures of one traced repeat (or of the set-up)."""
    picked = [(span, own) for span, own in zip(spans, selfs) if span.repeat == repeat]
    us = 1e6 / offered

    def total(*layers: str, attr: str | None = None) -> float:
        return sum(
            own if attr is None else span.attrs.get(attr, 0)
            for span, own in picked if span.layer in layers
        )

    def calls(*layers: str) -> int:
        return sum(1 for span, _ in picked if span.layer in layers)

    def per_call(value: float, count: int) -> float:
        return value / count if count else 0.0

    # admit_all calls admit_chunk and finalize: count decisions once, at the
    # outermost admission span.
    admission = [
        span for span, _ in picked
        if span.layer == "service.admission"
        and (span.parent < 0 or spans[span.parent].layer != "service.admission")
    ]
    batch_calls = calls("exec.batch")
    maps = calls("exec.executor")
    steps = calls("control")
    abr_sessions = sum(1 for span, _ in picked if span.name == "abr:run_session")
    return {
        "service.spec.resolve_us_per_session": total("service.spec") * us,
        "service.admission.admit_us_per_session": total("service.admission") * us,
        "service.admission.degraded_share":
            sum(span.attrs.get("degraded", 0) for span in admission) / offered,
        "service.admission.rejected_share":
            sum(span.attrs.get("rejected", 0) for span in admission) / offered,
        "service.admission.queued_share":
            sum(span.attrs.get("queued", 0) for span in admission) / offered,
        "exec.compiler.compile_calls": float(calls("exec.compiler")),
        "exec.compiler.compile_s": total("exec.compiler"),
        # The schedule cache counts its own outcomes on the active registry.
        "exec.cache.misses": counters.get("schedule_cache.miss", 0.0),
        "cache.lookups": counters.get("schedule_cache.miss", 0.0)
        + counters.get("schedule_cache.hit", 0.0),
        "exec.batch.calls": float(batch_calls),
        "exec.batch.sessions_per_call":
            per_call(total("exec.batch", attr="sessions"), batch_calls),
        "exec.batch.replay_us_per_session": total("exec.batch") * us,
        "exec.batch.mask_us_per_session": total("exec.batch.masks") * us,
        "exec.batch.tx_per_session": per_call(
            counters.get("sweep.batched_tx", 0.0),
            int(counters.get("sweep.batch_sessions", 0)),
        ),
        "exec.replay.scalar_sessions": float(calls("exec.replay")),
        "exec.replay.us_per_session": total("exec.replay") * us,
        "abr.session_us": per_call(total("abr") * 1e6, abr_sessions),
        "service.slo.score_us_per_session": total("service.slo.score") * us,
        "service.slo.fold_us_per_session": total("service.slo.fold") * us,
        "exec.executor.map_calls": float(maps),
        "exec.executor.units_per_map":
            per_call(total("exec.executor", attr="units"), maps),
        "exec.executor.self_us_per_session": total("exec.executor") * us,
        "control.step_calls": float(steps),
        "control.step_us": per_call(total("control") * 1e6, steps),
        "control.decisions": total("control", attr="count"),
        "service.runner.self_us_per_session": total("service.runner") * us,
        "experiments.rows_us_per_session": total("experiments.rows") * us,
        "experiments.run_self_s": total("experiments"),
        # Stage-table rows with no per-session figure of their own.
        "stage.compile": total("exec.compiler") * us,
        "stage.abr": total("abr") * us,
        "stage.control": total("control") * us,
        "stage.experiments": total("experiments") * us,
    }


#: Figures that cover the cold set-up as well as one timed repeat: compile
#: work lands in set-up on a cold cache and in the repeats only when the
#: program recompiles or rebuilds protocols.
SETUP_SCOPED = ("exec.compiler.compile_calls", "exec.compiler.compile_s",
                "exec.cache.misses", "cache.lookups")

#: Per-layer metric names with their units, in ``BENCHMARK.json`` order.
LAYER_UNITS: dict[str, str] = {
    "service.spec.resolve_us_per_session": "us",
    "service.admission.admit_us_per_session": "us",
    "service.admission.degraded_share": "ratio",
    "service.admission.rejected_share": "ratio",
    "service.admission.queued_share": "ratio",
    "exec.compiler.compile_calls": "count",
    "exec.compiler.compile_s": "s",
    "exec.cache.misses": "count",
    "exec.cache.hit_rate": "ratio",
    "exec.batch.calls": "count",
    "exec.batch.sessions_per_call": "count",
    "exec.batch.replay_us_per_session": "us",
    "exec.batch.mask_us_per_session": "us",
    "exec.batch.tx_per_session": "count",
    "exec.replay.scalar_sessions": "count",
    "exec.replay.us_per_session": "us",
    "abr.session_us": "us",
    "service.slo.score_us_per_session": "us",
    "service.slo.fold_us_per_session": "us",
    "exec.executor.map_calls": "count",
    "exec.executor.units_per_map": "count",
    "exec.executor.self_us_per_session": "us",
    "control.step_calls": "count",
    "control.step_us": "us",
    "control.decisions": "count",
    "service.runner.self_us_per_session": "us",
    "experiments.rows_us_per_session": "us",
    "experiments.run_self_s": "s",
    "trace.overhead_share": "ratio",
}


def layer_metrics(tracer: Tracer, offered: int, repeats: list[str],
                  counters: dict[str, dict[str, float]],
                  overhead_share: float) -> dict[str, float]:
    """Median over the traced repeats of every per-layer and stage figure."""
    selfs = self_times(tracer.spans)
    setup = _figures(tracer.spans, selfs, "setup", offered, counters.get("setup", {}))
    timed = [
        _figures(tracer.spans, selfs, repeat, offered, counters.get(repeat, {}))
        for repeat in repeats
    ]
    out = {name: statistics.median(row[name] for row in timed) for name in timed[0]}
    for name in SETUP_SCOPED:
        out[name] += setup[name]
    lookups = out["cache.lookups"]
    out["exec.cache.hit_rate"] = 1.0 - out["exec.cache.misses"] / lookups if lookups else 0.0
    out["trace.overhead_share"] = overhead_share
    return out


#: The stage table: the ROADMAP's stage names -> the per-session figures
#: that make each stage up.  "replay" is the kernel (hold/deliver and the
#: kernel's own scoring); "score" is the per-session SLO scoring after it.
STAGES = (
    ("resolve", ("service.spec.resolve_us_per_session",)),
    ("admit", ("service.admission.admit_us_per_session",)),
    ("compile/lower", ("stage.compile",)),
    ("mask draw", ("exec.batch.mask_us_per_session",)),
    ("replay (kernel)", ("exec.batch.replay_us_per_session",
                         "exec.replay.us_per_session")),
    ("score (SLO)", ("service.slo.score_us_per_session",)),
    ("fold", ("service.slo.fold_us_per_session",)),
    ("abr playback", ("stage.abr",)),
    ("control step", ("stage.control",)),
    ("runner, executor, experiments", (
        "service.runner.self_us_per_session", "exec.executor.self_us_per_session",
        "experiments.rows_us_per_session", "stage.experiments",
    )),
)


def stage_table(figures: dict[str, float], traced_us: float) -> list[str]:
    """Human-readable µs-per-offered-session stage breakdown of a traced run."""
    lines = [f"{'stage':<32} {'us/session':>11}"]
    for stage, names in STAGES:
        value = sum(figures[name] for name in names)
        lines.append(f"{stage:<32} {value:>11.2f}")
    lines.append(f"{'total (traced runs, median)':<32} {traced_us:>11.2f}")
    return lines
