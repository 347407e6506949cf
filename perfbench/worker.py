"""One benchmark process: set up a workload, then time and check it.

``run.py`` starts this script in a fresh interpreter.  It prints ``READY``
once the workload is set up (the parent times the interval from start to
that line as one ``setup_s`` sample), then ``REFERENCE <seconds>``: the
:class:`Reference` kernel's time just after.  With ``--setup-only`` it
stops there.  Otherwise it times whole runs until ``--seconds`` have
passed, each after one timing of the fixed :class:`Reference` kernel, and
requires every run to reproduce the first run's output exactly.  A last,
untimed check run is compared with the scalar oracle.  It prints one JSON
line.

With ``--trace 1`` timed runs alternate between untraced and traced, so
both halves see the same drift; the traced ones feed the per-layer figures
and the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import workloads
from tracing import LAYER_UNITS, Tracer, layer_metrics, stage_table

import numpy

import repro
from repro.obs.registry import MetricsRegistry, use_registry

#: Fewest timed runs per measured side, however long each run takes.
MIN_RUNS = 3

#: Registry counters the per-layer figures read (summed over labels).
COUNTERS = ("sweep.batched_tx", "sweep.batch_sessions", "schedule_cache.hit",
            "schedule_cache.miss")


def _counters(registry: MetricsRegistry) -> dict[str, float]:
    totals = dict.fromkeys(COUNTERS, 0.0)
    for row in registry.snapshot()["counters"]:
        if row["name"] in totals:
            totals[row["name"]] += row["value"]
    return totals


class Reference:
    """A fixed kernel timed before every measured run.

    The host's speed drifts by tens of percent over minutes (other tenants
    share its caches and memory bandwidth).  Timing this kernel alongside
    the workload lets ``run.py`` express the workload's time at one fixed
    host speed.  It mixes interpreter-bound dict updates with NumPy
    gathers, scatters and sorts, like the program, but runs no program code.
    """

    def __init__(self) -> None:
        rng = numpy.random.default_rng(0)
        self.values = rng.random(1 << 20)
        self.index = rng.integers(0, 1 << 20, size=1 << 18)

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(6):
            counts: dict[int, int] = {}
            for i in range(20_000):
                counts[i & 1023] = counts.get(i & 1023, 0) + i
            gathered = self.values[self.index]
            numpy.add.at(self.values, self.index[:50_000], 1.0)
            gathered.sort()
        return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None,
                        help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed, args.scale)
    tracer = Tracer(workload.name) if args.trace else None
    counters: dict[str, dict[str, float]] = {}
    registry = MetricsRegistry()
    with use_registry(registry), (
        tracer.installed("setup") if tracer is not None else nullcontext()
    ):
        workload.prepare()
    counters["setup"] = _counters(registry)
    print("READY", flush=True)
    # The host speed right after set-up, which ``run.py`` pairs with the
    # set-up time it just measured.
    host = Reference()
    print(f"REFERENCE {statistics.median(host.seconds() for _ in range(3))!r}",
          flush=True)
    if args.setup_only:
        return

    reference_s: list[float] = []
    plain: list[float] = []
    traced: list[float] = []
    traced_repeats: list[str] = []
    expected = None
    attempted = failed = 0
    runs = bad_runs = 0
    notes: list[str] = []
    began = time.perf_counter()
    run = 0
    while (
        time.perf_counter() - began < args.seconds
        or len(plain) < MIN_RUNS
        or (tracer is not None and len(traced) < MIN_RUNS)
    ):
        traced_run = tracer is not None and run % 2 == 1
        repeat = f"run{run}"
        registry = MetricsRegistry()
        gc.collect()
        host_s = host.seconds()
        gc.collect()
        with use_registry(registry), (
            tracer.installed(repeat) if traced_run and tracer is not None
            else nullcontext()
        ):
            start = time.perf_counter()
            try:
                result = workload.execute()
            except Exception:  # a raising run counts all its sessions failed
                result = None
                notes.append(traceback.format_exc(limit=3))
            elapsed = time.perf_counter() - start
        attempted += workload.offered
        runs += 1
        fingerprint = None if result is None else workload.fingerprint(result)
        if expected is None:
            expected = fingerprint
        if fingerprint is None or fingerprint != expected:
            failed += workload.offered
            bad_runs += 1
            notes.append(f"{repeat}: output differs from the first run")
        per_session = elapsed * 1e6 / workload.offered
        if traced_run:
            traced.append(per_session)
            traced_repeats.append(repeat)
            counters[repeat] = _counters(registry)
        else:
            plain.append(per_session)
            reference_s.append(host_s)
        del result
        run += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The check run comes last so that what it keeps for the checks stays
    # out of the peak memory figure.
    gc.collect()
    with use_registry(MetricsRegistry()), workloads.FoldCapture() as capture:
        checked = workload.execute()
    attempted += workload.offered
    runs += 1
    check = workload.check(checked, capture.slos, args.seed)
    failed += len(check.failed)
    notes += check.notes
    if workload.fingerprint(checked) != expected:
        failed += workload.offered
        bad_runs += 1
        notes.append("the check run's output differs from the timed runs'")
    # Judged per check, not per offered session: one wrong session of the
    # sample moves the figure by 1/(sessions checked), and one run that does
    # not repeat by 1/runs, rather than by 1/(sessions offered over all runs).
    correct_share = min(
        1.0 - min(1.0, len(check.failed) / max(1, check.checked)),
        1.0 - bad_runs / runs,
    )

    out = {
        "offered": workload.offered,
        "attempted": attempted,
        "failed": failed,
        "checked": check.checked,
        "correct_share": correct_share,
        "notes": notes[:20],
        "us_per_session": plain,
        "reference_s": reference_s,
        "simulated": workload.simulated(checked),
        "versions": {"numpy": numpy.__version__, "repro": repro.__version__},
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        figures = layer_metrics(
            tracer, workload.offered, traced_repeats, counters, overhead
        )
        out["layers"] = {name: figures[name] for name in LAYER_UNITS}
        out["stages"] = stage_table(figures, statistics.median(traced))
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with args.spans.open("w") as handle:
                for span in tracer.to_dicts():
                    handle.write(json.dumps(span) + "\n")
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
