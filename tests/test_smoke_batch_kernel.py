"""Batch-kernel smoke claims, run by CI as ``pytest -m smoke``.

The first two tests are the two checks the ``batch-kernel-smoke`` job used
to run as inline scripts, kept word for word: the batched kernel equals the
scalar replay at N=1023 on both schemes, and a 1000-session batch replays
in one kernel call.  The third scores only a 4-packet prefix of the same
N=1023 schedules, which replays the kernel's pruned view (most compiled
transmissions carry packets past the prefix).
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.smoke


def test_batched_equals_scalar_at_n1023_both_schemes():
    from repro.exec import (
        bernoulli_mask, compile_schedule, replay_arrivals, replay_batch,
        spawn_seeds,
    )
    from repro.core.metrics import collect_repair_metrics

    for scheme, degree in (("multi-tree", 2), ("hypercube", 3)):
        schedule = compile_schedule(scheme, 1023, degree, num_packets=16)
        seeds = spawn_seeds(42, 8)
        batch = replay_batch(schedule, seeds, 0.02, num_packets=16)
        for i, seed in enumerate(seeds):
            mask = bernoulli_mask(schedule, 0.02, seed)
            arrivals = replay_arrivals(schedule, drop_mask=mask)
            scalar = collect_repair_metrics(
                arrivals, num_packets=16, num_slots=schedule.num_slots)
            assert batch.metrics(i) == scalar, (scheme, i)
        print(f"{scheme}: 8 sessions at N=1023 slot-for-slot identical")


def test_thousand_session_batch_in_one_kernel_call():
    from repro.exec import compile_schedule, replay_batch, spawn_seeds
    from repro.obs.registry import MetricsRegistry, use_registry

    schedule = compile_schedule("multi-tree", 255, 3, num_packets=16)
    registry = MetricsRegistry()
    with use_registry(registry):
        batch = replay_batch(
            schedule, spawn_seeds(0, 1000), 0.01, num_packets=16)
    rows = batch.rows()
    assert len(rows) == 1000
    sessions = registry.counter(
        "sweep.batch_sessions", scheme="multi-tree").value
    assert sessions == 1000, sessions
    print("1000-session batch:", rows[0])


def test_pruned_prefix_equals_scalar_at_n1023_both_schemes():
    from repro.core.metrics import collect_repair_metrics
    from repro.exec import (
        bernoulli_mask, compile_schedule, replay_arrivals, replay_batch,
        spawn_seeds,
    )

    for scheme, degree in (("multi-tree", 2), ("hypercube", 3)):
        schedule = compile_schedule(scheme, 1023, degree, num_packets=16)
        seeds = spawn_seeds(42, 8)
        batch = replay_batch(schedule, seeds, 0.02, num_packets=4)
        for i, seed in enumerate(seeds):
            mask = bernoulli_mask(schedule, 0.02, seed)
            arrivals = replay_arrivals(schedule, drop_mask=mask)
            scalar = collect_repair_metrics(
                arrivals, num_packets=4, num_slots=schedule.num_slots)
            assert batch.metrics(i) == scalar, (scheme, i)
