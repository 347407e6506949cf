"""Parallel-executor smoke claim, run by CI as ``pytest -m smoke``.

``test_serial_vs_parallel_equality`` is the ``parallel-executor-smoke``
step "Serial vs parallel equality", its assertion kept word for word: a
sweep at rates 0.0 and 0.01 gives the same rows serially and on two
workers.  Each worker replays its own seed block, so the loss-free rows
are broadcast from one replay per block and must still match the serial
run's single block.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.smoke


def test_serial_vs_parallel_equality():
    from repro import ExecutorPolicy, ExperimentSpec, run

    base = ExperimentSpec(
        kind="sweep", scheme="multi-tree", num_nodes=255, degree=3,
        num_packets=16, seeds=range(8), drop_rates=(0.0, 0.01),
    )
    serial = run(base.with_(executor=ExecutorPolicy(mode="serial")))
    parallel = run(base.with_(
        executor=ExecutorPolicy(mode="parallel", max_workers=2)))
    assert serial.rows == parallel.rows, "serial != parallel sweep rows"
    print("rows:", len(serial.rows),
          "serial:", serial.provenance["executor"],
          "parallel:", parallel.provenance["executor"])
