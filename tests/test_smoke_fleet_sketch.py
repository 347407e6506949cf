"""Sketch-mode fleet smoke claims, run by CI as ``pytest -m smoke``.

The first test is the check the ``telemetry-smoke`` job used to run as the
inline script "Sketch aggregation and convergence (bounded memory)", kept
word for word: a sketch-mode fleet that runs until its startup quantile
converges stops early and keeps no per-session SLOs.  The second counts
the :class:`~repro.service.SessionSLO` objects a sketch-mode fleet builds:
its kernel batches are scored and folded as columns, so there are none.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.smoke


def test_sketch_aggregation_and_convergence_bounded_memory():
    from repro.exec.executor import ExecutorPolicy
    from repro.obs.convergence import ConvergenceCriterion
    from repro.service import (
        CapacityModel, FleetRunner, FleetSpec, SessionSpec,
    )

    fleet = FleetSpec(
        sessions=(SessionSpec(num_nodes=31, num_packets=8),
                  SessionSpec(scheme="chain", num_nodes=8, num_packets=8)),
        num_sessions=600,
        capacity=CapacityModel(source_fanout=1e9, backbone=1e9),
        seed=3,
        aggregation="sketch",
        run_until_converged=True,
        convergence=ConvergenceCriterion(min_count=64, check_every=64),
    )
    result = FleetRunner(policy=ExecutorPolicy(mode="serial")).run(fleet)
    assert result.report.sessions == (), "sketch mode materialized SLOs"
    assert result.convergence is not None and result.convergence.converged
    assert result.executor_info["tasks"] < 600, "no early stop"
    print("converged after", result.executor_info["tasks"], "sessions:",
          result.convergence.row())


def test_sketch_fleet_builds_no_session_objects(monkeypatch):
    import repro.service.slo as slo_module
    from repro.exec.executor import ExecutorPolicy
    from repro.service import CapacityModel, FleetRunner, FleetSpec, SessionSpec

    built = []
    session_slo = slo_module.SessionSLO

    def counted(*args, **kwargs):
        built.append(1)
        return session_slo(*args, **kwargs)

    monkeypatch.setattr(slo_module, "SessionSLO", counted)
    fleet = FleetSpec(
        sessions=(SessionSpec(num_nodes=31, num_packets=8, drop_rate=0.01),
                  SessionSpec(scheme="chain", num_nodes=8, num_packets=8)),
        num_sessions=2_000,
        capacity=CapacityModel(source_fanout=1e9, backbone=1e9),
        seed=3,
        aggregation="sketch",
    )
    result = FleetRunner(policy=ExecutorPolicy(mode="serial")).run(fleet)
    assert result.executor_info["tasks"] == 2_000
    assert result.report.sessions == ()
    assert not built, f"sketch mode built {len(built)} SessionSLO objects"
