"""Control-plane smoke claims, run by CI as ``pytest -m smoke``.

Each test is one step of the ``control-plane-smoke`` CI job that used to be
an inline script, its assertions kept word for word.  The CLI runs as CI
ran it (``python -m repro control ...``), inside ``tmp_path``, with
``REPRO_LEDGER`` pointing at a ledger file there.

* ``test_controller_holds_the_slo_every_static_policy_violates`` —
  "Controller holds the SLO every static policy violates";
* ``test_decision_log_round_trips_through_the_run_ledger`` — "Decision log
  round-trips through the run ledger";
* ``test_controlled_fleet_via_the_experiment_facade`` — "Controlled fleet
  via the experiment facade".
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

SRC = Path(__file__).resolve().parent.parent / "src"


def _repro(*args: str, ledger: str) -> None:
    """Run ``python -m repro <args>`` in the current directory, recording
    into the run ledger at ``ledger``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["REPRO_LEDGER"] = ledger
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=600, env=env,
    )
    assert result.returncode == 0, result.stderr


def test_controller_holds_the_slo_every_static_policy_violates():
    from repro.control.scenario import RAMP_SLO, compare_policies

    outcomes = compare_policies(scale=0.2, seed=0)
    for policy in ("queue", "reject", "degrade"):
        outcome = outcomes[policy]
        assert not outcome.holds_slo, (policy, outcome.row())
        assert outcome.offered_p99 > RAMP_SLO, outcome.row()
    adaptive = outcomes["adaptive"]
    assert adaptive.holds_slo, adaptive.row()
    best = max(outcomes[p].throughput
               for p in ("queue", "reject", "degrade"))
    assert adaptive.throughput >= 0.9 * best, (adaptive.throughput, best)
    assert any(d.action == "retune" for d in adaptive.decisions)
    for policy in ("queue", "reject", "degrade", "adaptive"):
        print(outcomes[policy].row())


def test_decision_log_round_trips_through_the_run_ledger(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _repro("control", "--scale", "0.2", "--decisions", ledger="control_ledger.jsonl")
    assert Path("control_ledger.jsonl").stat().st_size > 0  # test -s

    from repro.control import decisions_from_record
    from repro.control.scenario import run_ramp
    from repro.reporting.ledger import RunLedger

    records = [r for r in RunLedger("control_ledger.jsonl")
               if r.get("record") == "control"]
    assert len(records) == 1, records
    replayed = decisions_from_record(records[0])
    rerun = run_ramp("adaptive", scale=0.2, seed=0)
    assert replayed == list(rerun.decisions), "replay != rerun"
    print("decision log replays:", [d.row() for d in replayed])


def test_controlled_fleet_via_the_experiment_facade(tmp_path, monkeypatch):
    # run() records into REPRO_LEDGER when it is set: keep it in tmp_path.
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
    from repro.exec.executor import ExecutorPolicy
    from repro.experiments import ExperimentSpec, run
    from repro.control.scenario import ramp_fleet
    from repro.reporting.ledger import run_record

    spec = ExperimentSpec(
        kind="fleet", fleet=ramp_fleet("adaptive", scale=0.2),
        executor=ExecutorPolicy(mode="serial"),
    )
    result = run(spec)
    assert result.artifacts["control_decisions"], "no decision rows"
    assert result.artifacts["epochs"], "no epoch rows"
    assert run_record(spec, result)["spec"]["controlled"] is True
    print("controlled run artifacts:",
          len(result.artifacts["control_decisions"]), "decisions,",
          len(result.artifacts["epochs"]), "epochs")
