"""Fleet-runner smoke claims, run by CI as ``pytest -m smoke``.

Each test is one CI step that used to be an inline script, its assertions
kept word for word: the CLI runs as CI runs it (``python -m repro ...``),
inside ``tmp_path``, and the assertions read what it wrote there.

* ``test_report_schema_and_cache_amortization`` — fleet-service-smoke,
  "Fleet scenario (200 sessions, 2 workers)" plus "Report schema and cache
  amortization";
* ``test_chrome_trace_export`` — telemetry-smoke, "Chrome trace export":
  the trace must still hold the per-unit ``session.replay`` worker span.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

SRC = Path(__file__).resolve().parent.parent / "src"


def _repro(*args: str) -> None:
    """Run ``python -m repro <args>`` in the current directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=600, env=env,
    )
    assert result.returncode == 0, result.stderr


def test_report_schema_and_cache_amortization(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _repro("fleet", "--sessions", "200", "--workers", "2", "--mode", "parallel",
           "--json", "fleet.json")
    assert os.path.getsize("fleet.json") > 0  # test -s fleet.json

    from repro.reporting.export import read_fleet_report_json

    report = read_fleet_report_json("fleet.json")
    assert report.num_sessions == 200, report.num_sessions
    assert report.admitted + report.degraded == len(report.sessions)
    row = report.row()
    for field in ("admitted", "startup_p99", "delay_p99", "buffer_p99",
                  "reject_rate", "cache_hit_rate"):
        assert field in row, field
    assert report.cache_hit_rate > 0.9, report.cache_hit_rate
    print("fleet smoke:", row)


def test_chrome_trace_export(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _repro("fleet", "--sessions", "50", "--mode", "serial",
           "--config", "chain:8:1:6", "--chrome-trace", "trace.json")

    import json

    trace = json.load(open("trace.json"))
    names = {event["name"] for event in trace["traceEvents"]}
    assert "fleet.execute" in names and "session.replay" in names, names
    print("chrome trace:", len(trace["traceEvents"]), "events")
