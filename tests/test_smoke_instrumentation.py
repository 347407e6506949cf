"""Instrumentation smoke claim, run by CI as ``pytest -m smoke``.

``test_event_streams_replay`` is the ``instrumentation-smoke`` steps
"Instrumented simulate (multi-tree)", "Instrumented simulate (hypercube)"
and "Event streams replay", the assertions kept word for word: the CLI
writes a JSONL event stream per scheme inside ``tmp_path``, and each
stream reads back with one ``run_start`` and some deliveries.
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


def test_event_streams_replay(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _repro("simulate", "--scheme", "multi-tree", "-n", "63", "-p", "16",
           "--profile", "--trace-events", "events_mt.jsonl")
    assert os.path.getsize("events_mt.jsonl") > 0  # test -s events_mt.jsonl
    _repro("simulate", "--scheme", "hypercube", "-n", "63", "-p", "16",
           "--profile", "--trace-events", "events_hc.jsonl")
    assert os.path.getsize("events_hc.jsonl") > 0  # test -s events_hc.jsonl

    from repro.obs.events import count_events, read_events_jsonl

    for path in ("events_mt.jsonl", "events_hc.jsonl"):
        counts = count_events(read_events_jsonl(path))
        assert counts["run_start"] == 1, (path, counts)
        assert counts["tx_delivered"] > 0, (path, counts)
        print(path, dict(counts))
