"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from repro.exec import batch as kernel  # noqa: E402
from repro.service import runner as fleet_runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.02


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--scale", str(TINY), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_workload_lists_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert tuple(names) == workloads.WORKLOADS
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.LAYER_UNITS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert "stage table" in done.stdout
    else:
        assert result["metrics"]["correct_share"]["value"] == 1.0


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("fleet-homogeneous", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_child_intervals():
    spans = [
        tracing.Span("a:f", "a", 0.0, 10.0, -1, "w", "r"),
        tracing.Span("b:g", "b", 1.0, 4.0, 0, "w", "r"),
        tracing.Span("b:g", "b", 5.0, 6.0, 0, "w", "r"),
        tracing.Span("c:h", "c", 2.0, 3.0, 1, "w", "r"),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _traced_layers(workload: workloads.Workload, repeats: int = 5) -> dict[str, float]:
    tracer = tracing.Tracer(workload.name)
    names = []
    for index in range(repeats):
        with tracer.installed(f"run{index}"):
            workload.execute()
        names.append(f"run{index}")
    return tracing.layer_metrics(tracer, workload.offered, names, {}, 0.0)


def test_injected_delay_is_charged_to_its_layer(monkeypatch):
    workload = workloads.build("fleet-homogeneous", 1, TINY)
    workload.prepare()
    workload.execute()
    before = _traced_layers(workload)

    delay = 0.05
    original = fleet_runner.score_batch_sessions

    def slow_score(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    monkeypatch.setattr(fleet_runner, "score_batch_sessions", slow_score)
    after = _traced_layers(workload)

    calls = 1  # one kernel unit per run: every session shares one coordinate
    injected = delay * calls * 1e6 / workload.offered
    moved = (after["service.slo.score_us_per_session"]
             - before["service.slo.score_us_per_session"])
    assert moved == pytest.approx(injected, rel=0.2)
    others = [
        name for name, unit in tracing.LAYER_UNITS.items()
        if unit == "us" and name != "service.slo.score_us_per_session"
    ]
    for name in others:
        assert abs(after[name] - before[name]) < 0.1 * injected, name


def test_output_check_catches_a_wrong_slo(monkeypatch):
    workload = workloads.build("fleet-homogeneous", 2, TINY)
    workload.prepare()
    original = fleet_runner.score_batch_sessions

    def off_by_one(*args, **kwargs):
        return [
            dataclasses.replace(slo, startup_delay=slo.startup_delay + 1)
            for slo in original(*args, **kwargs)
        ]

    monkeypatch.setattr(fleet_runner, "score_batch_sessions", off_by_one)
    with workloads.FoldCapture() as capture:
        result = workload.execute()
    report = workload.check(result, capture.slos, seed=2)
    assert report.checked > 0
    assert len(report.failed) == report.checked


def test_sweep_check_catches_a_wrong_kernel_row(monkeypatch):
    workload = workloads.build("sweep-large-n", 2, TINY)
    workload.prepare()
    original = kernel.replay_batch

    def off_by_one(*args, **kwargs):
        batch = original(*args, **kwargs)
        batch.max_buffer[:] += 1
        return batch

    # The sweep's executor task looks replay_batch up in its module at call
    # time; the scalar oracle never calls it.
    monkeypatch.setattr(kernel, "replay_batch", off_by_one)
    report = workload.check(workload.execute(), [], seed=2)
    assert report.checked > 0
    assert len(report.failed) == report.checked


def test_simulated_figures_repeat_exactly():
    workload = workloads.build("control-ramp", 4, TINY)
    workload.prepare()
    first, second = workload.execute(), workload.execute()
    assert workload.fingerprint(first) == workload.fingerprint(second)
    assert workload.simulated(first) == workload.simulated(second)
