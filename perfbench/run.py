"""The repository benchmark: one workload, timed end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-homogeneous --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints the
per-layer metrics of a separate traced run, plus the stage table.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every measurement runs in fresh interpreters started from here
(``worker.py``) with an environment cleared of the program's cache, ledger
and model-cache variables, so no run reuses what an earlier one left on
disk.  ``setup_s`` is the median over :data:`SETUP_SAMPLES` interpreters of
the time from start to "workload ready", scaled to a fixed host speed as
``us_per_session`` is (see :data:`REFERENCE_NOMINAL_S`).  The benchmark
writes only below ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_UNITS  # noqa: E402  (standard library only)

OUT_DIR = ROOT / ".perfbench_out"

#: Fresh interpreters timed from start to "workload ready" per run.
SETUP_SAMPLES = 11

#: Hard limit on one worker process, in seconds.
WORKER_TIMEOUT = 150.0

#: Median time of ``worker.Reference`` on the host that fixed this constant
#: (2 vCPUs of an "Intel(R) Xeon(R) Processor" at 2.0 GHz).  ``us_per_session``
#: and ``setup_s`` are wall times scaled to that host speed: the median over
#: samples of measured time x (this constant / the reference time measured
#: next to it).
REFERENCE_NOMINAL_S = 0.072

#: Environment variables that point the program at on-disk state.
HERMETIC_UNSET = ("REPRO_CACHE_DIR", "REPRO_CACHE_MAX_BYTES", "REPRO_LEDGER",
                  "REPRO_MODEL_CACHE")

END_TO_END_UNITS = {
    "us_per_session": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_share": "ratio",
    "executed_share": "ratio",
    "startup_p99_slots": "slots",
    "buffer_p99_pkts": "packets",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _environment() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_UNSET}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: argparse.Namespace, env: dict[str, str], *,
            setup_only: bool) -> tuple[float, float, dict | None]:
    """Run one worker.

    Returns its start-to-ready seconds, the reference kernel's time just
    after, and its result.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout is not None
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        second = proc.stdout.readline()
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker for {args.workload} timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    tag, _, reference = second.partition(" ")
    if first.strip() != "READY" or tag != "REFERENCE" or proc.returncode != 0:
        raise BenchmarkError(
            f"worker for {args.workload} failed (exit {proc.returncode})"
        )
    if setup_only:
        return ready, float(reference), None
    return ready, float(reference), json.loads(rest.strip().splitlines()[-1])


def _at_reference_speed(seconds: list[float], reference_s: list[float]) -> float:
    """Median of the times, each scaled by the reference time paired with it."""
    return statistics.median(
        t * REFERENCE_NOMINAL_S / ref for t, ref in zip(seconds, reference_s)
    )


def _host(versions: dict[str, str]) -> dict[str, object]:
    """What every run records about where it ran."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10)
            if found.returncode == 0:
                commit = found.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def measure(args: argparse.Namespace) -> dict:
    """Run the workload and return the final result object."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source under {ROOT / 'src'}")
    env = _environment()
    # Compile bytecode up front so no set-up sample pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    setups: list[float] = []
    setup_refs: list[float] = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, reference, _ = _worker(args, env, setup_only=True)
            setups.append(ready)
            setup_refs.append(reference)
    ready, reference, result = _worker(args, env, setup_only=False)
    setups.append(ready)
    setup_refs.append(reference)
    assert result is not None
    host = _host(result.pop("versions"))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host, "setup_samples": setups,
              "setup_reference_s": setup_refs, **result}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("host: " + json.dumps(host))
    for note in result["notes"]:
        print("check: " + note.rstrip())
    times = result["us_per_session"]
    speed = REFERENCE_NOMINAL_S / statistics.median(result["reference_s"])
    print(f"wall us per session over {len(times)} timed runs: median "
          f"{statistics.median(times):.2f}, min {min(times):.2f}, max {max(times):.2f}; "
          f"median host speed factor {speed:.4f}; "
          f"wall setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
    if args.trace:
        print(f"stage table ({args.workload}, traced, us per offered session):")
        for line in result["stages"]:
            print("  " + line)
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        values = {
            "us_per_session": _at_reference_speed(times, result["reference_s"]),
            "setup_s": _at_reference_speed(setups, setup_refs),
            "peak_rss_mb": result["peak_rss_mb"],
            "correct_share": result["correct_share"],
            **result["simulated"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (1.0 is the benchmarked size)")
    args = parser.parse_args()
    try:
        result = measure(args)
    except (BenchmarkError, subprocess.CalledProcessError, OSError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
