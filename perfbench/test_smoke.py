"""Smoke test of the benchmark on one program at TEST_INPUT.

Run from the repository root with ``python3 -m pytest perfbench -q``
(the repository's own test suite does not collect this directory).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.runner import clear_cache  # noqa: E402
from repro.programs.inputs import TEST_INPUT, ProgramInput  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _measure(trace):
    return run.measure(
        "suite", 1, 0, trace,
        programs=["art"], program_input=[TEST_INPUT.name, TEST_INPUT.scale],
    )


def _units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_untraced_run_emits_every_end_to_end_metric():
    summary = _measure(False)["summary"]
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert _units(summary["metrics"]) == expected
    assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    record = _measure(True)
    summary = record["summary"]
    assert summary["correct"] and summary["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert _units(summary["metrics"]) == expected
    values = {name: m["value"] for name, m in summary["metrics"].items()}
    # Self times partition the traced wall time; the cold pass runs
    # every layer, the warm pass reads the detailed simulations back.
    layers = sum(values[name] for name in tracing.SELF_LAYERS)
    assert abs(layers - values["trace.wall_s"]) < 1e-6
    assert not [n for n in record["absent"] if not n.startswith("warm.")]
    assert values["cmpsim.runs"] == 4 and values["warm.cmpsim.runs"] == 0
    assert values["warm.runtime.cache.hit_ratio"] == 1.0


def test_tracing_wrappers_are_removed_afterwards(tmp_path):
    tracer = tracing.Tracer("experiments.run_benchmark")
    installation = tracing.install(tracer)
    try:
        assert tracing.leftover_wrappers()
        clear_cache()
        workloads.run_pass(
            "suite", TEST_INPUT, str(tmp_path / "a"), 1, programs=["art"]
        )
    finally:
        tracing.uninstall(installation)
    assert "cmpsim.run_full" in tracer.names
    assert tracing.leftover_wrappers() == []
    recorded = len(tracer.names)
    clear_cache()
    workloads.run_pass(
        "suite", TEST_INPUT, str(tmp_path / "b"), 1, programs=["art"]
    )
    assert len(tracer.names) == recorded


def test_speed_clock_times_segments_and_is_removed(tmp_path):
    clock = hostspeed.SpeedClock()
    clock.start()
    installation = hostspeed.install(clock)
    try:
        assert tracing.leftover_wrappers()
        clear_cache()
        workloads.run_pass(
            "suite", TEST_INPUT, str(tmp_path / "a"), 1, programs=["art"]
        )
    finally:
        clock.stop()
        tracing.uninstall(installation)
    assert tracing.leftover_wrappers() == []
    assert clock.segments >= 1 and clock.wall_s > 0 and clock.scaled_s > 0
    # A probe as slow as the reference leaves a time unchanged.
    assert hostspeed.scale(2.0, [hostspeed.PROBE_REF_S] * 2) == 2.0
    assert hostspeed.scale(2.0, [2 * hostspeed.PROBE_REF_S]) == 1.0


def test_held_back_windows_fix_the_work():
    from repro.programs.suite import BENCHMARK_SPECS

    for workload, (low, high) in workloads.HELD_BACK_SCALES.items():
        for spec in BENCHMARK_SPECS.values():
            trips = {
                ProgramInput("x", scale).resolve_trips(spec.repeats, True)
                for scale in (low, high)
            }
            assert len(trips) == 1, (workload, spec.name, trips)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
