"""Tests for repro.experiments.sweeps."""

import hashlib
from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.experiments.runner import (
    ExperimentConfig,
    clear_cache,
    run_benchmark,
    run_benchmark_sizes,
)
from repro.observability import metrics
from repro.runtime import ProfileCache, runtime_session
from repro.simpoint.simpoint import SimPointConfig
from repro.experiments.sweeps import (
    sweep_early_tolerance,
    sweep_interval_sizes,
    sweep_max_k,
)


@pytest.fixture(scope="module")
def art_run():
    return run_benchmark("art")


class TestMaxKSweep:
    def test_chosen_k_bounded_by_budget(self, art_run):
        results = sweep_max_k(art_run, (1, 4, 10))
        for budget, point in results.items():
            assert point.k <= budget

    def test_representation_error_improves_with_budget(self, art_run):
        results = sweep_max_k(art_run, (1, 10))
        assert (
            results[10].representation_error
            <= results[1].representation_error
        )

    def test_rejects_empty(self, art_run):
        with pytest.raises(SimulationError):
            sweep_max_k(art_run, ())


class TestEarlySweep:
    def test_monotone_earliness(self, art_run):
        results = sweep_early_tolerance(art_run, (0.0, 1.0, 1e9))
        indices = [
            results[t].last_point_index for t in (0.0, 1.0, 1e9)
        ]
        assert indices[0] >= indices[1] >= indices[2]

    def test_errors_stay_bounded(self, art_run):
        results = sweep_early_tolerance(art_run, (0.0, 1e9))
        for point in results.values():
            assert point.cpi_error <= 0.5

    def test_rejects_empty(self, art_run):
        with pytest.raises(SimulationError):
            sweep_early_tolerance(art_run, ())


class TestIntervalSizeSweep:
    def test_two_sizes_on_art(self):
        results = sweep_interval_sizes("art", (100_000, 200_000))
        assert (
            results[100_000].n_intervals > results[200_000].n_intervals
        )
        for point in results.values():
            assert point.k >= 1
            assert 0 <= point.vli_speedup_error < 1.0

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            sweep_interval_sizes("art", ())


_FAST_CONFIG = ExperimentConfig(
    interval_size=40_000, simpoint=SimPointConfig(max_k=3, n_init=2)
)
_SIZES = (30_000, 60_000)


def _tables(run):
    """Every measured figure of a run, compared exactly (floats too)."""
    return (
        run.cross.simpoint.k,
        [(p.cluster, p.interval_index) for p in run.cross.mapped_points],
        {
            label: (
                outcome.stats,
                outcome.fli_intervals,
                outcome.vli_intervals,
                outcome.fli_simpoint.points,
                outcome.fli_estimate,
                outcome.vli_estimate,
                dict(outcome.vli_weights),
            )
            for label, outcome in run.outcomes.items()
        },
    )


def _sweep(cache):
    """A fresh-memo art sweep on a cache: (points, runs, counters)."""
    clear_cache()
    with runtime_session(cache=cache), \
            metrics.scoped_registry() as registry:
        points = sweep_interval_sizes("art", _SIZES, _FAST_CONFIG, jobs=1)
        runs = run_benchmark_sizes(
            "art",
            [replace(_FAST_CONFIG, interval_size=size) for size in _SIZES],
        )
    clear_cache()
    return points, runs, registry.snapshot()["counters"]


class TestOneSimulationPerBinary:
    def test_sweep_simulates_each_binary_once(self, tmp_path):
        points, runs, cold = _sweep(ProfileCache(tmp_path / "sweep"))
        # 4 binaries x 2 sizes, every size's trackers on one run each.
        assert cold["cmpsim.full_runs"] == 4
        assert cold["cache.sim.misses"] == 8

        for size, run in zip(_SIZES, runs):
            clear_cache()
            config = replace(_FAST_CONFIG, interval_size=size)
            with runtime_session(cache=ProfileCache(tmp_path / str(size))):
                alone = run_benchmark("art", config, jobs=1)
                point = sweep_interval_sizes("art", [size], config)[size]
            clear_cache()
            assert _tables(run) == _tables(alone)
            assert points[size] == point

        warm_points, warm_runs, warm = _sweep(
            ProfileCache(tmp_path / "sweep")
        )
        assert warm.get("cmpsim.full_runs", 0) == 0
        assert warm["cache.sim.hits"] == 8
        assert warm_points == points
        assert [_tables(run) for run in warm_runs] == [
            _tables(run) for run in runs
        ]

    def test_configs_may_differ_only_in_interval_size(self):
        with pytest.raises(SimulationError, match="interval_size"):
            run_benchmark_sizes(
                "art",
                [_FAST_CONFIG, replace(_FAST_CONFIG, primary_index=1)],
            )


#: SHA-256 of every interval of a cold two-size art run (instructions,
#: ``float.hex`` of cycles and DRAM accesses, per binary, FLI and VLI).
#: Interval attribution must stay bit-identical; a change that moves a
#: single float changes this digest.
_INTERVAL_DIGEST = (
    "3b22a6a3fdb185149d79eddd81e41b7a"
    "bd9e202221002c351259cafeae314244"
)


class TestGoldenIntervalDigest:
    def test_interval_tables_are_pinned(self, tmp_path):
        clear_cache()
        with runtime_session(cache=ProfileCache(tmp_path)):
            runs = run_benchmark_sizes(
                "art",
                [replace(_FAST_CONFIG, interval_size=size) for size in _SIZES],
                jobs=1,
            )
        clear_cache()
        digest = hashlib.sha256()
        for run in runs:
            for label in sorted(run.outcomes):
                outcome = run.outcomes[label]
                for kind, intervals in (
                    ("fli", outcome.fli_intervals),
                    ("vli", outcome.vli_intervals),
                ):
                    digest.update(
                        f"{run.config.interval_size} {label} {kind} "
                        f"{len(intervals)}\n".encode()
                    )
                    for interval in intervals:
                        digest.update(
                            f"{interval.instructions} "
                            f"{interval.cycles.hex()} "
                            f"{interval.dram_accesses.hex()}\n".encode()
                        )
        assert digest.hexdigest() == _INTERVAL_DIGEST
