"""Tests for process-pool fan-out: determinism, fallback, propagation."""

import concurrent.futures
import os
import signal

import pytest

from repro.core.pipeline import (
    CrossBinaryConfig,
    run_cross_binary_simpoint,
    run_per_binary_simpoints,
)
from repro.errors import ReproError, SimulationError
from repro.observability import metrics
from repro.programs.inputs import TEST_INPUT
from repro.runtime import ProfileCache, parallel_map, runtime_session
from repro.runtime import parallel
from repro.simpoint.simpoint import SimPointConfig

from tests.conftest import MICRO_INTERVAL

#: Fast clustering settings for the pipeline-equivalence tests.
_FAST_SIMPOINT = SimPointConfig(max_k=4, n_init=2)


def _square(value):
    return value * value


def _worker_pid(_value):
    return os.getpid()


def _raise_repro_error(value):
    raise SimulationError(f"worker failed on {value}")


def _raise_value_error(value):
    raise ValueError(f"worker failed on {value}")


def _die_on_two(value):
    # Task 2 only runs after a worker finished task 0 or 1, so the
    # pool always breaks with at least one success in hand.
    if value == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


def _die_in_worker(value):
    # Kills every pool worker but is harmless in the main process, so
    # the serial fallback after a zero-success pool run can finish.
    if parallel._in_worker:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


def _nested_fanout(value):
    # A worker fanning out again must degrade to a serial loop rather
    # than spawning a pool inside the pool.
    return parallel_map(_square, [value, value + 1], jobs=4)


def _square_with_metrics(value):
    # Custom metrics recorded inside the task, so pooled and
    # serial-fallback runs can be compared snapshot-for-snapshot.
    metrics.counter("task.calls").inc()
    metrics.gauge("task.last_value").set(float(value))
    metrics.histogram("task.value").observe(float(value))
    return value * value


class TestParallelMap:
    def test_results_in_input_order(self):
        items = list(range(32))
        assert parallel_map(_square, items, jobs=4) == [
            i * i for i in items
        ]

    def test_serial_when_jobs_is_one(self):
        pids = parallel_map(_worker_pid, range(4), jobs=1)
        assert set(pids) == {os.getpid()}

    def test_parallel_uses_worker_processes(self):
        pids = parallel_map(_worker_pid, range(16), jobs=4)
        assert os.getpid() not in pids

    def test_repro_jobs_env_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        pids = parallel_map(_worker_pid, range(4))
        assert set(pids) == {os.getpid()}

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        pids = parallel_map(_worker_pid, range(4))
        assert set(pids) == {os.getpid()}

    def test_session_default_jobs_used(self):
        with runtime_session(jobs=2):
            pids = parallel_map(_worker_pid, range(8))
        assert os.getpid() not in pids

    def test_single_item_runs_in_process(self):
        assert parallel_map(_worker_pid, [0], jobs=8) == [os.getpid()]

    def test_empty_input(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_repro_error_propagates_from_worker(self):
        with pytest.raises(SimulationError, match="worker failed on"):
            parallel_map(_raise_repro_error, range(4), jobs=2)
        assert issubclass(SimulationError, ReproError)

    def test_other_exceptions_propagate_from_worker(self):
        with pytest.raises(ValueError, match="worker failed on"):
            parallel_map(_raise_value_error, range(4), jobs=2)

    def test_exceptions_propagate_serially(self):
        with pytest.raises(SimulationError):
            parallel_map(_raise_repro_error, range(4), jobs=1)

    def test_nested_fanout_degrades_to_serial(self):
        results = parallel_map(_nested_fanout, [1, 10], jobs=2)
        assert results == [[1, 4], [100, 121]]


class TestBrokenPoolHandling:
    """Regression: a worker dying mid-run used to be silently retried
    serially — including its side effects — masquerading as the
    startup-failure fallback. Now only genuine startup failures fall
    back; a mid-run death with work already done is an error naming
    the task that killed the pool."""

    def test_midrun_worker_death_raises_and_names_the_task(self):
        # Which task number gets blamed depends on pool scheduling
        # (the doomed task can be claimed before or after its
        # neighbors complete); the invariant is that a mid-run death
        # raises and names *a* task instead of falling back silently.
        with pytest.raises(
            ReproError,
            match=r"worker process died while running task \d+/6",
        ):
            parallel_map(_die_on_two, range(6), jobs=2)

    def test_pool_startup_failure_falls_back_to_serial(self, monkeypatch):
        def _no_pool(*args, **kwargs):
            raise OSError("process spawn forbidden")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _no_pool
        )
        with metrics.scoped_registry() as local:
            results = parallel_map(_square, range(6), jobs=2)
        assert results == [i * i for i in range(6)]
        assert local.snapshot()["counters"]["parallel.pool_fallback"] == 1

    def test_zero_successes_still_falls_back_to_serial(self):
        """All workers dying before any task completes is
        indistinguishable from a pool that never started — fall back
        serially (in the main process, where the fn is harmless)."""
        with metrics.scoped_registry() as local:
            results = parallel_map(_die_in_worker, range(4), jobs=2)
        assert results == [i * 10 for i in range(4)]
        assert local.snapshot()["counters"]["parallel.pool_fallback"] == 1


class TestFallbackMetricsParity:
    """The serial fallback must merge task metrics exactly like the
    pooled path: counters and histogram buckets are additive (so
    totals match regardless of which worker — or no worker — ran each
    task), and gauges resolve to the last *snapshot-order* write, which
    for ``parallel_map`` is input order on both paths."""

    def _run(self, broken, monkeypatch):
        if broken:
            def _no_pool(*args, **kwargs):
                raise OSError("process spawn forbidden")

            monkeypatch.setattr(
                concurrent.futures, "ProcessPoolExecutor", _no_pool
            )
        with metrics.scoped_registry() as local:
            results = parallel_map(_square_with_metrics, range(8), jobs=2)
        assert results == [i * i for i in range(8)]
        return local.snapshot()

    def test_custom_metrics_identical_to_pooled_path(self, monkeypatch):
        pooled = self._run(False, monkeypatch)
        fallback = self._run(True, monkeypatch)
        assert fallback["counters"]["parallel.pool_fallback"] == 1
        assert "parallel.pool_fallback" not in pooled["counters"]
        assert (
            pooled["counters"]["task.calls"]
            == fallback["counters"]["task.calls"]
            == 8
        )
        # Gauge merge order follows task order, not completion order:
        # the last task's write wins on both paths.
        assert (
            pooled["gauges"]["task.last_value"]
            == fallback["gauges"]["task.last_value"]
            == 7.0
        )
        # Bucket counts are exact and order-insensitive, so the whole
        # distribution — not just the moments — must line up.
        assert (
            pooled["histograms"]["task.value"]["buckets"]
            == fallback["histograms"]["task.value"]["buckets"]
        )
        assert (
            pooled["histograms"]["task.value"]["count"]
            == fallback["histograms"]["task.value"]["count"]
            == 8
        )


class TestPipelineParallelEquivalence:
    def test_cross_pipeline_bit_identical(self, micro_binary_list):
        config = CrossBinaryConfig(
            interval_size=MICRO_INTERVAL, simpoint=_FAST_SIMPOINT
        )
        serial = run_cross_binary_simpoint(micro_binary_list, config)
        fanned = run_cross_binary_simpoint(
            micro_binary_list, config, jobs=2
        )
        assert serial == fanned

    def test_cross_pipeline_env_jobs(self, micro_binary_list,
                                     monkeypatch):
        config = CrossBinaryConfig(
            interval_size=MICRO_INTERVAL, simpoint=_FAST_SIMPOINT
        )
        serial = run_cross_binary_simpoint(micro_binary_list, config)
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert run_cross_binary_simpoint(micro_binary_list, config) == serial

    def test_per_binary_simpoints_bit_identical(self, micro_binary_list):
        serial = run_per_binary_simpoints(
            micro_binary_list, MICRO_INTERVAL, _FAST_SIMPOINT
        )
        fanned = run_per_binary_simpoints(
            micro_binary_list, MICRO_INTERVAL, _FAST_SIMPOINT, jobs=2
        )
        assert list(serial) == [b.name for b in micro_binary_list]
        assert list(fanned) == list(serial)
        assert fanned == serial


class TestExperimentRunnerParallel:
    def test_run_benchmark_bit_identical(self):
        from repro.experiments import runner

        saved = dict(runner._CACHE)
        try:
            runner.clear_cache()
            serial = runner.run_benchmark("art")
            runner.clear_cache()
            fanned = runner.run_benchmark("art", jobs=2)
            assert serial == fanned
        finally:
            runner._CACHE.clear()
            runner._CACHE.update(saved)

    def test_run_suite_parallel_matches_serial(self):
        from repro.experiments import runner

        saved = dict(runner._CACHE)
        try:
            runner.clear_cache()
            serial = runner.run_suite(["art"])
            runner.clear_cache()
            fanned = runner.run_suite(["art"], jobs=2)
            assert list(fanned) == ["art"]
            assert fanned == serial
        finally:
            runner._CACHE.clear()
            runner._CACHE.update(saved)


class TestOptionsReachWorkers:
    def test_suite_workers_keep_the_sessions_threshold(self, tmp_path):
        from repro.experiments import runner

        config = runner.ExperimentConfig(
            program_input=TEST_INPUT,
            interval_size=40_000,
            simpoint=_FAST_SIMPOINT,
        )
        cache = ProfileCache(tmp_path)
        saved = dict(runner._CACHE)
        try:
            runner.clear_cache()
            with runtime_session(
                jobs=2, cache=cache, match_confidence=0.7
            ):
                runs = runner.run_suite(["art", "swim"], config)
        finally:
            runner._CACHE.clear()
            runner._CACHE.update(saved)
        for run in runs.values():
            assert run.cross.match_report.confidence_threshold == 0.7
            assert run.cross.marker_set.fuzzy_points()
        # The workers' cache statistics are folded into the parent's.
        assert cache.stats.misses > 0
