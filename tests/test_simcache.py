"""Content-keyed reuse of detailed-simulation results.

Covers the key schema (stability and sensitivity), full-run reuse with
bit-identity against a fresh cache directory or the uncached path, sweep-level reuse (warm re-runs and resuming a
sweep killed mid-run), and the observability surface (manifest sim
block, ledger flattening, drift gate).
"""

import dataclasses
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cmpsim.config import TABLE1_CONFIG
from repro.cmpsim.simcache import (
    SIMRESULT_KIND,
    TrackedRun,
    TrackerRequest,
    cached_full_run,
    full_run_key,
)
from repro.cmpsim.simulator import CMPSim, FLITracker, VLITracker
from repro.core.matching import find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.experiments.runner import ExperimentConfig, clear_cache
from repro.experiments.sweeps import sweep_interval_sizes
from repro.observability import metrics
from repro.observability.diff import (
    DriftThresholds,
    check_drift,
    diff_runs,
)
from repro.observability.ledger import entry_from_manifest
from repro.observability.manifest import build_manifest, validate_manifest
from repro.observability.metrics import Registry
from repro.profiling.callbranch import collect_call_branch_profile
from repro.programs.inputs import REF_INPUT, TEST_INPUT
from repro.runtime import ProfileCache, fingerprint, runtime_session
from repro.simpoint.simpoint import SimPointConfig

from tests.conftest import MICRO_INTERVAL

#: Fast experiment settings for the sweep-level reuse tests.
_FAST_CONFIG = ExperimentConfig(
    interval_size=40_000, simpoint=SimPointConfig(max_k=3, n_init=2)
)

#: One serial art sweep in a fresh interpreter; argv: cache dir, output
#: stem. Writes ``<stem>.pkl`` (the pickled tables) and ``<stem>.json``
#: (the run's metric counters).
_SWEEP_SCRIPT = """
import json
import pickle
import sys

from repro.experiments.runner import ExperimentConfig
from repro.experiments.sweeps import sweep_interval_sizes
from repro.observability import metrics
from repro.runtime import ProfileCache, runtime_session
from repro.simpoint.simpoint import SimPointConfig

cache_dir, stem = sys.argv[1:]
config = ExperimentConfig(
    interval_size=40_000, simpoint=SimPointConfig(max_k=3, n_init=2)
)
with runtime_session(cache=ProfileCache(cache_dir)):
    with metrics.scoped_registry() as registry:
        tables = sweep_interval_sizes(
            "art", [30_000, 60_000], config, jobs=1
        )
with open(stem + ".pkl", "wb") as handle:
    pickle.dump(tables, handle)
with open(stem + ".json", "w") as handle:
    json.dump(registry.snapshot()["counters"], handle)
"""

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _start_sweep(cache_dir, stem):
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = _SRC
    return subprocess.Popen(
        [sys.executable, "-c", _SWEEP_SCRIPT, str(cache_dir), str(stem)],
        env=env,
    )


@pytest.fixture(scope="module")
def marked(micro_binary_list):
    """(binary, marker table, VLI intervals) for the micro 32u binary."""
    profiles = [
        (binary, collect_call_branch_profile(binary))
        for binary in micro_binary_list
    ]
    marker_set, _ = find_mappable_points(profiles)
    binary = micro_binary_list[0]
    intervals = collect_vli_bbvs(binary, marker_set, MICRO_INTERVAL)
    return binary, marker_set.table_for(binary.name), intervals


class TestKeySchema:
    def test_full_run_key_is_stable(self, micro_binary_32u):
        def key():
            return fingerprint(full_run_key(
                micro_binary_32u, TABLE1_CONFIG, REF_INPUT,
                MICRO_INTERVAL, None, None,
            ))

        assert key() == key()

    def test_full_run_key_tracks_every_input(self, marked,
                                             micro_binary_32o):
        binary, table, intervals = marked
        boundaries = tuple(
            interval.start_coord for interval in intervals[1:]
        )
        base = full_run_key(
            binary, TABLE1_CONFIG, REF_INPUT, MICRO_INTERVAL,
            table, boundaries,
        )
        variants = [
            # Different binary content.
            full_run_key(micro_binary_32o, TABLE1_CONFIG, REF_INPUT,
                         MICRO_INTERVAL, table, boundaries),
            # Different CMPSim memory configuration.
            full_run_key(binary,
                         dataclasses.replace(TABLE1_CONFIG,
                                             dram_latency=999),
                         REF_INPUT, MICRO_INTERVAL, table, boundaries),
            # Different program input.
            full_run_key(binary, TABLE1_CONFIG, TEST_INPUT,
                         MICRO_INTERVAL, table, boundaries),
            # Different FLI tracker granularity.
            full_run_key(binary, TABLE1_CONFIG, REF_INPUT,
                         MICRO_INTERVAL * 2, table, boundaries),
            # Different VLI boundaries.
            full_run_key(binary, TABLE1_CONFIG, REF_INPUT,
                         MICRO_INTERVAL, table, boundaries[:-1]),
        ]
        digests = {fingerprint(variant) for variant in variants}
        assert fingerprint(base) not in digests
        assert len(digests) == len(variants)


def _boundaries(intervals):
    return tuple(interval.start_coord for interval in intervals[1:])


class _SpyCache(ProfileCache):
    """A ProfileCache that records the key material it probes/stores."""

    def __init__(self, root):
        super().__init__(root)
        self.probed = []
        self.stored = []

    def lookup(self, kind, key_material):
        self.probed.append(key_material)
        return super().lookup(kind, key_material)

    def store(self, kind, key_material, value):
        self.stored.append(key_material)
        super().store(kind, key_material, value)


class TestCachedFullRun:
    def test_warm_run_bit_identical_and_counted(self, marked, tmp_path):
        binary, table, intervals = marked
        requests = [
            TrackerRequest(MICRO_INTERVAL, table, _boundaries(intervals))
        ]
        (fresh,) = cached_full_run(
            binary, requests, cache=ProfileCache(tmp_path / "fresh")
        )
        cache = ProfileCache(tmp_path / "warm")
        with metrics.scoped_registry() as local:
            (cold,) = cached_full_run(binary, requests, cache=cache)
            (warm,) = cached_full_run(binary, requests, cache=cache)
        assert isinstance(fresh, TrackedRun)
        assert pickle.dumps(fresh) == pickle.dumps(cold)
        assert pickle.dumps(fresh) == pickle.dumps(warm)
        row = cache.stats.by_kind[SIMRESULT_KIND]
        assert (row.hits, row.misses) == (1, 1)
        counters = local.snapshot()["counters"]
        assert counters["cache.sim.hits"] == 1
        assert counters["cache.sim.misses"] == 1
        assert counters["cmpsim.full_runs"] == 1

    def test_batched_requests_probe_the_single_request_keys(
        self, marked, tmp_path, monkeypatch
    ):
        binary, table, intervals = marked
        boundaries = _boundaries(intervals)
        sizes = (MICRO_INTERVAL, 2 * MICRO_INTERVAL)
        # Fill the cache the way a single-request run always has: one
        # run_full with one FLI and one VLI tracker, stored under
        # full_run_key.
        cache = _SpyCache(tmp_path)
        keys, stored = [], []
        for size in sizes:
            fli, vli = FLITracker(size), VLITracker(table, boundaries)
            result = CMPSim(binary).run_full(trackers=(fli, vli))
            keys.append(full_run_key(
                binary, TABLE1_CONFIG, REF_INPUT, size, table, boundaries
            ))
            stored.append(TrackedRun(
                result.stats, tuple(fli.intervals), tuple(vli.intervals)
            ))
            cache.store(SIMRESULT_KIND, keys[-1], stored[-1])

        def _bomb(self, *args, **kwargs):
            raise AssertionError("a stored request was re-simulated")

        monkeypatch.setattr(CMPSim, "run_full", _bomb)
        runs = cached_full_run(
            binary,
            [TrackerRequest(size, table, boundaries) for size in sizes],
            cache=cache,
        )
        assert [fingerprint(key) for key in cache.probed] == [
            fingerprint(key) for key in keys
        ]
        assert [pickle.dumps(run) for run in runs] == [
            pickle.dumps(run) for run in stored
        ]

    def test_one_size_prewarmed_simulates_once_for_the_rest(
        self, marked, tmp_path
    ):
        binary, table, intervals = marked
        boundaries = _boundaries(intervals)
        requests = [
            TrackerRequest(size, table, boundaries)
            for size in (MICRO_INTERVAL, 2 * MICRO_INTERVAL,
                         3 * MICRO_INTERVAL)
        ]
        singles = [
            cached_full_run(
                binary, [request],
                cache=ProfileCache(tmp_path / f"single{index}"),
            )[0]
            for index, request in enumerate(requests)
        ]
        cache = _SpyCache(tmp_path / "batched")
        cached_full_run(binary, requests[1:2], cache=cache)
        entry = next((tmp_path / "batched" / SIMRESULT_KIND).glob("*/*.pkl"))
        before = entry.read_bytes()
        cache.stored.clear()
        with metrics.scoped_registry() as local:
            runs = cached_full_run(binary, requests, cache=cache)
        counters = local.snapshot()["counters"]
        assert counters["cmpsim.full_runs"] == 1
        assert counters["cache.sim.hits"] == 1
        assert counters["cache.sim.misses"] == 2
        assert [fingerprint(key) for key in cache.stored] == [
            fingerprint(full_run_key(
                binary, TABLE1_CONFIG, REF_INPUT, *request
            ))
            for request in (requests[0], requests[2])
        ]
        assert entry.read_bytes() == before
        assert [pickle.dumps(run) for run in runs] == [
            pickle.dumps(run) for run in singles
        ]
        # Each size is its own interval structure of the same run.
        assert len({run.stats for run in runs}) == 1
        assert len({len(run.fli_intervals) for run in runs}) == 3


class TestSweepReuse:
    def test_warm_sweep_bit_identical_to_cold_and_uncached(self,
                                                           tmp_path):
        sizes = [30_000, 60_000]
        with runtime_session(cache=None):
            clear_cache()
            uncached = sweep_interval_sizes(
                "art", sizes, _FAST_CONFIG, jobs=1
            )
        cache = ProfileCache(tmp_path)
        with runtime_session(cache=cache):
            clear_cache()
            with metrics.scoped_registry() as cold_registry:
                cold = sweep_interval_sizes(
                    "art", sizes, _FAST_CONFIG, jobs=1
                )
            clear_cache()
            with metrics.scoped_registry() as warm_registry:
                warm = sweep_interval_sizes(
                    "art", sizes, _FAST_CONFIG, jobs=1
                )
        clear_cache()
        assert uncached == cold == warm
        cold_counters = cold_registry.snapshot()["counters"]
        warm_counters = warm_registry.snapshot()["counters"]
        assert "cache.sim.hits" not in cold_counters
        assert cold_counters["cache.sim.misses"] > 0
        assert "cache.sim.misses" not in warm_counters
        assert (
            warm_counters["cache.sim.hits"]
            == cold_counters["cache.sim.misses"]
        )

    def test_killed_sweep_resumes_from_the_cache(self, tmp_path):
        """A sweep SIGKILLed mid-run and re-run on the same cache dir
        reuses the detailed simulations it stored before dying, and its
        tables are byte-identical to a fresh run in an empty dir."""
        cache_dir = tmp_path / "cache"
        simresults = cache_dir / SIMRESULT_KIND
        killed = _start_sweep(cache_dir, tmp_path / "killed")
        try:
            deadline = time.monotonic() + 300
            while not any(simresults.glob("*/*.pkl")):
                assert killed.poll() is None, "sweep ended before the kill"
                assert time.monotonic() < deadline, "no simulation stored"
                time.sleep(0.02)
        finally:
            killed.kill()
        assert killed.wait(timeout=60) == -signal.SIGKILL
        assert not (tmp_path / "killed.pkl").exists()

        resumed = _start_sweep(cache_dir, tmp_path / "resumed")
        assert resumed.wait(timeout=600) == 0
        fresh = _start_sweep(tmp_path / "fresh-cache", tmp_path / "fresh")
        assert fresh.wait(timeout=600) == 0
        tables = (tmp_path / "resumed.pkl").read_bytes()
        assert tables == (tmp_path / "fresh.pkl").read_bytes()
        counters = json.loads((tmp_path / "resumed.json").read_text())
        assert counters.get("cache.simresult.hits", 0) > 0
        assert counters.get("cache.simresult.misses", 0) > 0


class TestObservabilitySurface:
    def _manifest(self, run_id, *, hits, misses, cache_stats=None):
        registry = Registry()
        if hits:
            registry.counter("cache.sim.hits").inc(hits)
        if misses:
            registry.counter("cache.sim.misses").inc(misses)
        return build_manifest(
            total_seconds=1.0,
            stages={"profile": 1.0},
            metrics_snapshot=registry.snapshot(),
            cache_stats=cache_stats,
            config_fingerprint="fp-sim",
            run_id=run_id,
        )

    def test_manifest_carries_kinds_and_sim_blocks(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cache.get_or_compute(SIMRESULT_KIND, ("key",), lambda: "value")
        cache.get_or_compute(SIMRESULT_KIND, ("key",), lambda: "unused")
        manifest = self._manifest(
            "run-sim", hits=1, misses=1, cache_stats=cache.stats
        )
        validate_manifest(manifest)
        kinds = manifest["cache"]["kinds"]
        assert kinds[SIMRESULT_KIND]["hits"] == 1
        assert kinds[SIMRESULT_KIND]["misses"] == 1
        sim = manifest["cache"]["sim"]
        assert sim == {
            "hits": 1, "misses": 1, "stale_evictions": 0,
            "reuse_ratio": 0.5,
        }

    def test_ledger_flattens_cache_sub_blocks(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cache.get_or_compute(SIMRESULT_KIND, ("key",), lambda: "value")
        manifest = self._manifest(
            "run-flat", hits=3, misses=1, cache_stats=cache.stats
        )
        entry = entry_from_manifest(manifest)
        assert entry.cache["sim.reuse_ratio"] == 0.75
        assert entry.cache[f"{SIMRESULT_KIND}.misses"] == 1
        assert entry.cache["hits"] == 0  # aggregate counters survive

    def test_min_sim_hit_rate_gate(self):
        old = entry_from_manifest(
            self._manifest("run-a", hits=4, misses=0)
        )
        warm = entry_from_manifest(
            self._manifest("run-b", hits=4, misses=0)
        )
        cold = entry_from_manifest(
            self._manifest("run-c", hits=0, misses=4)
        )
        # Off by default: a cold candidate is not drift.
        assert check_drift(diff_runs(old, cold)) == []
        limits = DriftThresholds(min_sim_hit_rate=0.5)
        assert check_drift(diff_runs(old, warm), limits) == []
        violations = check_drift(diff_runs(old, cold), limits)
        assert [v.kind for v in violations] == ["performance"]
        assert violations[0].delta.field == "sim.reuse_ratio"

    def test_inspect_renders_kinds_and_sim_lines(self, tmp_path):
        from repro.observability.inspect import render_manifest

        cache = ProfileCache(tmp_path)
        cache.get_or_compute(SIMRESULT_KIND, ("key",), lambda: "value")
        cache.get_or_compute(SIMRESULT_KIND, ("key",), lambda: "unused")
        manifest = self._manifest(
            "run-render", hits=1, misses=1, cache_stats=cache.stats
        )
        rendered = render_manifest(manifest)
        assert f"{SIMRESULT_KIND}: 1 hits / 1 misses" in rendered
        assert "sim-result reuse: 1 of 2 region lookups (50.0%)" \
            in rendered
