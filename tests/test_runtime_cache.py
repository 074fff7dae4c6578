"""Tests for the runtime profile cache and content fingerprints."""

import dataclasses
import importlib
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cmpsim.config import TABLE1_CONFIG
from repro.cmpsim.simcache import SIMRESULT_KIND, full_run_key
from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import TARGET_32O, TARGET_32U
from repro.core.pipeline import (
    CrossBinaryConfig,
    run_cross_binary_simpoint,
)
from repro.core.weights import phase_weights
from repro.errors import ReproError
from repro.execution.trace import clear_trace_memo
from repro.observability import metrics
from repro.profiling.bbv import collect_fli_bbvs
from repro.profiling.callbranch import collect_call_branch_profile
from repro.programs.inputs import ProgramInput, REF_INPUT, TEST_INPUT
from repro.runtime import ProfileCache, fingerprint, runtime_session
from repro.runtime.cache import (
    CACHE_FORMAT_VERSION,
    cache_from_root,
    merge_stats,
)
from repro.runtime.config import active_cache, resolve_jobs
from repro.runtime.fingerprint import FingerprintError
from repro.simpoint.clustercache import CLUSTERING_KIND, clustering_key
from repro.simpoint.simpoint import SimPointConfig

from tests.conftest import MICRO_INTERVAL, build_micro_program
from tests.oracles import reference_fingerprint
from tests.strategies import key_materials

# The package re-exports the function under the submodule's name.
fingerprint_module = importlib.import_module("repro.runtime.fingerprint")


class TestFingerprint:
    def test_stable_across_calls(self):
        assert fingerprint(REF_INPUT) == fingerprint(REF_INPUT)
        assert fingerprint({"a": 1, "b": 2}) == fingerprint(
            {"b": 2, "a": 1}
        )

    def test_sensitive_to_values(self):
        assert fingerprint(REF_INPUT) != fingerprint(TEST_INPUT)
        assert fingerprint(1) != fingerprint(2)
        assert fingerprint(1.0) != fingerprint(1)
        assert fingerprint((1, 2)) != fingerprint((2, 1))

    def test_distinguishes_float_precision(self):
        assert fingerprint(0.1) != fingerprint(
            0.1 + 1e-17
        ) or 0.1 == 0.1 + 1e-17
        assert fingerprint(0.5) != fingerprint(0.25)

    def test_binary_fingerprint_tracks_content(self, micro_binary_32u,
                                               micro_binary_32o):
        assert fingerprint(micro_binary_32u) == fingerprint(
            micro_binary_32u
        )
        assert fingerprint(micro_binary_32u) != fingerprint(
            micro_binary_32o
        )

    def test_sets_are_order_independent(self):
        assert fingerprint(frozenset({"x", "y"})) == fingerprint(
            frozenset({"y", "x"})
        )

    def test_rejects_unknown_types(self):
        with pytest.raises(FingerprintError):
            fingerprint(object())
        assert isinstance(FingerprintError("x"), ReproError)


class TestGoldenDigests:
    """Cache addresses pinned byte for byte: any change to the key
    encoding orphans every existing cache directory, so it must fail
    here first."""

    def test_full_run_key(self, micro_binary_32u):
        key = full_run_key(
            micro_binary_32u, TABLE1_CONFIG, REF_INPUT, MICRO_INTERVAL,
            None, None,
        )
        assert fingerprint(key) == (
            "2264ca981946cd8e98d74d0f6949eb01"
            "55a15e7272500717506c26fc1dfba010"
        )
        assert fingerprint(
            SIMRESULT_KIND, CACHE_FORMAT_VERSION, list(key)
        ) == (
            "794fe9b7fd7ba951c0069475bf3ddf74"
            "2d135c8bd2583516f125f3aa61136ca2"
        )

    def test_callbranch_key(self, micro_binary_32u):
        assert fingerprint(
            "callbranch", CACHE_FORMAT_VERSION, [micro_binary_32u, REF_INPUT]
        ) == (
            "c656dc9c94d81f6779c206ba7626c4be"
            "ad5cbf0ecae39e11df562f72d8ff885d"
        )

    def test_clustering_key(self):
        key = clustering_key(
            np.arange(12, dtype=np.float64).reshape(4, 3) / 7.0,
            np.array([0.1, 0.2, 0.3, 0.4]),
            max_k=3, bic_threshold=0.9, n_init=5, max_iter=100, seed=0,
            k_search="exhaustive",
        )
        assert fingerprint(
            CLUSTERING_KIND, CACHE_FORMAT_VERSION, list(key)
        ) == (
            "8943681862567f2dd3fec9cbf5cfa9c0"
            "aefbf752c2955d31927351bd32c18ad4"
        )


def _memoizable(objects):
    """Distinct frozen dataclasses the memo can reach in key material."""
    found = {}
    stack = list(objects)
    while stack:
        obj = stack.pop()
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            if type(obj).__dataclass_params__.frozen:
                found[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return found


@pytest.fixture(scope="module")
def cold_art_keys(tmp_path_factory):
    """Every key a cold serial ``art`` run digests, plus its counters."""
    from repro.experiments import runner
    from repro.runtime import cache as cache_module

    keys = []
    memoized = cache_module.fingerprint

    def recording(*objects):
        keys.append(objects)
        return memoized(*objects)

    saved = dict(runner._CACHE)
    cache = ProfileCache(tmp_path_factory.mktemp("cold-art"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_module, "fingerprint", recording)
        try:
            runner.clear_cache()
            clear_trace_memo()
            fingerprint_module._memo.clear()
            with metrics.scoped_registry() as registry, runtime_session(
                jobs=1, cache=cache
            ):
                runner.run_benchmark("art")
        finally:
            runner._CACHE.clear()
            runner._CACHE.update(saved)
    return keys, registry.snapshot()["counters"]


class TestMemoizedFingerprint:
    """The per-process memo never changes a digest."""

    def test_cold_art_keys_match_the_one_shot_encoder(self, cold_art_keys):
        keys, _ = cold_art_keys
        assert keys
        for objects in keys:
            assert fingerprint(*objects) == reference_fingerprint(*objects)

    def test_cold_art_encodes_each_key_object_once(self, cold_art_keys):
        keys, counters = cold_art_keys
        distinct = _memoizable(
            [obj for objects in keys for obj in objects]
        )
        assert counters["fingerprint.memo_misses"] <= len(distinct)
        assert counters["fingerprint.memo_hits"] > 0

    @settings(max_examples=200, deadline=None)
    @given(key_materials())
    def test_nested_values_match_the_one_shot_encoder(self, value):
        assert fingerprint(value) == reference_fingerprint(value)
        assert fingerprint("kind", 2, [value, (value,)]) == (
            reference_fingerprint("kind", 2, [value, (value,)])
        )

    def test_evicted_entries_reencode_identically(self):
        capacity = fingerprint_module._MEMO_CAPACITY
        inputs = [
            ProgramInput(name=f"in{i}", scale=1.0 + i)
            for i in range(capacity + 8)
        ]
        fingerprint_module._memo.clear()
        first = [fingerprint(item) for item in inputs]
        assert len(fingerprint_module._memo) == capacity
        assert id(inputs[0]) not in fingerprint_module._memo
        assert first == [reference_fingerprint(item) for item in inputs]
        assert fingerprint(inputs) == reference_fingerprint(inputs)
        assert [fingerprint(item) for item in inputs] == first

    def test_equal_binaries_share_a_digest(self, micro_binaries):
        again = compile_standard_binaries(build_micro_program())
        for target in (TARGET_32U, TARGET_32O):
            assert again[target] is not micro_binaries[target]
            assert fingerprint(again[target]) == fingerprint(
                micro_binaries[target]
            ) == reference_fingerprint(micro_binaries[target])


class TestProfileCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ProfileCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"value": 42}

        first = cache.get_or_compute("kind", ("key",), compute)
        second = cache.get_or_compute("kind", ("key",), compute)
        assert first == second == {"value": 42}
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.bytes_written > 0
        assert cache.stats.bytes_read > 0
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_distinct_keys_distinct_entries(self, tmp_path):
        cache = ProfileCache(tmp_path)
        a = cache.get_or_compute("kind", (1,), lambda: "a")
        b = cache.get_or_compute("kind", (2,), lambda: "b")
        assert (a, b) == ("a", "b")
        assert cache.stats.misses == 2

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cache.get_or_compute("kind", ("key",), lambda: "good")
        entries = list(tmp_path.rglob("*.pkl"))
        assert len(entries) == 1
        entries[0].write_bytes(b"not a pickle")
        value = cache.get_or_compute("kind", ("key",), lambda: "recomputed")
        assert value == "recomputed"
        # And the rewritten entry is usable again.
        fresh = cache_from_root(tmp_path)
        assert fresh.get_or_compute(
            "kind", ("key",), lambda: "unused"
        ) == "recomputed"

    def test_stale_entry_naming_missing_module_is_evicted(self, tmp_path):
        """Regression: an entry pickled before a refactor can reference
        a module that no longer exists; loading it raises
        ModuleNotFoundError, not a pickle error, and used to crash
        every future lookup of that key."""
        cache = ProfileCache(tmp_path)
        cache.get_or_compute("kind", ("key",), lambda: "good")
        entry = next(tmp_path.rglob("*.pkl"))
        entry.write_bytes(b"cgone_module_xyz\nKlass\n.")
        with pytest.raises(ModuleNotFoundError):
            pickle.loads(entry.read_bytes())  # the crash shape
        with metrics.scoped_registry() as local:
            value = cache.get_or_compute(
                "kind", ("key",), lambda: "recomputed"
            )
        assert value == "recomputed"
        assert local.snapshot()["counters"]["cache.stale_evictions"] == 1
        # The stale bytes are gone; a fresh handle hits the rewrite.
        fresh = cache_from_root(tmp_path)
        assert fresh.get_or_compute(
            "kind", ("key",), lambda: "unused"
        ) == "recomputed"
        assert fresh.stats.hits == 1

    def test_stale_entry_naming_missing_attribute_is_evicted(
        self, tmp_path
    ):
        """Same refactor scenario when the module survives but the
        class moved out of it: unpickling raises AttributeError."""
        cache = ProfileCache(tmp_path)
        cache.get_or_compute("kind", ("key",), lambda: "good")
        entry = next(tmp_path.rglob("*.pkl"))
        entry.write_bytes(b"crepro.errors\nNoSuchClass12345\n.")
        with pytest.raises(AttributeError):
            pickle.loads(entry.read_bytes())
        with metrics.scoped_registry() as local:
            value = cache.get_or_compute(
                "kind", ("key",), lambda: "recomputed"
            )
        assert value == "recomputed"
        assert local.snapshot()["counters"]["cache.stale_evictions"] == 1

    def test_eviction_race_with_another_handle_is_benign(self, tmp_path):
        """Two handles can race to evict the same stale entry; the
        loser's unlink hits a missing file and must not raise."""
        cache = ProfileCache(tmp_path)
        cache.get_or_compute("kind", ("key",), lambda: "good")
        entry = next(tmp_path.rglob("*.pkl"))
        entry.unlink()  # the other handle got there first
        cache._evict_stale("kind", entry)  # must not raise

    def test_shared_root_across_handles(self, tmp_path):
        writer = ProfileCache(tmp_path)
        writer.get_or_compute("kind", ("key",), lambda: [1, 2, 3])
        reader = cache_from_root(tmp_path)
        assert reader.get_or_compute(
            "kind", ("key",), lambda: "unused"
        ) == [1, 2, 3]
        assert reader.stats.hits == 1

    def test_merge_stats(self, tmp_path):
        parent = ProfileCache(tmp_path)
        worker = ProfileCache(tmp_path)
        worker.get_or_compute("kind", ("key",), lambda: "x")
        merge_stats(parent, [worker.stats, None])
        assert parent.stats.misses == 1
        merge_stats(None, [worker.stats])  # no-op without a cache

    def test_cache_from_root_none(self):
        assert cache_from_root(None) is None

    def test_per_kind_counters(self, tmp_path):
        cache = ProfileCache(tmp_path)
        with metrics.scoped_registry() as local:
            cache.get_or_compute("alpha", ("a",), lambda: "a")
            cache.get_or_compute("alpha", ("a",), lambda: "a")
            cache.get_or_compute("beta", ("b",), lambda: "b")
        alpha = cache.stats.by_kind["alpha"]
        beta = cache.stats.by_kind["beta"]
        assert (alpha.hits, alpha.misses) == (1, 1)
        assert (beta.hits, beta.misses) == (0, 1)
        assert alpha.bytes_written > 0 and alpha.bytes_read > 0
        assert beta.bytes_read == 0
        # Kinds sum to the aggregate.
        assert alpha.hits + beta.hits == cache.stats.hits
        assert alpha.misses + beta.misses == cache.stats.misses
        counters = local.snapshot()["counters"]
        assert counters["cache.alpha.hits"] == 1
        assert counters["cache.alpha.misses"] == 1
        assert counters["cache.beta.misses"] == 1
        assert "cache.beta.hits" not in counters

    def test_merge_folds_per_kind_rows(self, tmp_path):
        parent = ProfileCache(tmp_path)
        parent.get_or_compute("alpha", ("a",), lambda: "a")
        worker = ProfileCache(tmp_path)
        worker.get_or_compute("alpha", ("a",), lambda: "unused")  # hit
        worker.get_or_compute("beta", ("b",), lambda: "b")
        merge_stats(parent, [worker.stats])
        alpha = parent.stats.by_kind["alpha"]
        assert (alpha.hits, alpha.misses) == (1, 1)
        assert parent.stats.by_kind["beta"].misses == 1

    def test_format_version_salts_every_key(self, tmp_path, monkeypatch):
        from repro.runtime import cache as cache_module

        cache = ProfileCache(tmp_path)
        cache.get_or_compute("kind", ("key",), lambda: "v-current")
        monkeypatch.setattr(
            cache_module,
            "CACHE_FORMAT_VERSION",
            cache_module.CACHE_FORMAT_VERSION + 1,
        )
        # Same key under a bumped format version: the old entry is
        # simply never addressed — a clean miss, no eviction.
        value = cache.get_or_compute("kind", ("key",), lambda: "v-next")
        assert value == "v-next"
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert cache.stats.stale_evictions == 0


class TestRuntimeConfig:
    def test_session_installs_and_restores(self, tmp_path, monkeypatch):
        for var in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_NO_CACHE"):
            monkeypatch.delenv(var, raising=False)
        assert active_cache() is None
        cache = ProfileCache(tmp_path)
        with runtime_session(jobs=3, cache=cache):
            assert active_cache() is cache
            assert resolve_jobs() == 3
            assert resolve_jobs(1) == 1
        assert active_cache() is None
        assert resolve_jobs() == 1

    def test_env_variables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert resolve_jobs() == 2
        monkeypatch.setenv("REPRO_JOBS", "junk")
        with pytest.raises(ReproError):
            resolve_jobs()

    def test_session_arguments_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        with runtime_session(jobs=4):
            assert resolve_jobs() == 4
            with runtime_session(cache=None):
                assert resolve_jobs() == 4  # inherited, not re-read

    def test_session_without_cache_keeps_environment_cache(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert active_cache().root == tmp_path
        with runtime_session(jobs=4):
            assert active_cache().root == tmp_path
        with runtime_session(cache=None):
            assert active_cache() is None


class TestCachedProfiles:
    def test_callbranch_profile_roundtrip(self, micro_binary_32u,
                                          tmp_path):
        cache = ProfileCache(tmp_path)
        direct = collect_call_branch_profile(micro_binary_32u)
        cold = collect_call_branch_profile(
            micro_binary_32u, cache=cache
        )
        warm = collect_call_branch_profile(
            micro_binary_32u, cache=cache
        )
        assert direct == cold == warm
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_fli_profile_roundtrip(self, micro_binary_32u, tmp_path):
        cache = ProfileCache(tmp_path)
        direct = collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
        cold = collect_fli_bbvs(
            micro_binary_32u, MICRO_INTERVAL, cache=cache
        )
        warm = collect_fli_bbvs(
            micro_binary_32u, MICRO_INTERVAL, cache=cache
        )
        assert direct == cold == warm

    def test_global_cache_used_when_installed(self, micro_binary_32u,
                                              tmp_path):
        cache = ProfileCache(tmp_path)
        with runtime_session(cache=cache):
            collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
            collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_interval_size_changes_key(self, micro_binary_32u, tmp_path):
        cache = ProfileCache(tmp_path)
        collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL, cache=cache)
        collect_fli_bbvs(
            micro_binary_32u, MICRO_INTERVAL * 2, cache=cache
        )
        assert cache.stats.misses == 2 and cache.stats.hits == 0


class TestCrossPipelineCaching:
    def test_cached_run_bit_identical_and_faster(self, micro_binary_list,
                                                 tmp_path):
        # Scale the input (and the interval size with it, so the
        # interval count stays put) until the execution-engine walk
        # that compiles each binary's trace dominates, and shrink the
        # k sweep. The cold run starts without the in-process trace
        # memo, so it pays for those walks; the warm run needs none.
        config = CrossBinaryConfig(
            interval_size=MICRO_INTERVAL * 40,
            program_input=ProgramInput(name="speedup", scale=40.0),
            simpoint=SimPointConfig(max_k=3, n_init=2),
        )
        baseline = run_cross_binary_simpoint(micro_binary_list, config)

        cache = ProfileCache(tmp_path)
        clear_trace_memo()
        start = time.perf_counter()
        cold = run_cross_binary_simpoint(
            micro_binary_list, config, cache=cache
        )
        cold_elapsed = time.perf_counter() - start
        assert cache.stats.misses > 0 and cache.stats.hits == 0

        start = time.perf_counter()
        warm = run_cross_binary_simpoint(
            micro_binary_list, config, cache=cache
        )
        warm_elapsed = time.perf_counter() - start
        # Every profile the cold run stored is served warm; the traces
        # it compiled on the way are not even looked up.
        for kind, row in cache.stats.by_kind.items():
            expected = 0 if kind == "trace" else row.misses
            assert row.hits == expected, kind

        assert baseline == cold == warm
        # Warm runs skip every execution-engine pass; only clustering
        # and unpickling remain (acceptance: >= 2x; typically far more).
        assert cold_elapsed > 2 * warm_elapsed, (
            f"warm cache run not faster: cold {cold_elapsed:.3f}s vs "
            f"warm {warm_elapsed:.3f}s"
        )

    def test_phase_weights_roundtrip_through_cache(self, tmp_path):
        cache = ProfileCache(tmp_path)
        counts = [1000, 2500, 1500, 5000]
        labels = [0, 1, 0, 2]
        weights = phase_weights(counts, labels)
        cached = cache.get_or_compute(
            "weights", (counts, labels), lambda: weights
        )
        reloaded = cache.get_or_compute(
            "weights", (counts, labels), lambda: None
        )
        assert cached == weights
        assert reloaded == weights
        # Bit-exact floats, not approximately equal.
        assert pickle.dumps(reloaded) == pickle.dumps(weights)
        assert sum(reloaded.values()) == pytest.approx(1.0)

    def test_input_scale_invalidates(self, micro_binary_list, tmp_path):
        cache = ProfileCache(tmp_path)
        config = CrossBinaryConfig(interval_size=MICRO_INTERVAL)
        run_cross_binary_simpoint(micro_binary_list, config, cache=cache)
        scaled = dataclasses.replace(
            config, program_input=ProgramInput(name="half", scale=0.5)
        )
        before = cache.stats.misses
        run_cross_binary_simpoint(micro_binary_list, scaled, cache=cache)
        assert cache.stats.misses > before


# -- multiprocessing stress: one cache key shared by concurrent writers

_FORK = multiprocessing.get_context("fork")


def _hammer_cache_key(root, barrier_dir, index):
    """One writer process: everyone races get_or_compute on ONE key."""
    cache = cache_from_root(root)
    value = cache.get_or_compute(
        "stress", ("shared-key",), lambda: {"payload": list(range(200))}
    )
    assert value == {"payload": list(range(200))}
    open(os.path.join(barrier_dir, f"done-{index}"), "w").close()


class TestConcurrencyStress:
    def test_one_cache_key_hammered_by_concurrent_writers(self, tmp_path):
        """Many processes race one key — including over a stale entry
        that unpickles to a missing module — and all must succeed."""
        root = tmp_path / "cache"
        cache = ProfileCache(root)
        # Seed the address with a stale pickle referencing a module
        # that no longer exists (the refactor scenario).
        digest_path = None
        cache.get_or_compute("stress", ("shared-key",), lambda: "seed")
        digest_path = next(root.rglob("*.pkl"))
        digest_path.write_bytes(b"cgone_module_xyz\nKlass\n.")
        workers = [
            _FORK.Process(
                target=_hammer_cache_key,
                args=(str(root), str(tmp_path), index),
            )
            for index in range(6)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert all(worker.exitcode == 0 for worker in workers)
        assert len(list(tmp_path.glob("done-*"))) == 6
        # The stale entry was evicted and rewritten with a good value.
        fresh = cache_from_root(root)
        assert fresh.get_or_compute(
            "stress", ("shared-key",), lambda: "unused"
        ) == {"payload": list(range(200))}
