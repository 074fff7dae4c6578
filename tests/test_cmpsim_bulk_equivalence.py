"""Scalar-vs-batched equivalence oracles for the memory-system kernels.

The batched paths — closed-form reference generation
(:func:`bulk_pattern` / :class:`BulkAccessPattern`), the cache
replay engines behind :meth:`SetAssociativeCache.access_many`, the
hierarchy's level-by-level :meth:`MemoryHierarchy.access_many`, and the
deferred-flush detailed simulator — must be *bit-identical* to the
scalar reference-at-a-time implementations, which serve as the oracle.
Identity is asserted on outputs, statistics, and observable cache state
(per-set MRU-ordered ``(line, dirty)`` pairs via ``set_state``; way
placement and raw stamp values are engine-internal and may differ).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmpsim.cache import SetAssociativeCache
from repro.cmpsim.config import (
    BIG_LLC_CONFIG,
    CacheLevelConfig,
    PREFETCH_CONFIG,
    TABLE1_CONFIG,
)
from repro.cmpsim.hierarchy import MemoryHierarchy
from repro.cmpsim.memory import (
    AddressStreamState,
    bulk_pattern,
    generate_refs,
)
from repro.cmpsim.simulator import CMPSim, FLITracker, VLITracker
from repro.compilation.binary import AccessSpec
from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import TARGET_32O, TARGET_32U
from repro.core.mapping import interval_boundaries
from repro.core.matching import find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.profiling.callbranch import collect_call_branch_profile
from repro.observability import metrics
from repro.programs.behaviors import (
    AccessKind,
    random_access,
    stack_local,
    streaming,
)
from repro.programs.ir import (
    Call,
    Compute,
    Loop,
    Procedure,
    Program,
    finalize_program,
)
from repro.programs.suite import build_benchmark

from tests.oracles import ScalarFLITracker, ScalarVLITracker


def stream_state(state):
    return (state.cursors, state.lcg, state.write_acc)


def cache_state(cache):
    return (
        [cache.set_state(i) for i in range(cache.config.n_sets)],
        (
            cache.stats.read_hits,
            cache.stats.read_misses,
            cache.stats.write_hits,
            cache.stats.write_misses,
            cache.stats.writebacks_out,
        ),
    )


def hierarchy_state(hierarchy):
    return (
        [cache_state(cache) for cache in hierarchy.caches],
        hierarchy.dram_reads,
        hierarchy.dram_writebacks,
        hierarchy.prefetches,
    )


def scalar_cache_replay(cache, lines, writes):
    """The oracle: one scalar access per reference, in order."""
    miss = []
    victims = []
    for position, (line, write) in enumerate(zip(lines, writes)):
        hit, victim = cache.access(line, write)
        if not hit:
            miss.append(position)
        if victim is not None:
            victims.append((position, victim))
    return miss, victims


def dup_heavy_workload(rng, n, span, write_p, dup_p):
    """Random references with block-stream-like consecutive repeats."""
    lines = [rng.randrange(span) for _ in range(n)]
    for index in range(1, n):
        if rng.random() < dup_p:
            lines[index] = lines[index - 1]
    writes = [rng.random() < write_p for _ in range(n)]
    return lines, writes


# ----------------------------------------------------------------------
# Reference generation
# ----------------------------------------------------------------------

SPEC_STRATEGY = st.builds(
    AccessSpec,
    stream_id=st.integers(min_value=0, max_value=7),
    kind=st.sampled_from(list(AccessKind)),
    base=st.sampled_from([0, 1 << 20, 3 << 21]),
    footprint=st.integers(min_value=64, max_value=200_000),
    stride=st.sampled_from([8, 16, 32, 64]),
    refs_per_exec=st.integers(min_value=1, max_value=5),
    read_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.7, 0.9, 1.0]),
)


class TestBulkReferenceGeneration:
    @settings(deadline=None, max_examples=120)
    @given(spec=SPEC_STRATEGY, rounds=st.integers(min_value=1, max_value=60))
    def test_bulk_matches_scalar(self, spec, rounds):
        scalar_state = AddressStreamState()
        bulk_state = AddressStreamState()
        expected = []
        for _ in range(rounds):
            expected.extend(generate_refs(spec, scalar_state))
        lines, writes = bulk_pattern((spec,)).generate(bulk_state, rounds)
        assert lines.tolist() == [line for line, _ in expected]
        assert writes.tolist() == [write for _, write in expected]
        assert stream_state(scalar_state) == stream_state(bulk_state)

    @settings(deadline=None, max_examples=60)
    @given(
        spec=SPEC_STRATEGY,
        prefix=st.integers(min_value=0, max_value=25),
        rounds=st.integers(min_value=1, max_value=25),
    )
    def test_mid_stream_handoff(self, spec, prefix, rounds):
        """Bulk generation picks up exactly where scalar left off."""
        scalar_state = AddressStreamState()
        bulk_state = AddressStreamState()
        expected = []
        for _ in range(prefix + rounds):
            expected.extend(generate_refs(spec, scalar_state))
        for _ in range(prefix):
            list(generate_refs(spec, bulk_state))
        lines, writes = bulk_pattern((spec,)).generate(bulk_state, rounds)
        tail = expected[prefix * spec.refs_per_exec :]
        assert lines.tolist() == [line for line, _ in tail]
        assert writes.tolist() == [write for _, write in tail]
        assert stream_state(scalar_state) == stream_state(bulk_state)

    def test_shared_streams_across_specs(self):
        """Specs sharing a stream id interleave exactly as scalar."""
        shared = (
            AccessSpec(stream_id=11, kind=AccessKind.STACK, base=0,
                       footprint=2048, stride=32, refs_per_exec=2,
                       read_fraction=0.8),
            AccessSpec(stream_id=12, kind=AccessKind.RANDOM, base=1 << 21,
                       footprint=9999, stride=0, refs_per_exec=3,
                       read_fraction=0.4),
            AccessSpec(stream_id=11, kind=AccessKind.STACK, base=0,
                       footprint=2048, stride=32, refs_per_exec=1,
                       read_fraction=0.8),
            AccessSpec(stream_id=12, kind=AccessKind.POINTER_CHASE,
                       base=1 << 21, footprint=9999, stride=0,
                       refs_per_exec=2, read_fraction=0.4),
        )
        scalar_state = AddressStreamState()
        bulk_state = AddressStreamState()
        expected = []
        for _ in range(57):
            for spec in shared:
                expected.extend(generate_refs(spec, scalar_state))
        lines, writes = bulk_pattern(shared).generate(bulk_state, 57)
        assert lines.tolist() == [line for line, _ in expected]
        assert writes.tolist() == [write for _, write in expected]
        assert stream_state(scalar_state) == stream_state(bulk_state)


# ----------------------------------------------------------------------
# Cache replay engines
# ----------------------------------------------------------------------


class TestAccessManyEquivalence:
    @settings(deadline=None, max_examples=40)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=255), st.booleans()),
        min_size=1, max_size=200,
    ))
    def test_small_batches(self, accesses):
        """Small batches (Python replay path) match scalar exactly."""
        config = CacheLevelConfig(name="t", capacity=4096, associativity=4)
        scalar = SetAssociativeCache(config)
        batched = SetAssociativeCache(config)
        lines = [line for line, _ in accesses]
        writes = [write for _, write in accesses]
        expected_miss, expected_victims = scalar_cache_replay(
            scalar, lines, writes
        )
        miss, victims = batched.access_many(
            np.array(lines, dtype=np.int64), np.array(writes, dtype=bool)
        )
        assert miss.tolist() == expected_miss
        assert victims == expected_victims
        assert cache_state(scalar) == cache_state(batched)

    @pytest.mark.parametrize("assoc", [2, 4, 8])
    @pytest.mark.parametrize("dup_p", [0.0, 0.6])
    def test_large_batches(self, assoc, dup_p):
        """Large batches route to the vectorized engines (the 2-way
        closed form at ``assoc == 2``, lanes otherwise)."""
        rng = random.Random(assoc * 100 + int(dup_p * 10))
        config = CacheLevelConfig(
            name="t", capacity=64 * 64 * assoc, associativity=assoc
        )
        lines, writes = dup_heavy_workload(rng, 6000, 4000, 0.35, dup_p)
        scalar = SetAssociativeCache(config)
        batched = SetAssociativeCache(config)
        expected_miss, expected_victims = scalar_cache_replay(
            scalar, lines, writes
        )
        miss, victims = batched.access_many(
            np.array(lines, dtype=np.int64), np.array(writes, dtype=bool)
        )
        assert miss.tolist() == expected_miss
        assert victims == expected_victims
        assert cache_state(scalar) == cache_state(batched)

    def test_batch_then_scalar_handoff(self):
        """State left by a batch is indistinguishable to later scalar
        accesses (mixed-use sessions: warmup batched, probe scalar)."""
        rng = random.Random(9)
        config = CacheLevelConfig(name="t", capacity=8192, associativity=2)
        lines, writes = dup_heavy_workload(rng, 9000, 600, 0.4, 0.5)
        scalar = SetAssociativeCache(config)
        mixed = SetAssociativeCache(config)
        for line, write in zip(lines[:3000], writes[:3000]):
            scalar.access(line, write)
            mixed.access(line, write)
        expected_miss, expected_victims = scalar_cache_replay(
            scalar, lines[3000:6000], writes[3000:6000]
        )
        miss, victims = mixed.access_many(
            np.array(lines[3000:6000], dtype=np.int64),
            np.array(writes[3000:6000], dtype=bool),
        )
        assert miss.tolist() == expected_miss
        assert victims == expected_victims
        for line, write in zip(lines[6000:], writes[6000:]):
            hit_a, _ = scalar.access(line, write)
            hit_b, _ = mixed.access(line, write)
            assert hit_a == hit_b
        assert cache_state(scalar) == cache_state(mixed)


class TestHierarchyBatchEquivalence:
    @pytest.mark.parametrize(
        "config",
        [TABLE1_CONFIG, PREFETCH_CONFIG, BIG_LLC_CONFIG],
        ids=["table1", "prefetch", "big-llc"],
    )
    def test_access_many_matches_scalar(self, config):
        rng = random.Random(17)
        for n in (10, 300, 2000, 20000):
            lines, writes = dup_heavy_workload(rng, n, 70_000, 0.35, 0.3)
            scalar = MemoryHierarchy(config)
            expected = [
                scalar.access(line, write)
                for line, write in zip(lines, writes)
            ]
            batched = MemoryHierarchy(config)
            serviced = batched.access_many(
                np.array(lines, dtype=np.int64), np.array(writes, dtype=bool)
            )
            assert serviced.tolist() == expected
            assert hierarchy_state(scalar) == hierarchy_state(batched)

    @pytest.mark.parametrize(
        "config",
        [TABLE1_CONFIG, PREFETCH_CONFIG, BIG_LLC_CONFIG],
        ids=["table1", "prefetch", "big-llc"],
    )
    def test_scalar_batch_interleave(self, config):
        rng = random.Random(23)
        lines, writes = dup_heavy_workload(rng, 4000, 50_000, 0.35, 0.3)
        scalar = MemoryHierarchy(config)
        mixed = MemoryHierarchy(config)
        for line, write in zip(lines[:2000], writes[:2000]):
            scalar.access(line, write)
        mixed.access_many(
            np.array(lines[:2000], dtype=np.int64),
            np.array(writes[:2000], dtype=bool),
        )
        expected = [
            scalar.access(line, write)
            for line, write in zip(lines[2000:], writes[2000:])
        ]
        serviced = mixed.access_many(
            np.array(lines[2000:], dtype=np.int64),
            np.array(writes[2000:], dtype=bool),
        )
        assert serviced.tolist() == expected
        assert hierarchy_state(scalar) == hierarchy_state(mixed)


# ----------------------------------------------------------------------
# Full simulator runs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_binaries():
    binaries = {}
    for name in ("art", "mcf"):
        program = build_benchmark(name)
        binaries[name] = compile_standard_binaries(
            program, (TARGET_32U, TARGET_32O)
        )
    return binaries


@pytest.fixture(scope="module")
def marker_sets(suite_binaries):
    """Each program's marker set over its 32u and 32o binaries."""
    sets = {}
    for name, binaries in suite_binaries.items():
        profiles = [
            (binary, collect_call_branch_profile(binary))
            for binary in binaries.values()
        ]
        sets[name], _ = find_mappable_points(profiles)
    return sets


def vli_tracker(
    suite_binaries, marker_sets, program, target, size, kind=VLITracker
):
    """A VLI tracker for ``target`` cutting where the 32u binary's
    ``size`` VLI profile cuts (mapped, so cross-binary on 32o)."""
    marker_set = marker_sets[program]
    primary = suite_binaries[program][TARGET_32U]
    vlis = collect_vli_bbvs(primary, marker_set, size)
    table = marker_set.table_for(suite_binaries[program][target].name)
    return kind(table, interval_boundaries(vlis))


def assert_same_intervals(scalar_trackers, batched_trackers):
    for scalar, batched in zip(scalar_trackers, batched_trackers):
        assert len(scalar.intervals) == len(batched.intervals)
        for left, right in zip(scalar.intervals, batched.intervals):
            assert left.instructions == right.instructions
            assert left.cycles == right.cycles
            assert left.dram_accesses == right.dram_accesses


FULL_RUN_CASES = [
    ("art", TARGET_32U, TABLE1_CONFIG, "art-32u-table1"),
    ("art", TARGET_32U, PREFETCH_CONFIG, "art-32u-prefetch"),
    ("art", TARGET_32O, TABLE1_CONFIG, "art-32o-table1"),
    ("mcf", TARGET_32U, BIG_LLC_CONFIG, "mcf-32u-big-llc"),
]


def _queue_shapes_program():
    """A loop without memory traffic, a 3-reference loop (below the
    bulk-generation threshold) and a bulk loop with a reference-free
    block, called from a loop that also runs a reference-bearing
    block."""
    quiet = Procedure(
        name="quiet",
        body=(
            Loop("quiet_loop", trips=40,
                 body=(Compute("quiet_c", instructions=30),),
                 unrollable=False, splittable=False),
        ),
        inlinable=False,
    )
    tiny = Procedure(
        name="tiny",
        body=(
            Loop("tiny_loop", trips=3,
                 body=(Compute("tiny_c", instructions=20,
                               behavior=stack_local(1)),),
                 unrollable=False, splittable=False),
        ),
        inlinable=False,
    )
    bulk = Procedure(
        name="bulk",
        body=(
            Loop("bulk_loop", trips=200,
                 body=(
                     Compute("bulk_c", instructions=50,
                             behavior=streaming(64 * 1024, 4, stride=16)),
                     Compute("bulk_q", instructions=10),
                 ),
                 unrollable=True, splittable=False),
        ),
        inlinable=False,
    )
    main = Procedure(
        name="main",
        body=(
            Compute("init", instructions=80),
            Loop(
                "main_loop",
                trips=6,
                body=(
                    Call("m_quiet", callee="quiet"),
                    Call("m_tiny", callee="tiny"),
                    Call("m_bulk", callee="bulk"),
                    Compute("m_local", instructions=40,
                            behavior=random_access(256 * 1024, 2)),
                ),
                unrollable=False,
                splittable=False,
            ),
        ),
        inlinable=False,
    )
    return finalize_program(
        Program(
            name="queue-shapes",
            procedures={
                proc.name: proc for proc in (main, quiet, tiny, bulk)
            },
            entry="main",
        )
    )


#: Interval sizes of a three-size sweep, all trackers on one run.
SWEEP_SIZES = (50_000, 100_000, 200_000)


class TestFullRunEquivalence:
    @pytest.mark.parametrize(
        "program,target,config",
        [(p, t, c) for p, t, c, _ in FULL_RUN_CASES],
        ids=[case_id for _, _, _, case_id in FULL_RUN_CASES],
    )
    def test_batched_run_is_bit_identical(
        self, suite_binaries, marker_sets, program, target, config
    ):
        """The whole pipeline: SimulationStats, HierarchyStats, and
        every per-interval FLI and VLI value must match the scalar
        oracle."""
        binary = suite_binaries[program][target]
        sim = CMPSim(binary, config)
        scalar_trackers, batched_trackers = (
            (
                FLITracker(100_000),
                vli_tracker(
                    suite_binaries, marker_sets, program, target, 100_000
                ),
            )
            for _ in range(2)
        )
        scalar = sim.run_full(trackers=scalar_trackers, batched=False)
        batched = sim.run_full(trackers=batched_trackers, batched=True)
        assert scalar.stats == batched.stats
        assert scalar.hierarchy == batched.hierarchy
        assert len(batched_trackers[1].intervals) > 1
        assert_same_intervals(scalar_trackers, batched_trackers)

    @pytest.mark.parametrize(
        "target", [TARGET_32U, TARGET_32O], ids=["32u", "32o"]
    )
    def test_sweep_tracker_set_is_bit_identical(
        self, suite_binaries, marker_sets, target
    ):
        """Three FLI and three VLI trackers on one run, the shape of an
        interval-size sweep; the scalar run's trackers are the
        chunk-at-a-time oracles."""
        sim = CMPSim(suite_binaries["art"][target])
        scalar_trackers, batched_trackers = (
            tuple(fli(size) for size in SWEEP_SIZES)
            + tuple(
                vli_tracker(
                    suite_binaries, marker_sets, "art", target, size, vli
                )
                for size in SWEEP_SIZES
            )
            for fli, vli in (
                (ScalarFLITracker, ScalarVLITracker),
                (FLITracker, VLITracker),
            )
        )
        scalar = sim.run_full(trackers=scalar_trackers, batched=False)
        batched = sim.run_full(trackers=batched_trackers, batched=True)
        assert scalar.stats == batched.stats
        assert_same_intervals(scalar_trackers, batched_trackers)

    def test_every_queue_shape_is_bit_identical(self):
        """A program built to queue every kind of chunk: plain blocks,
        reference-bearing blocks, a loop that touches no memory, a span
        too small to generate in bulk and a bulk span with a
        reference-free block in its body."""
        binaries = compile_standard_binaries(
            _queue_shapes_program(), (TARGET_32U, TARGET_32O)
        )
        profiles = [
            (binary, collect_call_branch_profile(binary))
            for binary in binaries.values()
        ]
        marker_set, _ = find_mappable_points(profiles)
        vlis = collect_vli_bbvs(binaries[TARGET_32U], marker_set, 5_000)
        for binary in binaries.values():
            table = marker_set.table_for(binary.name)
            scalar_trackers, batched_trackers = (
                (fli(5_000), fli(7_919),
                 vli(table, interval_boundaries(vlis)))
                for fli, vli in (
                    (ScalarFLITracker, ScalarVLITracker),
                    (FLITracker, VLITracker),
                )
            )
            sim = CMPSim(binary)
            scalar = sim.run_full(trackers=scalar_trackers, batched=False)
            with metrics.scoped_registry() as registry:
                batched = sim.run_full(trackers=batched_trackers)
            counters = registry.snapshot()["counters"]
            assert counters["cmpsim.bulk_spans"] > 0
            assert counters["cmpsim.scalar_spans"] > 0
            assert scalar.stats == batched.stats
            assert scalar.hierarchy == batched.hierarchy
            assert len(batched_trackers[2].intervals) > 2
            assert_same_intervals(scalar_trackers, batched_trackers)

    def test_untracked_run_is_bit_identical(self, suite_binaries):
        """The no-tracker cycle fold (np.add.accumulate) is exact."""
        binary = suite_binaries["art"][TARGET_32U]
        sim = CMPSim(binary)
        scalar = sim.run_full(batched=False)
        batched = sim.run_full(batched=True)
        assert scalar.stats == batched.stats
        assert scalar.hierarchy == batched.hierarchy
        assert scalar.stats.cycles == batched.stats.cycles
        assert scalar.stats.cpi == batched.stats.cpi
