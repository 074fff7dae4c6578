"""Content-keyed reuse of detailed-simulation results.

Profiling is compiled and cached, so detailed CMP$im simulation is the
dominant repeated cost in sweeps, selector comparisons, and CI drift
runs — even though most of its inputs rarely change between runs. This
module keys full detailed runs by *content* and stores them as a
dedicated :data:`SIMRESULT_KIND` kind in the
:class:`~repro.runtime.cache.ProfileCache`.

:func:`cached_full_run` stores one entry per tracker request of a full
run, keyed by (binary content, memory config, program input, tracker
parameters). The cycles of a full run do not depend on where its
intervals are cut, so every request that misses rides *one* detailed
simulation: an interval-size sweep simulates each binary once, not
once per size, and each size's result still lands under its own key.
PinPoints-style region runs (:meth:`CMPSim.run_regions`) are not
cached: the experiment pipeline never calls them.

The execution engine and simulator are deterministic, so a cached
value is bit-identical to recomputing it; the equivalence tests
enforce this. Reuse is on whenever a profile cache is active; a run
without a cache (``--no-cache``) or on a fresh cache directory
simulates everything.

Every lookup against :data:`SIMRESULT_KIND` is mirrored into the
``cache.sim.{hits,misses,stale_evictions}`` metric counters (the
manifest's per-run sim-reuse ratio is derived from these), by
measuring the per-kind stat deltas around the lookups.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.cmpsim.config import MemoryConfig, TABLE1_CONFIG
from repro.cmpsim.simulator import (
    CMPSim,
    FLITracker,
    IntervalStats,
    SimulationStats,
    VLITracker,
)
from repro.core.markers import ExecutionCoordinate, MarkerTable
from repro.observability import metrics
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.runtime.cache import ProfileCache
from repro.runtime.config import active_cache

#: ProfileCache kind under which detailed-simulation results live.
SIMRESULT_KIND = "simresult"

_SIM_COUNTER_KEYS = ("hits", "misses", "stale_evictions")


@dataclass(frozen=True)
class TrackedRun:
    """A full detailed run plus one request's interval breakdowns.

    This is the cacheable unit of :func:`cached_full_run`: everything
    the experiment runner consumes from one tracker request on a
    ``run_full`` call, with the (stateful, unpicklable-by-contract)
    tracker objects reduced to their interval tuples.
    """

    stats: SimulationStats
    fli_intervals: Tuple[IntervalStats, ...] = ()
    vli_intervals: Tuple[IntervalStats, ...] = ()


class TrackerRequest(NamedTuple):
    """The interval structures one :class:`TrackedRun` reports.

    ``fli_interval_size`` attaches an :class:`FLITracker`; ``vli_table``
    attaches a :class:`VLITracker` cutting at ``vli_boundaries``.
    """

    fli_interval_size: Optional[int] = None
    vli_table: Optional[MarkerTable] = None
    vli_boundaries: Optional[Sequence[ExecutionCoordinate]] = None


def full_run_key(
    binary,
    memory: MemoryConfig,
    program_input: ProgramInput,
    fli_interval_size: Optional[int],
    vli_table: Optional[MarkerTable],
    vli_boundaries: Optional[Sequence[ExecutionCoordinate]],
) -> Tuple:
    """Key material for one tracked full run.

    Covers everything that can influence the result: the binary's
    content (blocks, loops, access specs — the ``Binary`` dataclass
    fingerprints by field), the memory configuration, the program
    input, and the exact tracker parameters.
    """
    return (
        "full-run",
        binary,
        memory,
        program_input,
        fli_interval_size,
        vli_table,
        tuple(vli_boundaries) if vli_boundaries is not None else None,
    )


@contextmanager
def _mirror_sim_counters(cache: ProfileCache) -> Iterator[None]:
    """Mirror simresult kind-stat deltas into ``cache.sim.*`` counters."""

    def snap() -> Tuple[int, int, int]:
        row = cache.stats.by_kind.get(SIMRESULT_KIND)
        if row is None:
            return (0, 0, 0)
        return (row.hits, row.misses, row.stale_evictions)

    before = snap()
    try:
        yield
    finally:
        after = snap()
        for key, old, new in zip(_SIM_COUNTER_KEYS, before, after):
            if new > old:
                metrics.counter(f"cache.sim.{key}").inc(new - old)


def _simulate(
    binary,
    memory: MemoryConfig,
    program_input: ProgramInput,
    requests: Sequence[TrackerRequest],
) -> List[TrackedRun]:
    """One ``run_full`` with every request's trackers attached."""
    attached = [
        (
            FLITracker(request.fli_interval_size)
            if request.fli_interval_size is not None
            else None,
            VLITracker(request.vli_table, tuple(request.vli_boundaries or ()))
            if request.vli_table is not None
            else None,
        )
        for request in requests
    ]
    result = CMPSim(binary, memory, program_input).run_full(
        trackers=tuple(
            tracker
            for pair in attached
            for tracker in pair
            if tracker is not None
        )
    )
    return [
        TrackedRun(
            stats=result.stats,
            fli_intervals=tuple(fli.intervals) if fli is not None else (),
            vli_intervals=tuple(vli.intervals) if vli is not None else (),
        )
        for fli, vli in attached
    ]


def cached_full_run(
    binary,
    requests: Sequence[TrackerRequest],
    *,
    memory: MemoryConfig = TABLE1_CONFIG,
    program_input: ProgramInput = REF_INPUT,
    cache: Optional[ProfileCache] = None,
) -> List[TrackedRun]:
    """Full detailed runs for several tracker requests, cached by content.

    Each request is probed under its own :func:`full_run_key`. All the
    requests that miss share a single ``run_full`` (trackers only
    observe the run, so each one's intervals are the same as on a run
    of its own), and only the missing entries are written back; hit
    entries keep their cached values. Returns one :class:`TrackedRun`
    per request, in request order.
    """
    requests = [TrackerRequest(*request) for request in requests]
    if cache is None:
        cache = active_cache()
    if cache is None:
        return _simulate(binary, memory, program_input, requests)
    keys = [
        full_run_key(binary, memory, program_input, *request)
        for request in requests
    ]
    with _mirror_sim_counters(cache):
        probes = [cache.lookup(SIMRESULT_KIND, key) for key in keys]
    runs = [value for _, value in probes]
    missing = [index for index, (found, _) in enumerate(probes) if not found]
    if missing:
        fresh = _simulate(
            binary,
            memory,
            program_input,
            [requests[index] for index in missing],
        )
        for index, run in zip(missing, fresh):
            cache.store(SIMRESULT_KIND, keys[index], run)
            runs[index] = run
    return runs

