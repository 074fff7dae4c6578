"""Reference oracles for the production fast paths.

Production profiling always replays a compiled execution trace
(:mod:`repro.execution.trace`), built by structural template expansion
without walking the engine. Each replay once had a scalar consumer
that walks the engine's event stream one event at a time; those
consumers live here, and only here, so the equivalence tests and the
kernel benchmarks can compare the two paths:

* :class:`FixedLengthBBVCollector` for ``replay_fli``;
* :class:`CallBranchProfiler` (a Pin tool) for ``replay_call_branch``;
* :class:`VLIBuilder` for ``replay_vli``;
* :class:`IntervalInstructionCounter` for ``replay_interval_counts``;
* :func:`recorded_stream` (an engine walk through
  :class:`TraceRecorder`) for the structural stream builder;
* :class:`ScalarFLITracker` and :class:`ScalarVLITracker`, which
  attribute one chunk per ``on_chunk`` call, for the trackers'
  column-batch ``on_chunks`` (:func:`feed_chunks` hands rows to it).

:func:`reference_fingerprint` is the one-shot key encoder that
:func:`repro.runtime.fingerprint.fingerprint` must match byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cmpsim.simulator import FLITracker, IntervalStats, VLITracker
from repro.compilation.binary import Binary, LLoop
from repro.core.markers import ExecutionCoordinate, MarkerSet, MarkerTable
from repro.errors import MappingError, ProfilingError
from repro.execution.engine import ExecutionEngine
from repro.execution.events import (
    ExecutionConsumer,
    IterationProfile,
    iteration_profile,
)
from repro.execution.pin import PinTool, run_with_tools
from repro.execution.trace import EVENT_BLOCK, EVENT_PROC, EVENT_SPAN
from repro.profiling.callbranch import CallBranchProfile, LoopProfile
from repro.profiling.intervals import Interval
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.runtime.fingerprint import FORMAT_VERSION, _canonical


class FixedLengthBBVCollector(ExecutionConsumer):
    """Streams execution into fixed-length-interval BBVs."""

    def __init__(self, binary: Binary, interval_size: int) -> None:
        if interval_size <= 0:
            raise ProfilingError(
                f"interval_size must be positive, got {interval_size}"
            )
        self._binary = binary
        self._size = interval_size
        self._current: Dict[int, float] = {}
        self._current_instr = 0
        self._profiles: Dict[int, IterationProfile] = {}
        self.intervals: List[Interval] = []

    def _profile(self, loop: LLoop) -> IterationProfile:
        """Per-loop iteration profile, resolved once per collector."""
        profile = self._profiles.get(loop.loop_id)
        if profile is None:
            profile = iteration_profile(self._binary, loop)
            self._profiles[loop.loop_id] = profile
        return profile

    def _emit(self) -> None:
        self.intervals.append(
            Interval(
                index=len(self.intervals),
                instructions=self._current_instr,
                bbv=self._current,
            )
        )
        self._current = {}
        self._current_instr = 0

    def _attribute(self, block_id: int, instructions: int) -> None:
        """Attribute instructions to intervals, cutting at exact size."""
        bbv = self._current
        while instructions > 0:
            space = self._size - self._current_instr
            take = instructions if instructions < space else space
            bbv[block_id] = bbv.get(block_id, 0.0) + take
            self._current_instr += take
            instructions -= take
            if self._current_instr == self._size:
                self._emit()
                bbv = self._current

    def on_block(self, block_id: int, execs: int = 1) -> None:
        self._attribute(
            block_id, self._binary.blocks[block_id].instructions * execs
        )

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        profile = self._profile(loop)
        for block_id in profile.body_blocks:
            self._attribute(
                block_id,
                self._binary.blocks[block_id].instructions * iterations,
            )
        self._attribute(
            profile.branch_block, profile.branch_instructions * iterations
        )

    def finish(self) -> None:
        if self._current_instr > 0:
            self._emit()


class CallBranchProfiler(PinTool):
    """Pin tool that accumulates the call-and-branch profile."""

    def __init__(self) -> None:
        self._binary: Optional[Binary] = None
        self._proc_entries: Dict[str, int] = {}
        self._loop_entries: Dict[int, int] = {}
        self._loop_iterations: Dict[int, int] = {}
        self._instructions = 0

    def on_program_start(self, binary: Binary) -> None:
        self._binary = binary
        self._proc_entries = {name: 0 for name in binary.symbols}
        self._loop_entries = {loop_id: 0 for loop_id in binary.loops}
        self._loop_iterations = {loop_id: 0 for loop_id in binary.loops}

    def on_procedure_entry(self, name: str) -> None:
        self._proc_entries[name] = self._proc_entries.get(name, 0) + 1

    def on_loop_entry(self, loop_id: int) -> None:
        self._loop_entries[loop_id] += 1

    def on_loop_iterations(self, loop_id: int, iterations: int) -> None:
        self._loop_iterations[loop_id] += iterations

    def on_block_exec(self, block, execs: int) -> None:
        self._instructions += block.instructions * execs

    def profile(self) -> CallBranchProfile:
        """The accumulated profile (call after the run completes)."""
        assert self._binary is not None, "profiler was never run"
        loops: Dict[int, LoopProfile] = {}
        for loop_id, meta in self._binary.loops.items():
            loops[loop_id] = LoopProfile(
                loop_id=loop_id,
                location=meta.location,
                source_name=meta.source_name,
                entries=self._loop_entries.get(loop_id, 0),
                iterations=self._loop_iterations.get(loop_id, 0),
            )
        return CallBranchProfile(
            binary_name=self._binary.name,
            procedure_entries=dict(self._proc_entries),
            loops=loops,
            total_instructions=self._instructions,
        )


class VLIBuilder(ExecutionConsumer):
    """Streams one binary's execution into marker-bounded VLIs."""

    def __init__(
        self, binary: Binary, table: MarkerTable, target_size: int
    ) -> None:
        if target_size <= 0:
            raise ProfilingError(
                f"target_size must be positive, got {target_size}"
            )
        if table.binary_name != binary.name:
            raise ProfilingError(
                f"marker table is for {table.binary_name!r}, "
                f"not {binary.name!r}"
            )
        self._binary = binary
        self._target = target_size
        self._block_to_marker = table.block_to_marker()
        self._marker_counts: Dict[int, int] = {}
        self._current: Dict[int, float] = {}
        self._current_instr = 0
        self._last_boundary: Optional[ExecutionCoordinate] = None
        self._profiles: Dict[int, IterationProfile] = {}
        self.intervals: List[Interval] = []

    def _profile(self, loop: LLoop) -> IterationProfile:
        """Per-loop iteration profile, resolved once per builder."""
        profile = self._profiles.get(loop.loop_id)
        if profile is None:
            profile = iteration_profile(self._binary, loop)
            self._profiles[loop.loop_id] = profile
        return profile

    def _attribute(self, block_id: int, instructions: int) -> None:
        self._current[block_id] = self._current.get(block_id, 0.0) + instructions
        self._current_instr += instructions

    def _emit(self, end: Optional[ExecutionCoordinate]) -> None:
        self.intervals.append(
            Interval(
                index=len(self.intervals),
                instructions=self._current_instr,
                bbv=self._current,
                start_coord=self._last_boundary,
                end_coord=end,
            )
        )
        self._current = {}
        self._current_instr = 0
        self._last_boundary = end

    def on_block(self, block_id: int, execs: int = 1) -> None:
        instructions = self._binary.blocks[block_id].instructions
        marker_id = self._block_to_marker.get(block_id)
        if marker_id is None:
            self._attribute(block_id, instructions * execs)
            return
        count = self._marker_counts.get(marker_id, 0)
        for _ in range(execs):
            count += 1
            self._attribute(block_id, instructions)
            if self._current_instr >= self._target:
                self._emit((marker_id, count))
        self._marker_counts[marker_id] = count

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        profile = self._profile(loop)
        marker_id = self._block_to_marker.get(profile.branch_block)
        if marker_id is None:
            # No marker can fire inside this span; attribute in bulk.
            for block_id in profile.body_blocks:
                self._attribute(
                    block_id,
                    self._binary.blocks[block_id].instructions * iterations,
                )
            self._attribute(
                profile.branch_block,
                profile.branch_instructions * iterations,
            )
            return
        per_iter = profile.instructions_per_iteration
        count = self._marker_counts.get(marker_id, 0)
        remaining = iterations
        while remaining > 0:
            shortfall = self._target - self._current_instr
            if shortfall <= 0:
                take = 1  # already past target: cut at the very next firing
            else:
                take = min(remaining, -(-shortfall // per_iter))  # ceil div
            for block_id in profile.body_blocks:
                self._attribute(
                    block_id,
                    self._binary.blocks[block_id].instructions * take,
                )
            self._attribute(
                profile.branch_block, profile.branch_instructions * take
            )
            count += take
            remaining -= take
            if self._current_instr >= self._target:
                self._emit((marker_id, count))
        self._marker_counts[marker_id] = count

    def finish(self) -> None:
        if self._current_instr > 0:
            self._emit(None)
        elif self.intervals:
            # The run ended exactly at a marker firing that closed an
            # interval. Re-express that interval as running to program
            # exit, so binaries that execute trailing work after the
            # same firing attribute it to the final interval.
            last = self.intervals[-1]
            self.intervals[-1] = Interval(
                index=last.index,
                instructions=last.instructions,
                bbv=last.bbv,
                start_coord=last.start_coord,
                end_coord=None,
            )
            self._last_boundary = None

    def marker_counts(self) -> Dict[int, int]:
        """Cumulative firing counts observed (for validation)."""
        return dict(self._marker_counts)


class IntervalInstructionCounter(ExecutionConsumer):
    """Counts instructions per mapped interval while a binary runs.

    ``boundaries`` is the ordered list of interior interval boundaries
    (from :func:`repro.core.mapping.interval_boundaries`). The counter
    watches marker firings and closes an interval exactly when the next
    expected coordinate fires. If execution ends with boundaries left
    unmatched, the mapping was invalid and an error is raised.
    """

    def __init__(
        self,
        binary: Binary,
        marker_set: MarkerSet,
        boundaries: Sequence[ExecutionCoordinate],
    ) -> None:
        self._binary = binary
        self._block_to_marker = marker_set.table_for(
            binary.name
        ).block_to_marker()
        self._boundaries: Tuple[ExecutionCoordinate, ...] = tuple(boundaries)
        self._next = 0
        self._marker_counts: Dict[int, int] = {}
        self._current = 0
        self._profiles: Dict[int, IterationProfile] = {}
        self.interval_instructions: List[int] = []

    def _profile(self, loop: LLoop) -> IterationProfile:
        """Per-loop iteration profile, resolved once per counter."""
        profile = self._profiles.get(loop.loop_id)
        if profile is None:
            profile = iteration_profile(self._binary, loop)
            self._profiles[loop.loop_id] = profile
        return profile

    def _close(self) -> None:
        self.interval_instructions.append(self._current)
        self._current = 0
        self._next += 1

    def _fire(self, marker_id: int, new_count: int) -> None:
        if self._next < len(self._boundaries):
            expected_marker, expected_count = self._boundaries[self._next]
            if expected_marker == marker_id and expected_count == new_count:
                self._close()

    def on_block(self, block_id: int, execs: int = 1) -> None:
        instructions = self._binary.blocks[block_id].instructions
        marker_id = self._block_to_marker.get(block_id)
        if marker_id is None:
            self._current += instructions * execs
            return
        count = self._marker_counts.get(marker_id, 0)
        remaining = execs
        while remaining > 0:
            take = remaining
            if self._next < len(self._boundaries):
                expected_marker, expected_count = self._boundaries[self._next]
                if (
                    expected_marker == marker_id
                    and count < expected_count <= count + remaining
                ):
                    take = expected_count - count
            self._current += instructions * take
            count += take
            remaining -= take
            self._fire(marker_id, count)
        self._marker_counts[marker_id] = count

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        profile = self._profile(loop)
        marker_id = self._block_to_marker.get(profile.branch_block)
        per_iter = profile.instructions_per_iteration
        if marker_id is None:
            self._current += per_iter * iterations
            return
        count = self._marker_counts.get(marker_id, 0)
        remaining = iterations
        while remaining > 0:
            take = remaining
            if self._next < len(self._boundaries):
                expected_marker, expected_count = self._boundaries[self._next]
                if (
                    expected_marker == marker_id
                    and count < expected_count <= count + remaining
                ):
                    take = expected_count - count
            self._current += per_iter * take
            count += take
            remaining -= take
            self._fire(marker_id, count)
        self._marker_counts[marker_id] = count

    def finish(self) -> None:
        if self._next != len(self._boundaries):
            missing = self._boundaries[self._next]
            raise MappingError(
                f"{self._binary.name}: execution ended with boundary "
                f"{missing} (index {self._next}) never reached - "
                f"the mapped coordinates do not exist in this binary"
            )
        self.interval_instructions.append(self._current)


class TraceRecorder(ExecutionConsumer):
    """Records the raw engine stream into flat Python lists."""

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.ids: List[int] = []
        self.reps: List[int] = []
        self.proc_names: List[str] = []
        self.loops: Dict[int, LLoop] = {}
        self._proc_index: Dict[str, int] = {}

    def on_procedure_entry(self, name: str, entry_block: int) -> None:
        index = self._proc_index.get(name)
        if index is None:
            index = len(self.proc_names)
            self._proc_index[name] = index
            self.proc_names.append(name)
        self.kinds.append(EVENT_PROC)
        self.ids.append(index)
        self.reps.append(entry_block)

    def on_block(self, block_id: int, execs: int = 1) -> None:
        if execs <= 0:
            return
        # Run-length encode consecutive executions of one block. The
        # engine never actually emits adjacent duplicates today, but
        # merged runs replay identically (every consumer's per-exec
        # semantics are linear in ``execs``), so compression is safe.
        if (
            self.kinds
            and self.kinds[-1] == EVENT_BLOCK
            and self.ids[-1] == block_id
        ):
            self.reps[-1] += execs
            return
        self.kinds.append(EVENT_BLOCK)
        self.ids.append(block_id)
        self.reps.append(execs)

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        self.loops.setdefault(loop.loop_id, loop)
        self.kinds.append(EVENT_SPAN)
        self.ids.append(loop.loop_id)
        self.reps.append(iterations)


def recorded_stream(binary: Binary, program_input: ProgramInput = REF_INPUT):
    """The event stream via a real engine walk.

    Returns ``(kinds, ids, reps, proc_names, loops)`` in the shape of
    :func:`repro.execution.trace._structural_stream`.
    """
    recorder = TraceRecorder()
    ExecutionEngine(binary, program_input).run(recorder)
    return (
        np.asarray(recorder.kinds, dtype=np.uint8),
        np.asarray(recorder.ids, dtype=np.int64),
        np.asarray(recorder.reps, dtype=np.int64),
        recorder.proc_names,
        recorder.loops,
    )


def scalar_call_branch_profile(binary, program_input=REF_INPUT):
    profiler = CallBranchProfiler()
    run_with_tools(binary, (profiler,), program_input)
    return profiler.profile()


def scalar_fli_bbvs(binary, interval_size, program_input=REF_INPUT):
    collector = FixedLengthBBVCollector(binary, interval_size)
    ExecutionEngine(binary, program_input).run(collector)
    return collector.intervals


def scalar_vli_bbvs(binary, marker_set, target_size, program_input=REF_INPUT):
    builder = VLIBuilder(
        binary, marker_set.table_for(binary.name), target_size
    )
    ExecutionEngine(binary, program_input).run(builder)
    return builder.intervals


def scalar_interval_instructions(
    binary, marker_set, boundaries, program_input=REF_INPUT
):
    counter = IntervalInstructionCounter(binary, marker_set, boundaries)
    ExecutionEngine(binary, program_input).run(counter)
    return counter.interval_instructions


class _ChunkAtATime:
    """Replays each ``on_chunks`` batch as ``on_chunk`` calls, so an
    oracle tracker can ride a full simulation too."""

    def on_chunks(self, block_ids, execs, instructions, cycles, dram):
        for row in zip(
            block_ids.tolist(), execs.tolist(), instructions.tolist(),
            cycles.tolist(), dram.tolist(),
        ):
            self.on_chunk(*row)


class ScalarFLITracker(_ChunkAtATime, FLITracker):
    """:class:`FLITracker` fed one chunk per call."""

    def on_chunk(
        self,
        block_id: int,
        execs: int,
        instructions: int,
        cycles: float,
        dram: float = 0.0,
    ) -> None:
        self.total_instructions += instructions
        self.total_cycles += cycles
        self.total_dram += dram
        if instructions <= 0:
            # A chunk may carry cycles/DRAM traffic without committing
            # instructions; conserve them in the open interval instead
            # of silently dropping them.
            self._cur.cycles += cycles
            self._cur.dram_accesses += dram
            return
        remaining_instr = instructions
        remaining_cycles = cycles
        remaining_dram = dram
        while remaining_instr > 0:
            space = self._size - self._cur.instructions
            if remaining_instr < space:
                self._cur.instructions += remaining_instr
                self._cur.cycles += remaining_cycles
                self._cur.dram_accesses += remaining_dram
                return
            fraction = space / remaining_instr
            share = remaining_cycles * fraction
            dram_share = remaining_dram * fraction
            self._cur.instructions += space
            self._cur.cycles += share
            self._cur.dram_accesses += dram_share
            remaining_instr -= space
            remaining_cycles -= share
            remaining_dram -= dram_share
            self.intervals.append(self._cur)
            self._cur = IntervalStats()


class ScalarVLITracker(_ChunkAtATime, VLITracker):
    """:class:`VLITracker` fed one chunk per call."""

    def __init__(
        self,
        table: MarkerTable,
        boundaries: Sequence[ExecutionCoordinate],
    ) -> None:
        super().__init__(table, boundaries)
        self._block_to_marker = table.block_to_marker()
        self._marker_counts: Dict[int, int] = {}

    def _close(self) -> None:
        super()._close()
        self._next += 1

    def on_chunk(
        self,
        block_id: int,
        execs: int,
        instructions: int,
        cycles: float,
        dram: float = 0.0,
    ) -> None:
        self.total_instructions += instructions
        self.total_cycles += cycles
        self.total_dram += dram
        marker_id = self._block_to_marker.get(block_id)
        if marker_id is None:
            self._cur.instructions += instructions
            self._cur.cycles += cycles
            self._cur.dram_accesses += dram
            return
        # Marker anchors are overhead blocks: uniform per execution and
        # free of memory traffic (dram is always 0 here).
        per_instr = instructions // execs
        per_cycles = cycles / execs
        count = self._marker_counts.get(marker_id, 0)
        remaining = execs
        while remaining > 0:
            take = remaining
            if self._next < len(self._boundaries):
                expected_marker, expected_count = self._boundaries[self._next]
                if (
                    expected_marker == marker_id
                    and count < expected_count <= count + remaining
                ):
                    take = expected_count - count
            self._cur.instructions += per_instr * take
            self._cur.cycles += per_cycles * take
            count += take
            remaining -= take
            if self._next < len(self._boundaries):
                expected_marker, expected_count = self._boundaries[self._next]
                if expected_marker == marker_id and expected_count == count:
                    self._close()
        self._marker_counts[marker_id] = count


def feed_chunks(tracker, rows: Sequence[Sequence[float]]) -> None:
    """Hand ``(block_id, execs, instructions, cycles[, dram])`` rows to
    a tracker as one ``on_chunks`` batch of columns."""
    rows = [tuple(row) + (0.0,) * (5 - len(row)) for row in rows]
    block_ids, execs, instructions, cycles, dram = (
        zip(*rows) if rows else ((),) * 5
    )
    tracker.on_chunks(
        np.array(block_ids, dtype=np.int64),
        np.array(execs, dtype=np.int64),
        np.array(instructions, dtype=np.int64),
        np.array(cycles, dtype=np.float64),
        np.array(dram, dtype=np.float64),
    )


def reference_fingerprint(*objects):
    """SHA-256 of the whole key lowered and encoded in one pass."""
    document = json.dumps(
        [FORMAT_VERSION, [_canonical(obj) for obj in objects]],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()
