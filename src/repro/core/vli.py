"""Variable-length interval construction (paper Section 3.2.3).

Execution of the *primary binary* is cut into intervals of at least the
target size, each ending at the first mappable-marker firing after the
target is reached. Boundaries are recorded as execution coordinates
``(marker id, cumulative firing count)``, which name the same semantic
moment in every binary — that is what makes the intervals mappable.

The builder consumes the engine's bulk stream directly: only marker
anchor blocks can end intervals, and within an innermost-loop iteration
span only the back-edge branch can be a marker, so boundary placement
inside a span reduces to integer arithmetic over whole iterations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.compilation.binary import Binary, LLoop
from repro.core.markers import ExecutionCoordinate, MarkerSet, MarkerTable
from repro.errors import ProfilingError
from repro.execution.events import (
    ExecutionConsumer,
    IterationProfile,
    iteration_profile,
)
from repro.profiling.intervals import Interval
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.runtime.cache import ProfileCache
from repro.runtime.config import active_cache


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


def collect_vli_bbvs(
    binary: Binary,
    marker_set: MarkerSet,
    target_size: int,
    program_input: ProgramInput = REF_INPUT,
    *,
    cache: Optional[ProfileCache] = None,
) -> List[Interval]:
    """Profile a binary into mappable variable-length intervals.

    The intervals are replayed from the compiled execution trace
    (:mod:`repro.execution.trace`) — bit-identical to the scalar
    :class:`VLIBuilder`, which the tests keep as its oracle. With a
    cache (explicit or the process-wide one), the profile is memoized
    by ``(binary, input, this binary's marker table, target size)``
    fingerprint — only the table matters, since the builder never
    consults the other binaries' anchors.
    """
    table = marker_set.table_for(binary.name)
    cache = cache if cache is not None else active_cache()

    def compute() -> List[Interval]:
        from repro.execution.trace import compiled_trace, replay_vli

        trace = compiled_trace(binary, program_input, cache=cache)
        return replay_vli(trace, binary, table, target_size)

    if cache is None:
        return compute()
    return cache.get_or_compute(
        "vli", (binary, program_input, table, target_size), compute
    )
