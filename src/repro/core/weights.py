"""Per-binary weight re-measurement (paper Section 3.2.6).

A simulation point's weight is the fraction of the binary's dynamic
instructions spent in its phase. The phase *membership* of each mapped
interval comes from the primary binary's clustering, but the amount of
execution per interval changes across binaries (optimized code executes
fewer instructions for the same semantic region), so the weights must
be re-measured by running each binary and counting instructions between
the mapped interval boundaries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.compilation.binary import Binary, LLoop
from repro.core.markers import ExecutionCoordinate, MarkerSet
from repro.errors import MappingError
from repro.execution.events import (
    ExecutionConsumer,
    IterationProfile,
    iteration_profile,
)
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.runtime.cache import ProfileCache
from repro.runtime.config import active_cache


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


def measure_interval_instructions(
    binary: Binary,
    marker_set: MarkerSet,
    boundaries: Sequence[ExecutionCoordinate],
    program_input: ProgramInput = REF_INPUT,
    *,
    cache: Optional[ProfileCache] = None,
) -> List[int]:
    """Instructions per mapped interval for one binary (functional run).

    The counts are replayed from the compiled execution trace
    (:mod:`repro.execution.trace`) as a segment sum between boundary
    firing positions — bit-identical to the scalar
    :class:`IntervalInstructionCounter`, which the tests keep as its
    oracle. With a cache (explicit or the process-wide one), the counts
    are memoized by ``(binary, input, this binary's marker table, the
    boundary coordinates)`` fingerprint.
    """
    cache = cache if cache is not None else active_cache()

    def compute() -> List[int]:
        from repro.execution.trace import (
            compiled_trace,
            replay_interval_counts,
        )

        trace = compiled_trace(binary, program_input, cache=cache)
        return replay_interval_counts(trace, binary, marker_set, boundaries)

    if cache is None:
        return compute()
    return cache.get_or_compute(
        "interval-counts",
        (
            binary,
            program_input,
            marker_set.table_for(binary.name),
            tuple(boundaries),
        ),
        compute,
    )


def phase_weights(
    interval_instructions: Sequence[int],
    labels: Sequence[int],
) -> Dict[int, float]:
    """Per-phase instruction-fraction weights for one binary.

    ``labels`` assigns each mapped interval to a phase (from the
    primary binary's clustering); ``interval_instructions`` is that
    binary's measured instruction count per interval.
    """
    if len(interval_instructions) != len(labels):
        raise MappingError(
            f"got {len(interval_instructions)} interval counts but "
            f"{len(labels)} labels"
        )
    total = float(sum(interval_instructions))
    if total <= 0:
        raise MappingError("no instructions executed")
    weights: Dict[int, float] = {}
    for instructions, label in zip(interval_instructions, labels):
        weights[label] = weights.get(label, 0.0) + instructions
    return {label: weight / total for label, weight in weights.items()}
