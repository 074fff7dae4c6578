"""Basic block vector collection over fixed-length intervals (FLI).

This is the classic SimPoint frontend (paper Section 2): execution is
cut into contiguous intervals of exactly ``interval_size`` committed
instructions (the last interval may be short), and each interval's BBV
records, per static basic block, the entries times the block size.

Interval boundaries are placed at exact instruction counts — mid-block
if necessary, with the block's instructions split across the two
intervals, just as instruction-granular interval cutting does in real
PinPoints profiles.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.compilation.binary import Binary, LLoop
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


def collect_fli_bbvs(
    binary: Binary,
    interval_size: int,
    program_input: ProgramInput = REF_INPUT,
    *,
    cache: Optional[ProfileCache] = None,
) -> List[Interval]:
    """Profile a binary into fixed-length-interval BBVs.

    The profile is replayed from the compiled execution trace
    (:mod:`repro.execution.trace`), bit-identical to (and much faster
    than) the scalar :class:`FixedLengthBBVCollector`, which the tests
    keep as its oracle. With a cache (explicit or the process-wide
    one), the profile is memoized by ``(binary, input, interval
    size)`` fingerprint.
    """
    cache = cache if cache is not None else active_cache()

    def compute() -> List[Interval]:
        from repro.execution.trace import compiled_trace, replay_fli

        trace = compiled_trace(binary, program_input, cache=cache)
        return replay_fli(trace, interval_size)

    if cache is None:
        return compute()
    return cache.get_or_compute(
        "fli", (binary, program_input, interval_size), compute
    )
