"""The call-and-branch profile (paper Section 3.2.1).

For each binary (run with the study's input), the profile records:

* per-procedure *entry counts* — how many times each symbol-visible
  procedure is entered over the whole execution;
* per-loop *entry counts* — how many times each loop is entered,
  regardless of how long it iterates;
* per-loop *iteration (body) counts* — how many times the loop's
  back-edge branch executes over the whole run;

together with each loop's debug line. These counts plus symbol/line
information are exactly what the cross-binary matcher
(:mod:`repro.core.matching`) uses to find mappable points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.compilation.binary import Binary
from repro.execution.pin import PinTool
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.programs.ir import SourceLocation
from repro.runtime.cache import ProfileCache
from repro.runtime.config import active_cache


@dataclass(frozen=True)
class LoopProfile:
    """Whole-run profile of one loop in one binary."""

    loop_id: int
    location: Optional[SourceLocation]
    source_name: str
    entries: int
    iterations: int


@dataclass(frozen=True)
class CallBranchProfile:
    """Whole-run call-and-branch profile of one binary."""

    binary_name: str
    procedure_entries: Mapping[str, int]
    loops: Mapping[int, LoopProfile]
    total_instructions: int

    def executed_procedures(self) -> Tuple[str, ...]:
        """Symbols entered at least once, sorted by name."""
        return tuple(
            sorted(n for n, c in self.procedure_entries.items() if c > 0)
        )

    def executed_loops(self) -> Tuple[LoopProfile, ...]:
        """Loops entered at least once, sorted by loop id."""
        return tuple(
            profile
            for _, profile in sorted(self.loops.items())
            if profile.entries > 0
        )


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


def collect_call_branch_profile(
    binary: Binary,
    program_input: ProgramInput = REF_INPUT,
    *,
    cache: Optional[ProfileCache] = None,
) -> CallBranchProfile:
    """The call-and-branch profile of one run of a binary.

    The profile is reduced from the compiled execution trace
    (:mod:`repro.execution.trace`) with bulk ``np.add.at``
    accumulation — bit-identical to running the scalar
    :class:`CallBranchProfiler` Pin tool, which the tests keep as its
    oracle. With a cache (explicit or the process-wide one), the
    profile is memoized by ``(binary, input)`` content fingerprint.
    """
    cache = cache if cache is not None else active_cache()

    def compute() -> CallBranchProfile:
        from repro.execution.trace import compiled_trace, replay_call_branch

        trace = compiled_trace(binary, program_input, cache=cache)
        return replay_call_branch(trace, binary)

    if cache is None:
        return compute()
    return cache.get_or_compute(
        "callbranch", (binary, program_input), compute
    )
