"""Scalar reference oracles for the compiled-trace profilers.

Production profiling always replays a compiled execution trace
(:mod:`repro.execution.trace`). Each replay has a scalar consumer that
walks the engine's event stream directly; these helpers run those
consumers so the equivalence tests and the kernel benchmarks can
compare the two paths.
"""

from repro.core.vli import VLIBuilder
from repro.core.weights import IntervalInstructionCounter
from repro.execution.engine import ExecutionEngine
from repro.execution.pin import run_with_tools
from repro.profiling.bbv import FixedLengthBBVCollector
from repro.profiling.callbranch import CallBranchProfiler
from repro.programs.inputs import REF_INPUT


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
