"""The benchmark's workloads: one cold or warm pass, its output tables
and the checks every operation must pass.

A pass runs one workload against one ``ProfileCache`` directory and
returns a JSON-able record. The record holds, per operation (op), a
digest of the op's result tables and whether it passed its checks,
plus the workload's accuracy figures, its modelled statistics and the
program's own metric counters. The caller compares a warm pass with
the cold pass that filled its cache, so "warm equals cold" is checked
op by op.

Workloads (the op is the unit that can fail):

* ``suite``: every program x 4 binaries through ``run_suite`` at the
  Table 1 config and 100K intervals, then ``validate_reproduction``.
  One op per program.
* ``gcc_sweep``: ``sweep_interval_sizes("gcc", SWEEP_SIZES)``. One op
  per interval size.
* ``design_space``: ``explore_design_space("mcf")`` over the standard
  three architectures. One op per (binary, architecture) point.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import traceback
from dataclasses import replace
from statistics import mean
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cmpsim.simulator import CMPSim
from repro.compilation.targets import STANDARD_TARGETS
from repro.experiments.design_space import (
    STANDARD_DESIGN_SPACE,
    explore_design_space,
)
from repro.experiments.figures import pair_speedup_error
from repro.experiments.runner import ExperimentConfig, run_benchmark, run_suite
from repro.experiments.sweeps import sweep_interval_sizes
from repro.experiments.validation import validate_reproduction
from repro.observability import metrics
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.programs.suite import benchmark_names
from repro.runtime.cache import ProfileCache
from repro.runtime.config import runtime_session

SWEEP_PROGRAM = "gcc"
SWEEP_SIZES = (50_000, 100_000, 200_000)
DESIGN_PROGRAM = "mcf"

#: Binary pairs whose speedup the paper estimates (Figures 4 and 5).
SPEEDUP_PAIRS = (("32u", "32o"), ("64u", "64o"), ("32u", "64u"), ("32o", "64o"))

#: Seeds other than 0 draw their input scale from a window per workload.
#: The only input-scaled loop of every program is its main loop (3 to 6
#: trips at REF), and every scale in a window resolves those trips
#: alike: to 1, 1, 1 and 2 for ``suite``, and to 2, 2, 3 and 3 for the
#: single-program workloads (gcc runs 2 trips, mcf 3). So every such
#: seed runs the same work under an input no default uses, with its own
#: identity (and so its own cache keys): timings stay comparable across
#: seeds. The single-program windows are larger so their passes last
#: long enough to time.
HELD_BACK_SCALES = {
    "suite": (0.26, 0.29),
    "gcc_sweep": (0.51, 0.57),
    "design_space": (0.51, 0.57),
}

#: Relative tolerance for interval cycles summing to the whole-run
#: cycles (float sums in a different order).
CYCLE_RTOL = 1e-9


def program_input(workload: str, seed: int) -> ProgramInput:
    """The input for a workload seed: seed 0 is the paper's REF input."""
    if seed == 0:
        return REF_INPUT
    low, high = HELD_BACK_SCALES[workload]
    scale = random.Random(seed).uniform(low, high)
    return ProgramInput(name=f"held-back-{seed}", scale=scale)


def digest(table: Any) -> str:
    """SHA-256 of a result table in canonical JSON (floats exact)."""
    text = json.dumps(table, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _intervals(intervals) -> List[List[float]]:
    return [[i.instructions, i.cycles, i.dram_accesses] for i in intervals]


def _stats_table(stats) -> Dict[str, Any]:
    return {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "memory_refs": stats.memory_refs,
        "level_accesses": list(stats.level_accesses),
        "level_misses": list(stats.level_misses),
        "dram_reads": stats.dram_reads,
        "dram_writebacks": stats.dram_writebacks,
    }


def _conservation_errors(name: str, stats, interval_sets) -> List[str]:
    """Intervals of each structure must sum to the whole-run totals."""
    problems = []
    for kind, intervals in interval_sets:
        instructions = sum(i.instructions for i in intervals)
        cycles = math.fsum(i.cycles for i in intervals)
        if instructions != stats.instructions:
            problems.append(
                f"{name} {kind}: intervals hold {instructions} "
                f"instructions, run {stats.instructions}"
            )
        if not math.isclose(cycles, stats.cycles, rel_tol=CYCLE_RTOL):
            problems.append(
                f"{name} {kind}: intervals hold {cycles!r} cycles, "
                f"run {stats.cycles!r}"
            )
    return problems


def _run_op(name: str, run) -> Tuple[Dict[str, Any], List[str], List[Any]]:
    """Result table, conservation problems and stats of one experiment."""
    table: Dict[str, Any] = {
        "vli_k": run.cross.simpoint.k,
        "vli_points": [
            [p.cluster, p.interval_index] for p in run.cross.mapped_points
        ],
        "binaries": {},
    }
    problems: List[str] = []
    stats = []
    for label, outcome in sorted(run.outcomes.items()):
        table["binaries"][label] = {
            "stats": _stats_table(outcome.stats),
            "fli": _intervals(outcome.fli_intervals),
            "vli": _intervals(outcome.vli_intervals),
            "fli_points": [
                [p.cluster, p.interval_index, p.weight]
                for p in outcome.fli_simpoint.points
            ],
            "fli_cpi": outcome.fli_estimate.estimated_cpi,
            "vli_cpi": outcome.vli_estimate.estimated_cpi,
        }
        problems += _conservation_errors(
            f"{name}/{label}",
            outcome.stats,
            (("FLI", outcome.fli_intervals), ("VLI", outcome.vli_intervals)),
        )
        stats.append(outcome.stats)
    return table, problems, stats


def _speedup_error(runs, method: str) -> float:
    return mean(
        pair_speedup_error(run, method, a, b).error
        for run in runs
        for a, b in SPEEDUP_PAIRS
    )


def _run_errors(runs) -> Dict[str, float]:
    return {
        "cpi_err_vli_pct": 100 * mean(r.average_cpi_error("vli") for r in runs),
        "speedup_err_vli_pct": 100 * _speedup_error(runs, "vli"),
        "speedup_err_fli_pct": 100 * _speedup_error(runs, "fli"),
    }


def _suite(pi, jobs, programs, timed):
    names = tuple(programs) if programs else benchmark_names()
    config = ExperimentConfig(program_input=pi)

    def work():
        runs = run_suite(names, config, jobs=jobs)
        return runs, validate_reproduction(runs)

    runs, verdicts = timed(work)
    ops = [(name,) + _run_op(name, runs[name]) for name in names]
    claims = {result.claim: result.verdict.value for result in verdicts}
    return ops, _run_errors(runs.values()), claims


def _gcc_sweep(pi, jobs, programs, timed):
    config = ExperimentConfig(program_input=pi)
    timed(lambda: sweep_interval_sizes(
        SWEEP_PROGRAM, SWEEP_SIZES, config, jobs=jobs
    ))
    # The sweep leaves each size's run in the runner's in-process memo,
    # so these calls only fetch what the sweep computed.
    runs = [
        run_benchmark(SWEEP_PROGRAM, replace(config, interval_size=size))
        for size in SWEEP_SIZES
    ]
    ops = [
        (f"{SWEEP_PROGRAM}@{size}",) + _run_op(f"{SWEEP_PROGRAM}@{size}", run)
        for size, run in zip(SWEEP_SIZES, runs)
    ]
    return ops, _run_errors(runs), {}


def _design_space(pi, jobs, programs, timed):
    # explore_design_space keeps its trackers to itself, so the whole-run
    # statistics and intervals each conservation check needs are taken
    # from CMPSim.run_full as it returns (12 calls, no per-chunk cost).
    # The hook goes in inside the timed call, so a tracer installed there
    # wraps the original and never runs the hook for its calibration.
    simulated = []

    def work():
        original = CMPSim.run_full

        def observed(self, trackers=(), batched=True):
            result = original(self, trackers=trackers, batched=batched)
            simulated.append((result.stats, [t.intervals for t in trackers]))
            return result

        CMPSim.run_full = observed
        try:
            return explore_design_space(DESIGN_PROGRAM, program_input=pi)
        finally:
            CMPSim.run_full = original

    result = timed(work)
    if len(simulated) != len(result.points):
        raise RuntimeError(
            f"{len(result.points)} design points but "
            f"{len(simulated)} detailed simulations"
        )
    ops = []
    for point, (stats, interval_sets) in zip(result.points, simulated):
        name = f"{DESIGN_PROGRAM}/{point.binary_label}@{point.architecture}"
        table = {
            "stats": _stats_table(stats),
            "intervals": [_intervals(i) for i in interval_sets],
            "true_cycles": point.true_cycles,
            "fli_cycles": point.fli_cycles,
            "vli_cycles": point.vli_cycles,
        }
        problems = _conservation_errors(
            name, stats, list(zip(("FLI", "VLI"), interval_sets))
        )
        ops.append((name, table, problems, [stats]))
    architectures = sorted({p.architecture for p in result.points})
    errors = {
        "cpi_err_vli_pct": 100 * mean(
            abs(p.vli_cycles - p.true_cycles) / p.true_cycles
            for p in result.points
        ),
        "speedup_err_vli_pct": 100 * mean(
            result.cross_binary_error("vli", a) for a in architectures
        ),
        "speedup_err_fli_pct": 100 * mean(
            result.cross_binary_error("fli", a) for a in architectures
        ),
    }
    return ops, errors, {}


_RUNNERS: Dict[str, Callable] = {
    "suite": _suite,
    "gcc_sweep": _gcc_sweep,
    "design_space": _design_space,
}


def op_names(workload: str, programs: Optional[Sequence[str]] = None):
    """The names of a workload's ops, in the order a pass reports them."""
    if workload == "suite":
        return list(programs) if programs else list(benchmark_names())
    if workload == "gcc_sweep":
        return [f"{SWEEP_PROGRAM}@{size}" for size in SWEEP_SIZES]
    return [
        f"{DESIGN_PROGRAM}/{t.label}@{a.name}"
        for t in STANDARD_TARGETS
        for a in STANDARD_DESIGN_SPACE
    ]


def _modelled(all_stats) -> Dict[str, Any]:
    """Whole-workload simulated (not host) statistics."""
    if not all_stats:
        return {}
    levels = len(all_stats[0].level_accesses)
    return {
        "instructions": sum(s.instructions for s in all_stats),
        "cycles": math.fsum(s.cycles for s in all_stats),
        "memory_refs": sum(s.memory_refs for s in all_stats),
        "level_accesses": [
            sum(s.level_accesses[i] for s in all_stats) for i in range(levels)
        ],
        "level_misses": [
            sum(s.level_misses[i] for s in all_stats) for i in range(levels)
        ],
        "dram_reads": sum(s.dram_reads for s in all_stats),
        "dram_writebacks": sum(s.dram_writebacks for s in all_stats),
    }


def run_pass(
    workload: str,
    pi: ProgramInput,
    cache_dir: str,
    jobs: int,
    programs: Optional[Sequence[str]] = None,
    timed: Optional[Callable[[Callable[[], Any]], Any]] = None,
) -> Dict[str, Any]:
    """Run one pass of a workload; never raises for a failing workload.

    ``timed`` wraps the workload's calls into the program (the caller's
    clock and tracer); tables, digests and checks run outside it. An
    exception in the workload fails every op of the pass.
    """
    runner = _RUNNERS[workload]
    timed = timed or (lambda work: work())
    cache = ProfileCache(cache_dir)
    record: Dict[str, Any] = {"workload": workload}
    with metrics.scoped_registry() as registry:
        try:
            with runtime_session(cache=cache, jobs=jobs):
                ops, errors, claims = runner(pi, jobs, programs, timed)
        except Exception:
            record["error"] = traceback.format_exc()
            record["ops"] = [
                {"name": name, "digest": None, "problems": ["raised"]}
                for name in op_names(workload, programs)
            ]
            record["counters"] = registry.snapshot()
            return record
    record["ops"] = [
        {"name": name, "digest": digest(table), "problems": problems}
        for name, table, problems, _ in ops
    ]
    record["tables_digest"] = digest([table for _, table, _, _ in ops])
    record["errors"] = errors
    record["claims"] = claims
    record["modelled"] = _modelled([s for *_, stats in ops for s in stats])
    record["counters"] = registry.snapshot()
    return record
