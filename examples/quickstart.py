#!/usr/bin/env python3
"""Quickstart: classic SimPoint on one binary.

Builds the synthetic ``art`` benchmark, compiles it for 32-bit O0,
profiles it into fixed-length-interval basic block vectors, lets
SimPoint pick the simulation points, and compares the weighted estimate
against full detailed simulation — the workflow of the paper's
Section 2 on a single binary.

Run:  python examples/quickstart.py [--trace-out out/trace.json]

With ``--trace-out`` (or ``REPRO_TRACE_OUT``) the run also writes a
``manifest.json`` next to the trace — per-stage wall times, cache
statistics, the chosen k with its BIC trace, and the final CPI error —
which ``python -m repro inspect`` pretty-prints.
"""

import argparse

from repro import build_benchmark, compile_program
from repro.analysis.estimate import estimate_from_points
from repro.cmpsim.simcache import TrackerRequest, cached_full_run
from repro.cmpsim.simulator import IntervalStats
from repro.compilation.targets import TARGET_32U
from repro.observability import observe, trace
from repro.profiling.bbv import collect_fli_bbvs
from repro.simpoint.simpoint import SimPointConfig, run_simpoint

INTERVAL_SIZE = 100_000  # scaled stand-in for the paper's 100M


def run(session=None) -> None:
    print("== Cross Binary SimPoint quickstart ==\n")

    config = SimPointConfig(max_k=10)
    if session is not None:
        session.record_config((("benchmark", "art"),
                               ("interval_size", INTERVAL_SIZE), config))

    with trace.span("build"):
        program = build_benchmark("art")
        binary, _ = compile_program(program, TARGET_32U)
    print(f"compiled {binary.name}: {len(binary.blocks)} basic blocks, "
          f"{len(binary.loops)} loops, {len(binary.symbols)} symbols")

    # 1. Profile into fixed-length intervals with BBVs.
    with trace.span("profile"):
        intervals = collect_fli_bbvs(binary, INTERVAL_SIZE)
    print(f"profiled {len(intervals)} intervals of "
          f"{INTERVAL_SIZE:,} instructions")

    # 2. SimPoint: cluster, choose k by BIC, pick representatives.
    with trace.span("cluster"):
        simpoint = run_simpoint(intervals, config)
    print(f"SimPoint chose k={simpoint.k} phases:")
    for point in simpoint.points:
        print(f"  phase {point.cluster}: interval {point.interval_index}, "
              f"weight {point.weight:.1%}")
    if session is not None:
        session.record_clustering(
            binary.name, k=simpoint.k, bic_scores=simpoint.bic_scores,
            n_points=simpoint.n_points,
        )

    # 3. Detailed simulation: one full run, tracking per-interval CPI.
    # Content-keyed: with a cache configured (REPRO_CACHE_DIR), a
    # repeat run reuses the sim result instead of re-simulating, with
    # byte-identical output either way.
    with trace.span("simulate"):
        (tracked,) = cached_full_run(
            binary, [TrackerRequest(fli_interval_size=INTERVAL_SIZE)]
        )
        stats = tracked.stats
    print(f"\nfull simulation: {stats.instructions:,} instructions, "
          f"CPI {stats.cpi:.3f}")

    # 4. Weighted estimate from just the chosen simulation points.
    with trace.span("estimate"):
        estimate = estimate_from_points(
            binary.name,
            "fli",
            [(p.interval_index, p.weight) for p in simpoint.points],
            tracked.fli_intervals,
            IntervalStats(
                instructions=stats.instructions, cycles=stats.cycles
            ),
        )
    sim_instr = sum(
        tracked.fli_intervals[p.interval_index].instructions
        for p in simpoint.points
    )
    print(f"sampled estimate: CPI {estimate.estimated_cpi:.3f} "
          f"(error {estimate.cpi_error:.2%}) from only "
          f"{sim_instr:,} simulated instructions "
          f"({sim_instr / stats.instructions:.1%} of the run)")
    if session is not None:
        session.record_errors(
            binary.name, {"fli_cpi_error": estimate.cpi_error}
        )
        from repro.analysis.phases import phase_table

        rows = phase_table(
            simpoint.labels,
            tracked.fli_intervals,
            {p.cluster: p.interval_index for p in simpoint.points},
            top=simpoint.k,
        )
        session.record_bias(
            binary.name,
            {
                row.cluster: {
                    "weight": row.weight,
                    "true_cpi": row.true_cpi,
                    "sp_cpi": row.sp_cpi,
                    "bias": row.cpi_error,
                }
                for row in rows
            },
        )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a JSON trace here plus manifest.json next to it "
             "(default: REPRO_TRACE_OUT)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write metric counters here as JSON "
             "(default: REPRO_METRICS_OUT)",
    )
    args = parser.parse_args(argv)
    with observe(
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
        command=["examples/quickstart.py"],
    ) as session:
        run(session)


if __name__ == "__main__":
    main()
