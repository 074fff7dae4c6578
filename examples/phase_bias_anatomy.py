#!/usr/bin/env python3
"""Anatomy of the bias problem (the paper's Tables 2 and 3).

Why does per-binary SimPoint mis-estimate cross-binary speedups even
though each binary's own CPI estimate is accurate? Because the *bias*
(which behaviours the sampled simulation under- or over-represents)
differs between the per-binary clusterings, while with mappable points
the same regions — and hence the same bias — are used everywhere.

This example prints the Table-2-style per-phase breakdown for gcc's
32-bit vs 64-bit unoptimized binaries, writes the cross-binary regions
file (the PinPoints-style artifact), and demonstrates reloading it and
simulating *only* those regions in a different binary.

Run:  python examples/phase_bias_anatomy.py
"""

import tempfile
from pathlib import Path

from repro.cmpsim.simulator import CMPSim, regions_from_mapped_points
from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS
from repro.experiments.reporting import render_phase_comparison
from repro.experiments.runner import run_benchmark
from repro.experiments.tables import table2_gcc_phases
from repro.pinpoints.files import read_regions, write_regions
from repro.programs.suite import build_benchmark


def main() -> None:
    print("== Phase bias anatomy: gcc, 32u vs 64u ==\n")
    print("running both pipelines + detailed simulation "
          "(about half a minute)...\n")
    run = run_benchmark("gcc")

    comparison = table2_gcc_phases(run=run)
    print(render_phase_comparison(comparison))

    print("\nInterpretation: with FLI, a phase's bias (CPI err) can "
          "swing between the binaries,\nbecause each binary clustered "
          "its execution differently; with VLI the biases line\nup, so "
          "they cancel out of any cross-binary ratio.")

    # The regions file: the artifact that drives region simulation of
    # ANY binary in the matched set.
    with tempfile.TemporaryDirectory() as tmp:
        regions_path = Path(tmp) / "gcc.regions"
        write_regions(regions_path, run.cross.mapped_points)
        print(f"\nwrote {len(run.cross.mapped_points)} cross-binary "
              f"regions to {regions_path.name}:")
        for line in regions_path.read_text().splitlines()[:4]:
            print(f"  {line}")
        print("  ...")

        reloaded = read_regions(regions_path)

    # Simulate only those regions in the 64-bit unoptimized binary.
    binaries = compile_standard_binaries(build_benchmark("gcc"))
    target_64u = STANDARD_TARGETS[2]
    binary = binaries[target_64u]
    regions = regions_from_mapped_points(reloaded)
    table = run.cross.marker_set.table_for(binary.name)
    result = CMPSim(binary).run_regions(regions, table, warm=True)

    weights = run.cross.weights_for(binary.name)
    estimated_cpi = sum(
        weights[point.cluster] * result.region(point.cluster).cpi
        for point in reloaded
    )
    true_cpi = run.outcome("64u").true_cpi
    detailed = sum(
        result.region(point.cluster).instructions for point in reloaded
    )
    total = run.outcome("64u").stats.instructions
    print(f"\nregion simulation of {binary.name}: simulated "
          f"{detailed:,} of {total:,} instructions "
          f"({detailed / total:.1%})")
    print(f"estimated CPI {estimated_cpi:.3f} vs true {true_cpi:.3f} "
          f"(error {abs(estimated_cpi - true_cpi) / true_cpi:.2%})")


if __name__ == "__main__":
    main()
