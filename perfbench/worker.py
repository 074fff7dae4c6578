"""One benchmark pass in a fresh process.

``run.py`` starts this as ``python3 perfbench/worker.py SPEC OUT``.
SPEC is a JSON object (workload, seed, cache directory, job count,
trace flag, speed flag, the parent's ``perf_counter()`` at spawn and
its probe time just before, and optionally an explicit input and
program list); OUT is the path the pass record is written to as JSON.
Set-up time runs from the spawn stamp to the first timed call, so it
covers interpreter start and imports. With the speed flag, the work is
timed by a ``hostspeed.SpeedClock`` and both times are also given at
the reference host speed (``*_scaled_s``). A ``setup_only`` pass stops
where the work would start and records only its set-up time.
"""

from __future__ import annotations

import json
import sys
import time


def main(spec_text: str, out_path: str) -> None:
    spec = json.loads(spec_text)

    import numpy

    import hostspeed
    import tracing
    import workloads
    from repro.programs.inputs import ProgramInput

    if spec.get("input"):
        name, scale = spec["input"]
        pi = ProgramInput(name=name, scale=scale)
    else:
        pi = workloads.program_input(spec["workload"], spec["seed"])
    tracer = None
    if spec["trace"]:
        op_layer = (
            "cmpsim.run_full"
            if spec["workload"] == "design_space"
            else "experiments.run_benchmark"
        )
        # The suite's 84 detailed runs are calibrated one in five, which
        # keeps a traced REF-input suite within the run's time limit.
        every = 5 if spec["workload"] == "suite" else 1
        tracer = tracing.Tracer(op_layer, attribution_every=every)
    speed = hostspeed.SpeedClock() if spec.get("speed") else None
    if spec.get("setup_only"):
        setup_end = time.perf_counter()
        speed.start()
        _write(out_path, _setup(spec, setup_end, speed))
        return
    clock = {}

    def timed(work):
        clock["setup_end"] = time.perf_counter()
        if speed:
            speed.start()
            installation = hostspeed.install(speed)
        elif tracer:
            installation = tracing.install(tracer)
        else:
            installation = None
        clock["start"] = time.perf_counter()
        root = tracer.open(tracing.ROOT) if tracer else None
        try:
            return work()
        finally:
            if tracer:
                tracer.close(root)
            if speed:
                speed.stop()
            clock["end"] = time.perf_counter()
            if installation:
                tracing.uninstall(installation)

    record = workloads.run_pass(
        spec["workload"],
        pi,
        spec["cache_dir"],
        spec["jobs"],
        programs=spec.get("programs"),
        timed=timed,
    )
    record["setup_s"] = clock["setup_end"] - spec["spawned"]
    record["work_s"] = clock["end"] - clock["start"]
    if speed:
        record.update(_setup(spec, clock["setup_end"], speed))
        record["work_s"] = speed.wall_s
        record["work_scaled_s"] = speed.scaled_s
        record["speed"] = speed.record()
    record["input"] = [pi.name, pi.scale]
    record["numpy"] = numpy.__version__
    record["leftover_wrappers"] = tracing.leftover_wrappers()
    if tracer is not None:
        record["trace"] = tracing.layer_times(tracer)
        if spec.get("spans"):
            with open(spec["spans"], "w") as handle:
                json.dump(tracer.dump(), handle, separators=(",", ":"))
    _write(out_path, record)


def _setup(spec, setup_end: float, speed) -> dict:
    """Set-up time, raw and at the reference speed (the probes just
    before the spawn and just after the set-up)."""
    import hostspeed

    setup_s = setup_end - spec["spawned"]
    scaled = hostspeed.scale(setup_s, [spec["spawn_probe"], speed.first_probe])
    return {"setup_s": setup_s, "setup_scaled_s": scaled}


def _write(out_path: str, record: dict) -> None:
    with open(out_path, "w") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
