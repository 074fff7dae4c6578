"""Spans around the program's layer boundaries, recorded from outside.

:func:`install` replaces each function in :data:`TARGETS` by a wrapper
that records a span (name, start, end, parent span, op id) in memory;
:func:`uninstall` puts every original back. A function imported by
name into another module is replaced there too, since that module
calls its own reference.

Per-chunk calls (tracker ``on_chunk``, engine callbacks) are never
wrapped: there are millions of them and wrapping them distorts the
very times being measured. Two layers are measured by difference
instead, each in a calibration span that is excluded from the traced
wall time:

* execution walk: each ``ExecutionEngine.run`` is repeated with a
  consumer whose callbacks do nothing;
* interval attribution: every ``attribution_every``-th
  ``CMPSim.run_full`` with trackers is repeated with ``trackers=()``;
  the time saved, as a share of those runs, is applied to all tracked
  runs. A stride of 5 rotates through the four binaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from types import ModuleType
from typing import Any, Dict, List, Tuple, Union

import repro.compilation.compiler
import repro.core.matching
import repro.core.vli
import repro.core.weights
import repro.execution.trace
import repro.experiments.runner
import repro.profiling.bbv
import repro.profiling.callbranch
import repro.programs.suite
import repro.simpoint.simpoint
from repro.cmpsim.hierarchy import MemoryHierarchy
from repro.cmpsim.memory import BulkAccessPattern
from repro.cmpsim.simulator import CMPSim
from repro.execution.engine import ExecutionEngine
from repro.execution.events import ExecutionConsumer
from repro.runtime.cache import ProfileCache

#: (module or class, attribute, span name). A module-level function is
#: also replaced in every module that imported it by name.
TARGETS: Tuple[Tuple[Union[ModuleType, type], str, str], ...] = (
    (repro.experiments.runner, "run_benchmark", "experiments.run_benchmark"),
    (repro.programs.suite, "build_benchmark", "programs.build"),
    (repro.compilation.compiler, "compile_standard_binaries", "compilation.compile"),
    (repro.execution.trace, "compile_trace", "execution.trace_compile"),
    (ExecutionEngine, "run", "execution.run"),
    (repro.profiling.callbranch, "collect_call_branch_profile", "profiling.profile"),
    (repro.profiling.bbv, "collect_fli_bbvs", "profiling.profile"),
    (repro.core.matching, "find_mappable_points", "core.match"),
    (repro.core.vli, "collect_vli_bbvs", "core.vli"),
    (repro.core.weights, "measure_interval_instructions", "core.vli"),
    (repro.simpoint.simpoint, "run_simpoint", "simpoint.cluster"),
    (CMPSim, "run_full", "cmpsim.run_full"),
    (BulkAccessPattern, "generate", "cmpsim.refgen"),
    (MemoryHierarchy, "access_many", "cmpsim.hierarchy"),
    # The package re-exports the function under the submodule's name.
    (importlib.import_module("repro.runtime.fingerprint"), "fingerprint",
     "runtime.fingerprint"),
    (ProfileCache, "lookup", "runtime.cache.lookup"),
    (ProfileCache, "store", "runtime.cache.store"),
)

#: What :func:`install` replaced: (owner, attribute, original).
Patches = List[Tuple[Any, str, Any]]

ROOT = "experiments.workload"
CALIBRATION = "calibration"

#: The layer whose self time each span name counts toward. Engine
#: callbacks count toward the layer that called the engine, and the
#: experiment runner's own code toward ``experiments.other_s``.
SELF_LAYER = {
    ROOT: "experiments.other_s",
    "experiments.run_benchmark": "experiments.other_s",
    "programs.build": "programs.build_s",
    "compilation.compile": "compilation.compile_s",
    "execution.trace_compile": "execution.trace_compile_s",
    "profiling.profile": "profiling.profile_s",
    "core.match": "core.match_s",
    "core.vli": "core.vli_s",
    "simpoint.cluster": "simpoint.cluster_s",
    "cmpsim.run_full": "cmpsim.consumer_s",
    "cmpsim.refgen": "cmpsim.refgen_s",
    "cmpsim.hierarchy": "cmpsim.hierarchy_s",
    "runtime.fingerprint": "runtime.fingerprint_s",
    "runtime.cache.lookup": "runtime.cache.lookup_s",
    "runtime.cache.store": "runtime.cache.store_s",
}

#: Self-time layers; together they partition the traced wall time.
SELF_LAYERS = tuple(sorted(set(SELF_LAYER.values()) | {
    "execution.walk_s", "cmpsim.attribution_s",
}))


class Tracer:
    """In-memory span store plus the wrappers' call-stack state.

    Spans of one op share an op id; ``op_layer`` names the span that
    opens an op (0 marks work shared by all ops).
    """

    def __init__(self, op_layer: str, attribution_every: int = 1) -> None:
        self.op_layer = op_layer
        self.attribution_every = attribution_every
        self.tracked_runs = 0
        self.recording = True
        self.names: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.op: List[int] = []
        self.extra: Dict[int, Dict[str, float]] = {}
        self._stack: List[int] = []
        self._op = 0
        self._ops = 0

    def open(self, name: str) -> int:
        index = len(self.names)
        if name == self.op_layer and self._op == 0:
            self._ops += 1
            self._op = self._ops
            self.extra[index] = {"opens_op": 1.0}
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        if self.extra.get(index, {}).get("opens_op"):
            self._op = 0

    def note(self, index: int, key: str, value: float) -> None:
        self.extra.setdefault(index, {})[key] = value

    def calibrate(self, work) -> float:
        """Run ``work`` unrecorded inside a calibration span; its time."""
        self.recording = False
        index = self.open(CALIBRATION)
        try:
            work()
        finally:
            self.close(index)
            self.recording = True
        return self.end[index] - self.start[index]

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def dump(self) -> Dict[str, Any]:
        """Spans as compact rows, times relative to the first span."""
        names = sorted(set(self.names))
        code = {name: i for i, name in enumerate(names)}
        t0 = self.start[0] if self.start else 0.0
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [
                    code[self.names[i]],
                    round(self.start[i] - t0, 7),
                    round(self.end[i] - t0, 7),
                    self.parent[i],
                    self.op[i],
                ]
                for i in range(len(self.names))
            ],
        }


def _wrap(tracer: Tracer, fn, name: str):
    if name == "cmpsim.run_full":
        def traced(self, trackers=(), batched=True):
            if not tracer.recording:
                return fn(self, trackers=trackers, batched=batched)
            index = tracer.open(name)
            try:
                result = fn(self, trackers=trackers, batched=batched)
            finally:
                tracer.close(index)
            tracer.note(index, "sim_inst", result.stats.instructions)
            if not trackers:
                return result
            tracer.note(index, "tracked", 1)
            if tracer.tracked_runs % tracer.attribution_every == 0:
                untracked = tracer.calibrate(
                    lambda: fn(self, trackers=(), batched=batched)
                )
                tracer.note(index, "untracked_s", untracked)
            tracer.tracked_runs += 1
            return result
    elif name == "execution.run":
        def traced(self, consumer):
            if not tracer.recording:
                return fn(self, consumer)
            index = tracer.open(name)
            try:
                result = fn(self, consumer)
            finally:
                tracer.close(index)
            engine = ExecutionEngine(self._binary, self._input)
            walk = tracer.calibrate(
                lambda: fn(engine, ExecutionConsumer())
            )
            tracer.note(index, "walk_s", walk)
            return result
    else:
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
    functools.update_wrapper(traced, fn)
    traced._perfbench_traced = True
    return traced


def _program_modules() -> List[ModuleType]:
    return [
        module for name, module in list(sys.modules.items())
        if name.startswith("repro") and module is not None
    ]


def install(tracer: Tracer) -> Patches:
    """Wrap every target, including names other modules imported."""
    return patch(lambda fn, name: _wrap(tracer, fn, name))


def patch(wrap) -> Patches:
    """Replace every target by ``wrap(original, span_name)`` wherever
    the program holds it."""
    patches: Patches = []
    for owner, attribute, name in TARGETS:
        fn = vars(owner)[attribute]
        wrapped = wrap(fn, name)
        holders = [owner] if isinstance(owner, type) else _program_modules()
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    patches.append((holder, key, fn))
                    setattr(holder, key, wrapped)
    return patches


def uninstall(patches: Patches) -> None:
    """Put back every original that :func:`install` replaced."""
    for holder, key, fn in reversed(patches):
        setattr(holder, key, fn)
    patches.clear()


def leftover_wrappers() -> List[str]:
    """Names in the program that still hold a tracing wrapper."""
    holders = [owner for owner, _, _ in TARGETS if isinstance(owner, type)]
    return [
        f"{getattr(holder, '__name__', holder)}.{key}"
        for holder in holders + _program_modules()
        for key, value in list(vars(holder).items())
        if getattr(value, "_perfbench_traced", False)
    ]


def _layer_of(tracer: Tracer, index: int) -> str:
    """The self-time layer of the nearest ancestor that is not an
    engine walk (engine callbacks belong to the engine's caller)."""
    while index >= 0 and tracer.names[index] in ("execution.run", CALIBRATION):
        index = tracer.parent[index]
    return SELF_LAYER[tracer.names[index]] if index >= 0 else SELF_LAYER[ROOT]


def layer_times(tracer: Tracer) -> Dict[str, Any]:
    """Self time per layer, inclusive detailed-simulation time, span
    counts and the traced wall time (calibration excluded)."""
    n = len(tracer.names)
    child_time = [0.0] * n
    calibrated = [0.0] * n  # calibration time nested inside each span
    for i in range(n):
        if tracer.parent[i] >= 0:
            child_time[tracer.parent[i]] += tracer.duration(i)
        if tracer.names[i] == CALIBRATION:
            ancestor = tracer.parent[i]
            while ancestor >= 0:
                calibrated[ancestor] += tracer.duration(i)
                ancestor = tracer.parent[ancestor]
    layers = {layer: 0.0 for layer in SELF_LAYERS}
    calls: Dict[str, int] = {}
    run_full_s = 0.0
    sim_inst = 0
    tracked_s = sampled_s = saved_s = 0.0  # attribution's ratio estimate
    for i, name in enumerate(tracer.names):
        calls[name] = calls.get(name, 0) + 1
        if name == CALIBRATION:
            continue
        extra = tracer.extra.get(i, {})
        own = tracer.duration(i) - child_time[i]
        if name == "execution.run":
            walk = min(extra.get("walk_s", 0.0), own)
            layers["execution.walk_s"] += walk
            layers[_layer_of(tracer, i)] += own - walk
            continue
        layers[SELF_LAYER[name]] += own
        if name == "cmpsim.run_full":
            duration = tracer.duration(i) - calibrated[i]
            run_full_s += duration
            sim_inst += int(extra.get("sim_inst", 0))
            tracked_s += duration if extra.get("tracked") else 0.0
            if "untracked_s" in extra:
                sampled_s += duration
                saved_s += duration - extra["untracked_s"]
    if sampled_s:
        attribution = saved_s / sampled_s * tracked_s
        layers["cmpsim.attribution_s"] = attribution
        layers["cmpsim.consumer_s"] -= attribution
    roots = [i for i in range(n) if tracer.names[i] == ROOT]
    return {
        "layers": layers,
        "calls": calls,
        "wall_s": sum(tracer.duration(i) - calibrated[i] for i in roots),
        "calibration_s": sum(calibrated[i] for i in roots),
        "run_full_s": run_full_s,
        "sim_inst": sim_inst,
    }
