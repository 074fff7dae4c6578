"""The repository benchmark: the paper's whole pipeline, cold and warm.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py``): ``suite`` (all 21 programs, then the
seven claim checks), ``gcc_sweep`` (gcc at 50K/100K/200K intervals)
and ``design_space`` (mcf on three architectures). Seed 0 is the
paper's REF input; other seeds draw a held-back input scale.

Untraced (``--trace 0``), the run repeats rounds while another round
is expected to end within ``--seconds`` (at least one round). A round
is a cold pass in a fresh process against an empty cache directory,
then warm passes in fresh processes against the directory it filled.
Passes run serially (one process, ``jobs=1``), since a 2-vCPU host
running two workers times its scheduler; the peak resident memory of
the cold pass's process tree is sampled from ``/proc``. Times are
given at a reference host speed (``hostspeed.py``): the pass is timed
in segments between short probes, and each segment is rescaled by how
fast the probes around it ran. Reported values are medians over the
run; ``setup_s`` also takes in five set-up-only passes made before
the rounds. The raw wall times are kept in the record.

Traced (``--trace 1``), one round runs serially: a traced cold and a
traced warm pass, then the untraced cold pass the tracing overhead is
taken against. It reports per-layer metrics (``warm.``-prefixed for
the warm pass). The overhead can read slightly negative: the
calibration re-runs (see ``tracing.py``) leave the process's heap
grown for the traced calls that follow. Spans are written next to the
result file.

Every pass checks its ops: interval instructions and cycles sum to the
whole-run totals, and each warm (or traced) op's result tables are
bit-identical to the cold pass's. On seed 0, ``suite`` must also pass
all seven claims. The full record, host facts included, goes to
``perfbench/out/``; the last stdout line is the JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("suite", "gcc_sweep", "design_space")
#: Worker processes of a pass.
JOBS = 1
#: Warm passes per round: repeated until their work reaches this many
#: seconds, because a short warm pass is mostly timer noise.
WARM_MIN_S = 5
WARM_MAX_PASSES = 8
#: Set-up-only passes at the start of an untraced run, so that
#: ``setup_s`` is a median of several samples on every workload.
SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 170
#: A traced run skips its untraced pass if that could end after this.
TRACE_RUN_LIMIT_S = 150
RSS_SAMPLE_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
    "cache_mb": "MB",
    "cpi_err_vli_pct": "%",
    "speedup_err_vli_pct": "%",
    "speedup_err_fli_pct": "%",
}

#: Per-layer metrics of one traced pass: self times (they partition the
#: traced wall), detailed-simulation totals, and the program's own
#: counters. The warm pass reports the same set with a ``warm.`` prefix.
PASS_LAYERS = {
    "programs.build_s": "s",
    "compilation.compile_s": "s",
    "execution.trace_compile_s": "s",
    "execution.walk_s": "s",
    "profiling.profile_s": "s",
    "core.match_s": "s",
    "core.vli_s": "s",
    "simpoint.cluster_s": "s",
    "simpoint.kmeans_iterations": "count",
    "cmpsim.runs": "count",
    "cmpsim.sim_inst": "count",
    "cmpsim.run_full_s": "s",
    "cmpsim.host_ns_per_sim_inst": "ns",
    "cmpsim.refgen_s": "s",
    "cmpsim.refs": "count",
    "cmpsim.hierarchy_s": "s",
    "cmpsim.hierarchy_ns_per_ref": "ns",
    "cmpsim.attribution_s": "s",
    "cmpsim.consumer_s": "s",
    "cmpsim.l1d_miss_ratio": "ratio",
    "cmpsim.l2_miss_ratio": "ratio",
    "cmpsim.l3_miss_ratio": "ratio",
    "cmpsim.dram_reads": "count",
    "runtime.fingerprint_s": "s",
    "runtime.cache.lookup_s": "s",
    "runtime.cache.store_s": "s",
    "runtime.cache.hit_ratio": "ratio",
    "runtime.cache.bytes_read": "B",
    "runtime.cache.bytes_written": "B",
    "cmpsim.sim_reuse_ratio": "ratio",
    "experiments.other_s": "s",
    "trace.wall_s": "s",
}
TRACE_ONLY = {
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = dict(PASS_LAYERS)
    units.update({f"warm.{name}": unit for name, unit in PASS_LAYERS.items()})
    units.update(TRACE_ONLY)
    return units


# --------------------------------------------------------------------------
# Passes


def _tree_rss(pid: int) -> int:
    """Resident bytes of a process and all its descendants, now."""
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/statm") as handle:
                total += int(handle.read().split()[1]) * page
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue  # the process ended between reads
    return total


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _kill(proc: subprocess.Popen) -> None:
    """Kill a pass process with its workers and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_pass(spec: Dict[str, Any], tag: str) -> Dict[str, Any]:
    """Run one pass in a fresh process; its record plus peak tree RSS.

    A pass that crashes or times out yields ``{"crashed": reason}``.
    """
    out = OUT / f"{tag}.pass.json"
    spec = dict(spec, spawn_probe=hostspeed.probe())
    spec["spawned"] = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec), str(out)],
        cwd=ROOT,
        env=_child_env(),
        stdout=sys.stderr,
        start_new_session=True,
    )
    peak = 0
    deadline = time.monotonic() + PASS_TIMEOUT_S
    try:
        while True:
            peak = max(peak, _tree_rss(proc.pid))
            try:
                proc.wait(timeout=RSS_SAMPLE_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    _kill(proc)
                    return {"crashed": f"timed out after {PASS_TIMEOUT_S} s"}
    except BaseException:
        _kill(proc)
        raise
    if proc.returncode != 0 or not out.exists():
        return {"crashed": f"exit code {proc.returncode}"}
    record = json.loads(out.read_text())
    out.unlink()
    record["peak_rss_bytes"] = peak
    return record


def _check_round(
    workload: str,
    seed: int,
    reference: Dict[str, Any],
    others: Sequence[Dict[str, Any]],
    full_suite: bool,
) -> Dict[str, Any]:
    """Per-op verdicts of one round: the reference (cold) pass and every
    pass that must reproduce it bit for bit."""
    passes = [reference] + list(others)
    crashed = [p["crashed"] for p in passes if "crashed" in p]
    names = [op["name"] for op in reference.get("ops", [])]
    if crashed or not names:
        n = max(len(names), 1)
        return {"attempted": n, "failed": n, "problems": crashed or ["no ops"]}
    problems: List[str] = []
    failed = set()
    for record in passes:
        if "error" in record:
            problems.append(record["error"])
        for op, ref in zip(record["ops"], reference["ops"]):
            if op["problems"]:
                failed.add(op["name"])
                problems += op["problems"]
            elif op["digest"] != ref["digest"]:
                failed.add(op["name"])
                problems.append(f"{op['name']}: result differs from cold pass")
    if workload == "suite" and seed == 0 and full_suite:
        claims = reference.get("claims", {})
        bad = [c for c, v in claims.items() if v != "PASS"]
        if bad or len(claims) != 7:
            failed.update(names)
            problems.append(f"claims not all PASS: {claims}")
    return {"attempted": len(names), "failed": len(failed), "problems": problems}


def _dir_bytes(path: str) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _untraced_round(spec, tag) -> Dict[str, Any]:
    cold = run_pass(spec, f"{tag}-cold")
    if "crashed" in cold:
        return {"cold": cold, "warm": []}
    # What the cold pass left in the cache. Counting the bytes it wrote
    # would count entries that parallel workers both computed twice.
    cold["cache_bytes"] = _dir_bytes(spec["cache_dir"])
    warms = []
    while len(warms) < WARM_MAX_PASSES:
        warms.append(run_pass(spec, f"{tag}-warm{len(warms)}"))
        if "crashed" in warms[-1] or sum(w["work_s"] for w in warms) >= WARM_MIN_S:
            break
    return {"cold": cold, "warm": warms}


def _traced_round(spec, tag) -> Dict[str, Any]:
    """Traced cold and warm passes, then the untraced serial cold pass
    the overhead is taken against, if it fits in the run's time limit
    (a REF-input suite does not)."""
    begin = time.perf_counter()
    traced = dict(spec, trace=1)
    spans = OUT / f"{spec['workload']}-seed{spec['seed']}"
    cold = run_pass(dict(traced, spans=f"{spans}.cold.spans.json"), f"{tag}-cold")
    warm = run_pass(dict(traced, spans=f"{spans}.warm.spans.json"), f"{tag}-warm")
    round_ = {"cold": cold, "warm": [warm], "untraced": []}
    if "trace" in cold:
        elapsed = time.perf_counter() - begin
        if elapsed + 1.2 * cold["trace"]["wall_s"] <= TRACE_RUN_LIMIT_S:
            shutil.rmtree(spec["cache_dir"], ignore_errors=True)
            round_["untraced"] = [run_pass(spec, f"{tag}-untraced")]
    return round_


# --------------------------------------------------------------------------
# Metrics


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def _pass_layers(record: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """One traced pass's per-layer values (``None`` where the layer did
    no work in this pass)."""
    trace = record["trace"]
    calls = trace["calls"]
    counters = record["counters"]["counters"]
    histograms = record["counters"]["histograms"]
    layers = trace["layers"]

    def timed(layer: str, span: str) -> Optional[float]:
        return layers[layer] if calls.get(span) else None

    runs = calls.get("cmpsim.run_full", 0)
    flush_refs = histograms.get("cmpsim.flush_refs", {}).get("sum", 0)
    hits, misses = counters.get("cache.hits", 0), counters.get("cache.misses", 0)
    sim_hits = counters.get("cache.sim.hits", 0)
    sim_misses = counters.get("cache.sim.misses", 0)
    modelled = record.get("modelled") or {}
    accesses = modelled.get("level_accesses", [])
    level_misses = modelled.get("level_misses", [])

    def miss_ratio(level: int) -> Optional[float]:
        if level >= len(accesses):
            return None
        return _ratio(level_misses[level], accesses[level])

    return {
        "programs.build_s": timed("programs.build_s", "programs.build"),
        "compilation.compile_s": timed("compilation.compile_s", "compilation.compile"),
        "execution.trace_compile_s": timed(
            "execution.trace_compile_s", "execution.trace_compile"
        ),
        "execution.walk_s": timed("execution.walk_s", "execution.run"),
        "profiling.profile_s": timed("profiling.profile_s", "profiling.profile"),
        "core.match_s": timed("core.match_s", "core.match"),
        "core.vli_s": timed("core.vli_s", "core.vli"),
        "simpoint.cluster_s": timed("simpoint.cluster_s", "simpoint.cluster"),
        "simpoint.kmeans_iterations": counters.get("simpoint.kmeans_iterations", 0),
        "cmpsim.runs": runs,
        "cmpsim.sim_inst": trace["sim_inst"],
        "cmpsim.run_full_s": trace["run_full_s"] if runs else None,
        "cmpsim.host_ns_per_sim_inst": (
            _ratio(1e9 * trace["run_full_s"], trace["sim_inst"]) if runs else None
        ),
        "cmpsim.refgen_s": timed("cmpsim.refgen_s", "cmpsim.refgen"),
        "cmpsim.refs": counters.get("cmpsim.bulk_refs", 0),
        "cmpsim.hierarchy_s": timed("cmpsim.hierarchy_s", "cmpsim.hierarchy"),
        "cmpsim.hierarchy_ns_per_ref": (
            _ratio(1e9 * layers["cmpsim.hierarchy_s"], flush_refs)
            if calls.get("cmpsim.hierarchy") else None
        ),
        "cmpsim.attribution_s": layers["cmpsim.attribution_s"] if runs else None,
        "cmpsim.consumer_s": layers["cmpsim.consumer_s"] if runs else None,
        "cmpsim.l1d_miss_ratio": miss_ratio(0),
        "cmpsim.l2_miss_ratio": miss_ratio(1),
        "cmpsim.l3_miss_ratio": miss_ratio(2),
        "cmpsim.dram_reads": modelled.get("dram_reads"),
        "runtime.fingerprint_s": timed("runtime.fingerprint_s", "runtime.fingerprint"),
        "runtime.cache.lookup_s": timed("runtime.cache.lookup_s", "runtime.cache.lookup"),
        "runtime.cache.store_s": timed("runtime.cache.store_s", "runtime.cache.store"),
        "runtime.cache.hit_ratio": _ratio(hits, hits + misses),
        "runtime.cache.bytes_read": counters.get("cache.bytes_read", 0),
        "runtime.cache.bytes_written": counters.get("cache.bytes_written", 0),
        "cmpsim.sim_reuse_ratio": _ratio(sim_hits, sim_hits + sim_misses),
        "experiments.other_s": layers["experiments.other_s"],
        "trace.wall_s": trace["wall_s"],
    }


def _traced_metrics(round_: Dict[str, Any]) -> Dict[str, Optional[float]]:
    cold, warm = round_["cold"], round_["warm"][0]
    values = dict(_pass_layers(cold))
    values.update({f"warm.{k}": v for k, v in _pass_layers(warm).items()})
    values["trace.spans"] = sum(cold["trace"]["calls"].values())
    if round_["untraced"]:
        untraced = round_["untraced"][0]["work_s"]
        overhead = cold["trace"]["wall_s"] - untraced
        values.update({
            "trace.untraced_s": untraced,
            "trace.overhead_s": overhead,
            "trace.overhead_pct": 100 * overhead / untraced,
        })
    return values


def _untraced_metrics(
    setups: Sequence[Dict[str, Any]], rounds: Sequence[Dict[str, Any]]
) -> Dict[str, float]:
    colds = [r["cold"] for r in rounds]
    warms = [w for r in rounds for w in r["warm"]]
    passes = [s for s in setups if "crashed" not in s] + colds + warms
    values = {
        "setup_s": _median([p["setup_scaled_s"] for p in passes]),
        "cold_s": _median([p["work_scaled_s"] for p in colds]),
        "warm_s": _median([p["work_scaled_s"] for p in warms]),
        "peak_rss_mb": _median([p["peak_rss_bytes"] / 1e6 for p in colds]),
        "cache_mb": _median([p["cache_bytes"] / 1e6 for p in colds]),
    }
    for name in ("cpi_err_vli_pct", "speedup_err_vli_pct", "speedup_err_fli_pct"):
        values[name] = _median([p["errors"][name] for p in colds])
    return values


# --------------------------------------------------------------------------
# Host facts


def _git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts(seed: int, jobs: int, numpy_version: str) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "jobs": jobs,
        "seed": seed,
        "git_describe": _git_describe(),
        "src_sha256": _src_digest(),
    }


# --------------------------------------------------------------------------
# A whole run


def _round_fits(begin: float, done: int, seconds: float) -> bool:
    """Whether another round, as long as the mean round so far, still
    ends within the run's measuring time."""
    elapsed = time.perf_counter() - begin
    return elapsed + elapsed / done <= seconds


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    programs: Optional[Sequence[str]] = None,
    program_input: Optional[Sequence[Any]] = None,
) -> Dict[str, Any]:
    """Run the benchmark once; the full record (``summary`` holds the
    JSON line the command prints)."""
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    spec = {
        "workload": workload,
        "seed": seed,
        "jobs": JOBS,
        "trace": 0,
        "speed": 0 if trace else 1,
        "programs": list(programs) if programs else None,
        "input": list(program_input) if program_input else None,
    }
    full_suite = not programs and not program_input
    setups = [] if trace else [
        run_pass(dict(spec, setup_only=1), f"{tag}-setup{i}")
        for i in range(SETUP_SAMPLES)
    ]
    rounds = []
    attempted = failed = 0
    problems: List[str] = []
    begin = time.perf_counter()
    while not rounds or (not trace and _round_fits(begin, len(rounds), seconds)):
        round_tag = f"{tag}-r{len(rounds)}"
        cache_dir = OUT / f"{round_tag}.cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        round_spec = dict(spec, cache_dir=str(cache_dir))
        try:
            if trace:
                round_ = _traced_round(round_spec, round_tag)
                others = round_["untraced"] + round_["warm"]
            else:
                round_ = _untraced_round(round_spec, round_tag)
                others = round_["warm"]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        verdict = _check_round(workload, seed, round_["cold"], others, full_suite)
        for record in [round_["cold"]] + others:
            if record.get("leftover_wrappers"):
                verdict["failed"] = verdict["attempted"]
                verdict["problems"].append(
                    f"tracing wrappers left installed: {record['leftover_wrappers']}"
                )
        rounds.append(round_)
        attempted += verdict["attempted"]
        failed += verdict["failed"]
        problems += verdict["problems"]
        if verdict["failed"]:
            break  # a failing run reports at once instead of repeating
    cold = rounds[0]["cold"]
    usable = failed == 0
    if trace:
        units = per_layer_units()
        values = _traced_metrics(rounds[0]) if usable else {}
    else:
        units = END_TO_END
        values = _untraced_metrics(setups, rounds) if usable else {}
    absent = sorted(name for name in units if values.get(name) is None)
    metrics = {
        name: {"value": values.get(name) or 0.0, "unit": unit}
        for name, unit in units.items()
    }
    summary = {
        "correct": usable,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {
        "summary": summary,
        "workload": workload,
        "absent": absent,
        "problems": problems,
        "host": host_facts(seed, JOBS, cold.get("numpy", "unknown")),
        "input": cold.get("input"),
        "seconds": seconds,
        "claims": cold.get("claims"),
        "modelled": cold.get("modelled"),
        "tables_digest": cold.get("tables_digest"),
        "counters": cold.get("counters"),
        "rounds": [_round_summary(r) for r in rounds],
    }


def _round_summary(round_: Dict[str, Any]) -> Dict[str, Any]:
    """Timings of each pass of a round (the raw samples of the medians)."""
    def brief(record):
        keys = (
            "setup_s", "setup_scaled_s", "work_s", "work_scaled_s", "speed",
            "peak_rss_bytes", "crashed", "trace",
        )
        return {k: record[k] for k in keys if k in record}

    summary = {"cold": brief(round_["cold"]), "warm": [brief(w) for w in round_["warm"]]}
    if "untraced" in round_:
        summary["untraced"] = [brief(u) for u in round_["untraced"]]
    return summary


def _print_table(record: Dict[str, Any]) -> None:
    summary = record["summary"]
    print(
        f"[perfbench] {record['workload']} seed={record['host']['seed']} "
        f"ops={summary['attempted']} ops_failed={summary['failed']} "
        f"correct={summary['correct']}",
        file=sys.stderr,
    )
    for name, metric in summary["metrics"].items():
        mark = "  (absent)" if name in record["absent"] else ""
        print(
            f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}{mark}",
            file=sys.stderr,
        )
    for problem in record["problems"][:20]:
        print(f"  problem: {problem}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so running passes are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    _print_table(record)
    print(f"[perfbench] record: {path}", file=sys.stderr)
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
