"""Deterministic process-pool fan-out.

:func:`parallel_map` is ``map`` over a ``ProcessPoolExecutor`` with
three guarantees:

* **deterministic ordering** — results come back in input order, no
  matter which worker finished first;
* **serial fallback** — one job (``REPRO_JOBS=1``), one item, running
  inside another ``parallel_map`` worker, or an environment where
  process pools cannot be created (sandboxes without semaphores) all
  degrade to a plain in-process loop with identical results;
* **exception transparency** — an exception raised by ``fn`` for any
  item propagates to the caller, as in the serial loop.

It is also the pipeline's cross-process seam for settings and
observations. Each pool task runs under the parent's
:class:`~repro.runtime.config.RuntimeOptions` (its cache reopened from
the root path) and inside a scoped :mod:`repro.observability.metrics`
registry; the registry snapshot and the task's cache statistics ship
back with the result and are merged into the parent, and every task's
latency lands in the ``parallel.task_seconds`` histogram. Observability
never changes results — payloads are unwrapped before they are
returned.

Worker functions must be module-level (picklable); keyword arguments
can be bound with :func:`functools.partial`.
"""

from __future__ import annotations

import concurrent.futures
import functools
import time
from typing import Callable, Iterable, List, Optional, TypeVar

from repro.errors import ReproError
from repro.observability import metrics, trace
from repro.runtime.cache import merge_stats
from repro.runtime.config import (
    RuntimeOptions,
    current_options,
    resolve_jobs,
    using_options,
)

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Set in pool workers so nested fan-outs run serially instead of
#: spawning pools-of-pools.
_in_worker = False


def _mark_worker() -> None:
    global _in_worker
    _in_worker = True


def _observed_call(fn, options: RuntimeOptions, indexed_item):
    """Worker shim: run one task under the parent's options and inside
    a scoped metrics registry.

    Returns ``(index, result, metrics_delta, cache_stats, seconds)`` so
    the parent can fold the task's metrics, cache statistics and
    latency into its own *in task-index order*. Per-task scoping
    matters because pool workers are reused: absolute worker totals
    would double-count across tasks. ``options`` is unpickled afresh
    for every task, so its cache handle counts this task alone.
    """
    index, item = indexed_item
    start = time.perf_counter()
    with using_options(options), metrics.scoped_registry() as local:
        result = fn(item)
    stats = options.cache.stats if options.cache is not None else None
    return (
        index, result, local.snapshot(), stats, time.perf_counter() - start
    )


def _serial_map(fn: Callable[[_T], _R], work: List[_T]) -> List[_R]:
    latencies = metrics.histogram("parallel.task_seconds")
    results: List[_R] = []
    for item in work:
        start = time.perf_counter()
        results.append(fn(item))
        latencies.observe(time.perf_counter() - start)
    return results


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    jobs: Optional[int] = None,
) -> List[_R]:
    """Apply ``fn`` to every item, fanning out over ``jobs`` processes."""
    work = list(items)
    n_jobs = min(resolve_jobs(jobs), len(work))
    if n_jobs <= 1 or _in_worker:
        return _serial_map(fn, work)
    options = current_options()
    futures: List[concurrent.futures.Future] = []
    try:
        with trace.span("parallel_map", items=len(work), jobs=n_jobs):
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=n_jobs, initializer=_mark_worker
            ) as pool:
                call = functools.partial(_observed_call, fn, options)
                try:
                    for indexed in enumerate(work):
                        futures.append(pool.submit(call, indexed))
                except concurrent.futures.process.BrokenProcessPool:
                    pass  # submitted futures already carry the failure
                concurrent.futures.wait(futures)
    except (OSError, PermissionError):
        # The pool itself could not start (restricted environment);
        # nothing ran, so the serial loop is a safe, identical retry.
        metrics.counter("parallel.pool_fallback").inc()
        return _serial_map(fn, work)
    observed = []
    broken_index: Optional[int] = None
    for index, future in enumerate(futures):
        error = future.exception()
        if error is None:
            observed.append(future.result())
        elif isinstance(
            error, concurrent.futures.process.BrokenProcessPool
        ):
            if broken_index is None:
                broken_index = index
        else:
            raise error  # fn failed for this item, as in the serial loop
    if broken_index is None and len(futures) < len(work):
        broken_index = len(futures)
    if broken_index is not None:
        if not observed:
            # Every task was lost before any could run: the pool never
            # really started (restricted environment). Nothing executed,
            # so serial fallback cannot double-run a side effect.
            metrics.counter("parallel.pool_fallback").inc()
            return _serial_map(fn, work)
        # A worker died *mid-run* after other tasks completed. Falling
        # back here would silently re-execute the whole batch — for
        # side-effectful tasks that is double execution, and it masks
        # the crash. Surface it instead.
        raise ReproError(
            f"parallel_map: worker process died while running task "
            f"{broken_index}/{len(work)}; {len(observed)} of "
            f"{len(work)} tasks completed before the pool broke"
        )
    # Merge snapshots in task-index order, never completion order:
    # gauge merging is last-write-wins, so any scheduling-dependent
    # order would let identical runs record different gauge values.
    # The explicit sort keeps this true even if the executor strategy
    # above ever changes to completion-order collection.
    observed.sort(key=lambda entry: entry[0])
    latencies = metrics.histogram("parallel.task_seconds")
    results: List[_R] = []
    for _index, result, delta, cache_stats, seconds in observed:
        metrics.merge(delta)
        merge_stats(options.cache, [cache_stats])
        latencies.observe(seconds)
        results.append(result)
    return results
