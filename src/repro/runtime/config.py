"""Process-wide runtime defaults: job count and active profile cache.

Resolution order for the job count (first match wins):

1. an explicit ``jobs=`` argument at the call site;
2. the ``REPRO_JOBS`` environment variable (``1`` forces serial);
3. a process default installed by :func:`runtime_session` (the CLI
   opens one session per command, carrying its ``--jobs`` flag);
4. serial (``1``) — library calls never fan out unless asked to.

The active cache is ``None`` (disabled) unless :func:`set_cache`
installed one or ``REPRO_CACHE_DIR`` names a directory;
``REPRO_NO_CACHE=1`` disables the environment fallback.

Profiling consumers replay compiled execution traces by default
(:mod:`repro.execution.trace`); ``REPRO_NO_TRACE=1`` forces every
consumer onto its scalar event-stream oracle instead (results are
bit-identical either way — the knob exists for debugging and for
timing the oracle).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import CacheError
from repro.runtime.cache import ProfileCache

_UNSET = object()

_default_jobs: Optional[int] = None
_cache: object = _UNSET  # _UNSET -> fall back to the environment
_default_match_confidence: Optional[float] = None
_default_sim_cache: Optional[bool] = None
_default_clustering_cache: Optional[bool] = None


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective job count for one fan-out call."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise CacheError(f"REPRO_JOBS must be an integer, got {env!r}")
    if _default_jobs is not None:
        return _default_jobs
    return 1


def set_match_confidence(threshold: Optional[float]) -> None:
    """Install (or clear, with ``None``) the default match threshold."""
    global _default_match_confidence
    if threshold is not None and not 0.0 < float(threshold) <= 1.0:
        raise CacheError(
            f"match confidence must be in (0, 1], got {threshold}"
        )
    _default_match_confidence = (
        None if threshold is None else float(threshold)
    )


def resolve_match_confidence(threshold: Optional[float] = None) -> float:
    """The effective fuzzy-match confidence threshold.

    Resolution order: explicit argument, ``REPRO_MATCH_CONFIDENCE``,
    process default from :func:`set_match_confidence` or
    :func:`runtime_session` (where the CLI passes its
    ``--match-confidence`` flag), then ``1.0`` — exact
    matching only, bit-identical to the matcher without the fuzzy
    fallback.
    """
    if threshold is not None:
        value = float(threshold)
    else:
        env = os.environ.get("REPRO_MATCH_CONFIDENCE")
        if env:
            try:
                value = float(env)
            except ValueError:
                raise CacheError(
                    f"REPRO_MATCH_CONFIDENCE must be a number, got {env!r}"
                )
        elif _default_match_confidence is not None:
            value = _default_match_confidence
        else:
            return 1.0
    if not 0.0 < value <= 1.0:
        raise CacheError(
            f"match confidence must be in (0, 1], got {value}"
        )
    return value


def set_cache(cache: Optional[ProfileCache]) -> None:
    """Install the process-wide cache (``None`` disables caching)."""
    global _cache
    _cache = cache


def active_cache() -> Optional[ProfileCache]:
    """The cache profile collectors consult when none is passed."""
    if _cache is not _UNSET:
        return _cache  # type: ignore[return-value]
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        # Install it so statistics accumulate across calls.
        set_cache(ProfileCache(root))
        return _cache  # type: ignore[return-value]
    return None


def sim_cache_enabled(enabled: Optional[bool] = None) -> bool:
    """Whether detailed-simulation results may be reused from the cache.

    Resolution order: explicit argument, ``REPRO_NO_SIM_CACHE`` (set →
    disabled), process default from :func:`runtime_session` (where the
    CLI passes its ``--no-sim-cache`` flag), then enabled. Reuse also
    requires an active profile cache — this knob only gates the
    ``"simresult"`` kind, so profiling caches keep working when it is
    off (results are bit-identical either way).
    """
    if enabled is not None:
        return enabled
    if os.environ.get("REPRO_NO_SIM_CACHE"):
        return False
    if _default_sim_cache is not None:
        return _default_sim_cache
    return True


def clustering_cache_enabled(enabled: Optional[bool] = None) -> bool:
    """Whether chosen clusterings may be reused from the cache.

    Resolution order: explicit argument, ``REPRO_NO_CLUSTERING_CACHE``
    (set → disabled), process default from :func:`runtime_session`
    (where the CLI passes its ``--no-clustering-cache`` flag), then
    enabled. Reuse also requires an active profile cache — this knob
    only gates the ``"clustering"`` kind, so profiling caches keep
    working when it is off (results are bit-identical either way).
    """
    if enabled is not None:
        return enabled
    if os.environ.get("REPRO_NO_CLUSTERING_CACHE"):
        return False
    if _default_clustering_cache is not None:
        return _default_clustering_cache
    return True


def trace_replay_enabled(use_trace: Optional[bool] = None) -> bool:
    """Whether a profiling consumer should replay a compiled trace.

    An explicit ``use_trace`` argument wins; otherwise trace replay is
    on unless ``REPRO_NO_TRACE`` is set in the environment.
    """
    if use_trace is not None:
        return use_trace
    return not os.environ.get("REPRO_NO_TRACE")


@contextmanager
def runtime_session(
    jobs: Optional[int] = None,
    cache: Optional[ProfileCache] = None,
    match_confidence: Optional[float] = None,
    sim_cache: Optional[bool] = None,
    clustering_cache: Optional[bool] = None,
) -> Iterator[None]:
    """Temporarily install runtime defaults.

    The CLI runs every command inside one session built from its
    ``--jobs``/``--cache-dir``/``--no-cache``/``--no-sim-cache``/
    ``--no-clustering-cache``/``--match-confidence`` flags; tests and
    library callers use it the same way.
    """
    global _cache, _default_jobs, _default_match_confidence
    global _default_sim_cache, _default_clustering_cache
    saved = (
        _cache,
        _default_jobs,
        _default_match_confidence,
        _default_sim_cache,
        _default_clustering_cache,
    )
    try:
        _default_jobs = jobs
        _cache = cache
        _default_match_confidence = match_confidence
        _default_sim_cache = sim_cache
        _default_clustering_cache = clustering_cache
        yield
    finally:
        (
            _cache,
            _default_jobs,
            _default_match_confidence,
            _default_sim_cache,
            _default_clustering_cache,
        ) = saved
