"""Run-time options: worker count, profile cache, match threshold.

One frozen :class:`RuntimeOptions` carries every run-time setting.
Each field is resolved once, first match wins:

1. an explicit value — a CLI flag or a :func:`runtime_session`
   keyword;
2. the environment — ``REPRO_JOBS``, ``REPRO_CACHE_DIR`` (ignored when
   ``REPRO_NO_CACHE`` is set) and ``REPRO_MATCH_CONFIDENCE``;
3. the default — serial, no cache, exact matching only (the CLI
   defaults to all cores and ``~/.cache/repro`` instead).

:func:`runtime_session` installs options for a block; outside any
session the environment over the defaults applies. A nested session
inherits every field it does not set from the enclosing one.
:func:`~repro.runtime.parallel.parallel_map` ships the installed
options to its workers (the cache as its root path), so no fan-out
site forwards a setting by hand.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.errors import CacheError
from repro.runtime.cache import ProfileCache

#: Marks an option left unset, where ``None`` is a meaningful value
#: (``cache=None`` disables caching).
UNSET: Any = object()


@dataclass(frozen=True)
class RuntimeOptions:
    """The settings one run is executed under."""

    jobs: int = 1
    cache: Optional[ProfileCache] = None
    match_confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.match_confidence <= 1.0:
            raise CacheError(
                f"match confidence must be in (0, 1], got "
                f"{self.match_confidence}"
            )

    @classmethod
    def from_env(
        cls, default: Optional["RuntimeOptions"] = None
    ) -> "RuntimeOptions":
        """The environment's settings over ``default``'s."""
        default = default or cls()
        if os.environ.get("REPRO_NO_CACHE"):
            cache = None
        elif os.environ.get("REPRO_CACHE_DIR"):
            cache = ProfileCache(os.environ["REPRO_CACHE_DIR"])
        else:
            cache = default.cache
        return default.override(
            jobs=_env_number("REPRO_JOBS", int),
            cache=cache,
            match_confidence=_env_number("REPRO_MATCH_CONFIDENCE", float),
        )

    def override(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ProfileCache] = UNSET,
        match_confidence: Optional[float] = None,
    ) -> "RuntimeOptions":
        """These options with every explicitly given field replaced."""
        return RuntimeOptions(
            jobs=self.jobs if jobs is None else max(1, int(jobs)),
            cache=self.cache if cache is UNSET else cache,
            match_confidence=(
                self.match_confidence
                if match_confidence is None
                else float(match_confidence)
            ),
        )


def _env_number(name: str, kind: type) -> Any:
    value = os.environ.get(name)
    if not value:
        return None
    try:
        return kind(value)
    except ValueError:
        raise CacheError(
            f"{name} must be {'an integer' if kind is int else 'a number'}"
            f", got {value!r}"
        ) from None


_ENV_VARS = (
    "REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_NO_CACHE",
    "REPRO_MATCH_CONFIDENCE",
)


@functools.lru_cache(maxsize=None)
def _env_options(_environment: tuple) -> RuntimeOptions:
    # Memoized per environment state, so the calls made outside any
    # session share one cache handle and its statistics accumulate.
    return RuntimeOptions.from_env()


_installed: Optional[RuntimeOptions] = None


def current_options() -> RuntimeOptions:
    """The options of the innermost session, else the environment's."""
    if _installed is not None:
        return _installed
    return _env_options(tuple(os.environ.get(name) for name in _ENV_VARS))


@contextmanager
def using_options(options: RuntimeOptions) -> Iterator[RuntimeOptions]:
    """Install ``options`` as they are for the duration of a block."""
    global _installed
    saved = _installed
    _installed = options
    try:
        yield options
    finally:
        _installed = saved


@contextmanager
def runtime_session(
    jobs: Optional[int] = None,
    cache: Optional[ProfileCache] = UNSET,
    match_confidence: Optional[float] = None,
) -> Iterator[RuntimeOptions]:
    """Run a block with the given settings over the current ones.

    Only the keywords passed take effect: ``runtime_session(jobs=4)``
    keeps the cache from ``REPRO_CACHE_DIR`` (or the enclosing
    session), while ``cache=None`` disables caching.
    """
    with using_options(
        current_options().override(jobs, cache, match_confidence)
    ) as options:
        yield options


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The worker count for one fan-out: explicit, else the session's."""
    if jobs is not None:
        return max(1, int(jobs))
    return current_options().jobs


def resolve_match_confidence(threshold: Optional[float] = None) -> float:
    """The fuzzy-match threshold: explicit, else the session's (the
    default 1.0 runs the exact matching stages only)."""
    if threshold is None:
        return current_options().match_confidence
    return RuntimeOptions(match_confidence=float(threshold)).match_confidence


def active_cache() -> Optional[ProfileCache]:
    """The cache profile collectors consult when none is passed."""
    return current_options().cache
