"""Wall times rescaled to a reference host speed.

On a shared host the speed a process gets drifts: a fixed Python loop
on a 2-vCPU Xeon VM took anywhere from 22 to 60 ms within a minute,
in phases lasting seconds to minutes, so a wall time spanning such
phases repeats poorly however long it runs. The benchmark therefore
cuts a pass's timed work into segments of at least
:data:`MIN_SEGMENT_S` at the program's layer boundaries, runs a short
:func:`probe` after each segment, and rescales each segment by the
reference probe time over the mean of the probes on either side of it:

    scaled_s = sum(segment_s * PROBE_REF_S / mean(probe_before, probe_after))

Probe time is excluded from both the wall and the scaled time. The
probe inserts into a dict, the kind of interpreter work (hashing,
allocation) that dominates the program; of the probes tried (integer
arithmetic, random memory reads, numpy sort, object sorting, dict
inserts) it tracked the program's own slowdowns most closely. Since
the probe is fixed, a change that slows the program raises the scaled
time by the same share.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Dict, List

#: About the probe's time on the 2-vCPU Intel Xeon (2.0 GHz) VM in its
#: fast phases, so scaled seconds read close to that host's best.
PROBE_REF_S = 0.010
#: Shortest segment a probe follows; shorter work joins the next one.
MIN_SEGMENT_S = 0.15
_PROBE_KEYS = 60_000


def probe() -> float:
    """Seconds a fixed burst of dict inserts takes now."""
    begin = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(_PROBE_KEYS):
        table[(i * 2654435761) & 0xFFFFF] = i
    return time.perf_counter() - begin


def scale(seconds: float, probes: List[float]) -> float:
    """``seconds`` at the reference speed, given the probes around it."""
    return seconds * PROBE_REF_S * len(probes) / sum(probes)


class SpeedClock:
    """Times work in probed segments (see the module docstring)."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.probe_s = 0.0
        self.segments = 0
        self.first_probe = 0.0
        self._last = 0.0
        self._since = 0.0

    def start(self) -> None:
        probe()  # the first burst in a process also grows its heap
        self.first_probe = self._last = self._probe()
        self._since = time.perf_counter()

    def mark(self, force: bool = False) -> None:
        """End the current segment here if it is long enough."""
        now = time.perf_counter()
        segment = now - self._since
        if segment < MIN_SEGMENT_S and not force:
            return
        after = self._probe()
        self.wall_s += segment
        self.scaled_s += scale(segment, [self._last, after])
        self.segments += 1
        self._last = after
        self._since = time.perf_counter()

    def stop(self) -> None:
        self.mark(force=True)

    def _probe(self) -> float:
        seconds = probe()
        self.probe_s += seconds
        return seconds

    def record(self) -> Dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "scaled_s": self.scaled_s,
            "probe_s": self.probe_s,
            "segments": self.segments,
        }


def install(clock: SpeedClock):
    """Make every tracing target end a segment as it returns; the
    patches for ``tracing.uninstall``."""
    import tracing  # imports the program

    def wrap(fn, name):
        def marked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                clock.mark()

        functools.update_wrapper(marked, fn)
        marked._perfbench_traced = True
        return marked

    return tracing.patch(wrap)
