"""The CMP$im-style simulator: full runs, interval trackers, regions.

:class:`CMPSim` drives a binary through the execution engine while
simulating the Table 1 memory hierarchy and accounting cycles with the
in-order CPI model. Two kinds of run are supported:

* :meth:`CMPSim.run_full` — simulate the entire execution, optionally
  attributing instructions/cycles to interval structures via trackers:
  :class:`FLITracker` (fixed-length cuts at exact instruction counts)
  and :class:`VLITracker` (cuts at mapped marker coordinates). One full
  run therefore yields the whole-program "true" statistics *and* the
  per-interval statistics both SimPoint variants need.
* :meth:`CMPSim.run_regions` — PinPoints-style sampled simulation:
  fast-forward between chosen regions (with the caches either kept warm
  functionally or left untouched, for the warmup ablation) and collect
  detailed statistics only inside the regions.

A full run reaches its trackers as a stream of chunks (block id,
executions, instructions, cycles, DRAM accesses) in event order, one
flush at a time as numpy columns (``on_chunks``). A tracker folds the
chunks between two boundaries into the open interval left to right and
splits only the chunk that holds a boundary, so every interval is
bit-identical to attributing one chunk at a time, however the stream is
batched.

Marker anchor blocks are always overhead blocks (procedure entries,
loop entries, loop branches) and overhead blocks never touch memory, so
their per-execution cycles within a chunk are uniform — which makes the
trackers' bulk-chunk boundary arithmetic exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cmpsim.config import MemoryConfig, TABLE1_CONFIG
from repro.cmpsim.cpu import CPIModel
from repro.cmpsim.hierarchy import HierarchyStats, MemoryHierarchy
from repro.cmpsim.memory import (
    AddressStreamState,
    BulkAccessPattern,
    advance_stream,
    bulk_pattern,
    generate_refs,
)
from repro.observability import metrics
from repro.compilation.binary import Binary, LLoop
from repro.core.markers import ExecutionCoordinate, MarkerTable
from repro.errors import SimulationError
from repro.execution.engine import ExecutionEngine
from repro.execution.events import ExecutionConsumer, iteration_profile
from repro.programs.inputs import ProgramInput, REF_INPUT


@dataclass
class IntervalStats:
    """Detailed statistics attributed to one interval or region.

    ``dram_accesses`` counts demand accesses serviced by DRAM, so any
    "architecture metric of interest" (the paper's step 6 lists "CPI,
    miss rate, etc.") can be estimated from the same sampled run.
    """

    instructions: int = 0
    cycles: float = 0.0
    dram_accesses: float = 0.0

    @property
    def cpi(self) -> float:
        if self.instructions == 0:
            raise SimulationError("empty interval has no CPI")
        return self.cycles / self.instructions

    @property
    def dram_mpki(self) -> float:
        """DRAM accesses per thousand instructions."""
        if self.instructions == 0:
            raise SimulationError("empty interval has no MPKI")
        return 1000.0 * self.dram_accesses / self.instructions


def _fold(seed: float, values: np.ndarray) -> float:
    """``seed + values[0] + values[1] + ...``, added left to right.

    ``np.add.accumulate`` folds in order, so the result is bit-identical
    to a scalar ``+=`` loop (``np.sum`` is pairwise and is not). IEEE
    addition is commutative, so folding the seed into the first addend
    is exact.
    """
    if values.size == 0:
        return seed
    buf = np.array(values, dtype=np.float64)
    buf[0] = seed + buf[0]
    np.add.accumulate(buf, out=buf)
    return float(buf[-1])


class _IntervalTracker:
    """Open interval, closed intervals and conservation totals.

    A tracker sees the run's chunk stream in event order, one batch of
    columns at a time (:meth:`on_chunks`). The chunks between two
    boundaries join the open interval with one left fold per column;
    only a chunk that holds a boundary is split, with the arithmetic of
    a chunk-at-a-time tracker. Batch borders do not move any result.
    """

    def __init__(self) -> None:
        self._cur = IntervalStats()
        self.intervals: List[IntervalStats] = []
        self.total_instructions = 0
        self.total_cycles = 0.0
        self.total_dram = 0.0

    def _add_totals(
        self, instructions: np.ndarray, cycles: np.ndarray, dram: np.ndarray
    ) -> None:
        self.total_instructions += int(instructions.sum())
        self.total_cycles = _fold(self.total_cycles, cycles)
        self.total_dram = _fold(self.total_dram, dram)

    def _absorb(
        self, instructions: np.ndarray, cycles: np.ndarray, dram: np.ndarray
    ) -> None:
        """Add whole chunks, in order, to the open interval."""
        cur = self._cur
        cur.instructions += int(instructions.sum())
        cur.cycles = _fold(cur.cycles, cycles)
        cur.dram_accesses = _fold(cur.dram_accesses, dram)

    def _close(self) -> None:
        self.intervals.append(self._cur)
        self._cur = IntervalStats()

    def _check_conservation(self, what: str) -> None:
        """Raise unless the intervals hold exactly what was seen."""
        attributed = sum(i.instructions for i in self.intervals)
        if attributed != self.total_instructions:
            raise SimulationError(
                f"{what} tracker lost instructions: saw "
                f"{self.total_instructions}, attributed {attributed}"
            )
        for name, seen, attributed in (
            ("cycles", self.total_cycles,
             sum(i.cycles for i in self.intervals)),
            ("DRAM accesses", self.total_dram,
             sum(i.dram_accesses for i in self.intervals)),
        ):
            if not math.isclose(attributed, seen, rel_tol=1e-9, abs_tol=1e-6):
                raise SimulationError(
                    f"{what} tracker lost {name}: saw {seen}, "
                    f"attributed {attributed}"
                )


class FLITracker(_IntervalTracker):
    """Attributes cycles to fixed-length intervals (exact cuts).

    A chunk whose instructions straddle a boundary is split with its
    cycles prorated by instruction share — the same convention real
    interval profilers use when a basic block straddles an interval
    boundary. A chunk without instructions (a stall) adds its cycles
    and DRAM accesses to the open interval.
    """

    def __init__(self, interval_size: int) -> None:
        if interval_size <= 0:
            raise SimulationError("interval_size must be positive")
        super().__init__()
        self._size = interval_size

    def on_chunks(
        self,
        block_ids: np.ndarray,
        execs: np.ndarray,
        instructions: np.ndarray,
        cycles: np.ndarray,
        dram: np.ndarray,
    ) -> None:
        """Attribute one batch of chunks: equal-length columns in event
        order (block id, executions, instructions, cycles, DRAM)."""
        if instructions.size == 0:
            return
        self._add_totals(instructions, cycles, dram)
        # Position in the open interval after each chunk; a chunk
        # without instructions takes no room.
        steps = np.maximum(instructions, 0)
        ends = self._cur.instructions + np.cumsum(steps)
        start = 0
        n_cuts = int(ends[-1]) // self._size
        if n_cuts:
            cuts = self._size * np.arange(1, n_cuts + 1, dtype=np.int64)
            # The first chunk that reaches a cut holds it.
            for row in np.unique(np.searchsorted(ends, cuts)).tolist():
                self._absorb(
                    steps[start:row], cycles[start:row], dram[start:row]
                )
                self._split(
                    int(instructions[row]), float(cycles[row]),
                    float(dram[row]),
                )
                start = row + 1
        self._absorb(steps[start:], cycles[start:], dram[start:])

    def _split(
        self, remaining_instr: int, remaining_cycles: float,
        remaining_dram: float,
    ) -> None:
        """Prorate one chunk over every cut it reaches."""
        while remaining_instr > 0:
            cur = self._cur
            space = self._size - cur.instructions
            if remaining_instr < space:
                cur.instructions += remaining_instr
                cur.cycles += remaining_cycles
                cur.dram_accesses += remaining_dram
                return
            fraction = space / remaining_instr
            share = remaining_cycles * fraction
            dram_share = remaining_dram * fraction
            cur.instructions += space
            cur.cycles += share
            cur.dram_accesses += dram_share
            remaining_instr -= space
            remaining_cycles -= share
            remaining_dram -= dram_share
            self._close()

    def finish(self) -> None:
        cur = self._cur
        if (
            cur.instructions > 0
            or cur.cycles != 0.0
            or cur.dram_accesses != 0.0
        ):
            self._close()
        self._check_conservation("FLI")


class VLITracker(_IntervalTracker):
    """Attributes cycles to mapped variable-length intervals.

    ``boundaries`` are the interior interval boundaries (execution
    coordinates) from the primary binary's VLI profile; the tracker
    closes an interval exactly when the expected coordinate fires in
    *this* binary's execution.
    """

    def __init__(
        self,
        table: MarkerTable,
        boundaries: Sequence[ExecutionCoordinate],
    ) -> None:
        super().__init__()
        block_to_marker = table.block_to_marker()
        self._marker_of_block = np.full(
            max(block_to_marker, default=0) + 1, -1, dtype=np.int64
        )
        for block_id, marker_id in block_to_marker.items():
            self._marker_of_block[block_id] = marker_id
        self._marker_counts = np.zeros(
            max(table.anchor_blocks, default=-1) + 1, dtype=np.int64
        )
        self._boundaries: Tuple[ExecutionCoordinate, ...] = tuple(boundaries)
        self._next = 0
        self.binary_name = table.binary_name

    def on_chunks(
        self,
        block_ids: np.ndarray,
        execs: np.ndarray,
        instructions: np.ndarray,
        cycles: np.ndarray,
        dram: np.ndarray,
    ) -> None:
        """Attribute one batch of chunks: equal-length columns in event
        order (block id, executions, instructions, cycles, DRAM)."""
        if instructions.size == 0:
            return
        self._add_totals(instructions, cycles, dram)
        lut = self._marker_of_block
        known = (block_ids >= 0) & (block_ids < lut.size)
        markers = np.where(known, lut[np.where(known, block_ids, 0)], -1)
        rows = np.flatnonzero(markers >= 0)
        if rows.size == 0:
            self._absorb(instructions, cycles, dram)
            return
        marker_ids = markers[rows]
        marker_execs = execs[rows]
        # Marker anchors are overhead blocks: uniform per execution and
        # free of memory traffic. They add (cycles / execs) * execs, as
        # a split does, and no DRAM accesses.
        instr_add = np.array(instructions, dtype=np.int64)
        instr_add[rows] = (instr_add[rows] // marker_execs) * marker_execs
        cycles_add = np.array(cycles, dtype=np.float64)
        cycles_add[rows] = (cycles_add[rows] / marker_execs) * marker_execs
        dram_add = np.array(dram, dtype=np.float64)
        dram_add[rows] = 0.0
        start = 0
        for row, count in self._boundary_rows(
            rows, marker_ids, marker_execs
        ):
            self._absorb(
                instr_add[start:row], cycles_add[start:row],
                dram_add[start:row],
            )
            self._split(
                int(markers[row]), int(execs[row]), int(instructions[row]),
                float(cycles[row]), count,
            )
            start = row + 1
        self._absorb(instr_add[start:], cycles_add[start:], dram_add[start:])
        np.add.at(self._marker_counts, marker_ids, marker_execs)

    def _boundary_rows(
        self,
        rows: np.ndarray,
        marker_ids: np.ndarray,
        marker_execs: np.ndarray,
    ) -> List[Tuple[int, int]]:
        """The batch's chunks that hold a boundary, in order, each with
        its marker's execution count before the chunk.

        Boundary ``j`` fires where its marker's running count first
        reaches the expected count, if that is after boundary ``j - 1``
        fired; a coordinate passed earlier never fires, and neither
        does any boundary after it.
        """
        found: List[Tuple[int, int]] = []
        runs: Dict[int, Tuple[int, np.ndarray, np.ndarray]] = {}
        last = (-1, 0)
        for index in range(self._next, len(self._boundaries)):
            marker_id, expected = self._boundaries[index]
            if marker_id not in runs:
                mine = marker_ids == marker_id
                base = (
                    int(self._marker_counts[marker_id])
                    if 0 <= marker_id < self._marker_counts.size
                    else 0
                )
                runs[marker_id] = (
                    base, rows[mine], base + np.cumsum(marker_execs[mine])
                )
            base, marker_rows, after = runs[marker_id]
            position = int(np.searchsorted(after, expected))
            if position == after.size:
                break  # fires in a later batch, if ever
            before = int(after[position - 1]) if position else base
            row = int(marker_rows[position])
            if before >= expected or (row, expected) <= last:
                break  # passed before it was next: never fires
            if row != last[0]:
                found.append((row, before))
            last = (row, expected)
        return found

    def _split(
        self, marker_id: int, execs: int, instructions: int, cycles: float,
        count: int,
    ) -> None:
        """Cut one marker chunk at each boundary it holds."""
        per_instr = instructions // execs
        per_cycles = cycles / execs
        remaining = execs
        while remaining > 0:
            take = remaining
            if self._next < len(self._boundaries):
                expected_marker, expected_count = self._boundaries[self._next]
                if (
                    expected_marker == marker_id
                    and count < expected_count <= count + remaining
                ):
                    take = expected_count - count
            self._cur.instructions += per_instr * take
            self._cur.cycles += per_cycles * take
            count += take
            remaining -= take
            if self._next < len(self._boundaries):
                expected_marker, expected_count = self._boundaries[self._next]
                if expected_marker == marker_id and expected_count == count:
                    self._close()
                    self._next += 1

    def finish(self) -> None:
        if self._next != len(self._boundaries):
            raise SimulationError(
                f"{self.binary_name}: boundary "
                f"{self._boundaries[self._next]} never fired during "
                f"detailed simulation"
            )
        self._close()
        self._check_conservation(f"{self.binary_name}: VLI")


@dataclass(frozen=True)
class SimulationStats:
    """Whole-run statistics of one detailed simulation."""

    instructions: int
    cycles: float
    memory_refs: int
    level_accesses: Tuple[int, ...]
    level_misses: Tuple[int, ...]
    dram_reads: int
    dram_writebacks: int

    @property
    def cpi(self) -> float:
        if self.instructions == 0:
            raise SimulationError("empty run has no CPI")
        return self.cycles / self.instructions


@dataclass(frozen=True)
class FullRunResult:
    """A full detailed run plus whatever the trackers accumulated."""

    stats: SimulationStats
    hierarchy: Optional[HierarchyStats] = None


@dataclass(frozen=True)
class RegionSpec:
    """One simulation region in execution coordinates.

    ``start`` ``None`` means program start; ``end`` ``None`` means
    program exit. Regions must be disjoint and given in execution
    order (mapped simulation points from disjoint intervals are).
    """

    label: int
    start: Optional[ExecutionCoordinate]
    end: Optional[ExecutionCoordinate]


@dataclass(frozen=True)
class RegionResult:
    """Per-region detailed statistics from a sampled simulation."""

    regions: Mapping[int, IntervalStats]
    fast_forward_instructions: int
    hierarchy: Optional[HierarchyStats] = None

    def region(self, label: int) -> IntervalStats:
        try:
            return self.regions[label]
        except KeyError:
            raise SimulationError(f"no region labelled {label}") from None


def regions_from_mapped_points(points) -> List[RegionSpec]:
    """Execution-ordered region specs for mapped simulation points.

    ``points`` are :class:`~repro.core.mapping.MappedSimulationPoint`
    objects (ordered by cluster id); region simulation requires
    execution order, which is the primary binary's interval order.
    Region labels are the cluster ids.
    """
    ordered = sorted(points, key=lambda point: point.interval_index)
    return [
        RegionSpec(label=point.cluster, start=point.start, end=point.end)
        for point in ordered
    ]


@dataclass(frozen=True)
class _BlockInfo:
    instructions: int
    base_cycles: float
    specs: Tuple


#: Spans below this many total references are expanded into per-block
#: queue items instead of one bulk-generated span — the numpy fixed
#: costs dominate on tiny spans. Both paths are bit-identical, so the
#: threshold is pure tuning.
_MIN_BULK_REFS = 64

#: Deferred references are flushed through the hierarchy once this
#: many accumulate — large enough that every cache level's replay runs
#: vectorized, small enough to keep the working set in cache.
_FLUSH_REFS = 65536

#: Memory guard: flush once this many rows and spans queue up even if
#: few references did (reference-free stretches of execution).
_FLUSH_ITEMS = 262144

#: Columns of a queued chunk row and of the span template.
_ROW_COLUMNS = 6  # block id, execs, instructions, cycles, DRAM, refs


@dataclass(frozen=True)
class _SpanChunk:
    """One block execution inside a loop iteration's chunk sequence."""

    block_id: int
    instructions: int
    base_cycles: float
    has_specs: bool


@dataclass(frozen=True)
class _SpanPlan:
    """Compiled batch recipe for one loop's iteration span.

    ``pattern`` is ``None`` for loops whose iterations touch no
    memory. ``offset`` is the plan's first row in the consumer's span
    template, which holds one row per chunk.
    """

    chunks: Tuple[_SpanChunk, ...]
    pattern: Optional[BulkAccessPattern]
    refs_per_iter: int
    instr_per_iter: int
    offset: int


class _DetailedConsumer(ExecutionConsumer):
    """Full detailed simulation with tracker attribution.

    Execution is queued as chunk rows — ``(block id, execs,
    instructions, cycles, DRAM accesses, references)`` — and loop
    spans, each span standing for its iterations' rows. In batched
    mode nothing touches the hierarchy per event: reference generation
    still happens in event order (it owns the address cursors), but
    the arrays are queued and flushed through
    :meth:`MemoryHierarchy.access_many` once ``_FLUSH_REFS``
    references accumulate, so every cache level replays vectorized. A
    row's cycles are then its base cycles; the flush adds each row's
    penalties. ``batched=False`` accesses the hierarchy one reference
    at a time and queues rows that already carry their cycles and
    DRAM accesses.

    Each flush builds the chunk stream once as columns, in event
    order, folds the cycles into the run total left to right and hands
    the same columns to every tracker's ``on_chunks``. Folding in event
    order keeps every float bit-identical between the two modes.
    """

    def __init__(
        self,
        binary: Binary,
        hierarchy: MemoryHierarchy,
        cpi_model: CPIModel,
        trackers: Sequence,
        batched: bool = True,
    ) -> None:
        self._binary = binary
        self._hierarchy = hierarchy
        self._penalties = cpi_model.penalties
        self._trackers = tuple(trackers)
        self._streams = AddressStreamState()
        self._batched = batched
        self._pen_np = np.array(cpi_model.penalties, dtype=np.int64)
        self._span_cache: Dict[int, _SpanPlan] = {}
        self._template: List[Tuple] = []
        self._template_table: Optional[np.ndarray] = None
        self.instructions = 0
        self.cycles = 0.0
        self.memory_refs = 0
        self._pending_lines: List[np.ndarray] = []
        self._pending_writes: List[np.ndarray] = []
        self._pending_refs = 0
        self._rows: List[Tuple] = []
        self._spans: List[Tuple[int, _SpanPlan, int]] = []
        n_blocks = max(binary.blocks) + 1 if binary.blocks else 0
        self._info: List[Optional[_BlockInfo]] = [None] * n_blocks
        for block_id, block in binary.blocks.items():
            self._info[block_id] = _BlockInfo(
                instructions=block.instructions,
                base_cycles=block.instructions * block.base_cpi,
                specs=block.accesses,
            )

    def _exec_with_refs(self, block_id: int, info: _BlockInfo) -> None:
        penalty = 0
        access = self._hierarchy.access
        penalties = self._penalties
        refs = 0
        dram = 0
        for spec in info.specs:
            for line, write in generate_refs(spec, self._streams):
                level = access(line, write)
                penalty += penalties[level]
                if level == 3:
                    dram += 1
                refs += 1
        self.memory_refs += refs
        self.instructions += info.instructions
        self._rows.append(
            (block_id, 1, info.instructions, info.base_cycles + penalty,
             dram, 0)
        )

    def _queue_block(self, block_id: int, info: _BlockInfo) -> None:
        """Queue one reference-bearing block execution (batched mode)."""
        lines: List[int] = []
        writes: List[bool] = []
        for spec in info.specs:
            for line, write in generate_refs(spec, self._streams):
                lines.append(line)
                writes.append(write)
        self._pending_lines.append(np.array(lines, dtype=np.int64))
        self._pending_writes.append(np.array(writes, dtype=np.bool_))
        self._pending_refs += len(lines)
        self.memory_refs += len(lines)
        self.instructions += info.instructions
        self._rows.append(
            (block_id, 1, info.instructions, info.base_cycles, 0, len(lines))
        )

    def on_block(self, block_id: int, execs: int = 1) -> None:
        info = self._info[block_id]
        if info.specs:
            run = self._queue_block if self._batched else self._exec_with_refs
            for _ in range(execs):
                run(block_id, info)
            self._maybe_flush()
            return
        instructions = info.instructions * execs
        self.instructions += instructions
        self._rows.append(
            (block_id, execs, instructions, info.base_cycles * execs, 0, 0)
        )
        if len(self._rows) >= _FLUSH_ITEMS:
            self._flush()

    def _span_plan(self, loop: LLoop) -> _SpanPlan:
        """Compile (and cache) the batch recipe for one loop.

        Loops whose iterations touch no memory get ``pattern=None``.
        The branch block is a chunk with no references, matching the
        scalar span loop which never generates references for it.
        """
        try:
            return self._span_cache[loop.loop_id]
        except KeyError:
            pass
        profile = iteration_profile(self._binary, loop)
        specs: List = []
        chunks: List[_SpanChunk] = []
        offset = len(self._template)
        blocks = [
            (block_id, bool(self._info[block_id].specs))
            for block_id in profile.body_blocks
        ]
        blocks.append((profile.branch_block, False))
        for block_id, has_specs in blocks:
            info = self._info[block_id]
            refs = 0
            if has_specs:
                for spec in info.specs:
                    specs.append(spec)
                    refs += spec.refs_per_exec
            chunks.append(
                _SpanChunk(
                    block_id=block_id,
                    instructions=info.instructions,
                    base_cycles=info.base_cycles,
                    has_specs=has_specs,
                )
            )
            self._template.append(
                (block_id, 1, info.instructions, info.base_cycles, 0, refs)
            )
        self._template_table = None
        refs_per_iter = sum(spec.refs_per_exec for spec in specs)
        plan = _SpanPlan(
            chunks=tuple(chunks),
            pattern=bulk_pattern(tuple(specs)) if refs_per_iter else None,
            refs_per_iter=refs_per_iter,
            instr_per_iter=sum(chunk.instructions for chunk in chunks),
            offset=offset,
        )
        self._span_cache[loop.loop_id] = plan
        return plan

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        if not self._batched:
            self._scalar_span(loop, iterations)
            self._maybe_flush()
            return
        plan = self._span_plan(loop)
        if plan.pattern is None:
            self.instructions += plan.instr_per_iter * iterations
            self._spans.append((len(self._rows), plan, iterations))
        elif iterations * plan.refs_per_iter >= _MIN_BULK_REFS:
            metrics.counter("cmpsim.bulk_spans").inc()
            lines, writes = plan.pattern.generate(
                self._streams, iterations
            )
            metrics.counter("cmpsim.bulk_refs").inc(int(lines.size))
            self._pending_lines.append(lines)
            self._pending_writes.append(writes)
            self._pending_refs += int(lines.size)
            self.memory_refs += int(lines.size)
            self.instructions += plan.instr_per_iter * iterations
            self._spans.append((len(self._rows), plan, iterations))
        else:
            # Tiny span: expand to per-block rows (numpy fixed costs
            # dominate bulk generation at this size).
            metrics.counter("cmpsim.scalar_spans").inc()
            for _ in range(iterations):
                for chunk in plan.chunks:
                    if chunk.has_specs:
                        self._queue_block(
                            chunk.block_id, self._info[chunk.block_id]
                        )
                    else:
                        self.instructions += chunk.instructions
                        self._rows.append(
                            (chunk.block_id, 1, chunk.instructions,
                             chunk.base_cycles, 0, 0)
                        )
        self._maybe_flush()

    def _scalar_span(self, loop: LLoop, iterations: int) -> None:
        """Reference-at-a-time span execution (the oracle path)."""
        metrics.counter("cmpsim.scalar_spans").inc()
        profile = iteration_profile(self._binary, loop)
        body = [
            (block_id, self._info[block_id])
            for block_id in profile.body_blocks
        ]
        branch_id = profile.branch_block
        branch = self._info[branch_id]
        rows = self._rows
        exec_with_refs = self._exec_with_refs
        for _ in range(iterations):
            for block_id, info in body:
                if info.specs:
                    exec_with_refs(block_id, info)
                else:
                    self.instructions += info.instructions
                    rows.append(
                        (block_id, 1, info.instructions, info.base_cycles,
                         0, 0)
                    )
            self.instructions += branch.instructions
            rows.append(
                (branch_id, 1, branch.instructions, branch.base_cycles, 0, 0)
            )

    def _maybe_flush(self) -> None:
        if (
            self._pending_refs >= _FLUSH_REFS
            or len(self._rows) + len(self._spans) >= _FLUSH_ITEMS
        ):
            self._flush()

    def _flush(self) -> None:
        """Replay the queued references, then attribute the queued
        chunks: one column build, one cycle fold, one ``on_chunks``
        call per tracker.

        Instructions and reference counts were added at queue time
        (integer sums are order-free).
        """
        rows, spans = self._rows, self._spans
        if not rows and not spans:
            return
        metrics.counter("cmpsim.detailed_flushes").inc()
        # Flush sizes expose the deferred-replay batching behavior:
        # shrinking reference batches (or item-guard-triggered flushes)
        # mean the vectorized path is degrading toward scalar replay.
        metrics.histogram("cmpsim.flush_refs").observe(self._pending_refs)
        metrics.histogram("cmpsim.flush_items").observe(
            len(rows) + len(spans)
        )
        serviced = None
        if self._pending_refs:
            if len(self._pending_lines) == 1:
                lines = self._pending_lines[0]
                writes = self._pending_writes[0]
            else:
                lines = np.concatenate(self._pending_lines)
                writes = np.concatenate(self._pending_writes)
            serviced = self._hierarchy.access_many(lines, writes)
        self._pending_lines = []
        self._pending_writes = []
        self._pending_refs = 0
        self._rows = []
        self._spans = []
        columns = self._columns(rows, spans, serviced)
        self.cycles = _fold(self.cycles, columns[3])
        for tracker in self._trackers:
            tracker.on_chunks(*columns)

    def _columns(
        self,
        rows: List[Tuple],
        spans: List[Tuple[int, _SpanPlan, int]],
        serviced: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, ...]:
        """The flush's chunk stream as columns, in event order: block
        id, execs, instructions, cycles, DRAM accesses.

        Rows and the span template are float64 tables (every integer in
        them is far below 2**53, so exact). A span's rows are its
        plan's template rows, repeated per iteration and placed after
        the rows queued before it. References were queued in the same
        order, so each row's references are the next ``refs`` of
        ``serviced``: one ``np.add.reduceat`` over the rows' offsets
        gives every row's penalty and DRAM sums (integer sums, exact).
        """
        table = np.array(rows, dtype=np.float64).reshape(-1, _ROW_COLUMNS)
        if spans:
            if self._template_table is None:
                self._template_table = np.array(
                    self._template, dtype=np.float64
                )
            pos, offset, width, iterations = np.array(
                [
                    (at, plan.offset, len(plan.chunks), count)
                    for at, plan, count in spans
                ],
                dtype=np.int64,
            ).T
            per_span = width * iterations
            span_ends = np.cumsum(per_span)
            span_of = np.repeat(np.arange(len(spans)), per_span)
            flat = np.arange(int(span_ends[-1]))
            local = flat - (span_ends - per_span)[span_of]
            order = np.empty(len(rows) + flat.size, dtype=np.int64)
            order[pos[span_of] + flat] = len(rows) + (
                offset[span_of] + local % width[span_of]
            )
            # Row i follows every span queued before it (at <= i).
            before = np.concatenate(([0], span_ends))
            row_index = np.arange(len(rows))
            order[
                row_index
                + before[np.searchsorted(pos, row_index, side="right")]
            ] = row_index
            table = np.concatenate((table, self._template_table))[order]
        block_ids = table[:, 0].astype(np.int64)
        execs = table[:, 1].astype(np.int64)
        instructions = table[:, 2].astype(np.int64)
        cycles = np.ascontiguousarray(table[:, 3])
        dram = np.ascontiguousarray(table[:, 4])
        if serviced is not None:
            refs = table[:, 5].astype(np.int64)
            if int(refs.sum()) != serviced.size:
                raise SimulationError(
                    f"{self._binary.name}: {serviced.size} references "
                    f"replayed but {int(refs.sum())} queued"
                )
            has_refs = refs > 0
            starts = (np.cumsum(refs) - refs)[has_refs]
            cycles[has_refs] += np.add.reduceat(
                self._pen_np[serviced], starts
            )
            dram[has_refs] = np.add.reduceat(
                serviced == 3, starts, dtype=np.int64
            )
        return block_ids, execs, instructions, cycles, dram

    def finish(self) -> None:
        self._flush()
        for tracker in self._trackers:
            tracker.finish()


class _RegionConsumer(ExecutionConsumer):
    """Sampled simulation: detail inside regions, fast-forward outside.

    In ``warm`` mode, fast-forwarding still performs every cache access
    (functional warming), so region statistics match a full run's. In
    cold mode, the caches are untouched outside regions (address
    cursors still advance deterministically) and every region starts
    with whatever the caches held when the previous region ended.
    """

    def __init__(
        self,
        binary: Binary,
        hierarchy: MemoryHierarchy,
        cpi_model: CPIModel,
        table: MarkerTable,
        regions: Sequence[RegionSpec],
        warm: bool,
    ) -> None:
        self._binary = binary
        self._hierarchy = hierarchy
        self._penalties = cpi_model.penalties
        self._streams = AddressStreamState()
        self._warm = warm
        self._block_to_marker = table.block_to_marker()
        self._marker_counts: Dict[int, int] = {}
        self.results: Dict[int, IntervalStats] = {}
        self.fast_forward_instructions = 0

        self._events: List[Tuple[ExecutionCoordinate, bool, int]] = []
        self._active: Optional[int] = None
        for index, region in enumerate(regions):
            if region.label in self.results:
                raise SimulationError(
                    f"duplicate region label {region.label}"
                )
            self.results[region.label] = IntervalStats()
            if region.start is None:
                if index != 0:
                    raise SimulationError(
                        "only the first region may start at program start"
                    )
                self._active = region.label
            else:
                self._events.append((region.start, True, region.label))
            if region.end is not None:
                self._events.append((region.end, False, region.label))
            elif index != len(regions) - 1:
                raise SimulationError(
                    "only the last region may run to program exit"
                )
        self._next_event = 0

    def _handle_marker(self, marker_id: int, count: int) -> None:
        while self._next_event < len(self._events):
            (marker, expected), starting, label = self._events[self._next_event]
            if marker != marker_id or expected != count:
                return
            self._active = label if starting else None
            self._next_event += 1

    def _exec_block(self, block_id: int) -> None:
        block = self._binary.blocks[block_id]
        active = self._active
        detailed = active is not None
        penalty = 0
        dram = 0
        if block.accesses:
            if detailed:
                access = self._hierarchy.access
                penalties = self._penalties
                for spec in block.accesses:
                    for line, write in generate_refs(spec, self._streams):
                        level = access(line, write)
                        penalty += penalties[level]
                        if level == 3:
                            dram += 1
            elif self._warm:
                # Functional warming: identical cache state transitions
                # to a demand access, zero statistics impact.
                warm = self._hierarchy.warm_access
                for spec in block.accesses:
                    for line, write in generate_refs(spec, self._streams):
                        warm(line, write)
            else:
                for spec in block.accesses:
                    advance_stream(spec, self._streams, 1)
        if detailed:
            stats = self.results[active]
            stats.instructions += block.instructions
            stats.cycles += block.instructions * block.base_cpi + penalty
            stats.dram_accesses += dram
        else:
            self.fast_forward_instructions += block.instructions
        marker_id = self._block_to_marker.get(block_id)
        if marker_id is not None:
            count = self._marker_counts.get(marker_id, 0) + 1
            self._marker_counts[marker_id] = count
            self._handle_marker(marker_id, count)

    def on_block(self, block_id: int, execs: int = 1) -> None:
        for _ in range(execs):
            self._exec_block(block_id)

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        profile = iteration_profile(self._binary, loop)
        for _ in range(iterations):
            for block_id in profile.body_blocks:
                self._exec_block(block_id)
            self._exec_block(profile.branch_block)

    def finish(self) -> None:
        if self._next_event != len(self._events):
            coord = self._events[self._next_event][0]
            raise SimulationError(
                f"{self._binary.name}: region boundary {coord} never fired"
            )


class CMPSim:
    """The simulator facade for one binary."""

    def __init__(
        self,
        binary: Binary,
        config: MemoryConfig = TABLE1_CONFIG,
        program_input: ProgramInput = REF_INPUT,
    ) -> None:
        self._binary = binary
        self._config = config
        self._input = program_input
        self._cpi_model = CPIModel.from_config(config)

    @property
    def binary(self) -> Binary:
        return self._binary

    def run_full(
        self, trackers: Sequence = (), batched: bool = True
    ) -> FullRunResult:
        """Simulate the whole execution; trackers see every chunk.

        ``batched=False`` forces the scalar reference-at-a-time cache
        path; its chunks reach the trackers through the same columns.
        Both paths produce bit-identical results (the equivalence tests
        enforce this), so the flag exists for oracle checks and
        benchmarking. Every call counts once in ``cmpsim.full_runs``.
        """
        metrics.counter("cmpsim.full_runs").inc()
        hierarchy = MemoryHierarchy(self._config)
        consumer = _DetailedConsumer(
            self._binary, hierarchy, self._cpi_model, trackers, batched
        )
        ExecutionEngine(self._binary, self._input).run(consumer)
        stats = SimulationStats(
            instructions=consumer.instructions,
            cycles=consumer.cycles,
            memory_refs=consumer.memory_refs,
            level_accesses=tuple(
                cache.stats.accesses for cache in hierarchy.caches
            ),
            level_misses=tuple(
                cache.stats.misses for cache in hierarchy.caches
            ),
            dram_reads=hierarchy.dram_reads,
            dram_writebacks=hierarchy.dram_writebacks,
        )
        return FullRunResult(stats=stats, hierarchy=hierarchy.snapshot())

    def run_regions(
        self,
        regions: Sequence[RegionSpec],
        table: MarkerTable,
        warm: bool = True,
    ) -> RegionResult:
        """Sampled simulation of the given regions (PinPoints-style)."""
        if not regions:
            raise SimulationError("run_regions needs at least one region")
        hierarchy = MemoryHierarchy(self._config)
        consumer = _RegionConsumer(
            self._binary, hierarchy, self._cpi_model, table, regions, warm
        )
        ExecutionEngine(self._binary, self._input).run(consumer)
        return RegionResult(
            regions=consumer.results,
            fast_forward_instructions=consumer.fast_forward_instructions,
            hierarchy=hierarchy.snapshot(),
        )
