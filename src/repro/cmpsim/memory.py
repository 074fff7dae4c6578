"""Deterministic per-block address-stream generation.

Each :class:`~repro.compilation.binary.AccessSpec` owns a cursor keyed
by its stream id; executing the block advances the cursor and yields
``refs_per_exec`` ``(line, is_write)`` references:

* ``STREAM``/``STACK`` — fixed-stride sweep wrapping at the footprint;
* ``BLOCKED`` — stride-1 sweeps inside an 8 KB window that is re-swept
  several times before moving on (tiled reuse);
* ``RANDOM``/``POINTER_CHASE`` — an LCG draw over the footprint per
  reference.

Writes are interleaved deterministically at ``1 - read_fraction`` of
references via an integer accumulator. :func:`advance_stream` advances
a stream's state *as if* ``n`` executions happened, in O(log n) — used
by the cold fast-forward mode of region simulation, where addresses
must stay deterministic even though the caches are not touched.

Batched generation: :class:`BulkAccessPattern` compiles an ordered
tuple of specs (one loop iteration's reference pattern) into closed
forms and materializes whole iteration spans as numpy arrays —
bit-identical to, and leaving the stream state exactly as, the
equivalent sequence of :func:`generate_refs` calls. Every per-kind
recurrence has a closed form over the round index ``t`` and the
in-round reference index:

* cursor kinds (``STREAM``/``STACK``/``BLOCKED``) are affine in both
  indices (``cursor0 + offset + advance * t``);
* the LCG kinds use the affine-composition identity
  ``lcg^n(x) = A^n x + C * (A^{n-1} + ... + 1)`` — per-round states
  come from a vectorized prefix scan of ``A^R`` powers (uint64
  arithmetic wraps exactly like the scalar ``& MASK``), per-reference
  states from precompiled coefficient vectors;
* write flags satisfy ``flag_i == ((acc0 + i * wnum) % 1024) < wnum``
  because each scalar step reduces the accumulator by at most one
  denominator.

Streams shared by several specs (named streams; the O0 per-procedure
stack stream) are handled by grouping the compiled pattern per stream
and giving every occurrence its in-round cursor/draw/accumulator
offset, so interleaved occurrences reproduce the scalar interleaving
exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compilation.binary import AccessSpec
from repro.programs.behaviors import AccessKind

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

#: BLOCKED kind: window geometry.
_WINDOW = 8 * 1024
_WINDOW_SWEEPS = 4

#: Write accumulator denominator (per-mille style, power of two).
_WDENOM = 1024


class AddressStreamState:
    """Mutable cursor state for every data stream of one run."""

    __slots__ = ("cursors", "lcg", "write_acc")

    def __init__(self) -> None:
        self.cursors: Dict[int, int] = {}
        self.lcg: Dict[int, int] = {}
        self.write_acc: Dict[int, int] = {}

    def cursor(self, stream_id: int) -> int:
        return self.cursors.get(stream_id, 0)

    def lcg_state(self, stream_id: int) -> int:
        return self.lcg.get(stream_id, (stream_id * 2654435761 + 1) & _LCG_MASK)


def _write_flags(
    state: AddressStreamState, spec: AccessSpec, n: int
) -> List[bool]:
    """Deterministic write pattern for the next ``n`` references."""
    wnum = int(round((1.0 - spec.read_fraction) * _WDENOM))
    acc = state.write_acc.get(spec.stream_id, 0)
    flags = []
    for _ in range(n):
        acc += wnum
        if acc >= _WDENOM:
            acc -= _WDENOM
            flags.append(True)
        else:
            flags.append(False)
    state.write_acc[spec.stream_id] = acc
    return flags


def generate_refs(
    spec: AccessSpec, state: AddressStreamState
) -> List[Tuple[int, bool]]:
    """References for ONE execution of a block's access spec."""
    n = spec.refs_per_exec
    if n == 0:
        return []
    flags = _write_flags(state, spec, n)
    refs: List[Tuple[int, bool]] = []
    kind = spec.kind
    if kind is AccessKind.STREAM or kind is AccessKind.STACK:
        cursor = state.cursors.get(spec.stream_id, 0)
        base = spec.base
        footprint = spec.footprint
        stride = spec.stride
        for i in range(n):
            addr = base + (cursor % footprint)
            refs.append((addr >> 6, flags[i]))
            cursor += stride
        state.cursors[spec.stream_id] = cursor
    elif kind is AccessKind.BLOCKED:
        cursor = state.cursors.get(spec.stream_id, 0)
        window = min(_WINDOW, spec.footprint)
        span = window * _WINDOW_SWEEPS
        for i in range(n):
            window_index = cursor // span
            offset = (cursor % span) % window
            addr = spec.base + (window_index * window + offset) % spec.footprint
            refs.append((addr >> 6, flags[i]))
            cursor += spec.stride
        state.cursors[spec.stream_id] = cursor
    else:  # RANDOM, POINTER_CHASE
        lcg = state.lcg.get(
            spec.stream_id, (spec.stream_id * 2654435761 + 1) & _LCG_MASK
        )
        base = spec.base
        footprint = spec.footprint
        for i in range(n):
            lcg = (lcg * _LCG_A + _LCG_C) & _LCG_MASK
            addr = base + (lcg >> 16) % footprint
            refs.append((addr >> 6, flags[i]))
        state.lcg[spec.stream_id] = lcg
    return refs


def _lcg_jump(state: int, steps: int) -> int:
    """Advance an LCG by ``steps`` in O(log steps) (affine composition)."""
    mult, add = 1, 0
    cur_mult, cur_add = _LCG_A, _LCG_C
    while steps > 0:
        if steps & 1:
            mult = (mult * cur_mult) & _LCG_MASK
            add = (add * cur_mult + cur_add) & _LCG_MASK
        cur_add = (cur_add * cur_mult + cur_add) & _LCG_MASK
        cur_mult = (cur_mult * cur_mult) & _LCG_MASK
        steps >>= 1
    return (state * mult + add) & _LCG_MASK


def advance_stream(
    spec: AccessSpec, state: AddressStreamState, execs: int
) -> None:
    """Advance a stream's state as if ``execs`` executions happened.

    Keeps cold fast-forward deterministic: after advancing, the next
    generated references are identical to those after ``execs`` real
    :func:`generate_refs` calls.
    """
    n = spec.refs_per_exec * execs
    if n == 0:
        return
    wnum = int(round((1.0 - spec.read_fraction) * _WDENOM))
    acc = state.write_acc.get(spec.stream_id, 0)
    state.write_acc[spec.stream_id] = (acc + wnum * n) % _WDENOM
    kind = spec.kind
    if kind in (AccessKind.STREAM, AccessKind.STACK, AccessKind.BLOCKED):
        cursor = state.cursors.get(spec.stream_id, 0)
        state.cursors[spec.stream_id] = cursor + spec.stride * n
    else:
        lcg = state.lcg.get(
            spec.stream_id, (spec.stream_id * 2654435761 + 1) & _LCG_MASK
        )
        state.lcg[spec.stream_id] = _lcg_jump(lcg, n)


def _affine_power(steps: int) -> Tuple[int, int]:
    """Coefficients ``(mult, add)`` of the LCG iterated ``steps`` times."""
    mult, add = 1, 0
    cur_mult, cur_add = _LCG_A, _LCG_C
    while steps > 0:
        if steps & 1:
            mult = (mult * cur_mult) & _LCG_MASK
            add = (add * cur_mult + cur_add) & _LCG_MASK
        cur_add = (cur_add * cur_mult + cur_add) & _LCG_MASK
        cur_mult = (cur_mult * cur_mult) & _LCG_MASK
        steps >>= 1
    return mult, add


def _wnum(spec: AccessSpec) -> int:
    return int(round((1.0 - spec.read_fraction) * _WDENOM))


class _CursorClass:
    """Per-column closed-form constants of one cursor kind."""

    __slots__ = ("cols", "stream", "const", "adv", "base", "fp")

    def __init__(self, columns) -> None:
        # columns: (col, stream_index, const, adv, base, footprint)
        self.cols = np.array([c[0] for c in columns], dtype=np.intp)
        self.stream = np.array([c[1] for c in columns], dtype=np.intp)
        self.const = np.array([c[2] for c in columns], dtype=np.int64)
        self.adv = np.array([c[3] for c in columns], dtype=np.int64)
        self.base = np.array([c[4] for c in columns], dtype=np.int64)
        self.fp = np.array([c[5] for c in columns], dtype=np.int64)


class BulkAccessPattern:
    """Closed-form batch generator for an ordered tuple of access specs.

    One *round* executes every spec once, in order — a loop iteration's
    reference pattern. :meth:`generate` materializes ``rounds``
    consecutive rounds as flat numpy arrays in exactly the order the
    scalar ``generate_refs`` loop would produce them, and leaves the
    :class:`AddressStreamState` exactly as that loop would.
    """

    def __init__(self, specs: Sequence[AccessSpec]) -> None:
        specs = tuple(s for s in specs if s.refs_per_exec > 0)
        self._specs = specs
        self.refs_per_round = sum(s.refs_per_exec for s in specs)

        # Per-stream in-round bookkeeping, in occurrence order.
        cursor_pre: Dict[int, int] = {}  # cursor advance before occurrence
        lcg_pre: Dict[int, int] = {}  # LCG draws before occurrence
        write_pre: Dict[int, int] = {}  # accumulator bump before occurrence

        stream_order: List[int] = []  # streams with any occurrence
        cursor_streams: List[int] = []  # streams with cursor occurrences
        lcg_stream_occs: Dict[int, List] = {}

        lin_columns: List[Tuple] = []
        blk_columns: List[Tuple] = []
        w_const: List[int] = []
        w_step_by_stream: Dict[int, int] = {}
        w_num: List[int] = []
        w_stream: List[int] = []

        col = 0
        for spec in specs:
            sid = spec.stream_id
            rpe = spec.refs_per_exec
            if sid not in w_step_by_stream:
                w_step_by_stream[sid] = 0
                stream_order.append(sid)
            wnum = _wnum(spec)
            pre_w = write_pre.get(sid, 0)
            sindex = stream_order.index(sid)
            for j in range(rpe):
                w_const.append(pre_w + wnum * (j + 1))
                w_num.append(wnum)
                w_stream.append(sindex)
            write_pre[sid] = pre_w + wnum * rpe
            w_step_by_stream[sid] += wnum * rpe

            kind = spec.kind
            if kind in (AccessKind.STREAM, AccessKind.STACK, AccessKind.BLOCKED):
                if sid not in cursor_pre:
                    cursor_pre[sid] = 0
                    cursor_streams.append(sid)
                pre_c = cursor_pre[sid]
                cindex = cursor_streams.index(sid)
                target = blk_columns if kind is AccessKind.BLOCKED else lin_columns
                for j in range(rpe):
                    target.append((
                        col + j,
                        cindex,
                        pre_c + spec.stride * j,
                        None,  # advance filled in once totals are known
                        spec.base,
                        spec.footprint,
                    ))
                cursor_pre[sid] = pre_c + spec.stride * rpe
            else:
                pre_d = lcg_pre.get(sid, 0)
                lcg_pre[sid] = pre_d + rpe
                pre_mult, pre_add = _affine_power(pre_d)
                mult, add = 1, 0
                coeff_mult: List[int] = []
                coeff_add: List[int] = []
                for _ in range(rpe):
                    mult = (mult * _LCG_A) & _LCG_MASK
                    add = (add * _LCG_A + _LCG_C) & _LCG_MASK
                    coeff_mult.append(mult)
                    coeff_add.append(add)
                lcg_stream_occs.setdefault(sid, []).append((
                    col,
                    rpe,
                    np.uint64(pre_mult),
                    np.uint64(pre_add),
                    pre_d == 0,
                    np.array(coeff_mult, dtype=np.uint64),
                    np.array(coeff_add, dtype=np.uint64),
                    spec.base,
                    spec.footprint,
                ))
            col += rpe

        # Per-round advances, now that per-stream totals are known.
        self._cursor_streams = tuple(cursor_streams)
        self._cursor_adv = tuple(cursor_pre[sid] for sid in cursor_streams)

        def finish_cursor(columns) -> Optional[_CursorClass]:
            if not columns:
                return None
            filled = [
                (c, s, const, cursor_pre[cursor_streams[s]], base, fp)
                for (c, s, const, _, base, fp) in columns
            ]
            return _CursorClass(filled)

        self._linear = finish_cursor(lin_columns)
        self._blocked = finish_cursor(blk_columns)
        if self._blocked is not None:
            fps = self._blocked.fp
            self._blk_window = np.minimum(fps, _WINDOW)
            self._blk_span = self._blk_window * _WINDOW_SWEEPS

        self._lcg_streams = tuple(
            (
                sid,
                lcg_pre[sid],
                _affine_power(lcg_pre[sid]),
                tuple(occs),
            )
            for sid, occs in lcg_stream_occs.items()
        )

        self._w_streams = tuple(stream_order)
        self._w_round = tuple(w_step_by_stream[sid] for sid in stream_order)
        self._w_const = np.array(w_const, dtype=np.int64)
        self._w_num = np.array(w_num, dtype=np.int64)
        self._w_stream = np.array(w_stream, dtype=np.intp)

    def generate(
        self, state: AddressStreamState, rounds: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """References for ``rounds`` rounds as ``(lines, writes)``.

        Flat arrays of length ``rounds * refs_per_round``, ordered
        exactly as the scalar per-spec ``generate_refs`` loop orders
        them; ``state`` is advanced to the scalar loop's final values.
        """
        cols = self.refs_per_round
        if rounds <= 0 or cols == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.bool_),
            )
        t = np.arange(rounds, dtype=np.int64)
        lines = np.empty((rounds, cols), dtype=np.int64)

        # Write flags: one closed form covers every column.
        acc0 = np.array(
            [state.write_acc.get(sid, 0) for sid in self._w_streams],
            dtype=np.int64,
        )
        w_round = np.array(self._w_round, dtype=np.int64)
        pos = (acc0[self._w_stream] + self._w_const)[None, :]
        pos = pos + (w_round[self._w_stream])[None, :] * t[:, None]
        writes = (pos % _WDENOM) < self._w_num[None, :]

        cursor0: Optional[np.ndarray] = None
        if self._cursor_streams:
            cursor0 = np.array(
                [state.cursors.get(sid, 0) for sid in self._cursor_streams],
                dtype=np.int64,
            )
            adv = np.array(self._cursor_adv, dtype=np.int64)
        if self._linear is not None:
            lin = self._linear
            cur = (cursor0[lin.stream] + lin.const)[None, :]
            cur = cur + (adv[lin.stream])[None, :] * t[:, None]
            addr = lin.base[None, :] + cur % lin.fp[None, :]
            lines[:, lin.cols] = addr >> 6
        if self._blocked is not None:
            blk = self._blocked
            cur = (cursor0[blk.stream] + blk.const)[None, :]
            cur = cur + (adv[blk.stream])[None, :] * t[:, None]
            window = self._blk_window[None, :]
            window_index = cur // self._blk_span[None, :]
            offset = (cur % self._blk_span[None, :]) % window
            addr = blk.base[None, :] + (
                window_index * window + offset
            ) % blk.fp[None, :]
            lines[:, blk.cols] = addr >> 6

        for sid, draws, (round_mult, round_add), occs in self._lcg_streams:
            x0 = state.lcg.get(
                sid, (sid * 2654435761 + 1) & _LCG_MASK
            )
            # State at the start of round t: (A^draws)^t applied to x0,
            # via a prefix scan over powers of the per-round multiplier.
            powers = np.empty(rounds, dtype=np.uint64)
            powers[0] = 1
            sums = np.empty(rounds, dtype=np.uint64)
            sums[0] = 0
            if rounds > 1:
                powers[1:] = np.multiply.accumulate(
                    np.full(rounds - 1, round_mult, dtype=np.uint64)
                )
                sums[1:] = np.add.accumulate(powers[: rounds - 1])
            y = powers * np.uint64(x0) + np.uint64(round_add) * sums
            for (
                col,
                rpe,
                pre_mult,
                pre_add,
                at_round_start,
                coeff_mult,
                coeff_add,
                base,
                footprint,
            ) in occs:
                z = y if at_round_start else y * pre_mult + pre_add
                states = coeff_mult[None, :] * z[:, None] + coeff_add[None, :]
                addr = base + (states >> np.uint64(16)) % footprint
                lines[:, col : col + rpe] = (addr >> np.uint64(6)).astype(
                    np.int64
                )
            state.lcg[sid] = _lcg_jump(x0, draws * rounds)

        for index, sid in enumerate(self._cursor_streams):
            state.cursors[sid] = (
                int(cursor0[index]) + self._cursor_adv[index] * rounds
            )
        for index, sid in enumerate(self._w_streams):
            state.write_acc[sid] = (
                int(acc0[index]) + self._w_round[index] * rounds
            ) % _WDENOM

        return lines.reshape(-1), writes.reshape(-1)


@lru_cache(maxsize=512)
def bulk_pattern(specs: Tuple[AccessSpec, ...]) -> BulkAccessPattern:
    """Compiled (and cached — specs are frozen dataclasses) pattern."""
    return BulkAccessPattern(specs)

