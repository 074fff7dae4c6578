"""The column-batch trackers against their chunk-at-a-time oracles.

The detailed simulator hands each tracker one flush of chunks at a time
as columns (``on_chunks``). Where a flush ends is an implementation
detail, so any split of a chunk stream into batches, empty batches
included, must leave intervals and totals equal, float for float, to
:class:`tests.oracles.ScalarFLITracker` and
:class:`tests.oracles.ScalarVLITracker` fed one chunk per ``on_chunk``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cmpsim.simulator import FLITracker, VLITracker
from repro.core.markers import MarkerTable
from repro.errors import SimulationError

from tests.oracles import ScalarFLITracker, ScalarVLITracker, feed_chunks

_SETTINGS = settings(deadline=None, max_examples=150)

#: Blocks 10 and 11 anchor markers 0 and 1; -1 and 99 are unknown ids.
_ANCHORS = {0: 10, 1: 11}
_MARKER_OF = {10: 0, 11: 1}


def _table():
    return MarkerTable(binary_name="oracle/32u", anchor_blocks=_ANCHORS)


def _state(tracker):
    """Everything a tracker reports, floats compared with ``==``."""
    return (
        [
            (i.instructions, i.cycles, i.dram_accesses)
            for i in tracker.intervals
        ],
        (
            tracker._cur.instructions,
            tracker._cur.cycles,
            tracker._cur.dram_accesses,
        ),
        tracker.total_instructions,
        tracker.total_cycles,
        tracker.total_dram,
    )


def _finish(tracker):
    try:
        tracker.finish()
    except SimulationError as error:
        return ("raised", str(error))
    return ("finished", _state(tracker))


def _assert_equivalent(batched, oracle, rows, cuts):
    """Feed ``rows`` to the oracle chunk by chunk and to ``batched`` in
    the batches ``cuts`` delimits; both must agree before and after
    ``finish``."""
    for row in rows:
        oracle.on_chunk(*row)
    bounds = [0, *sorted(cuts), len(rows)]
    for start, end in zip(bounds, bounds[1:]):
        feed_chunks(batched, rows[start:end])
    assert _state(batched) == _state(oracle)
    if isinstance(oracle, ScalarVLITracker):
        assert batched._next == oracle._next
    assert _finish(batched) == _finish(oracle)


def _every_split(rows):
    """One batch, one chunk per batch, every single split point, and
    an empty batch at each end."""
    n = len(rows)
    yield []
    yield list(range(1, n))
    yield [0, n]
    for cut in range(1, n):
        yield [cut, cut]


def _check_fli(size, rows):
    for cuts in _every_split(rows):
        _assert_equivalent(
            FLITracker(size), ScalarFLITracker(size), rows, cuts
        )


def _check_vli(boundaries, rows):
    for cuts in _every_split(rows):
        _assert_equivalent(
            VLITracker(_table(), boundaries),
            ScalarVLITracker(_table(), boundaries),
            rows, cuts,
        )


class TestExplicitCases:
    def test_zero_instruction_chunk_right_after_an_exact_cut(self):
        rows = [
            (0, 1, 10, 7.5, 1.0),  # ends exactly on the cut
            (1, 1, 0, 3.25, 2.0),  # belongs to the next interval
            (0, 1, 4, 1.1),
            (2, 1, 0, 0.7, 0.1),
        ]
        _check_fli(10, rows)
        tracker = FLITracker(10)
        feed_chunks(tracker, rows)
        tracker.finish()
        assert tracker.intervals[0].cycles == 7.5
        assert tracker.intervals[1].cycles == 3.25 + 1.1 + 0.7

    def test_chunk_straddling_several_cuts(self):
        rows = [
            (0, 1, 3, 1.1, 0.3),
            (0, 4, 35, 100.7, 13.0),  # reaches cuts 10, 20 and 30
            (0, 1, 2, 0.9),
            (1, 1, 20, 33.3, 3.0),  # ends exactly on cut 60
        ]
        _check_fli(10, rows)

    def test_marker_chunk_holding_a_boundary_mid_chunk(self):
        rows = [(0, 1, 7, 3.3, 1.0), (10, 5, 10, 7.3), (1, 1, 4, 2.2)]
        _check_vli([(0, 3)], rows)

    def test_marker_chunk_holding_a_boundary_on_its_last_exec(self):
        rows = [(0, 1, 7, 3.3, 1.0), (10, 5, 10, 7.3), (1, 1, 4, 2.2)]
        _check_vli([(0, 5)], rows)

    def test_marker_chunk_adds_cycles_over_execs_times_execs(self):
        # 6303.25374404671 / 3 * 3 != 6303.25374404671: a marker chunk
        # adds (cycles / execs) * execs, as a chunk-at-a-time split does.
        cycles = 6303.25374404671
        assert cycles / 3 * 3 != cycles
        rows = [(0, 1, 7, 3.3, 1.0), (10, 3, 6, cycles), (10, 4, 8, 2.2)]
        _check_vli([(0, 5)], rows)
        tracker = VLITracker(_table(), [])
        feed_chunks(tracker, rows[:2])
        tracker.finish()
        assert tracker.intervals[0].cycles == 3.3 + cycles / 3 * 3

    def test_marker_chunk_holding_several_boundaries(self):
        rows = [
            (10, 2, 4, 1.3),
            (11, 6, 18, 9.7),
            (2, 1, 5, 1.9, 2.0),
            (11, 3, 9, 4.1),
        ]
        _check_vli([(0, 1), (1, 2), (1, 6), (1, 9)], rows)

    def test_empty_batch(self):
        for tracker in (FLITracker(10), VLITracker(_table(), [])):
            feed_chunks(tracker, [])
            assert tracker.intervals == []
            assert tracker.total_instructions == 0
            assert tracker.total_cycles == 0.0
        _check_fli(10, [])
        _check_vli([], [])

    def test_passed_coordinate_never_fires(self):
        rows = [(10, 4, 8, 2.0), (11, 1, 3, 1.0), (10, 1, 2, 0.5)]
        # (0, 2) is passed before (1, 1) fires, so it never fires.
        _check_vli([(1, 1), (0, 2)], rows)
        tracker = VLITracker(_table(), [(1, 1), (0, 2)])
        feed_chunks(tracker, rows)
        with pytest.raises(SimulationError, match="never fired"):
            tracker.finish()


_fli_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=5),
        st.one_of(st.just(0), st.integers(min_value=0, max_value=120)),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.one_of(
            st.integers(min_value=0, max_value=20).map(float),
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        ),
    ),
    max_size=40,
)


@st.composite
def _vli_case(draw):
    """Chunk rows, a boundary list and batch cuts.

    Marker chunks are per-execution uniform and DRAM-free, as marker
    anchors are. Boundaries are an ordered pick of the coordinates
    that fire, sometimes with one arbitrary coordinate spliced in (it
    may fire, may have been passed, or may lie beyond the run).
    """
    events = draw(st.lists(
        st.tuples(
            st.sampled_from([0, 1, 2, -1, 99, 10, 11]),
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=0, max_value=50),
            st.one_of(
                st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                # Often (v / execs) * execs != v for these.
                st.integers(min_value=1, max_value=10**7).map(
                    lambda k: k / 997
                ),
            ),
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        ),
        max_size=30,
    ))
    rows, firings, counts = [], [], {}
    for block_id, execs, instructions, cycles, dram in events:
        marker_id = _MARKER_OF.get(block_id)
        if marker_id is None:
            rows.append((block_id, execs, instructions, cycles, dram))
            continue
        for _ in range(execs):
            counts[marker_id] = counts.get(marker_id, 0) + 1
            firings.append((marker_id, counts[marker_id]))
        rows.append((block_id, execs, instructions * execs, cycles, 0.0))
    picked = sorted(draw(st.sets(
        st.integers(min_value=0, max_value=max(len(firings) - 1, 0)),
        max_size=min(6, len(firings)),
    ))) if firings else []
    boundaries = [firings[i] for i in picked]
    if draw(st.booleans()):
        stray = (
            draw(st.integers(min_value=0, max_value=1)),
            draw(st.integers(min_value=0, max_value=40)),
        )
        at = draw(st.integers(min_value=0, max_value=len(boundaries)))
        boundaries.insert(at, stray)
    return rows, boundaries, draw(_cuts(len(rows)))


def _cuts(n):
    return st.lists(st.integers(min_value=0, max_value=n), max_size=6)


class TestRandomStreams:
    @_SETTINGS
    @given(
        rows=_fli_rows,
        size=st.integers(min_value=1, max_value=60),
        data=st.data(),
    )
    def test_fli_matches_the_oracle(self, rows, size, data):
        cuts = data.draw(_cuts(len(rows)))
        _assert_equivalent(
            FLITracker(size), ScalarFLITracker(size), rows, cuts
        )

    @_SETTINGS
    @given(case=_vli_case())
    def test_vli_matches_the_oracle(self, case):
        rows, boundaries, cuts = case
        _assert_equivalent(
            VLITracker(_table(), boundaries),
            ScalarVLITracker(_table(), boundaries),
            rows, cuts,
        )
