"""Unit tests: execution traces."""

import json
from contextlib import contextmanager
from functools import lru_cache
from typing import List, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import freeze
from repro.detect import lattice_definitely
from repro.experiments import run_hierarchical
from repro.intervals import Interval
from repro.sim import ExecutionTrace, ProcessEvent, trace_from_dict, trace_to_dict
from repro.topology import SpanningTree
from repro.workload.generator import EpochConfig
from repro.workload.scenarios import ScriptedExecution, figure2_execution

from ..conftest import random_execution


class TestRecording:
    def test_timestamp_must_match_local_index(self):
        trace = ExecutionTrace(2)
        trace.record(0, freeze([1, 0]), "internal", False)
        with pytest.raises(ValueError):
            trace.record(0, freeze([5, 0]), "internal", False)  # index 2 expected

    def test_event_count_and_orders(self):
        trace = ExecutionTrace(2)
        trace.record(0, freeze([1, 0]), "internal", False)
        trace.record(1, freeze([0, 1]), "internal", True)
        assert trace.event_count() == 2
        assert trace.events[0][0].global_order == 0
        assert trace.events[1][0].global_order == 1

    def test_initial_predicate_validation(self):
        with pytest.raises(ValueError):
            ExecutionTrace(3, initial_predicate=[True])

    def test_unknown_kind_is_refused(self):
        trace = ExecutionTrace(1)
        with pytest.raises(ValueError, match="kind"):
            trace.record(0, freeze([1]), "change", False)

    def test_wrong_width_is_refused(self):
        trace = ExecutionTrace(2)
        with pytest.raises(ValueError, match="components"):
            trace.record(0, freeze([1, 0, 0]), "internal", False)

    def test_caller_mutation_does_not_reach_the_trace(self):
        # A writable timestamp the trace keeps (a receive that learned a
        # foreign component) and one it implies (the next internal
        # event) are both mutated after recording.
        trace = ExecutionTrace(2)
        received = np.array([1, 3], dtype=np.int64)
        trace.record(0, received, "recv", True)
        ticked = np.array([2, 3], dtype=np.int64)
        trace.record(0, ticked, "internal", False)
        received[1] = 9
        ticked[1] = 9
        assert [e.timestamp.tolist() for e in trace.events[0]] == [[1, 3], [2, 3]]
        assert trace.intervals(0)[0].lo.tolist() == [1, 3]

    def test_predicate_after(self):
        trace = ExecutionTrace(1, initial_predicate=[True])
        assert trace.predicate_after(0, 0) is True
        trace.record(0, freeze([1]), "internal", False)
        assert trace.predicate_after(0, 1) is False


class TestIntervalExtraction:
    def test_open_interval_at_trace_end_is_closed(self):
        ex = ScriptedExecution(1)
        ex.set_pred(0, True)
        ex.internal(0)
        # No falling edge recorded: extraction still yields the run.
        intervals = ex.trace.intervals(0)
        assert len(intervals) == 1
        assert intervals[0].lo.tolist() == [1]
        assert intervals[0].hi.tolist() == [2]

    def test_back_to_back_intervals(self):
        ex = ScriptedExecution(1)
        for _ in range(2):
            ex.set_pred(0, True)
            ex.set_pred(0, False)
        intervals = ex.trace.intervals(0)
        assert len(intervals) == 2
        assert intervals[0].hi.tolist() == [1]
        assert intervals[1].lo.tolist() == [3]

    def test_figure2_interval_census(self):
        trace = figure2_execution().trace
        by_proc = trace.all_intervals()
        assert [len(by_proc[p]) for p in range(4)] == [1, 2, 1, 1]

    def test_completion_order_respects_closing_events(self):
        trace = figure2_execution().trace
        order = [(iv.owner, iv.seq) for iv in trace.intervals_in_completion_order()]
        # x2 (P2's first) completes first; x4 at P3 before x1/x3/x5.
        assert order[0] == (1, 0)
        assert set(order) == {(0, 0), (1, 0), (1, 1), (2, 0), (3, 0)}
        assert order.index((2, 0)) < order.index((0, 0))


class TestEventsView:
    @staticmethod
    def _trace() -> ExecutionTrace:
        ex = ScriptedExecution(2)
        ex.set_pred(0, True)
        ex.send(0, "m")
        ex.recv(1, "m")
        ex.internal(1)
        ex.set_pred(0, False)
        return ex.trace

    def test_sequence_protocol(self):
        trace = self._trace()
        lane = trace.events[1]
        assert len(lane) == 2
        assert [e.index for e in lane] == [1, 2]
        assert lane[-1] == lane[1] and lane[-2] == lane[0]
        assert lane[1:] == [lane[1]]
        assert lane[::-1] == [lane[1], lane[0]]
        assert lane == list(lane) and lane == tuple(lane)
        assert lane != trace.events[0]
        assert trace.events[0][0] in trace.events[0]
        with pytest.raises(IndexError):
            lane[2]
        with pytest.raises(IndexError):
            lane[-3]

    def test_view_is_read_only(self):
        lane = self._trace().events[0]
        with pytest.raises(TypeError):
            lane[0] = lane[1]
        assert not hasattr(lane, "append")
        with pytest.raises(ValueError):
            lane[0].timestamp[0] = 5

    def test_implied_timestamps_are_rebuilt_and_kept_ones_stored(self):
        trace = self._trace()
        recv, after = trace.events[1]
        assert recv.timestamp.tolist() == [2, 1]
        assert after.timestamp.tolist() == [2, 2]
        # Only the receive row is stored, at one byte per component.
        assert trace.kept_timestamps() == 1
        assert trace.kept_timestamp_bytes() == 2

    def test_timestamps_stay_frozen_across_pickling(self):
        import pickle

        trace = pickle.loads(pickle.dumps(self._trace()))
        assert all(not e.timestamp.flags.writeable for lane in trace.events for e in lane)
        assert trace.events[1][0].timestamp.tolist() == [2, 1]

    def test_a_kept_row_reads_as_a_read_only_int64_copy(self):
        trace = ExecutionTrace(2)
        frozen = freeze([1, 4])
        trace.record(0, frozen, "recv", False)
        writable = np.array([2, 7], dtype=np.int64)
        trace.record(0, writable, "recv", True)
        writable[1] = 9
        first, second = (lane_event.timestamp for lane_event in trace.events[0])
        assert first.tolist() == [1, 4] and second.tolist() == [2, 7]
        for stamp in (first, second):
            assert stamp.dtype == np.int64 and not stamp.flags.writeable
        # every read is its own copy: nothing a reader holds is the row
        assert first is not frozen and second is not writable
        assert trace.events[0][0].timestamp is not first
        assert trace.kept_timestamps() == 2

    def test_pickled_widened_lane(self):
        import pickle

        trace = ExecutionTrace(2)
        trace.record(1, freeze([300, 1]), "recv", True)
        trace.record(1, freeze([70_000, 2]), "recv", False)
        assert trace.kept_timestamp_bytes() == 2 * 2 * 4  # widened to uint32
        copy = pickle.loads(pickle.dumps(trace))
        assert copy.events[1] == trace.events[1]
        assert copy.kept_timestamp_bytes() == trace.kept_timestamp_bytes()
        # the copy goes on recording: its last kept row is the base again
        copy.record(1, freeze([70_000, 3]), "internal", True)
        copy.record(1, freeze([70_001, 4]), "recv", True)
        assert copy.kept_timestamps() == 3
        assert [e.timestamp.tolist() for e in copy.events[1]][2:] == [
            [70_000, 3],
            [70_001, 4],
        ]


# ----------------------------------------------------------------------
# the columns against the list-of-events storage they replaced
# ----------------------------------------------------------------------
class ListTrace:
    """Reference: every event kept as a :class:`ProcessEvent` with its
    own timestamp, and the trace queries written over those lists."""

    def __init__(self, n: int, initial_predicate: List[bool]) -> None:
        self.n = n
        self.initial_predicate = list(initial_predicate)
        self.events: List[List[ProcessEvent]] = [[] for _ in range(n)]

    def add(self, process, timestamp, kind, predicate, order, time) -> None:
        seq = self.events[process]
        seq.append(
            ProcessEvent(
                process=process,
                index=len(seq) + 1,
                timestamp=freeze(np.array(timestamp, dtype=np.int64)),
                kind=kind,
                predicate=bool(predicate),
                global_order=order,
                time=float(time),
            )
        )

    def predicate_after(self, process: int, k: int) -> bool:
        if k == 0:
            return self.initial_predicate[process]
        return self.events[process][k - 1].predicate

    def intervals(self, process: int) -> List[Interval]:
        out: List[Interval] = []
        start: Optional[ProcessEvent] = None
        last: Optional[ProcessEvent] = None
        for event in self.events[process] + [None]:
            if event is not None and event.predicate:
                start = start or event
                last = event
            elif start is not None:
                out.append(
                    Interval(owner=process, seq=len(out), lo=start.timestamp, hi=last.timestamp)
                )
                start = last = None
        return out

    def closing_event(self, interval: Interval) -> ProcessEvent:
        return self.events[interval.owner][int(interval.hi[interval.owner]) - 1]

    def intervals_in_completion_order(self) -> List[Interval]:
        flat = [iv for p in range(self.n) for iv in self.intervals(p)]
        flat.sort(key=lambda iv: self.closing_event(iv).global_order)
        return flat


@contextmanager
def recording_reference():
    """Mirror every ``ExecutionTrace.record`` into a :class:`ListTrace`;
    yields trace → its reference."""
    references = {}
    original = ExecutionTrace.record

    def record(trace, process, timestamp, kind, predicate, time=0.0):
        if trace not in references:
            references[trace] = ListTrace(trace.n, trace.initial_predicate)
        order = trace._order
        original(trace, process, timestamp, kind, predicate, time)
        references[trace].add(process, timestamp, kind, predicate, order, time)

    with mock.patch.object(ExecutionTrace, "record", record):
        yield references


def _interval_rows(intervals):
    return [(iv.owner, iv.seq, iv.lo.tolist(), iv.hi.tolist()) for iv in intervals]


def assert_equivalent(trace: ExecutionTrace, ref: ListTrace, *, lattice: bool) -> None:
    assert trace.event_count() == sum(len(seq) for seq in ref.events)
    for p in range(trace.n):
        lane = trace.events[p]
        assert len(lane) == len(ref.events[p])
        for got, want in zip(lane, ref.events[p]):
            assert got.timestamp.tolist() == want.timestamp.tolist()
            assert not got.timestamp.flags.writeable
            assert (got.process, got.index, got.kind, got.predicate, got.global_order, got.time) == (
                want.process, want.index, want.kind, want.predicate, want.global_order, want.time,
            )
            assert type(got.predicate) is bool and type(got.time) is float
        assert lane == ref.events[p]
        for k in range(len(lane) + 1):
            assert trace.predicate_after(p, k) == ref.predicate_after(p, k)
        assert _interval_rows(trace.intervals(p)) == _interval_rows(ref.intervals(p))
    ordered = trace.intervals_in_completion_order()
    assert _interval_rows(ordered) == _interval_rows(ref.intervals_in_completion_order())
    assert [trace.interval_close_time(iv) for iv in ordered] == [
        ref.closing_event(iv).time for iv in ordered
    ]
    if lattice:
        assert lattice_definitely(trace) == lattice_definitely(ref)
    assert json.dumps(trace_to_dict(trace)) == json.dumps(trace_to_dict(ref))


class TestColumnsMatchEventLists:
    @settings(max_examples=40)
    @given(
        n=st.integers(1, 4),
        steps=st.integers(0, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scripted_executions(self, n, steps, seed):
        with recording_reference() as refs:
            ex = random_execution(n, steps, np.random.default_rng(seed))
        trace = ex.trace
        ref = refs.get(trace, ListTrace(n, trace.initial_predicate))
        assert_equivalent(trace, ref, lattice=True)
        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert_equivalent(rebuilt, ref, lattice=False)

    @settings(max_examples=6)
    @given(seed=st.integers(0, 1000), height=st.integers(1, 3))
    def test_small_hierarchical_runs(self, seed, height):
        with recording_reference() as refs:
            result = run_hierarchical(
                SpanningTree.regular(2, height),
                seed=seed,
                config=EpochConfig(epochs=3, sync_prob=0.7),
            )
        assert_equivalent(result.trace, refs[result.trace], lattice=False)

    def test_internal_event_that_changes_a_foreign_component(self):
        # Not a clock-rule execution, but an archive may hold one: P1's
        # second event is "internal" and still learns P0's first, and its
        # third is a "recv" that learns nothing.  Only comparing the
        # timestamps (never the kind) keeps the right rows.
        data = {
            "version": 1,
            "n": 2,
            "initial_predicate": [False, True],
            "events": [
                {"p": 0, "ts": [1, 0], "kind": "send", "pred": True, "t": 0.5},
                {"p": 1, "ts": [0, 1], "kind": "internal", "pred": True, "t": 1.0},
                {"p": 1, "ts": [1, 2], "kind": "internal", "pred": False, "t": 2.0},
                {"p": 1, "ts": [1, 3], "kind": "recv", "pred": True, "t": 3.0},
                {"p": 0, "ts": [2, 3], "kind": "recv", "pred": False, "t": 4.0},
                {"p": 1, "ts": [1, 4], "kind": "send", "pred": False, "t": 5.0},
            ],
        }
        with recording_reference() as refs:
            trace = trace_from_dict(data)
        assert trace.kept_timestamps() == 2  # P1's second event, P0's receive
        assert_equivalent(trace, refs[trace], lattice=True)
        assert trace_to_dict(trace) == data

    def test_lanes_widen_past_one_and_two_bytes(self):
        # P0 sends after 299 internal events: P1's receive learns 300.
        ex = ScriptedExecution(2)
        with recording_reference() as refs:
            ex.set_pred(1, True)
            for _ in range(299):
                ex.internal(0)
            ex.send(0, "m")
            ex.recv(1, "m")
            ex.set_pred(1, False)
        assert ex.trace.kept_timestamp_bytes() == 2 * 2
        assert_equivalent(ex.trace, refs[ex.trace], lattice=True)
        # An archive whose receives learn 200, then 70,000: one byte,
        # then two, then four per component on the same lane.
        data = _archive(
            [(0, [1, 0], "send"), (1, [200, 1], "recv"), (1, [200, 2], "internal"),
             (1, [70_000, 3], "recv"), (1, [70_000, 4], "send")]
        )
        with recording_reference() as refs:
            trace = trace_from_dict(data)
        assert trace.kept_timestamps() == 2
        assert trace.kept_timestamp_bytes() == 2 * 2 * 4
        assert_equivalent(trace, refs[trace], lattice=False)
        assert trace_to_dict(trace) == data

    @pytest.mark.parametrize("foreign", [-1, 2**32, 2**40 + 3])
    def test_archive_outside_four_unsigned_bytes(self, foreign):
        # Not a clock-rule execution either, but an archive may hold a
        # negative component or one of 2**32 or more: the lane turns to
        # signed 8-byte rows, and every value reads back as recorded.
        data = _archive(
            [(1, [0, 1], "internal"), (1, [300, 2], "recv"), (1, [foreign, 3], "recv"),
             (1, [foreign, 4], "internal"), (0, [1, 4], "recv")]
        )
        with recording_reference() as refs:
            trace = trace_from_dict(data)
        assert trace.kept_timestamps() == 3  # P1's two receives, P0's receive
        assert trace.kept_timestamp_bytes() == 2 * 2 * 8 + 2 * 1
        assert_equivalent(trace, refs[trace], lattice=False)
        assert trace_to_dict(trace) == data
        assert trace.events[1][3].timestamp.tolist() == [foreign, 4]


def _archive(events) -> dict:
    """A ``trace_to_dict`` document for two processes from
    ``(process, timestamp, kind)`` rows; the predicate alternates."""
    return {
        "version": 1,
        "n": 2,
        "initial_predicate": [False, False],
        "events": [
            {"p": p, "ts": ts, "kind": kind, "pred": i % 2 == 0, "t": float(i)}
            for i, (p, ts, kind) in enumerate(events)
        ],
    }


@lru_cache(maxsize=None)
def _epoch_trace(height: int) -> ExecutionTrace:
    return run_hierarchical(SpanningTree.regular(2, height), config=EpochConfig(epochs=4)).trace


class TestRetainedTimestamps:
    # Seed 0's epoch run on a binary tree: only the receive events keep a
    # timestamp, about two per interval, where keeping every event's
    # timestamp held six (events / intervals).  ``bytes_per_interval``
    # is what those rows would take at 8 bytes per component.
    @pytest.mark.parametrize(
        "height, events, kept, intervals, bytes_per_interval",
        [(7, 3032, 1008, 508, 2016.0), (8, 6104, 2032, 1020, 4064.0)],
    )
    def test_only_receive_rows_are_kept(self, height, events, kept, intervals, bytes_per_interval):
        trace = _epoch_trace(height)
        receives = sum(e.kind == "recv" for lane in trace.events for e in lane)
        assert trace.kept_timestamps() == receives == kept
        assert trace.event_count() == events
        assert sum(len(trace.intervals(p)) for p in range(trace.n)) == intervals
        assert trace.kept_timestamps() * 8 * trace.n / intervals == bytes_per_interval

    # Four epochs keep every component under 256: the rows are stored at
    # one byte per component, an eighth of the above.
    @pytest.mark.parametrize("height, bytes_per_interval", [(7, 252.0), (8, 508.0)])
    def test_kept_rows_take_one_byte_per_component(self, height, bytes_per_interval):
        trace = _epoch_trace(height)
        intervals = sum(len(trace.intervals(p)) for p in range(trace.n))
        assert trace.kept_timestamp_bytes() / intervals == bytes_per_interval
