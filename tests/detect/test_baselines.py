"""Unit tests: the centralized [12], one-shot [7] and Possibly [8]
baselines."""

import pytest

from repro.detect import (
    CentralizedSinkCore,
    OneShotDefinitelyCore,
    PossiblyCore,
    lattice_possibly,
    replay_centralized,
)
from repro.workload.scenarios import figure2_execution, figure3_execution

from ..conftest import make_interval


class TestCentralizedSink:
    def test_figure2_detects_single_global_occurrence(self):
        trace = figure2_execution().trace
        solutions = replay_centralized(trace, sink=2)
        assert len(solutions) == 1
        owners = {iv.owner: iv.seq for iv in solutions[0].heads.values()}
        # The solution is {x1, x3, x4, x5} — x3 is P2's SECOND interval.
        assert owners == {0: 0, 1: 1, 2: 0, 3: 0}

    def test_figure3_detects_single_occurrence(self):
        trace = figure3_execution().trace
        assert len(replay_centralized(trace, sink=0)) == 1

    def test_sink_must_be_monitored(self):
        with pytest.raises(ValueError):
            CentralizedSinkCore(sink_id=9, process_ids=[0, 1, 2])

    def test_remove_process_narrows_predicate(self):
        ivs = figure3_execution().intervals()
        sink = CentralizedSinkCore(sink_id=0, process_ids=[0, 1, 2, 3])
        sink.offer(0, ivs[0][0])
        sink.offer(1, ivs[1][0])
        sink.offer(2, ivs[2][0])
        assert sink.stats.detections == 0
        # P3 crashes; the sink drops its queue and the remaining three
        # heads immediately form a (partial-predicate) solution.
        solutions = sink.remove_process(3)
        assert len(solutions) == 1
        assert {iv.owner for iv in solutions[0].heads.values()} == {0, 1, 2}


class TestOneShot:
    def test_detects_first_occurrence_then_hangs(self):
        """Section I's claim: one-shot algorithms detect once and hang —
        on Figure 2's P1/P2 sub-predicate the one-shot detector reports
        {x1, x2} and never sees the {x1, x3} occurrence."""
        ivs = figure2_execution().intervals()
        x1, x2, x3 = ivs[0][0], ivs[1][0], ivs[1][1]
        core = OneShotDefinitelyCore(sink_id=0, process_ids=[0, 1])
        core.offer(1, x2)
        core.offer(1, x3)
        core.offer(0, x1)
        assert core.halted
        detection = core.detection
        assert set(detection.heads.values()) == {x1, x2}
        # Feeding more intervals does nothing.
        assert core.offer(0, make_interval(0, 5, [9, 0, 0, 0], [9, 0, 0, 0])) == []

    def test_no_detection_before_occurrence(self):
        core = OneShotDefinitelyCore(sink_id=0, process_ids=[0, 1])
        core.offer(0, make_interval(0, 0, [1, 0], [2, 0]))
        assert core.detection is None
        assert not core.halted


class TestPossibly:
    def test_concurrent_intervals_satisfy_possibly(self):
        # No messages at all: Definitely fails, Possibly succeeds.
        x = make_interval(0, 0, [1, 0], [2, 0])
        y = make_interval(1, 0, [0, 1], [0, 2])
        core = PossiblyCore(sink_id=0, process_ids=[0, 1])
        assert core.offer(0, x) is None
        solution = core.offer(1, y)
        assert solution is not None
        assert core.halted

    def test_sequential_intervals_pruned(self):
        x = make_interval(0, 0, [1, 0], [2, 0])
        y = make_interval(1, 0, [3, 1], [3, 2])  # x wholly precedes y
        core = PossiblyCore(sink_id=0, process_ids=[0, 1])
        core.offer(0, x)
        assert core.offer(1, y) is None
        # x was discarded; a later concurrent interval pairs with y.
        x2 = make_interval(0, 1, [4, 0], [5, 0])
        assert core.offer(0, x2) is not None

    def test_figure3_possibly_holds(self):
        ex = figure3_execution()
        core = PossiblyCore(sink_id=0, process_ids=range(4))
        result = None
        for interval in ex.trace.intervals_in_completion_order():
            result = result or core.offer(interval.owner, interval)
        assert result is not None
        assert lattice_possibly(ex.trace)

    def test_needs_processes(self):
        with pytest.raises(ValueError):
            PossiblyCore(sink_id=0, process_ids=[])
