"""Unit tests: the centralized baseline [12] and its one-shot mode [7]."""

import pytest

from repro.detect import (
    CentralizedSinkCore,
    RepeatedDetectionCore,
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
        core = RepeatedDetectionCore([0, 1], repeated=False)
        assert core.offer(1, x2) == []
        assert core.offer(1, x3) == []
        (detection,) = core.offer(0, x1)
        assert core.halted
        assert set(detection.heads.values()) == {x1, x2}
        # Feeding more intervals does nothing.
        assert core.offer(0, make_interval(0, 5, [9, 0, 0, 0], [9, 0, 0, 0])) == []

    def test_no_detection_before_occurrence(self):
        core = RepeatedDetectionCore([0, 1], repeated=False)
        assert core.offer(0, make_interval(0, 0, [1, 0], [2, 0])) == []
        assert not core.halted
