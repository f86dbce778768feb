"""Unit tests: trace serialization round-trips."""

import json

import pytest

from repro.detect import replay_centralized
from repro.sim import load_trace, save_trace, trace_from_dict, trace_to_dict
from repro.workload import figure2_execution

from ..conftest import random_execution


class TestRoundTrip:
    def test_figure2_round_trip_preserves_everything(self):
        trace = figure2_execution().trace
        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert rebuilt.n == trace.n
        assert rebuilt.event_count() == trace.event_count()
        for p in range(trace.n):
            for a, b in zip(trace.events[p], rebuilt.events[p]):
                assert a.timestamp.tolist() == b.timestamp.tolist()
                assert (a.kind, a.predicate, a.global_order) == (
                    b.kind, b.predicate, b.global_order,
                )

    def test_replay_identical_after_round_trip(self, rng):
        for _ in range(10):
            trace = random_execution(3, 30, rng).trace
            rebuilt = trace_from_dict(trace_to_dict(trace))
            original = [
                tuple(sorted((iv.owner, iv.seq) for iv in s.heads.values()))
                for s in replay_centralized(trace)
            ]
            replayed = [
                tuple(sorted((iv.owner, iv.seq) for iv in s.heads.values()))
                for s in replay_centralized(rebuilt)
            ]
            assert original == replayed

    def test_file_round_trip(self, tmp_path):
        trace = figure2_execution().trace
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        rebuilt = load_trace(path)
        assert rebuilt.event_count() == trace.event_count()
        # The file is plain, stable JSON.
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert data["n"] == 4

    def test_initial_predicate_preserved(self):
        from repro.workload import ScriptedExecution

        ex = ScriptedExecution(2, initial_predicate=[True, False])
        ex.internal(0)
        rebuilt = trace_from_dict(trace_to_dict(ex.trace))
        assert rebuilt.initial_predicate == [True, False]


class TestValidation:
    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            trace_from_dict({"version": 99, "n": 1, "events": []})

    def test_corrupted_timestamps_rejected(self):
        trace = figure2_execution().trace
        data = trace_to_dict(trace)
        data["events"][0]["ts"] = [5, 5, 5, 5]  # wrong local index
        with pytest.raises(ValueError):
            trace_from_dict(data)


class TestDetectionRoundTrip:
    """Detection records cross process boundaries (the sharded runner
    pickles them) and must come back exactly."""

    @staticmethod
    def _detections():
        from repro.experiments import run_hierarchical
        from repro.topology import SpanningTree
        from repro.workload.generator import EpochConfig

        result = run_hierarchical(
            SpanningTree.regular(2, 3), seed=7, config=EpochConfig(epochs=4)
        )
        assert result.detections
        return result.detections

    @staticmethod
    def _signature(record):
        return (
            record.time,
            record.detector,
            record.solution.detector,
            record.solution.index,
            sorted(
                (key, iv.owner, iv.seq, iv.lo.tolist(), iv.hi.tolist(),
                 sorted(iv.members), len(iv.parts))
                for key, iv in record.solution.heads.items()
            ),
            record.aggregate.key() if record.aggregate is not None else None,
        )

    def test_pickle_round_trip(self):
        import pickle

        records = self._detections()
        rebuilt = pickle.loads(pickle.dumps(records))
        assert [self._signature(r) for r in rebuilt] == [
            self._signature(r) for r in records
        ]

    def test_trace_pickle_round_trip(self):
        import pickle

        trace = figure2_execution().trace
        rebuilt = pickle.loads(pickle.dumps(trace))
        assert rebuilt.n == trace.n
        assert rebuilt.event_count() == trace.event_count()
        assert trace_to_dict(rebuilt) == trace_to_dict(trace)
