"""Unit tests: the discrete-event simulation kernel."""

import pytest

from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_at_and_past_rejection(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert sim.pending == 0

    def test_run_until_stops_cleanly(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 2]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def chain(k):
            fired.append(k)
            if k < 3:
                sim.schedule(1.0, lambda: chain(k + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]


class TestRngStreams:
    def test_streams_deterministic_by_name_and_seed(self):
        a = Simulator(seed=7).rng("net").random(5)
        b = Simulator(seed=7).rng("net").random(5)
        assert (a == b).all()

    def test_streams_independent_of_creation_order(self):
        sim1 = Simulator(seed=7)
        sim1.rng("x")
        v1 = sim1.rng("net").random(3)
        sim2 = Simulator(seed=7)
        v2 = sim2.rng("net").random(3)
        assert (v1 == v2).all()

    def test_different_names_differ(self):
        sim = Simulator(seed=7)
        assert not (sim.rng("a").random(8) == sim.rng("b").random(8)).all()

    def test_different_seeds_differ(self):
        a = Simulator(seed=1).rng("net").random(8)
        b = Simulator(seed=2).rng("net").random(8)
        assert not (a == b).all()

    def test_same_name_returns_same_stream(self):
        sim = Simulator(seed=0)
        first = sim.rng("net")
        first.random()
        assert sim.rng("net") is first


class TestHeapCompaction:
    """Lazy tombstone compaction: heavy timer churn must not let
    cancelled events dominate the heap."""

    def test_mass_cancellation_triggers_compaction(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(300)]
        for handle in handles[:250]:
            handle.cancel()
        assert sim.heap_compactions >= 1
        # Tombstones beyond the compaction floor are physically removed:
        # at most 50 live + the sub-threshold tail can remain.
        assert len(sim._heap) <= 50 + Simulator._COMPACT_MIN_CANCELLED + 1
        assert sim.pending == 50

    def test_execution_order_survives_compaction(self):
        sim = Simulator()
        fired = []
        handles = []
        for i in range(200):
            handles.append(
                sim.schedule(float(i % 7) + 1.0, lambda i=i: fired.append(i))
            )
        kept = [h for i, h in enumerate(handles) if i % 5 == 0]
        for i, handle in enumerate(handles):
            if i % 5:
                handle.cancel()
        sim.run()
        expected = sorted(
            (i for i in range(200) if i % 5 == 0),
            key=lambda i: (float(i % 7) + 1.0, i),
        )
        assert fired == expected
        assert len(kept) == len(fired)

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(40)]
        for handle in handles:
            handle.cancel()
        assert sim.heap_compactions == 0
        sim.run()
        assert sim.pending == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending == 1
        sim.run()
        assert sim.events_executed == 1
        assert keep.cancelled is False

    def test_cancel_after_execution_does_not_corrupt_count(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        handle.cancel()  # late cancel of an already-executed event
        assert sim.pending == 0


class TestSeedDerivation:
    """The named-stream derivation contract (docs/parallel.md).

    Int seeds must keep the legacy ``SeedSequence([seed, crc32(name)])``
    streams byte-for-byte (pinned below — a drift here silently changes
    every persisted artifact); ``SeedSequence`` seeds derive streams by
    appending the name's bytes to the spawn key.
    """

    def test_int_seed_streams_are_pinned(self):
        import numpy as np

        net = Simulator(seed=0).rng("net").random(4)
        assert np.allclose(
            net, [0.79178868, 0.71519305, 0.77619453, 0.73659267]
        )
        workload = Simulator(seed=7).rng("workload").integers(0, 1000, 4)
        assert workload.tolist() == [354, 385, 67, 662]

    def test_seedsequence_seed_accepted(self):
        import numpy as np

        ss = np.random.SeedSequence(42)
        a = Simulator(seed=ss).rng("net").random(8)
        b = Simulator(seed=np.random.SeedSequence(42)).rng("net").random(8)
        assert (a == b).all()
        assert not (a == Simulator(seed=42).rng("net").random(8)).all()

    def test_seedsequence_names_key_apart(self):
        import numpy as np

        sim = Simulator(seed=np.random.SeedSequence(42))
        assert not (sim.rng("a").random(8) == sim.rng("b").random(8)).all()

    def test_spawned_children_are_independent(self):
        import numpy as np

        children = np.random.SeedSequence(42).spawn(2)
        a = Simulator(seed=children[0]).rng("net").random(8)
        b = Simulator(seed=children[1]).rng("net").random(8)
        assert not (a == b).all()

    def test_spawn_key_carries_into_streams(self):
        import numpy as np

        child = np.random.SeedSequence(42).spawn(1)[0]
        parent = np.random.SeedSequence(42)
        a = Simulator(seed=child).rng("net").random(3)
        b = Simulator(seed=parent).rng("net").random(3)
        assert not (a == b).all()
        assert np.allclose(a, [0.2444005, 0.07503477, 0.22662143])


class TestTupleHeap:
    """The heap orders ``(time, tie, event)`` tuples: ``(time, tie)`` is
    a strict total order, so the event object is never compared."""

    def test_equal_times_never_compare_events_or_actions(self):
        # Handles carry no ordering of their own; with equal times the
        # tie counter alone decides, for any kind of callable.
        sim = Simulator()
        fired = []

        class Action:
            def __init__(self, name):
                self.name = name

            def __call__(self):
                fired.append(self.name)

        handles = [sim.schedule_at(2.0, Action(i)) for i in range(64)]
        with pytest.raises(TypeError):
            handles[0] < handles[1]
        sim.run()
        assert fired == list(range(64))

    def test_equal_time_events_scheduled_while_running_go_last(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0.0, lambda: fired.append("child"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second", "child"]

    def test_cancel_then_compact_keeps_entries_and_order(self):
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(float(i % 5), lambda i=i: fired.append(i)) for i in range(400)
        ]
        for i, handle in enumerate(handles):
            if i % 4:
                handle.cancel()
        assert sim.heap_compactions >= 1
        assert all(
            entry[:2] == (entry[2].time, entry[2].tie) for entry in sim._heap
        )
        assert sim.pending == 100
        # Cancelling after a compaction still counts against the rebuilt heap.
        handles[0].cancel()
        assert sim.pending == 99
        sim.run()
        assert fired == sorted(range(4, 400, 4), key=lambda i: (i % 5, i))
        assert sim.pending == 0 and not sim._heap

    def test_int_seed_delivery_order_is_pinned(self):
        # A whole run, not just a stream prefix: delays drawn from the
        # legacy int-seed "net" stream, events at colliding and distinct
        # times, a third of them cancelled.  Recorded on the dataclass
        # heap this kernel replaced.
        import hashlib

        sim = Simulator(seed=3)
        rng = sim.rng("net")
        fired = []
        handles = []
        for i in range(300):
            delay = round(float(rng.uniform(0.5, 1.5)), 1)
            handles.append(sim.schedule(delay, lambda i=i: fired.append(i)))
        for handle in handles[::3]:
            handle.cancel()
        sim.run()
        assert len(fired) == 200 and sim.events_executed == 200
        digest = hashlib.sha256(",".join(map(str, fired)).encode()).hexdigest()
        assert digest == (
            "05bae05d5e4d978e08d0d09a6bed33aec6afd027c2276eeeb246107788592dd8"
        )
