"""The per-node queue-operation counters count when their event happens.

``repro_intervals_total``, ``repro_detect_enqueued_total`` and
``repro_detect_pruned_total{node,reason}`` count Alg. 1's enqueue and its
two prunes (lines 4–17 and Eq. 10), the units Table I states space and
time in.  The first two tests take the counter vecs before any offer
and read them as held, with no registry read in between and no alarm
to prompt one: a counter that is only brought up to date by a read
would still show 0 there.  The last test checks the counters against
the detection cores' own tallies over a whole run.
"""

import asyncio

import numpy as np

from repro.detect import HierarchicalRole
from repro.experiments import run_hierarchical
from repro.intervals import Interval
from repro.net import AsyncClock, LoopbackHub, LoopbackTransport, NodeRuntime
from repro.sim import ExecutionTrace, MonitoredProcess, Network, Simulator, uniform_delay
from repro.topology import SpanningTree
from repro.workload import EpochConfig

#: Root 0 with leaf children 1 and 2.  Only P0 and P1 produce
#: intervals, so the root never holds a head from P2 and never alarms.
TREE = {0: (None, [1, 2]), 1: (0, []), 2: (0, [])}


def held_vecs(registry):
    """The three counter vecs, fetched once and then only read."""
    return (
        registry.get("repro_intervals_total"),
        registry.get("repro_detect_enqueued_total"),
        registry.get("repro_detect_pruned_total"),
    )


def lone_interval(owner, seq, n=3):
    """An interval that saw no other process: concurrent with every
    interval of another owner, so two such heads prune each other."""
    clock = np.zeros(n, dtype=np.int64)
    clock[owner] = seq + 1
    return Interval(owner=owner, seq=seq, lo=clock, hi=clock.copy())


def assert_counts_match_cores(roles, enqueued, pruned):
    for pid, role in roles.items():
        stats = role.core.stats
        assert enqueued.get(pid, 0) == stats.offers
        assert pruned.get((pid, "prune_incompat"), 0) == stats.pruned_incompatible
        assert pruned.get((pid, "prune_solution"), 0) == stats.pruned_after_solution


class TestCountedAtTheEvent:
    def test_runtime_counters_count_at_the_event(self):
        async def scenario():
            clock = AsyncClock()
            hub = LoopbackHub()
            runtimes = {}
            for pid, (parent, children) in TREE.items():
                runtimes[pid] = NodeRuntime(
                    pid,
                    LoopbackTransport(pid, hub, clock),
                    clock,
                    parent=parent,
                    children=children,
                )
            for runtime in runtimes.values():
                await runtime.transport.start()
                runtime.activate()
            intervals, enqueued, pruned = held_vecs(clock.telemetry.registry)
            for seq in range(4):
                runtimes[0].offer_local(lone_interval(0, seq))
                runtimes[1].offer_local(lone_interval(1, seq))
            # The leaf's four reports cross the loopback hub; wait on
            # the held vec itself.
            for _ in range(200):
                if enqueued[0] == 8:
                    break
                await asyncio.sleep(0.005)
            counts = (dict(intervals), dict(enqueued), dict(pruned))
            roles = {pid: runtime.role for pid, runtime in runtimes.items()}
            detections = [d for role in roles.values() for d in role.detections]
            for runtime in runtimes.values():
                await runtime.shutdown()
            return counts, roles, detections

        (intervals, enqueued, pruned), roles, detections = asyncio.run(
            asyncio.wait_for(scenario(), timeout=30)
        )
        assert not detections
        assert intervals == {0: 4, 1: 4}
        # A lone leaf queue solves on every offer and prunes the head
        # by Eq. 10; the root enqueues its own four and the leaf's four.
        assert enqueued == {0: 8, 1: 4}
        assert pruned[(1, "prune_solution")] == 4
        assert pruned[(0, "prune_incompat")] > 0
        assert (0, "prune_solution") not in pruned
        assert_counts_match_cores(roles, enqueued, pruned)

    def test_sim_counters_count_at_the_event(self):
        tree = SpanningTree(0, {pid: parent for pid, (parent, _) in TREE.items()})
        sim = Simulator(seed=0)
        network = Network(sim, tree.as_graph(), uniform_delay(0.5, 1.5))
        trace = ExecutionTrace(tree.n)
        roles = {
            pid: HierarchicalRole(parent=parent, children=children)
            for pid, (parent, children) in TREE.items()
        }
        processes = {
            pid: MonitoredProcess(pid, sim, network, trace, roles[pid])
            for pid in tree.nodes
        }
        intervals, enqueued, pruned = held_vecs(sim.telemetry.registry)
        for k in range(5):
            for pid in (0, 1):
                sim.schedule_at(10.0 * k, lambda p=pid: processes[p].set_predicate(True))
                sim.schedule_at(10.0 * k + 1, lambda p=pid: processes[p].set_predicate(False))
        sim.run(until=100.0)
        assert not [d for role in roles.values() for d in role.detections]
        assert dict(intervals) == {0: 5, 1: 5}
        assert dict(enqueued) == {0: 10, 1: 5}
        assert pruned[(1, "prune_solution")] == 5
        assert pruned[(0, "prune_incompat")] > 0
        assert_counts_match_cores(roles, enqueued, pruned)

    def test_run_counters_equal_the_cores_tallies(self):
        result = run_hierarchical(
            SpanningTree.regular(2, 3), seed=3, config=EpochConfig(epochs=4, sync_prob=0.8)
        )
        assert result.detections and not result.crashed
        intervals, enqueued, pruned = held_vecs(result.sim.telemetry.registry)
        assert_counts_match_cores(result.roles, enqueued, pruned)
        for pid in result.tree.nodes:
            assert intervals[pid] == len(result.roles[pid].process.local_intervals)
        assert sum(pruned.values()) > 0
