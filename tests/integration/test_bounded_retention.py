"""Repeated detection runs in bounded memory.

Algorithm 1 runs for as long as the system does, and Table I bounds its
space by the queued intervals.  What a run *keeps* must therefore be
what its caller holds — the root detections — plus what is still
queued: no core, role, ledger or session may hold an object for an
epoch that can no longer change.  The simulated hierarchy is checked
after N and 2N epochs; the load session after a drained loopback run.
"""

import asyncio
import gc

from repro.detect import Emission, Solution
from repro.experiments import run_hierarchical
from repro.intervals import Interval
from repro.load import LoadSpec
from repro.monitor import HeartbeatSpec
from repro.net import ClusterSpec, LocalCluster
from repro.topology import SpanningTree
from repro.workload import EpochConfig

N = 8


def _live(kind) -> list:
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, kind)]


def _provenance(interval, into: set) -> None:
    into.add(id(interval))
    for part in interval.parts:
        _provenance(part, into)


def _unexplained(epochs: int, before: dict) -> dict:
    """Objects alive after a 7-node simulated run beyond what the test
    itself pins: the root detections with their full provenance.  The
    processes keep no record of their own intervals (the trace rebuilds
    them)."""
    result = run_hierarchical(
        SpanningTree.regular(2, 3),
        seed=3,
        # broken epochs make subtree solutions the root never sees —
        # exactly what a core keeping its history would pin
        config=EpochConfig(epochs=epochs, sync_prob=0.7),
    )
    detections = result.detections
    assert detections
    pinned: set = set()
    for record in detections:
        for head in record.solution.heads.values():
            _provenance(head, pinned)
        _provenance(record.aggregate, pinned)
    records = len(_live(Solution)) + len(_live(Emission)) - before["records"]
    intervals = len(_live(Interval)) - before["intervals"]
    return {
        "records": records - len(detections),
        "intervals": intervals - len(pinned),
        "queued": sum(
            sum(role.core.queue_sizes().values()) for role in result.roles.values()
        ),
    }


class TestSimulatedHierarchy:
    def test_nothing_grows_but_the_detections_the_caller_holds(self):
        before = {
            "records": len(_live(Solution)) + len(_live(Emission)),
            "intervals": len(_live(Interval)),
        }
        for run in (_unexplained(N, before), _unexplained(2 * N, before)):
            # Solution/Emission objects: exactly the root's detections.
            assert run["records"] == 0
            # Intervals: the detections' provenance and at most what is
            # still queued (Table I's bound).
            assert run["intervals"] <= run["queued"]


class TestLoopbackLoadSession:
    def test_ledger_and_session_keep_only_what_is_in_flight(self):
        spec = ClusterSpec(
            nodes=7,
            degree=2,
            seed=1,
            transport="loopback",
            heartbeat=HeartbeatSpec(period=0.1, loss_tolerance=10),
            load=LoadSpec(
                mode="open",
                rate=1500.0,
                total_offers=280,
                max_outstanding=14,
                resume_outstanding=7,
                pending_timeout=1.0,
                start_delay=0.05,
            ),
        )
        swallowed = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: swallowed.append(context)
            )
            cluster = LocalCluster(spec)
            await cluster.start()
            await cluster.run(until_load_drained=True, timeout=60)
            errors = cluster.telemetry.registry.get("repro_errors_total") or {}
            await cluster.stop()
            return cluster, errors

        cluster, errors = asyncio.run(asyncio.wait_for(scenario(), timeout=90))
        # a ledger or core bug in a receiver would be counted or surface here
        assert sum(errors.values()) == 0
        assert not swallowed
        session = cluster.load_session
        ledger = session.epochs
        summary = ledger.summary()
        assert summary["admitted_epochs"] == summary["solved"] + summary["stranded"]
        assert summary["solved"] > 0
        # resolved epochs folded into counters: only in-flight records
        # remain (next to the capped stranding detail rows)
        assert len(ledger._epochs) <= ledger.in_flight
        assert not ledger._key_epoch
        # admission order is kept as targets, not intervals
        assert len(session._admitted_log) == session.counts["admitted"]
        assert all(type(target) is int for target in session._admitted_log)
        assert session.reference_match(cluster.detections)
