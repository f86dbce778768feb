"""LoadSession end to end: interval supply, accounting, and the live
loopback cluster integration (``ClusterSpec(load=...)``)."""

import asyncio
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load import (
    IntervalSupply,
    LoadSession,
    LoadSpec,
    solution_keyset,
)
from repro.monitor import HeartbeatSpec
from repro.net import ClusterSpec, LocalCluster, simulation_script
from repro.sim.kernel import Simulator
from repro.topology.spanning_tree import SpanningTree


def run(coro, timeout=90):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


def small_streams(seed=1):
    tree = SpanningTree.regular(2, 2)
    return simulation_script(tree, seed=seed, epochs=3).streams


class TestLoadSpec:
    def test_defaults_validate(self):
        spec = LoadSpec()
        assert spec.resolved_resume == 32

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            LoadSpec(mode="hybrid")
        with pytest.raises(ValueError):
            LoadSpec(arrival="pareto")
        with pytest.raises(ValueError):
            LoadSpec(dispatch="random")
        for policy in ("queue", "defer"):
            with pytest.raises(ValueError, match="policy must be 'shed'"):
                LoadSpec(policy=policy)
        with pytest.raises(ValueError):
            LoadSpec(resume_outstanding=100, max_outstanding=10)

    def test_arrival_kinds_cover_cli_surface(self):
        # Poisson is the one arrival model a spec can name; the retired
        # uniform and bursty models are refused by name
        assert LoadSpec().arrival == "poisson"
        for arrival in ("uniform", "bursty"):
            with pytest.raises(ValueError, match="arrival must be 'poisson'"):
                LoadSpec(arrival=arrival)

    def test_arrival_validation(self):
        with pytest.raises(ValueError, match="arrival must be 'poisson'"):
            LoadSpec(arrival="pareto")
        for rate in (0.0, -1.0):
            with pytest.raises(ValueError, match="rate must be positive"):
                LoadSpec(rate=rate)

    def test_explicit_resume_wins(self):
        assert LoadSpec(max_outstanding=20, resume_outstanding=3).resolved_resume == 3


class TestIntervalSupply:
    def test_cycle_zero_returns_originals(self):
        streams = small_streams()
        supply = IntervalSupply(streams)
        pid = supply.pids[0]
        first = supply.next_for(pid)
        assert first is streams[pid][0]

    def test_cycling_shifts_clocks_and_seqs(self):
        streams = small_streams()
        supply = IntervalSupply(streams)
        pid = supply.pids[0]
        base = list(streams[pid])
        originals = [supply.next_for(pid) for _ in range(len(base))]
        recycled = [supply.next_for(pid) for _ in range(len(base))]
        assert [iv.seq for iv in originals] == [iv.seq for iv in base]
        stride = max(iv.seq for iv in base) + 1
        assert [iv.seq for iv in recycled] == [iv.seq + stride for iv in base]
        # cycle 1 shifts every vc by global_max_hi + 1 componentwise, so
        # every recycled lo strictly dominates every cycle-0 hi: cross-
        # cycle pairs are ordered, never falsely overlapping
        global_hi = np.max(
            np.stack([iv.hi for s in streams.values() for iv in s]), axis=0
        ).astype(np.int64)
        shift = global_hi + 1
        for orig, cyc in zip(base, recycled):
            assert (np.asarray(cyc.lo) == np.asarray(orig.lo) + shift).all()
            assert (np.asarray(cyc.hi) == np.asarray(orig.hi) + shift).all()
            assert (np.asarray(cyc.lo) > global_hi).all()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(1, 4), pick=st.integers(0, 6), cycles=st.integers(3, 5))
    def test_interval_at_is_the_kth_next_for(self, seed, pick, cycles):
        """The reference replay regenerates admitted intervals from
        ``interval_at``; it must match what ``next_for`` handed out,
        across several cycles of the script."""
        streams = small_streams(seed)
        supply = IntervalSupply(streams)
        pid = supply.pids[pick % len(supply.pids)]
        handed = [supply.next_for(pid) for _ in range(cycles * len(streams[pid]))]
        fresh = IntervalSupply(streams)
        for k, interval in enumerate(handed):
            again = fresh.interval_at(pid, k)
            assert again == interval and again.members == interval.members
        # pure: asking never advances the stream
        assert fresh.next_for(pid) is streams[pid][0]

    def test_rejects_empty_streams(self):
        with pytest.raises(ValueError):
            IntervalSupply({})
        with pytest.raises(ValueError):
            IntervalSupply({0: []})


class TestSessionGuards:
    def test_epoch_stride_guard(self):
        streams = small_streams()
        sim = Simulator(seed=1)
        with pytest.raises(ValueError, match="epoch stride"):
            LoadSession(
                sim,
                LoadSpec(max_outstanding=len(streams) - 1),
                streams,
                lambda pid, iv: None,
                registry=sim.telemetry.registry,
            )

    def test_weights_must_match_pid_count(self):
        streams = small_streams()
        sim = Simulator(seed=1)
        with pytest.raises(ValueError, match="one entry per process"):
            LoadSession(
                sim,
                LoadSpec(dispatch="weighted", weights=(1.0, 2.0)),
                streams,
                lambda pid, iv: None,
                registry=sim.telemetry.registry,
            )


class TestAccounting:
    def test_no_target_sheds_every_offer(self):
        streams = small_streams()
        sim = Simulator(seed=1)
        session = LoadSession(
            sim,
            LoadSpec(rate=500.0, total_offers=20, start_delay=0.0),
            streams,
            lambda pid, iv: None,
            registry=sim.telemetry.registry,
            alive=lambda pid: False,
        )
        session.start()
        while not session.done and sim.step():
            pass
        session.stop()
        summary = session.summary()
        assert summary["offered"] == 20
        assert summary["shed"] == 20
        assert summary["shed_by_reason"] == {"no-target": 20}
        assert summary["admitted"] == 0
        assert summary["offered"] == summary["admitted"] + summary["shed"]
        # whole-shed epochs expire — nothing admitted, nothing stranded
        epochs = summary["epochs"]
        assert epochs["admitted_epochs"] == 0
        assert epochs["stranded"] == 0
        assert epochs["expired"] == epochs["offered_epochs"]
        assert epochs["in_flight"] == 0

    def test_shed_reason_costs_one_congestion_probe_per_offer(self):
        # node 1's uplink is backed up throughout: its offers shed as
        # "congested", and intake asks the probe once per routed offer
        streams = small_streams()
        sim = Simulator(seed=1)
        probes = []

        def probe(pid):
            probes.append(pid)
            return pid == 1

        session = LoadSession(
            sim,
            LoadSpec(rate=500.0, total_offers=30, start_delay=0.0),
            streams,
            lambda pid, iv: None,
            registry=sim.telemetry.registry,
            congestion_probe=probe,
        )
        session.start()
        while sim.now < 1.0 and sim.step():
            pass
        session.stop()
        summary = session.summary()
        assert summary["offered"] == 30 == len(probes)
        assert summary["shed_by_reason"] == {"congested": probes.count(1)}
        assert summary["shed"] == probes.count(1) > 0


class TestLiveCluster:
    def _spec(self, **load_overrides):
        load = replace(
            LoadSpec(
                mode="closed",
                users=7,
                think_time=0.01,
                total_offers=35,
                max_outstanding=12,
                resume_outstanding=6,
                pending_timeout=2.0,
                start_delay=0.05,
            ),
            **load_overrides,
        )
        return ClusterSpec(
            nodes=7,
            degree=2,
            seed=1,
            transport="loopback",
            heartbeat=HeartbeatSpec(period=0.1, loss_tolerance=10),
            load=load,
        )

    def test_closed_loop_drains_and_matches_reference(self):
        spec = self._spec()

        async def scenario():
            cluster = LocalCluster(spec)
            await cluster.start()
            await cluster.run(until_load_drained=True, timeout=60)
            await cluster.stop()
            return cluster

        cluster = run(scenario())
        session = cluster.load_session
        assert session.done
        summary = cluster.load_summary()
        assert summary["mode"] == "closed"
        assert summary["offered"] == summary["admitted"] + summary["shed"]
        assert summary["completed"] > 0
        assert summary["outstanding"] == 0
        # the epoch ledger drained alongside: every admitted epoch
        # reached a terminal state
        epochs = summary["epochs"]
        assert epochs["in_flight"] == 0
        assert epochs["admitted_epochs"] == (
            epochs["solved"] + epochs["stranded"] + epochs["in_flight"]
        )
        # one user per process and 35 = 5 x 7 offers: every epoch is
        # whole, so closed-loop load solves all of them
        assert epochs["solved"] > 0
        assert epochs["stranded"] == 0
        # the acceptance property: live detections == centralized replay
        # of exactly the admitted subset
        assert session.reference_match(cluster.detections)

    def test_closed_loop_below_the_stride_is_refused(self):
        # One offer per user at a time: with 6 users on 7 processes no
        # epoch could complete before pending_timeout abandons it, so
        # the spec itself is refused, before any cluster is built.
        with pytest.raises(ValueError, match=r"load\.users \(6\).*closed-loop users"):
            self._spec(users=6)

    def test_run_until_load_drained_requires_spec(self):
        spec = ClusterSpec(
            nodes=3,
            degree=2,
            seed=1,
            transport="loopback",
            heartbeat=HeartbeatSpec(period=0.1, loss_tolerance=10),
        )

        async def scenario():
            cluster = LocalCluster(spec)
            await cluster.start()
            with pytest.raises(RuntimeError):
                await cluster.run(until_load_drained=True, timeout=5)
            await cluster.stop()

        run(scenario())


class TestSolutionKeyset:
    def test_keysets_identify_consumed_intervals(self):
        streams = small_streams()
        from repro.detect.centralized import CentralizedSinkCore

        pids = sorted(streams)
        sink = CentralizedSinkCore(pids[0], pids)
        solutions = []
        for epoch in range(2):
            for pid in pids:
                solutions.extend(sink.offer(pid, streams[pid][epoch]))
        assert solutions
        keysets = [solution_keyset(s) for s in solutions]
        assert all(len(ks) == len(pids) for ks in keysets)
        assert len(set(keysets)) == len(keysets)
