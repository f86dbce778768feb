"""Unit tests: the one-hop delay models."""

import numpy as np

from repro.detect import replay_centralized
from repro.sim import (
    distance_delay,
    exponential_delay,
    lognormal_delay,
    uniform_delay,
)
from repro.topology import SpanningTree
from repro.workload import EpochConfig


RNG = np.random.default_rng(0)


class TestDelayModels:
    def test_uniform_bounds(self):
        model = uniform_delay(0.5, 1.5)
        samples = [model(RNG, 0, 1) for _ in range(200)]
        assert all(0.5 <= s < 1.5 for s in samples)

    def test_exponential_mean(self):
        model = exponential_delay(2.0)
        samples = [model(RNG, 0, 1) for _ in range(4000)]
        assert 1.8 < np.mean(samples) < 2.2

    def test_lognormal_median_and_tail(self):
        model = lognormal_delay(median=1.0, sigma=0.5)
        samples = np.array([model(RNG, 0, 1) for _ in range(4000)])
        assert 0.9 < np.median(samples) < 1.1
        assert samples.max() > 3.0  # heavy tail

    def test_distance_delay_scales_with_distance(self):
        positions = {0: (0.0, 0.0), 1: (0.0, 1.0), 2: (0.0, 3.0)}
        model = distance_delay(positions, propagation=1.0, jitter=0.0)
        assert model(RNG, 0, 1) == 1.0
        assert model(RNG, 0, 2) == 3.0

    def test_distance_delay_fallback_without_position(self):
        model = distance_delay({0: (0.0, 0.0)}, propagation=2.0, jitter=0.0)
        assert model(RNG, 0, 99) == 2.0


class TestDetectionUnderHeavyTails:
    def test_hierarchical_correct_under_lognormal_reordering(self):
        """Heavy-tailed delays stress the transport reorder buffers;
        detections must still match the offline reference exactly."""
        from repro.detect.roles import HierarchicalRole
        from repro.sim import ExecutionTrace, Network, Simulator
        from repro.workload.generator import EpochProcess, EpochWorkload

        tree = SpanningTree.regular(2, 3)
        sim = Simulator(seed=9)
        net = Network(sim, tree.as_graph(), lognormal_delay(median=1.0, sigma=0.9))
        trace = ExecutionTrace(tree.n)
        roles = {
            pid: HierarchicalRole(tree.parent_of(pid), tree.children(pid))
            for pid in tree.nodes
        }
        processes = {
            pid: EpochProcess(pid, sim, net, trace, roles[pid], tree)
            for pid in tree.nodes
        }
        config = EpochConfig(epochs=8, sync_prob=0.7, epoch_length=40.0)
        workload = EpochWorkload(sim, processes, tree, config, max_delay=6.0)
        workload.install()
        for p in processes.values():
            p.start()
        sim.run(until=workload.end_time + 100.0)
        reference = replay_centralized(trace, sink=0)
        assert len(roles[0].detections) == len(reference)
