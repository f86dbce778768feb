"""Unit tests: the offline ground-truth oracles."""

from repro.detect import (
    enumerate_solution_sets,
    holds_definitely,
    lattice_definitely,
    replay_centralized,
)
from repro.detect.offline import replay_hierarchical
from repro.intervals import overlap, possibly
from repro.topology import SpanningTree
from repro.workload.scenarios import (
    ScriptedExecution,
    figure2_execution,
    figure3_execution,
)

from ..conftest import random_execution, random_parent_map


class TestBruteForce:
    def test_enumerates_exactly_the_overlapping_combos(self):
        by_proc = figure2_execution().intervals()
        found = list(enumerate_solution_sets(by_proc))
        assert len(found) == 1
        assert {(iv.owner, iv.seq) for iv in found[0]} == {
            (0, 0), (1, 1), (2, 0), (3, 0),
        }

    def test_empty_pool_means_no_solution(self):
        ex = ScriptedExecution(2)
        ex.set_pred(0, True)
        ex.set_pred(0, False)
        # P1 never raises its predicate.
        ex.internal(1)
        assert not holds_definitely(ex.trace.all_intervals())
        assert not lattice_definitely(ex.trace)


class TestLattice:
    def test_trivial_single_process(self):
        ex = ScriptedExecution(1)
        ex.set_pred(0, True)
        ex.set_pred(0, False)
        assert lattice_definitely(ex.trace)

    def test_never_true_predicate(self):
        ex = ScriptedExecution(2)
        ex.internal(0)
        ex.internal(1)
        assert not lattice_definitely(ex.trace)

    def test_initially_true_predicate_counts(self):
        ex = ScriptedExecution(2, initial_predicate=[True, True])
        ex.internal(0)
        assert lattice_definitely(ex.trace)

    def test_concurrent_intervals_possibly_not_definitely(self):
        ex = ScriptedExecution(2)
        ex.set_pred(0, True)
        ex.set_pred(0, False)
        ex.set_pred(1, True)
        ex.set_pred(1, False)
        # No messages: the intervals are concurrent, so Eq. (1) holds
        # but no observation is forced through a Φ-state.
        assert possibly(ex.trace.all_intervals()[0] + ex.trace.all_intervals()[1])
        assert not lattice_definitely(ex.trace)

    def test_figures_agree(self):
        assert lattice_definitely(figure2_execution().trace)
        assert lattice_definitely(figure3_execution().trace)


class TestOracleAgreement:
    """Differential testing across all oracles on random executions."""

    def test_brute_vs_lattice_definitely(self, rng):
        for _ in range(60):
            ex = random_execution(int(rng.integers(2, 4)), int(rng.integers(4, 18)), rng)
            brute = holds_definitely(ex.trace.all_intervals())
            lattice = lattice_definitely(ex.trace)
            # Event-based conditions are sound w.r.t. state semantics.
            assert not (brute and not lattice)

    def test_replay_centralized_first_detection_iff_definitely(self, rng):
        for _ in range(60):
            ex = random_execution(int(rng.integers(2, 5)), int(rng.integers(4, 30)), rng)
            solutions = replay_centralized(ex.trace, sink=0)
            assert (len(solutions) > 0) == holds_definitely(ex.trace.all_intervals())

    def test_hierarchical_replay_matches_centralized_count(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 5))
            ex = random_execution(n, int(rng.integers(4, 30)), rng)
            tree = SpanningTree(0, random_parent_map(n, rng))
            emissions = replay_hierarchical(ex.trace, tree)
            assert set(emissions) == set(range(n))  # one entry per tree node
            root_detections = emissions[0]
            assert len(root_detections) == len(replay_centralized(ex.trace, sink=0))
            # Safety: every detection's concrete set satisfies Eq. (2).
            for emission in root_detections:
                leaves = list(emission.aggregate.concrete_leaves())
                assert overlap(leaves)
                assert {iv.owner for iv in leaves} == set(range(n))
