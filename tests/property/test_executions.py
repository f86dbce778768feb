"""Property-based differential testing on random executions.

The strongest guarantees in the suite: for *any* causally valid
execution and *any* spanning tree over its processes,

* every solution the hierarchical detector reports — at any level —
  unfolds to a concrete interval set satisfying Eq. (2) (safety),
* the root detects exactly as many occurrences as the centralized
  repeated-detection reference [12] (completeness/equivalence),
* a detection exists iff brute-force ground truth says Definitely(Φ)
  holds (first-occurrence correctness),
* successive aggregates from one node are ``succ``-ordered (Theorem 2),
* the one-shot mode [7] returns exactly the repeated core's first
  occurrence and nothing after it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import vc_le, vc_less
from repro.detect import (
    RepeatedDetectionCore,
    holds_definitely,
    lattice_definitely,
    replay_centralized,
)
from repro.detect.hierarchical import EmissionKind
from repro.detect.offline import replay_hierarchical
from repro.intervals import overlap

from .strategies import executions, trees

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def execution_and_tree(draw):
    ex = draw(executions())
    tree = draw(trees(ex.n))
    return ex, tree


class TestHierarchicalCorrectness:
    @SETTINGS
    @given(execution_and_tree())
    def test_safety_every_solution_overlaps(self, ex_tree):
        ex, tree = ex_tree
        emissions = replay_hierarchical(ex.trace, tree)
        for pid, emitted in emissions.items():
            for emission in emitted:
                leaves = list(emission.aggregate.concrete_leaves())
                assert overlap(leaves)
                # The solution covers exactly the subtree's processes.
                assert {iv.owner for iv in leaves} == set(tree.subtree_nodes(pid))

    @SETTINGS
    @given(execution_and_tree())
    def test_root_count_equals_centralized_reference(self, ex_tree):
        ex, tree = ex_tree
        emissions = replay_hierarchical(ex.trace, tree)
        reference = replay_centralized(ex.trace, sink=0)
        assert len(emissions[tree.root]) == len(reference)

    @SETTINGS
    @given(execution_and_tree())
    def test_detects_iff_definitely_holds(self, ex_tree):
        ex, tree = ex_tree
        emissions = replay_hierarchical(ex.trace, tree)
        assert bool(emissions[tree.root]) == holds_definitely(ex.trace.all_intervals())

    @SETTINGS
    @given(execution_and_tree())
    def test_theorem2_aggregates_succ_ordered(self, ex_tree):
        ex, tree = ex_tree
        emissions = replay_hierarchical(ex.trace, tree)
        for pid, emitted in emissions.items():
            aggs = [e.aggregate for e in emitted]
            for a, b in zip(aggs, aggs[1:]):
                assert vc_le(a.lo, a.hi)
                assert vc_less(a.hi, b.lo)  # max(⊓X) < min(⊓X')

    @SETTINGS
    @given(execution_and_tree())
    def test_emission_kinds_match_position(self, ex_tree):
        ex, tree = ex_tree
        emissions = replay_hierarchical(ex.trace, tree)
        for pid, emitted in emissions.items():
            expected = (
                EmissionKind.DETECTION if pid == tree.root else EmissionKind.REPORT
            )
            assert all(e.kind is expected for e in emitted)


class TestOracleSoundness:
    @settings(max_examples=40, deadline=None)
    @given(executions(max_n=3, max_steps=16))
    def test_eq2_sound_for_lattice_definitely(self, ex):
        if holds_definitely(ex.trace.all_intervals()):
            assert lattice_definitely(ex.trace)

    @settings(max_examples=40, deadline=None)
    @given(executions(max_n=3, max_steps=16))
    def test_centralized_first_detection_iff_brute(self, ex):
        solutions = replay_centralized(ex.trace, sink=0)
        assert bool(solutions) == holds_definitely(ex.trace.all_intervals())


class TestOneShotEquivalence:
    """The one-shot detector [7] — the repeated core with
    ``repeated=False`` — finds exactly the repeated core's first
    occurrence on any execution, then ignores every later offer."""

    @SETTINGS
    @given(executions())
    def test_first_occurrence_identical(self, ex):
        one_shot = RepeatedDetectionCore(range(ex.n), repeated=False)
        repeated = RepeatedDetectionCore(range(ex.n))
        first, reference = [], []
        for interval in ex.trace.intervals_in_completion_order():
            was_halted = one_shot.halted
            found = one_shot.offer(interval.owner, interval)
            assert not (was_halted and found)
            first.extend(found)
            reference.extend(repeated.offer(interval.owner, interval))
        assert [s.heads for s in first] == [s.heads for s in reference[:1]]
        assert one_shot.halted == bool(first)
        assert bool(first) == holds_definitely(ex.trace.all_intervals())

    @SETTINGS
    @given(executions(max_n=3))
    def test_one_shot_detection_is_sound(self, ex):
        one_shot = RepeatedDetectionCore(range(ex.n), repeated=False)
        first = []
        for interval in ex.trace.intervals_in_completion_order():
            first.extend(one_shot.offer(interval.owner, interval))
        for solution in first:
            assert overlap(solution.intervals)
