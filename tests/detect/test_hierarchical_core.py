"""Unit tests: HierarchicalNodeCore (Algorithm 1 per tree node)."""

import pytest

from repro.detect import EmissionKind, HierarchicalNodeCore
from repro.intervals import overlap
from repro.net import FrameCodec
from repro.sim.messages import IntervalReport
from repro.workload.scenarios import figure2_execution, figure3_execution

from ..conftest import make_interval


class TestLeafBehaviour:
    def test_leaf_forwards_every_local_interval(self):
        leaf = HierarchicalNodeCore(node_id=4)
        emissions = []
        for seq in range(3):
            emissions += leaf.offer_local(
                make_interval(4, seq, [0, 0, 0, 0, seq + 1], [0, 0, 0, 0, seq + 2])
            )
        assert len(emissions) == 3
        assert all(e.kind is EmissionKind.REPORT for e in emissions)
        # ⊓ of a singleton is the interval itself: forwarded, not wrapped.
        for seq, e in enumerate(emissions):
            (local,) = e.solution.intervals
            assert e.aggregate is local
            assert (local.seq, local.parts) == (seq, ())

    def test_leaf_aggregate_seq_increases(self):
        leaf = HierarchicalNodeCore(node_id=0)
        seqs = []
        for seq in range(3):
            (emission,) = leaf.offer_local(make_interval(0, seq, [3 * seq + 1], [3 * seq + 2]))
            seqs.append(emission.aggregate.seq)
        assert seqs == [0, 1, 2]


class TestInteriorBehaviour:
    def test_figure2_p2_emits_two_aggregates(self):
        ivs = figure2_execution().intervals()
        x1, x2, x3 = ivs[0][0], ivs[1][0], ivs[1][1]
        p2 = HierarchicalNodeCore(node_id=1, children=[0])
        assert p2.offer_local(x2) == []
        assert p2.offer_local(x3) == []
        emissions = p2.offer_child(0, x1)
        assert len(emissions) == 2
        assert all(e.kind is EmissionKind.REPORT for e in emissions)
        first, second = emissions
        assert set(first.solution.heads.values()) == {x1, x2}
        assert set(second.solution.heads.values()) == {x1, x3}
        assert first.aggregate.members == frozenset({0, 1})
        # Theorem 2: successive aggregates from one node are ordered.
        from repro.clocks import vc_less

        assert vc_less(first.aggregate.hi, second.aggregate.lo)

    def test_root_reports_detection_kind(self):
        root = HierarchicalNodeCore(node_id=0, is_root=True)
        (emission,) = root.offer_local(make_interval(0, 0, [1], [2]))
        assert emission.kind is EmissionKind.DETECTION

    def test_children_must_be_distinct(self):
        with pytest.raises(ValueError):
            HierarchicalNodeCore(node_id=1, children=[1])
        with pytest.raises(ValueError):
            HierarchicalNodeCore(node_id=1, children=[2, 2])


class TestTwoLevelPipeline:
    def test_full_figure3_hierarchy(self):
        """Chain the cores by hand: two interior nodes aggregate pairs,
        the root detects over the aggregates (Lemma 1 in action)."""
        ivs = figure3_execution().intervals()
        x1, y1, x2, y2 = (ivs[p][0] for p in range(4))
        # Tree: root 0 with children 1, 2; node 1 covers {0,1}'s
        # intervals via its child 1... keep it simple: root consumes
        # aggregates produced by two offline interior cores.
        left = HierarchicalNodeCore(node_id=1, children=[0])
        right = HierarchicalNodeCore(node_id=3, children=[2])
        root = HierarchicalNodeCore(node_id=9, children=[1, 3], is_root=True)

        out_left = left.offer_local(y1) + left.offer_child(0, x1)
        out_right = right.offer_local(y2) + right.offer_child(2, x2)
        assert len(out_left) == 1 and len(out_right) == 1

        # Root's own local predicate: give it a trivially-true interval
        # covering the epoch (reuse x1's bounds is wrong — use its own).
        emissions = []
        emissions += root.offer_child(1, out_left[0].aggregate)
        emissions += root.offer_child(3, out_right[0].aggregate)
        assert emissions == []  # blocked on root's local queue
        # Feed the root a local interval that overlaps all: x1's bounds
        # overlap everything in figure 3, so they stand in for a
        # root-local interval without building a 5th process.
        root_iv = make_interval(9, 0, x1.lo.tolist(), x1.hi.tolist())
        emissions = root.offer_local(root_iv)
        assert len(emissions) == 1
        detection = emissions[0]
        assert detection.kind is EmissionKind.DETECTION
        leaves = set(detection.aggregate.concrete_leaves())
        assert {x1, y1, x2, y2} <= leaves
        assert overlap([iv for iv in leaves if iv is not root_iv])


class TestChildManagement:
    def test_remove_child_unblocks(self):
        ivs = figure3_execution().intervals()
        x1, y1 = ivs[0][0], ivs[1][0]
        node = HierarchicalNodeCore(node_id=7, children=[0, 1, 2], is_root=True)
        node.offer_child(0, x1)
        node.offer_child(1, y1)
        node.offer_local(make_interval(7, 0, x1.lo.tolist(), x1.hi.tolist()))
        emissions = node.remove_child(2)
        assert len(emissions) == 1
        assert emissions[0].kind is EmissionKind.DETECTION

    def test_add_child_creates_empty_queue(self):
        node = HierarchicalNodeCore(node_id=0, is_root=True)
        node.add_child(5)
        assert node.offer_local(make_interval(0, 0, [1], [2])) == []
        assert 5 in node.children


def _decoded(interval):
    """*interval* as the parent reads it off the wire."""
    report = IntervalReport(origin=1, dest=0, interval=interval, transport_seq=0)
    return FrameCodec().decode(FrameCodec().encode(report)).interval


class TestReportShape:
    def test_decoded_leaf_report_is_a_concrete_interval(self):
        leaf = HierarchicalNodeCore(node_id=1)
        local = make_interval(1, 0, [0, 1, 0], [0, 2, 0])
        (emission,) = leaf.offer_local(local)
        decoded = _decoded(emission.aggregate)
        assert decoded.parts == ()
        assert not decoded.is_aggregated
        assert decoded.key() == local.key()

    def test_internal_report_parts_are_its_solution_heads(self):
        node = HierarchicalNodeCore(node_id=1, children=[2])
        node.offer_local(make_interval(1, 0, [0, 1, 0], [0, 3, 3]))
        (emission,) = node.offer_child(2, make_interval(2, 0, [0, 2, 1], [0, 4, 2]))
        heads = tuple(emission.solution.intervals)
        assert len(heads) == 2
        assert emission.aggregate.parts == heads
        decoded = _decoded(emission.aggregate)
        assert [p.key() for p in decoded.parts] == [h.key() for h in heads]

    def test_seqs_increase_when_a_leaf_gains_then_loses_a_child(self):
        node = HierarchicalNodeCore(node_id=0)
        out = node.offer_local(make_interval(0, 0, [1, 0], [2, 0]))
        out += node.offer_local(make_interval(0, 1, [3, 0], [4, 0]))
        node.add_child(1)
        # One long local interval overlaps two short child intervals:
        # two aggregates, so the report count runs ahead of local seqs.
        out += node.offer_local(make_interval(0, 2, [5, 1], [20, 6]))
        out += node.offer_child(1, make_interval(1, 0, [5, 2], [6, 3]))
        out += node.offer_child(1, make_interval(1, 1, [6, 4], [7, 5]))
        # Leaf again: local seqs 2 and 3 are not above the last report.
        out += node.remove_child(1)
        out += node.offer_local(make_interval(0, 3, [21, 6], [22, 6]))
        seqs = [e.aggregate.seq for e in out]
        assert seqs == [0, 1, 2, 3, 4, 5]
        parts = [[(p.owner, p.seq) for p in e.aggregate.parts] for e in out]
        assert parts == [
            [],
            [],
            [(0, 2), (1, 0)],
            [(0, 2), (1, 1)],
            [(0, 2)],  # the wrapped singleton, numbered after report 3
            [(0, 3)],
        ]
        # The parent's child queue accepts the whole sequence.
        parent = HierarchicalNodeCore(node_id=9, children=[0], is_root=True)
        for e in out:
            parent.offer_child(0, e.aggregate)
