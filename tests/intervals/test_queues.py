"""Unit tests: interval queues and the non-FIFO reorder buffer."""

import pytest

from repro.intervals import IntervalQueue, ReorderBuffer

from ..conftest import make_interval


def iv(seq: int):
    return make_interval(0, seq, [seq + 1, 0], [seq + 2, 0])


class TestIntervalQueue:
    def test_fifo_order(self):
        q = IntervalQueue()
        q.enqueue(iv(0))
        q.enqueue(iv(1))
        assert q.head.seq == 0
        assert q.dequeue().seq == 0
        assert q.head.seq == 1

    def test_rejects_out_of_order_sequence(self):
        q = IntervalQueue()
        q.enqueue(iv(1))
        with pytest.raises(ValueError):
            q.enqueue(iv(0))
        with pytest.raises(ValueError):
            q.enqueue(iv(1))  # duplicate

    def test_gaps_in_sequence_allowed(self):
        # Sequence numbers must increase but need not be consecutive
        # (pruned intermediate aggregates never reach the parent).
        q = IntervalQueue()
        q.enqueue(iv(0))
        q.enqueue(iv(7))
        assert len(q) == 2

    def test_peak_and_total_accounting(self):
        q = IntervalQueue()
        for i in range(3):
            q.enqueue(iv(i))
        q.dequeue()
        q.dequeue()
        q.enqueue(iv(9))
        assert q.peak_size == 3
        assert q.total_enqueued == 4
        assert len(q) == 2

    def test_truthiness_and_iter(self):
        q = IntervalQueue()
        assert not q
        q.enqueue(iv(0))
        assert q
        assert [x.seq for x in q] == [0]


class TestReorderBuffer:
    def test_in_order_passthrough(self):
        buf = ReorderBuffer()
        assert buf.push(0, "a") == ["a"]
        assert buf.push(1, "b") == ["b"]

    def test_reorders_out_of_order_arrivals(self):
        buf = ReorderBuffer()
        assert buf.push(2, "c") == []
        assert buf.push(0, "a") == ["a"]
        assert buf.pending_count == 1
        assert buf.push(1, "b") == ["b", "c"]
        assert buf.pending_count == 0

    def test_rejects_duplicates_and_stale(self):
        buf = ReorderBuffer()
        buf.push(0, "a")
        with pytest.raises(ValueError):
            buf.push(0, "again")
        buf.push(2, "c")
        with pytest.raises(ValueError):
            buf.push(2, "dup-pending")

    def test_stale_and_duplicate_errors_are_distinct(self):
        # Regression: an already-delivered seq used to be reported as a
        # "duplicate", pointing debugging at the wrong failure mode (a
        # retransmission looks nothing like a sender seq collision).
        buf = ReorderBuffer()
        buf.push(0, "a")
        buf.push(1, "b")
        with pytest.raises(ValueError, match="stale transport seq 0"):
            buf.push(0, "retransmission")
        with pytest.raises(ValueError, match="next expected is 2"):
            buf.push(1, "retransmission")
        buf.push(3, "d")  # buffered, not yet deliverable
        with pytest.raises(ValueError, match="duplicate transport seq 3"):
            buf.push(3, "collision")

    def test_start_seq_offset(self):
        buf = ReorderBuffer(start_seq=5)
        assert buf.push(6, "b") == []
        assert buf.push(5, "a") == ["a", "b"]
