"""Property-based tests of the wire protocol round-trip contract.

:mod:`repro.sim.wirepack` and :class:`repro.net.FrameCodec` promise the
same thing the JSON layer promises: every control-plane dataclass comes
back identical, for any field values the runtime can produce — 2**62
timestamp components, empty and all-zero vectors, negative ids,
aggregation provenance, and per-channel compression reference chains
(including the fresh-codec re-encode a transport performs on
reconnect)."""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.encoding import channel_reference
from repro.intervals import Interval
from repro.net import FrameCodec
from repro.sim.messages import (
    AppMessage,
    AttachAccept,
    AttachRequest,
    DetachNotice,
    Heartbeat,
    IntervalReport,
)
from repro.sim.wirepack import (
    pack_message,
    read_svarint,
    read_uvarint,
    unpack_message,
    write_svarint,
    write_uvarint,
)

from ..clocks.test_encoding import _built_best_encoding

SETTINGS = settings(max_examples=80, deadline=None)

#: Vector-clock components up to 2**62: far past int32, still inside
#: the svarint/int64 envelope the schemes promise to carry.
COMPONENT = st.integers(0, 2**62)
PROCESS_ID = st.integers(-(2**31), 2**31)


@st.composite
def timestamp_pairs(draw, n):
    """(lo, hi) with vc_le(lo, hi) by construction; n may be zero."""
    lo = np.array(draw(st.lists(COMPONENT, min_size=n, max_size=n)), dtype=np.int64)
    span = np.array(
        draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return lo, lo + span


@st.composite
def intervals(draw, with_parts=True):
    n = draw(st.integers(0, 8))
    lo, hi = draw(timestamp_pairs(n))
    members = frozenset(draw(st.sets(PROCESS_ID, max_size=4)))
    parts = ()
    if with_parts and draw(st.booleans()):
        part_lo, part_hi = draw(timestamp_pairs(n))
        parts = (
            Interval(
                owner=draw(PROCESS_ID),
                seq=draw(st.integers(0, 2**32)),
                lo=part_lo,
                hi=part_hi,
            ),
        )
    return Interval(
        owner=draw(PROCESS_ID),
        seq=draw(st.integers(0, 2**32)),
        lo=lo,
        hi=hi,
        members=members,
        parts=parts,
    )


@st.composite
def interval_reports(draw):
    return IntervalReport(
        origin=draw(PROCESS_ID),
        dest=draw(PROCESS_ID),
        interval=draw(intervals()),
        transport_seq=draw(st.integers(0, 2**48)),
    )


JSON_PAYLOADS = st.one_of(
    st.text(max_size=32),
    st.integers(-(2**53), 2**53),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-100, 100), max_size=4),
    st.dictionaries(st.text(max_size=8), st.integers(-100, 100), max_size=3),
)


@st.composite
def app_messages(draw):
    piggyback = np.array(
        draw(st.lists(COMPONENT, max_size=8)), dtype=np.int64
    )
    return AppMessage(payload=draw(JSON_PAYLOADS), piggyback=piggyback)


MESSAGES = st.one_of(
    interval_reports(),
    app_messages(),
    st.builds(Heartbeat, sender=PROCESS_ID),
    st.builds(
        AttachRequest,
        child=PROCESS_ID,
        subtree=st.sets(PROCESS_ID, max_size=6).map(frozenset),
    ),
    st.builds(AttachAccept, parent=PROCESS_ID),
    st.builds(DetachNotice, child=PROCESS_ID),
)


def assert_intervals_equal(a: Interval, b: Interval) -> None:
    # Interval.__eq__ ignores members/parts; the wire must not.
    assert a == b
    assert a.members == b.members
    assert len(a.parts) == len(b.parts)
    for pa, pb in zip(a.parts, b.parts):
        assert_intervals_equal(pa, pb)


def assert_messages_equal(a, b) -> None:
    assert type(a) is type(b)
    if isinstance(a, AppMessage):
        assert a.payload == b.payload
        assert np.array_equal(a.piggyback, b.piggyback)
    elif isinstance(a, IntervalReport):
        assert (a.origin, a.dest, a.transport_seq) == (
            b.origin,
            b.dest,
            b.transport_seq,
        )
        assert_intervals_equal(a.interval, b.interval)
    else:
        assert a == b


class TestVarints:
    @SETTINGS
    @given(st.integers(0, 2**70 - 1))  # 10 LEB128 bytes carry 70 bits
    def test_uvarint_round_trips(self, value):
        buf = bytearray()
        write_uvarint(buf, value)
        got, offset = read_uvarint(bytes(buf), 0)
        assert got == value and offset == len(buf)

    @SETTINGS
    @given(st.integers(-(2**62), 2**62))
    def test_svarint_round_trips(self, value):
        buf = bytearray()
        write_svarint(buf, value)
        got, offset = read_svarint(bytes(buf), 0)
        assert got == value and offset == len(buf)

    @SETTINGS
    @given(st.integers(0, 2**62))
    def test_truncated_uvarint_raises(self, value):
        buf = bytearray()
        write_uvarint(buf, value)
        if len(buf) > 1:
            import pytest

            with pytest.raises(ValueError):
                read_uvarint(bytes(buf[:-1]), 0)


class TestPackedBodies:
    """pack_message / unpack_message, reference-free (the bodies a
    fresh codec or nested provenance produces)."""

    @SETTINGS
    @given(MESSAGES)
    def test_every_message_round_trips(self, message):
        tag, body = pack_message(message)
        out, offset = unpack_message(tag, body)
        assert offset == len(body)
        assert_messages_equal(message, out)

    @SETTINGS
    @given(interval_reports())
    def test_lean_packing_strips_parts_only(self, report):
        tag, body = pack_message(report, include_parts=False)
        out, _ = unpack_message(tag, body)
        assert out.interval.parts == ()
        assert out.interval == report.interval
        assert out.interval.members == report.interval.members


class TestCodecRoundTrip:
    @SETTINGS
    @given(MESSAGES, st.sampled_from(["json", "binary"]))
    def test_every_message_round_trips(self, message, wire):
        enc = FrameCodec(wire=wire)
        out = FrameCodec().decode(enc.encode(message))
        assert_messages_equal(message, out)

    @SETTINGS
    @given(MESSAGES, st.sampled_from(["json", "binary"]))
    def test_round_trip_is_wire_agnostic(self, message, wire):
        # The decoder's own wire= must not matter: frames self-describe.
        enc = FrameCodec(wire=wire)
        other = "binary" if wire == "json" else "json"
        out = FrameCodec(wire=other).decode(enc.encode(message))
        assert_messages_equal(message, out)


@st.composite
def report_streams(draw):
    """An ordered report stream on one channel: fixed n, clocks that
    advance by anything from nothing at all to 2**62 jumps."""
    n = draw(st.integers(1, 8))
    length = draw(st.integers(1, 10))
    clock = np.array(
        draw(st.lists(COMPONENT, min_size=n, max_size=n)), dtype=np.int64
    )
    reports = []
    for seq in range(length):
        step = np.array(
            draw(
                st.lists(
                    st.one_of(
                        st.integers(0, 3),
                        st.integers(0, 2**40),
                        st.just(2**61),
                    ),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.int64,
        )
        # Cap the accumulation at 2**62 so hi = clock + 1 stays far
        # from int64 overflow while still exercising huge deltas.
        clock = np.minimum(clock + step, 2**62)
        reports.append(
            IntervalReport(
                origin=1,
                dest=0,
                interval=Interval(owner=1, seq=seq, lo=clock.copy(), hi=clock + 1),
                transport_seq=seq,
            )
        )
    return reports


class TestReferenceChains:
    @SETTINGS
    @given(report_streams(), st.sampled_from(["json", "binary"]))
    def test_chained_references_stay_in_lockstep(self, reports, wire):
        enc, dec = FrameCodec(wire=wire), FrameCodec()
        for report in reports:
            out = dec.decode(enc.encode(report))
            assert_messages_equal(report, out)

    @SETTINGS
    @given(report_streams(), st.integers(0, 9), st.sampled_from(["json", "binary"]))
    def test_reconnect_reencode_resets_the_chain(self, reports, cut_raw, wire):
        # A transport reconnect builds a fresh codec pair and re-encodes
        # every unacked message: the new chain must round-trip no matter
        # where the old one was cut.
        cut = cut_raw % (len(reports) + 1)
        enc, dec = FrameCodec(wire=wire), FrameCodec()
        for report in reports[:cut]:
            assert_messages_equal(report, dec.decode(enc.encode(report)))
        enc, dec = FrameCodec(wire=wire), FrameCodec()  # reconnect
        for report in reports[cut:]:
            assert_messages_equal(report, dec.decode(enc.encode(report)))


class TestCountOnlyPricing:
    """Codec and simulator price a chained report stream through the
    same count-only kernel: per bound, the scheme and the entry count
    are exactly what building both payloads and reading their lengths
    gave, and the simulator charges what the codec's choices cost."""

    @SETTINGS
    @given(report_streams(), st.sampled_from(["json", "binary"]))
    def test_codec_and_simulator_agree_with_built_payloads(self, reports, wire):
        from repro.sim.network import WireCodec

        enc, priced = FrameCodec(wire=wire), WireCodec()
        refs = [None, None]
        for report in reports:
            before = dict(enc.encodings)
            enc.encode(report)
            bounds = (report.interval.lo, report.interval.hi)
            picks = [
                _built_best_encoding(ts, channel_reference(ref, ts))
                for ts, ref in zip(bounds, refs)
            ]
            refs = list(bounds)
            chosen = Counter(enc.encodings)
            chosen.subtract(before)
            assert +chosen == Counter(name for name, _ in picks)
            assert priced.entries(report) == sum(cost for _, cost in picks) + 3
