"""Unit tests: the frame codec."""

import numpy as np
import pytest

from repro.intervals import Interval
from repro.net import FrameCodec
from repro.net.codec import ACK_TYPE, HELLO_TYPE
from repro.sim.messages import (
    AppMessage,
    AttachAccept,
    AttachRequest,
    DetachNotice,
    Heartbeat,
    IntervalReport,
)


def _interval(owner=0, seq=0, lo=(1, 0, 0), hi=(3, 1, 0), **kw):
    return Interval(
        owner=owner,
        seq=seq,
        lo=np.array(lo, dtype=np.int64),
        hi=np.array(hi, dtype=np.int64),
        **kw,
    )


def _report(seq=0, ts=0, **kw):
    return IntervalReport(
        origin=1, dest=0, interval=_interval(owner=1, seq=seq, **kw), transport_seq=ts
    )


ALL_MESSAGES = [
    AppMessage(payload="gossip", piggyback=np.array([1, 2, 3], dtype=np.int64)),
    _report(),
    Heartbeat(sender=4),
    AttachRequest(child=5, subtree=frozenset({5, 6})),
    AttachAccept(parent=2),
    DetachNotice(child=6),
]


class TestFraming:
    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
    def test_every_message_type_round_trips(self, message):
        enc, dec = FrameCodec(), FrameCodec()
        out = dec.decode(enc.encode(message))
        assert type(out) is type(message)
        if isinstance(message, AppMessage):
            assert out.payload == message.payload
            assert out.piggyback.tolist() == message.piggyback.tolist()
        elif isinstance(message, IntervalReport):
            assert out.interval.key() == message.interval.key()
            assert out.transport_seq == message.transport_seq
        else:
            assert out == message

    def test_byte_by_byte_feed_reassembles(self):
        enc, dec = FrameCodec(), FrameCodec()
        frames = b"".join(enc.encode(Heartbeat(sender=i)) for i in range(3))
        got = []
        for i in range(len(frames)):
            got.extend(dec.feed(frames[i : i + 1]))
        assert [m.sender for m in got] == [0, 1, 2]
        assert dec.pending_bytes == 0

    def test_meta_frames_stay_dicts(self):
        enc, dec = FrameCodec(), FrameCodec()
        out = dec.decode(enc.encode({"type": HELLO_TYPE, "node": 3}))
        assert out == {"type": HELLO_TYPE, "node": 3}

    def test_non_meta_dict_rejected(self):
        # Dict frames are the hello and the ack; nothing else is decodable.
        for kind in ("IntervalReport", "__bye__"):
            with pytest.raises(ValueError):
                FrameCodec().encode({"type": kind})

    def test_oversized_declared_length_poisons_stream(self):
        # Refused at the header, one byte past the bound, before any of
        # the body has arrived.
        dec = FrameCodec(max_frame=64)
        with pytest.raises(ValueError, match="max_frame"):
            dec.feed(_frame(2, b"")[:3] + (65).to_bytes(4, "big"))


class TestMetaSidecar:
    """The ``_meta`` frame sidecar: transport-level annotations (span
    coordinates for cross-node trace stitching) riding on message
    frames without touching message identity."""

    def test_meta_round_trips(self):
        tx, rx = FrameCodec(), FrameCodec()
        frame = tx.encode(_report(), meta={"span": [1, 5]})
        ((message, meta),) = rx.feed_meta(frame)
        assert isinstance(message, IntervalReport)
        assert meta == {"span": [1, 5]}

    def test_absent_meta_decodes_as_none(self):
        tx, rx = FrameCodec(), FrameCodec()
        ((_, meta),) = rx.feed_meta(tx.encode(Heartbeat(sender=2)))
        assert meta is None

    def test_plain_feed_discards_meta(self):
        tx, rx = FrameCodec(), FrameCodec()
        (message,) = rx.feed(tx.encode(_report(), meta={"span": [0, 1]}))
        assert isinstance(message, IntervalReport)

    def test_meta_does_not_change_message_identity(self):
        tx_a, tx_b = FrameCodec(), FrameCodec()
        rx_a, rx_b = FrameCodec(), FrameCodec()
        plain = rx_a.feed(tx_a.encode(_report()))[0]
        tagged = rx_b.feed(tx_b.encode(_report(), meta={"span": [3, 7]}))[0]
        assert plain.interval.key() == tagged.interval.key()
        assert plain.transport_seq == tagged.transport_seq

    def test_meta_frames_reject_meta(self):
        codec = FrameCodec()
        with pytest.raises(ValueError):
            codec.encode({"type": HELLO_TYPE, "node": 1}, meta={"span": [0, 0]})


#: A span sidecar with wide varints, 16 bytes packed: past an
#: 8-byte ``max_meta``.
LONG_META = {"span": [-(2**40), 2**62]}


class TestMetaBounds:
    """Sidecar hygiene: the sidecar holds the one key the runtime
    writes and nothing else, and its size is bounded on both sides of
    the wire so a rogue peer cannot smuggle unbounded payload past
    ``max_frame`` policy."""

    def test_unknown_meta_keys_are_refused_on_encode(self):
        meta = {"span": [1, 5], "future_field": {"x": 1}}
        with pytest.raises(ValueError, match="'future_field'.*no packed form"):
            FrameCodec().encode(_report(), meta=meta)

    def test_non_dict_meta_rejected_on_encode(self):
        codec = FrameCodec()
        for bad in ([1, 2], "span", 7):
            with pytest.raises(ValueError):
                codec.encode(_report(), meta=bad)

    def test_oversized_meta_rejected_on_encode(self):
        codec = FrameCodec(max_meta=8)
        with pytest.raises(ValueError, match="max_meta"):
            codec.encode(_report(), meta=LONG_META)

    def test_oversized_meta_poisons_frame_on_decode(self):
        # A permissive sender vs a strict receiver: the decode-side
        # check fires even though the frame itself framed fine.
        tx = FrameCodec(max_meta=1 << 20)
        rx = FrameCodec(max_meta=8)
        frame = tx.encode(_report(), meta=LONG_META)
        with pytest.raises(ValueError, match="max_meta"):
            rx.feed_meta(frame)

    def test_meta_within_bound_passes_both_sides(self):
        tx = FrameCodec(max_meta=128)
        rx = FrameCodec(max_meta=128)
        ((_, meta),) = rx.feed_meta(tx.encode(_report(), meta={"span": [0, 1]}))
        assert meta == {"span": [0, 1]}


class TestMemberInterning:
    """Decoded intervals share one frozenset per distinct member set, and
    a peer sending arbitrary member lists cannot grow that table past its
    cap."""

    def test_decoded_member_sets_are_shared(self):
        tx, rx = FrameCodec(), FrameCodec()
        members = frozenset({1, 2, 3})
        frame = tx.encode(_report(members=members))
        (a,), (b,) = rx.feed(frame), rx.feed(frame)
        assert a.interval.members == members
        assert a.interval.members is b.interval.members

    def test_distinct_member_sets_leave_the_table_at_its_cap(self):
        from types import SimpleNamespace

        from repro.intervals import interval as module

        # A peer's frames, built without this process's Interval (and so
        # without touching the table): 100 reports x 1000 parts, every
        # part with a member set never seen before.
        lo, hi = np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)

        def wire_interval(owner, seq, members, parts=()):
            return SimpleNamespace(
                owner=owner, seq=seq, lo=lo, hi=hi, n=1, members=members, parts=parts
            )

        tx, rx = FrameCodec(), FrameCodec()
        per_frame, frames = 1000, 100
        for f in range(frames):
            sets = [frozenset({f * per_frame + i}) for i in range(per_frame)]
            parts = tuple(wire_interval(0, i, m) for i, m in enumerate(sets))
            head = wire_interval(1, f, frozenset({-1}), parts)
            report = IntervalReport(origin=1, dest=0, interval=head, transport_seq=f)
            ((got, _),) = rx.feed_meta(tx.encode(report))
            assert [part.members for part in got.interval.parts] == sets
        assert len(module._MEMBERS) == module.MEMBERS_INTERN_CAP


class TestBinaryWire:
    """The packed wire: struct header + varint bodies, one frame per
    message, each decodable on its own."""

    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
    def test_every_message_type_round_trips(self, message):
        enc, dec = FrameCodec(), FrameCodec()
        frame = enc.encode(message)
        assert frame[0] == 0xB1
        out = dec.decode(frame)
        assert type(out) is type(message)
        if isinstance(message, AppMessage):
            assert out.payload == message.payload
            assert out.piggyback.tolist() == message.piggyback.tolist()
        elif isinstance(message, IntervalReport):
            assert out.interval.key() == message.interval.key()
            assert out.transport_seq == message.transport_seq
        else:
            assert out == message

    def test_byte_by_byte_feed_reassembles(self):
        enc, dec = FrameCodec(), FrameCodec()
        frames = b"".join(enc.encode(Heartbeat(sender=i)) for i in range(3))
        got = []
        for i in range(len(frames)):
            got.extend(dec.feed(frames[i : i + 1]))
        assert [m.sender for m in got] == [0, 1, 2]
        assert dec.pending_bytes == 0

    def test_truncated_header_waits_for_more_bytes(self):
        dec = FrameCodec()
        frame = FrameCodec().encode(Heartbeat(sender=9))
        assert dec.feed(frame[:3]) == []
        assert dec.pending_bytes == 3
        (out,) = dec.feed(frame[3:])
        assert out.sender == 9

    def test_hello_is_a_tag_0_frame(self):
        hello = {"type": HELLO_TYPE, "node": 3, "codec": 4}
        frame = FrameCodec().encode(hello)
        assert frame[:3] == b"\xb1\x00\x00"  # magic, TAG_HELLO, no flags
        assert FrameCodec().decode(frame) == hello

    def test_ack_goes_packed_on_binary_wire(self):
        frame = FrameCodec().encode({"type": ACK_TYPE, "n": 1 << 20})
        assert frame[0] == 0xB1
        assert len(frame) < 16
        assert FrameCodec().decode(frame) == {"type": ACK_TYPE, "n": 1 << 20}

    def test_unsupported_version_byte_poisons_stream(self):
        with pytest.raises(ValueError, match="version"):
            FrameCodec().feed(b"\xb2\x00\x00\x00\x00\x00\x00")

    def test_unknown_flags_poison_stream(self):
        import struct

        frame = struct.pack(">BBBI", 0xB1, 2, 0x04, 1) + b"\x02"
        with pytest.raises(ValueError, match="flags"):
            FrameCodec().feed(frame)

    def test_trailing_garbage_after_body_poisons_stream(self):
        import struct

        good = FrameCodec().encode(Heartbeat(sender=1))
        _, tag, flags, length = struct.unpack_from(">BBBI", good)
        bad = struct.pack(">BBBI", 0xB1, tag, flags, length + 2) + good[7:] + b"\x00\x00"
        with pytest.raises(ValueError, match="trailing"):
            FrameCodec().feed(bad)

    def test_oversized_body_rejected_on_encode(self):
        codec = FrameCodec(max_frame=64)
        with pytest.raises(ValueError, match="max_frame"):
            codec.encode(AppMessage(payload="x" * 256, piggyback=np.zeros(1, np.int64)))

    def test_oversized_declared_length_poisons_stream(self):
        import struct

        dec = FrameCodec(max_frame=64)
        with pytest.raises(ValueError, match="max_frame"):
            dec.feed(struct.pack(">BBBI", 0xB1, 2, 0, 1 << 20) + b"x" * 8)

    def test_unknown_types_are_refused_on_encode(self):
        # Every message has one packed form; there is no second encoding
        # for a type the packer does not know.
        class Gremlin:
            pass

        for message in (Gremlin(), "not a message"):
            with pytest.raises(TypeError, match="unserializable message type"):
                FrameCodec().encode(message)

    def test_reference_chain_round_trips_a_report_sequence(self):
        enc, dec = FrameCodec(), FrameCodec()
        rng = np.random.default_rng(11)
        clock = np.zeros(16, dtype=np.int64)
        for seq in range(40):
            clock = clock + rng.integers(0, 3, size=16)
            report = IntervalReport(
                origin=1,
                dest=0,
                interval=Interval(owner=1, seq=seq, lo=clock.copy(), hi=clock + 1),
                transport_seq=seq,
            )
            out = dec.decode(enc.encode(report))
            assert out.interval.lo.tolist() == report.interval.lo.tolist()
            assert out.interval.hi.tolist() == report.interval.hi.tolist()

    def test_shape_change_resets_reference(self):
        enc, dec = FrameCodec(), FrameCodec()
        for n in (3, 5, 3):
            report = _report(lo=[1] * n, hi=[2] * n)
            out = dec.decode(enc.encode(report))
            assert out.interval.lo.tolist() == [1] * n

    def test_parts_survive(self):
        part = _interval(owner=2, seq=0)
        aggregate = Interval(
            owner=1,
            seq=0,
            lo=part.lo,
            hi=part.hi,
            members=frozenset({1, 2}),
            parts=(part,),
        )
        report = IntervalReport(origin=1, dest=0, interval=aggregate)

        got = FrameCodec().decode(FrameCodec().encode(report))
        assert [p.key() for p in got.interval.parts] == [part.key()]
        assert got.interval.members == aggregate.members


class TestBinaryMeta:
    """The ``_meta`` sidecar on the packed path: a flag bit plus a
    length-prefixed packed sidecar, bounded by ``max_meta``."""

    def test_meta_round_trips(self):
        tx, rx = FrameCodec(), FrameCodec()
        frame = tx.encode(_report(), meta={"span": [1, 5]})
        assert frame[0] == 0xB1 and frame[2] & 0x01
        ((message, meta),) = rx.feed_meta(frame)
        assert isinstance(message, IntervalReport)
        assert meta == {"span": [1, 5]}

    def test_absent_meta_decodes_as_none(self):
        tx, rx = FrameCodec(), FrameCodec()
        frame = tx.encode(Heartbeat(sender=2))
        assert not frame[2] & 0x01
        ((_, meta),) = rx.feed_meta(frame)
        assert meta is None

    def test_oversized_meta_rejected_on_encode(self):
        codec = FrameCodec(max_meta=8)
        with pytest.raises(ValueError, match="max_meta"):
            codec.encode(_report(), meta=LONG_META)

    def test_oversized_meta_poisons_frame_on_decode(self):
        tx = FrameCodec(max_meta=1 << 20)
        rx = FrameCodec(max_meta=8)
        frame = tx.encode(_report(), meta=LONG_META)
        with pytest.raises(ValueError, match="max_meta"):
            rx.feed_meta(frame)

    def test_truncated_sidecar_poisons_frame(self):
        import struct

        tx = FrameCodec()
        frame = tx.encode(_report(), meta={"span": [1, 2]})
        _, tag, flags, length = struct.unpack_from(">BBBI", frame)
        # Chop the last sidecar byte and re-declare the shorter length:
        # the sidecar's own length prefix now points past the body.
        body = frame[7:-1]
        bad = struct.pack(">BBBI", 0xB1, tag, flags, len(body)) + body
        with pytest.raises(ValueError, match="truncated _meta"):
            FrameCodec().feed_meta(bad)

    def test_meta_frames_reject_meta(self):
        with pytest.raises(ValueError):
            FrameCodec().encode({"type": ACK_TYPE, "n": 1}, meta={"span": [0, 0]})


def _with_sidecar(sidecar: bytes, message=None):
    """A binary frame of *message* (a report by default) carrying
    *sidecar* verbatim behind the flags-bit-0 length prefix."""
    from repro.sim.wirepack import write_uvarint

    frame = FrameCodec().encode(_report() if message is None else message)
    body = bytearray(frame[7:])
    write_uvarint(body, len(sidecar))
    return _frame(frame[1], body + sidecar, flags=0x01)


class TestPackedSidecar:
    """The binary sidecar is field bits and varints for the one key the
    runtime writes; any other key or shape has no encoding."""

    RUNTIME_META = {"span": [3, 1]}

    def test_runtime_sidecar_is_a_few_bytes(self):
        lean = len(FrameCodec().encode(_report()))
        frame = FrameCodec().encode(_report(), meta=self.RUNTIME_META)
        # length byte + field bits + node + sid
        assert len(frame) - lean == 1 + 3
        assert frame[lean:] == bytes([3, 0x01, 6, 1])
        ((_, meta),) = FrameCodec().feed_meta(frame)
        assert meta == self.RUNTIME_META
        assert type(meta["span"]) is list

    def test_known_keys_never_touch_json(self, monkeypatch):
        import repro.net.codec as codec_mod

        class NoJson:
            def __getattr__(self, name):
                raise AssertionError(f"json.{name} on the binary report path")

        monkeypatch.setattr(codec_mod, "json", NoJson())
        meta = {"span": [-4, 2**40]}
        ((_, got),) = FrameCodec().feed_meta(FrameCodec().encode(_report(), meta=meta))
        assert got == meta

    @pytest.mark.parametrize(
        "meta",
        [
            {"span": [1, -1]},  # negative sid
            {"span": [1, 2, 3]},
            {"span": (1, 2)},  # the runtime writes a list
            {"span": [True, 2]},
            {"span": [2**63, 0]},
            # the head-sampling decision is retired: no value has a form
            {"sampled": True},
            {"sampled": None},
            {"sampled": 1},
            # so is a report's epoch list: no value has a form
            {"epochs": [3, 1]},
            {"epochs": [1, 1]},
            {"epochs": [-1, 2]},
            {"epochs": [2**63]},
            {"epochs": "0-3"},
            {"future_field": {"x": 1}, "span": [1, 5]},
        ],
        ids=repr,
    )
    def test_other_shapes_are_refused_on_encode(self, meta):
        with pytest.raises(ValueError, match="no packed form"):
            FrameCodec().encode(_report(), meta=meta)

    def test_codec_2_json_sidecar_is_refused(self):
        # The v2 sidecar was the bare JSON object: '{' = 0x7B sets field
        # bits no codec-3 encoder writes.
        with pytest.raises(ValueError, match="field bits"):
            FrameCodec().feed_meta(_with_sidecar(b'{"span":[1,5]}'))

    @pytest.mark.parametrize(
        "sidecar, complaint",
        [
            (b"\x20", "field bits"),  # bit 5
            (b"\x80\x01", "field bits"),  # bit 7, two-byte varint
            # bits 1-2 carried the retired head-sampling decision
            (b"\x02", "field bits"),
            (b"\x04", "field bits"),
            (b"\x06", "field bits"),
            # a sidecar as the sampling runtime wrote it: span, both
            # sampled bits and one epoch
            (b"\x0f\x06\x01\x01\x00", "field bits"),
            (b"\x01\x02", "truncated varint"),  # span without its sid
            # bit 3 carried a report's epoch ids
            (b"\x08\x03\x00\x00", "field bits"),
            (b"\x09\x06\x01\x01\x00", "field bits"),
            (b"\x00\x00", "trailing bytes"),
            # bit 4 was the JSON tail of codecs 3 and 4; no peer set it
            (b'\x10{"x":1}', "field bits"),
            (b'\x11\x02\x01{"x":1}', "field bits"),
        ],
    )
    def test_malformed_sidecar_poisons_the_frame(self, sidecar, complaint):
        with pytest.raises(ValueError, match=complaint):
            FrameCodec().feed_meta(_with_sidecar(sidecar))

    def test_max_meta_bounds_the_packed_bytes_on_both_ends(self):
        import json

        meta = {"span": [1, 5]}
        packed = len(FrameCodec()._pack_meta(meta))
        assert packed == 1 + 1 + 1 < len(json.dumps(meta))
        at_bound = FrameCodec(max_meta=packed)
        frame = at_bound.encode(_report(), meta=meta)  # JSON would not fit
        ((_, got),) = FrameCodec(max_meta=packed).feed_meta(frame)
        assert got == meta
        with pytest.raises(ValueError, match="max_meta"):
            FrameCodec(max_meta=packed - 1).encode(_report(), meta=meta)
        with pytest.raises(ValueError, match="max_meta"):
            FrameCodec(max_meta=packed - 1).feed_meta(frame)


def _frame(tag, body, flags=0):
    import struct

    return struct.pack(">BBBI", 0xB1, tag, flags, len(body)) + bytes(body)


def _block_body(n, tree, widths, payload, m=None):
    """A hand-built tag-8 body.  *tree* is ``[(owner, seq, nparts)]`` in
    pre-order (no explicit members), *widths* the two width codes and
    *payload* the raw bytes that follow them."""
    from repro.sim.wirepack import write_svarint, write_uvarint

    body = bytearray()
    write_svarint(body, 1)  # origin
    write_svarint(body, 0)  # dest
    write_uvarint(body, 0)  # transport_seq
    write_uvarint(body, n)
    write_uvarint(body, len(tree) if m is None else m)
    for owner, seq, nparts in tree:
        write_svarint(body, owner)
        write_uvarint(body, seq)
        write_uvarint(body, 0)
        write_uvarint(body, nparts)
    body += bytes(widths) + payload
    return body


class TestBoundsBlock:
    """The one ``IntervalReport`` body of the binary wire (tag 8): every
    timestamp of the frame in one block of narrow offsets from a base
    row, and a decoder that believes nothing the bytes do not back."""

    def test_reports_are_tag_8_and_tag_1_is_retired(self):
        frame = FrameCodec().encode(_report())
        assert frame[1] == 8
        with pytest.raises(ValueError, match="unknown packed message tag 1"):
            FrameCodec().feed(_frame(1, frame[7:]))

    def test_decoded_bounds_are_read_only_int64_views_of_one_block(self):
        part = _interval(owner=2, seq=4, lo=(300, 0, 7), hi=(300, 2, 7))
        head = _interval(
            owner=1, seq=9, lo=(300, 1, 7), hi=(300, 2, 7),
            members=frozenset({1, 2}), parts=(part,),
        )
        sent = IntervalReport(origin=1, dest=0, interval=head, transport_seq=3)
        fed = bytearray(FrameCodec().encode(sent))
        (got,) = FrameCodec().feed(fed)
        block = got.interval.lo.base
        assert block is not None and not block.flags.writeable
        for mine, theirs in ((got.interval, head), (got.interval.parts[0], part)):
            assert mine.key() == theirs.key()  # same bytes as the sender's
            for bound in (mine.lo, mine.hi):
                assert bound.dtype == np.int64 and bound.shape == (3,)
                assert bound.base is block and not bound.flags.writeable
                with pytest.raises(ValueError):
                    bound[0] = 0
        # The block is the decoder's own copy, not the receive buffer.
        fed[7:] = b"\xff" * (len(fed) - 7)
        assert got.interval.lo.tolist() == [300, 1, 7]
        assert got.interval.parts[0].lo.tolist() == [300, 0, 7]
        assert got.interval.key() == head.key()

    @pytest.mark.parametrize(
        "value, base_width",
        [(0, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 4),
         (2**32 - 1, 4), (2**32, 8), (2**62, 8)],
    )
    def test_base_row_takes_the_narrowest_width_that_fits(self, value, base_width):
        n = 5
        report = _report(lo=[value] * n, hi=[value + 1] * n)
        frame = FrameCodec().encode(report)
        lean = FrameCodec().encode(_report(lo=[0] * n, hi=[1] * n))
        # Same frame but for the base row: offsets stay one byte wide
        # however large the clock.
        assert len(frame) - len(lean) == (base_width - 1) * n
        got = FrameCodec().decode(frame)
        assert got.interval.lo.tolist() == [value] * n
        assert got.interval.hi.tolist() == [value + 1] * n

    @pytest.mark.parametrize(
        "span, off_width", [(255, 1), (256, 2), (65_536, 4), (2**32, 8)]
    )
    def test_offsets_take_the_narrowest_width_that_fits(self, span, off_width):
        n = 3
        frame = FrameCodec().encode(_report(lo=[10] * n, hi=[10 + span] * n))
        lean = FrameCodec().encode(_report(lo=[10] * n, hi=[11] * n))
        assert len(frame) - len(lean) == (off_width - 1) * 2 * n
        assert FrameCodec().decode(frame).interval.hi.tolist() == [10 + span] * n

    def test_negative_component_falls_back_to_signed_rows(self):
        lo, hi = [-(2**63), -1, 5], [2**63 - 1, -1, 5]
        frame = FrameCodec().encode(_report(lo=lo, hi=hi))
        assert frame[1] == 8 and frame[-2 * 3 * 8 - 2 : -2 * 3 * 8] == b"\x00\x08"
        got = FrameCodec().decode(frame)
        assert got.interval.lo.tolist() == lo and got.interval.hi.tolist() == hi

    def test_mixed_widths_are_refused_on_encode(self):
        # One bounds block has one width; ``⊓`` never builds a report
        # whose provenance mixes them, so it has no packed form.
        part = _interval(owner=2, seq=0, lo=(1, 0), hi=(2, 0))
        head = _interval(owner=1, seq=0, members=frozenset({1, 2}), parts=(part,))
        sent = IntervalReport(origin=1, dest=0, interval=head)
        with pytest.raises(ValueError, match="mixes vector widths"):
            FrameCodec().encode(sent, meta={"span": [1, 2]})

    def test_deep_provenance_needs_no_recursion(self):
        depth = 3000  # past the interpreter's default recursion limit
        interval = _interval(owner=0, seq=0)
        for level in range(1, depth):
            interval = _interval(owner=level, seq=0, parts=(interval,))
        frame = FrameCodec().encode(IntervalReport(origin=1, dest=0, interval=interval))
        got = FrameCodec().decode(frame).interval
        for level in range(depth - 1, 0, -1):
            assert got.owner == level and len(got.parts) == 1
            (got,) = got.parts
        assert got.owner == 0 and got.parts == ()

    def test_block_the_frame_cannot_hold_is_refused_before_allocation(self):
        import tracemalloc

        # 22 bytes declaring a 2 x 2**40 block (16 TiB of int64).
        body = _block_body(2**40, [(1, 0, 0)], (1, 1), b"\x00" * 4)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="overruns"):
                FrameCodec().feed(_frame(8, body))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "widths", [(3, 1), (1, 3), (1, 0), (0, 4), (16, 1), (1, 255)]
    )
    def test_unknown_width_codes_poison_stream(self, widths):
        body = _block_body(1, [(1, 0, 0)], widths, b"\x00" * 24)
        with pytest.raises(ValueError, match="width codes"):
            FrameCodec().feed(_frame(8, body))

    @pytest.mark.parametrize(
        "tree, complaint",
        [
            ([(1, 0, 1)], "overruns"),  # claims a part the frame lacks
            ([(1, 0, 2), (2, 0, 0)], "overruns"),
            ([(1, 0, 0), (2, 0, 0)], "does not use"),  # an orphan interval
            ([], "does not use"),  # no head at all
        ],
    )
    def test_provenance_tree_must_use_exactly_its_intervals(self, tree, complaint):
        body = _block_body(1, tree, (1, 1), b"\x00" * (1 + 2 * len(tree)))
        with pytest.raises(ValueError, match=complaint):
            FrameCodec().feed(_frame(8, body))

    def test_trailing_bytes_after_the_block_poison_stream(self):
        body = _block_body(1, [(1, 0, 0)], (1, 1), b"\x00" * 3)
        assert FrameCodec().decode(_frame(8, body)).interval.lo.tolist() == [0]
        with pytest.raises(ValueError, match="trailing"):
            FrameCodec().feed(_frame(8, body + b"\x00"))

    @pytest.mark.parametrize(
        "widths, payload",
        [
            # base 2**63 reads back negative
            ((8, 1), b"\x80" + b"\x00" * 7 + b"\x00\x00"),
            # an offset of 2**63 likewise
            ((1, 8), b"\x00" + (b"\x80" + b"\x00" * 7) * 2),
            # base + offset passes 2**63 - 1
            ((8, 8), (b"\x7f" + b"\xff" * 7) * 3),
        ],
    )
    def test_eight_byte_components_cannot_wrap(self, widths, payload):
        body = _block_body(1, [(1, 0, 0)], widths, payload)
        with pytest.raises(ValueError, match="overflows int64"):
            FrameCodec().feed(_frame(8, body))


def _golden_stream(count=50, n=12):
    """A fixed report stream: mostly-zero clocks early, one or two
    components ticking between bursts that move every component, a
    2**62 component, a vector-width change mid-stream, provenance on
    every third report and, on every fifth, a ``_meta`` sidecar of the
    shape the runtime writes."""
    rng = np.random.default_rng(20130520)
    lo = np.zeros(n, dtype=np.int64)
    stream = []
    for seq in range(count):
        if seq == 30:
            n += 3  # membership grew
            lo = np.concatenate([lo, np.zeros(3, dtype=np.int64)])
        if seq % 10 == 9:
            lo = lo + rng.integers(1, 4, size=n)  # burst: everything moved
        else:
            lo = lo.copy()
            lo[rng.integers(0, n, size=int(rng.integers(0, 3)))] += 1
        if seq == 40:
            lo[2] = 2**62
        hi = lo.copy()
        hi[rng.integers(0, n, size=2)] += 1
        parts = ()
        if seq % 3 == 0:
            parts = (
                _interval(owner=7, seq=seq, lo=lo, hi=lo),
                _interval(owner=8, seq=seq, lo=hi, hi=hi),
            )
        interval = _interval(
            owner=3, seq=seq, lo=lo, hi=hi, members=frozenset({3, 7, 8}), parts=parts
        )
        report = IntervalReport(origin=3, dest=1, interval=interval, transport_seq=seq)
        meta = None
        if seq % 5 == 0:
            meta = {"span": [3, 1000 + seq]}
        stream.append((report, meta))
    return stream


class TestGoldenFrames:
    """The wire format did not move: sha256 over the concatenated frames
    of :func:`_golden_stream`.  Re-recorded when the tag-8 bounds block
    replaced the per-bound scheme payloads, again when codec 3 packed
    the sidecar, and once more when the stream's sidecars took the
    runtime's shape (its ``span`` had been a bare int, which only the
    since-deleted JSON tail could carry) — that recording was made with
    the encoder that still had the tail, and this one reproduces it.
    Re-recorded once more when the sidecar's head-sampling bits were
    retired: the stream's sidecars lost their ``sampled`` key, so the
    field-bits byte changed and the length did not.  And again when the
    epoch list (bit 3) was retired: each of the ten sidecars lost its
    count and two gaps, 3 bytes."""

    #: Total bytes of the golden stream at the parent of the bounds
    #: block, whose tag-1 bodies priced each bound on its own: (with the
    #: per-channel chain; with it off, all raw — what the chain chose
    #: for all but 4 of 6,576 head bounds on benchmark traffic, and
    #: always for provenance).  Measured on the stream's earlier
    #: sidecars: a bare-int ``span`` and the epochs.
    PARENT_BINARY_BYTES = (10856, 19316)

    #: Total bytes of the golden stream under codec 2 (bounds block, a
    #: length byte plus compact JSON per sidecar).  5651 while the
    #: sidecars still carried the retired ``sampled`` key, 5496 while
    #: they carried the retired ``epochs``.
    CODEC_2_BINARY_BYTES = 5330

    #: (total bytes, sha256) of the golden stream.
    GOLDEN = (
        5200,  # codec 2: 5330; 5230 with the epoch lists
        "ab05c53fedecb287175053f54fe167fd406c39fd8fd9a32eb7277964a7af17ac",
    )

    def test_frames_are_byte_identical(self):
        import hashlib

        enc = FrameCodec()
        frames = b"".join(enc.encode(report, meta) for report, meta in _golden_stream())
        digest = hashlib.sha256(frames).hexdigest()
        assert (len(frames), digest) == self.GOLDEN
        decoded = FrameCodec().feed_meta(frames)
        assert [m for _, m in decoded] == [m for _, m in _golden_stream()]
        for (got, _), (sent, _) in zip(decoded, _golden_stream()):
            assert got.interval.key() == sent.interval.key()

    def test_block_keeps_its_byte_budget(self):
        # So a later change cannot quietly give the bytes back: the
        # block is under 0.45x the parent's raw stream and 0.51x its
        # chained one — this stream was built to walk the chain through
        # sparse and differential, and ten of its frames pay an 8-byte
        # base row for one 2**62 component.
        enc = FrameCodec()
        total = sum(len(enc.encode(r, meta)) for r, meta in _golden_stream())
        chained, raw = self.PARENT_BINARY_BYTES
        assert total <= 0.45 * raw
        assert total <= 0.51 * chained

    def test_packed_sidecar_keeps_its_byte_budget(self):
        import json

        # Codec 2 wrote the sidecar as a length byte plus its compact
        # JSON; the packed one saves at least 13 bytes a frame (25
        # while the JSON also spelled out two epoch ids, 30 with
        # ``"sampled":true,`` too).
        enc = FrameCodec()
        new = old = 0
        golden = _golden_stream()
        for report, meta in golden:
            new += len(enc.encode(report, meta))
            old += len(enc.encode(report))
            if meta is not None:
                old += 1 + len(json.dumps(meta, separators=(",", ":")))
        assert old == self.CODEC_2_BINARY_BYTES
        with_meta = sum(meta is not None for _, meta in golden)
        assert new <= old - 13 * with_meta
