"""Property-based tests of the wire protocol round-trip contract.

:mod:`repro.sim.wirepack` and :class:`repro.net.FrameCodec` promise that
every control-plane dataclass comes back identical, for any field values
the runtime can produce — int64 timestamp components on either side of
every bounds-block width, empty and all-zero vectors, negative ids,
aggregation provenance nested as deep as the paper's h=4 tree nests it —
and so does every ``_meta`` sidecar the runtime writes.  What the
runtime cannot produce (provenance of mixed vector widths, a sidecar
key or shape outside the packed layout) raises on encode.  Frames
promise two things more: each decodes on its own, and a damaged one
(sidecar included) raises :class:`ValueError` and nothing else."""

from __future__ import annotations

import re

import numpy as np
import pytest
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
#: the svarint/int64 envelope the wire promises to carry.
COMPONENT = st.integers(0, 2**62)
PROCESS_ID = st.integers(-(2**31), 2**31)

#: The largest values the bounds block's 1/2/4-byte widths hold, and the
#: suite's ceiling: clocks are drawn around one of them so that every
#: width, and both sides of every boundary, is met often.
WIDTH_EDGES = (255, 65_535, 2**32 - 1, 2**62)


def _components(n, edges):
    """n components below or right around one width edge."""
    return st.sampled_from(edges).flatmap(
        lambda edge: st.lists(
            st.one_of(st.integers(0, edge + 2), st.integers(edge - 2, edge + 2)),
            min_size=n,
            max_size=n,
        )
    )


@st.composite
def timestamp_pairs(draw, n):
    """(lo, hi) with vc_le(lo, hi) by construction; n may be zero.  One
    draw in five shifts lo down so some component is negative (the
    block's signed 8-byte fallback), as far as the int64 floor."""
    shift = draw(st.sampled_from([0, 0, 0, 0, 2**63]))
    lo = np.array(
        [v - shift for v in draw(_components(n, WIDTH_EDGES))], dtype=np.int64
    )
    span = np.array(draw(_components(n, WIDTH_EDGES[:3])), dtype=np.int64)
    return lo, lo + span


@st.composite
def intervals(draw, n=None, depth=3, odd_width=False):
    """An interval carrying up to *depth* further levels of provenance
    (3: head -> part -> part -> part, the nesting a level-1 report of the
    paper's h=4 tree carries), all of one vector width as ``⊓`` builds
    them.  With *odd_width* (and *depth* >= 1), one part somewhere in
    the tree has a width of its own — a report with no packed form."""
    if n is None:
        n = draw(st.integers(0, 8))
    lo, hi = draw(timestamp_pairs(n))
    parts = []
    if depth:
        count = draw(st.integers(1 if odd_width else 0, 2))
        odd_at = draw(st.integers(0, count - 1)) if odd_width else -1
        for i in range(count):
            if i != odd_at:
                parts.append(draw(intervals(n, depth - 1)))
            elif depth == 1 or draw(st.booleans()):  # this part's width differs
                width = draw(st.integers(0, 8).filter(lambda m: m != n))
                parts.append(draw(intervals(width, depth - 1)))
            else:  # or one further down does
                parts.append(draw(intervals(n, depth - 1, odd_width=True)))
    return Interval(
        owner=draw(PROCESS_ID),
        seq=draw(st.integers(0, 2**32)),
        lo=lo,
        hi=hi,
        members=frozenset(draw(st.sets(PROCESS_ID, max_size=4))),
        parts=tuple(parts),
    )


def vector_widths(interval: Interval) -> set:
    return {interval.n}.union(*(vector_widths(part) for part in interval.parts))


@st.composite
def interval_reports(draw, odd_width=False):
    return IntervalReport(
        origin=draw(PROCESS_ID),
        dest=draw(PROCESS_ID),
        interval=draw(intervals(odd_width=odd_width)),
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


MESSAGE_TYPES = (
    IntervalReport,
    AppMessage,
    Heartbeat,
    AttachRequest,
    AttachAccept,
    DetachNotice,
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
    @given(interval_reports(odd_width=True))
    def test_mixed_vector_widths_raise(self, report):
        assert len(vector_widths(report.interval)) > 1
        with pytest.raises(ValueError, match="mixes vector widths"):
            pack_message(report)
        with pytest.raises(ValueError, match="mixes vector widths"):
            FrameCodec().encode(report)


class TestCodecRoundTrip:
    @SETTINGS
    @given(MESSAGES)
    def test_every_message_round_trips(self, message):
        out = FrameCodec().decode(FrameCodec().encode(message))
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


class TestStatelessBinaryFrames:
    """Nothing in a frame refers to an earlier one, so any frame decodes
    on its own — with any decoder, after any loss or reconnect."""

    @SETTINGS
    @given(report_streams(), st.integers(0, 9))
    def test_any_suffix_of_a_stream_decodes_alone(self, reports, cut_raw):
        enc = FrameCodec()
        frames = [enc.encode(report) for report in reports]
        cut = cut_raw % len(reports)
        got = FrameCodec().feed(b"".join(frames[cut:]))
        assert len(got) == len(reports) - cut
        for report, out in zip(reports[cut:], got):
            assert_messages_equal(report, out)

    @SETTINGS
    @given(report_streams())
    def test_every_frame_decodes_with_a_fresh_decoder(self, reports):
        enc = FrameCodec()
        for frame, report in [(enc.encode(r), r) for r in reports]:
            assert_messages_equal(report, FrameCodec().decode(frame))


#: Every sidecar the runtime writes: any subset of its two keys, each
#: in the one shape the packed layout carries, out to the int64 edges.
SIDECARS = st.fixed_dictionaries(
    {},
    optional={
        "span": st.tuples(
            st.integers(-(2**63), 2**63 - 1), st.integers(0, 2**63 - 1)
        ).map(list),
        "epochs": st.lists(
            st.integers(0, 2**63 - 1), max_size=8, unique=True
        ).map(sorted),
    },
)
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.text(max_size=8)
)
#: Around every edge of the packed forms: int64 for node and epochs,
#: non-negative for sid and epochs.
_EDGY_INTS = st.one_of(
    st.integers(-3, 3),
    st.integers(2**63 - 2, 2**63 + 1),
    st.integers(-(2**63) - 1, -(2**63) + 1),
    st.integers(-(2**70), 2**70),
)
#: Values of each known key the packed layout has no form for.
_BAD_VALUES = {
    "span": st.one_of(
        st.tuples(st.integers(-5, 5), st.integers(-(2**63), -1)).map(list),  # bad sid
        st.tuples(st.integers(2**63, 2**70), st.integers(0, 5)).map(list),
        st.lists(_EDGY_INTS, max_size=3).filter(lambda v: len(v) != 2),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),  # a tuple, not a list
        _JSON_LEAVES,
    ),
    "epochs": st.one_of(
        # unsorted, duplicated, negative or past int64
        st.lists(_EDGY_INTS, min_size=1, max_size=8).filter(
            lambda v: v != sorted(set(v)) or not all(0 <= e < 2**63 for e in v)
        ),
        _JSON_LEAVES,
    ),
}
#: A sidecar the runtime never writes: a runtime sidecar with one known
#: key spoiled, or one unknown key added.
BAD_SIDECARS = st.tuples(
    SIDECARS,
    st.one_of(
        st.sampled_from(sorted(_BAD_VALUES)).flatmap(
            lambda key: _BAD_VALUES[key].map(lambda value: (key, value))
        ),
        st.tuples(
            st.text(max_size=8).filter(lambda key: key not in _BAD_VALUES),
            st.one_of(_JSON_LEAVES, st.lists(_JSON_LEAVES, max_size=3)),
        ),
    ),
).map(lambda pair: {**pair[0], pair[1][0]: pair[1][1]})


def _sidecar_report() -> IntervalReport:
    clock = np.array([3, 1, 4], dtype=np.int64)
    return IntervalReport(
        origin=1, dest=0, interval=Interval(owner=1, seq=0, lo=clock, hi=clock + 1)
    )


class TestSidecars:
    """Whatever sidecar the runtime writes, the peer gets the same dict
    back; anything else has no packed form and raises on encode."""

    @settings(max_examples=120, deadline=None)
    @given(SIDECARS)
    def test_every_runtime_sidecar_round_trips(self, meta):
        frame = FrameCodec().encode(_sidecar_report(), meta)
        ((_, got),) = FrameCodec().feed_meta(frame)
        assert got == meta
        # == cannot tell True from 1; the types can.
        assert {k: type(v) for k, v in got.items()} == {
            k: type(v) for k, v in meta.items()
        }

    @settings(max_examples=120, deadline=None)
    @given(BAD_SIDECARS)
    def test_every_other_sidecar_raises_on_encode(self, meta):
        with pytest.raises(ValueError, match="no packed form"):
            FrameCodec().encode(_sidecar_report(), meta)


def _frame(tag: int, body: bytes, flags: int = 0) -> bytes:
    return bytes([0xB1, tag, flags]) + len(body).to_bytes(4, "big") + body


def _sidecar_frame(sidecar: bytes) -> bytes:
    """A report frame carrying *sidecar* verbatim behind flags bit 0."""
    body = bytearray(FrameCodec().encode(_sidecar_report())[7:])
    write_uvarint(body, len(sidecar))
    return _frame(8, bytes(body + sidecar), flags=0x01)


def _app_message_frame(payload: bytes) -> bytes:
    """A tag-3 frame whose JSON payload is *payload*, no piggyback."""
    body = bytearray()
    write_uvarint(body, len(payload))
    body += payload
    write_uvarint(body, 0)
    return _frame(3, bytes(body))


_LEGACY_HELLO_BODY = b'{"type":"__hello__","node":0,"wire":"binary","codec":3}'
_LEGACY_HELLO = len(_LEGACY_HELLO_BODY).to_bytes(4, "big") + _LEGACY_HELLO_BODY

#: JSON messages behind tag 0, which carries only the hello.
_TAG_0_REPORT = _frame(
    0,
    b'{"type":"IntervalReport","origin":1,"dest":0,"transport_seq":0,'
    b'"interval":{"owner":1,"seq":0,"lo":[3,1,4],"hi":[4,2,5],"members":[]}}',
)
_TAG_0_HEARTBEAT = _frame(0, b'{"type":"Heartbeat","sender":0}')
#: Sidecar field bit 4, once a JSON tail, ahead of a JSON object.
_SIDECAR_BIT_4 = _sidecar_frame(b'\x10{"x":1}')

#: Well-framed input no encoder writes, and what the decoder says about it.
UNWRITTEN_FRAMES = {
    # JSON nested past the interpreter's stack, in each place a frame
    # holds JSON
    "deep-tag-0-body": (_frame(0, b"[" * 100_000), "nests too deeply"),
    "deep-app-payload": (_app_message_frame(b"[" * 100_000), "nests too deeply"),
    # tag 0 is the hello and nothing else; the sidecar has no bit 4
    "tag-0-report": (_TAG_0_REPORT, "'IntervalReport', not a __hello__"),
    "tag-0-heartbeat": (_TAG_0_HEARTBEAT, "'Heartbeat', not a __hello__"),
    "sidecar-bit-4": (_SIDECAR_BIT_4, "field bits 0x10"),
    # flags bit 0 belongs to message tags only
    "ack-with-sidecar-flag": (_frame(7, b"\x05", flags=0x01), "flags 0x01 on tag 7"),
    "tag-0-with-sidecar-flag": (
        _frame(0, b'{"type":"Heartbeat","sender":1}', flags=0x01),
        "flags 0x01 on tag 0",
    ),
    # acks are tag 7
    "tag-0-ack": (_frame(0, b'{"type":"__ack__"}'), "'__ack__', not a __hello__"),
    "tag-0-array": (_frame(0, b'[{"type":"__hello__"}]'), "None, not a __hello__"),
    # codec 3's hello: a bare 4-byte length, then JSON
    "legacy-framing": (_LEGACY_HELLO, "version byte 0x00"),
}


class TestDamagedBinaryFrames:
    """Malformed but well-framed input poisons the stream and does
    nothing else: the decoder raises :class:`ValueError` — never another
    exception, which the transport's reader would not catch — and never
    allocates on the say-so of a count it has not checked."""

    #: tracemalloc peak allowed across all decodes of one example; the
    #: frames themselves are a few hundred bytes.
    MEMORY_CAP = 4 << 20

    @settings(max_examples=40, deadline=None)
    @given(SIDECARS, st.randoms(use_true_random=False))
    def test_damaged_sidecar_raises_only_value_error(self, meta, rng):
        report = _sidecar_report()
        enc = FrameCodec()
        body = enc.encode(report)[7:]
        framed = enc.encode(report, meta)[7:]
        size, start = read_uvarint(framed, len(body))
        sidecar = framed[start:]
        assert len(sidecar) == size

        def reframed(damaged: bytes) -> bytes:
            trailer = bytearray(body)
            write_uvarint(trailer, len(damaged))
            trailer += damaged
            return bytes([0xB1, 8, 0x01]) + len(trailer).to_bytes(4, "big") + trailer

        damaged = [sidecar[:cut] for cut in range(len(sidecar))]
        for at in range(len(sidecar)):
            for value in (0x00, 0xFF, sidecar[at] ^ 0x80, sidecar[at] ^ 0x01,
                          rng.randrange(256)):
                damaged.append(sidecar[:at] + bytes([value]) + sidecar[at + 1 :])
        for bad in damaged:
            self._decodes_or_raises_value_error(reframed(bad))

    @staticmethod
    def _decodes_or_raises_value_error(frame: bytes) -> None:
        try:
            out = FrameCodec().feed_meta(frame)
        except ValueError:
            return
        # Damage the decoder cannot see still yields whole messages (or
        # none yet: a corrupted length field waits for more bytes).
        for message, meta in out:
            assert isinstance(message, (dict,) + MESSAGE_TYPES)
            assert meta is None or isinstance(meta, dict)

    @settings(max_examples=40, deadline=None)
    @given(
        MESSAGES,
        st.sampled_from(
            [
                None,
                {"span": [1, 5], "epochs": [3, 4]},
                {"epochs": [0, 2**62]},
            ]
        ),
        st.randoms(use_true_random=False),
    )
    def test_truncation_and_corruption_raise_only_value_error(
        self, message, meta, rng
    ):
        import tracemalloc

        frame = FrameCodec().encode(message, meta)
        lead = frame[:3]  # magic, tag, flags; the body length follows
        body = frame[7:]
        damaged = [
            # every truncation point, re-framed at the shorter length
            lead + len(body[:cut]).to_bytes(4, "big") + body[:cut]
            for cut in range(len(body))
        ]
        for _ in range(200):  # random single-byte corruptions
            at = rng.randrange(len(frame))
            damaged.append(
                frame[:at] + bytes([rng.randrange(256)]) + frame[at + 1 :]
            )
        tracemalloc.start()
        try:
            for bad in damaged:
                self._decodes_or_raises_value_error(bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.MEMORY_CAP

    @pytest.mark.parametrize(
        "frame, complaint", UNWRITTEN_FRAMES.values(), ids=UNWRITTEN_FRAMES.keys()
    )
    def test_frames_no_encoder_writes_raise_value_error(self, frame, complaint):
        with pytest.raises(ValueError, match=re.escape(complaint)):
            FrameCodec().feed_meta(frame)

    #: Provenance depth of :meth:`_chain_frame`'s report.
    DEPTH = 6

    @classmethod
    def _chain_frame(cls, swapped=None) -> bytes:
        """A report frame whose head carries a provenance chain
        :attr:`DEPTH` deep.  Interval ``i`` of the pre-order (0 = head)
        has ``lo = (i, 0)`` and ``hi = (i, 5)``, so the block is a
        zero base row and one-byte offsets at the end of the frame.
        *swapped* exchanges interval ``i``'s two rows: ``lo > hi``."""
        interval = None
        for level in range(cls.DEPTH - 1, -1, -1):
            interval = Interval(
                owner=level,
                seq=0,
                lo=np.array([level, 0]),
                hi=np.array([level, 5]),
                parts=() if interval is None else (interval,),
            )
        frame = bytearray(FrameCodec().encode(IntervalReport(origin=1, dest=0, interval=interval)))
        if swapped is not None:
            at = len(frame) - 4 * cls.DEPTH + 4 * swapped
            frame[at : at + 4] = frame[at + 2 : at + 4] + frame[at : at + 2]
        return bytes(frame)

    @pytest.mark.parametrize("row", [0, 1, DEPTH - 1], ids=["head", "part", "deepest"])
    def test_out_of_order_row_is_refused(self, row):
        (good,) = FrameCodec().feed(self._chain_frame())
        assert [leaf.owner for leaf in good.interval.concrete_leaves()] == [self.DEPTH - 1]
        bad = self._chain_frame(swapped=row)
        with pytest.raises(ValueError, match="interval bounds out of order"):
            FrameCodec().feed(bad)

    @staticmethod
    def _poison(frame: bytes):
        """Open a session to a live TCP transport, then send *frame*: the
        clock's log and the messages its receiver got."""
        import asyncio

        from repro.net import AsyncClock, TcpTransport

        async def scenario():
            clock = AsyncClock()
            b = TcpTransport(1, clock)
            got = []
            arrived = asyncio.Event()
            b.set_receiver(lambda src, msg, meta: (got.append(msg), arrived.set()))
            await b.start()
            reader, writer = await asyncio.open_connection(*b.address)
            codec = FrameCodec()
            hello = codec.encode({"type": "__hello__", "node": 0, "codec": 4})
            writer.write(hello + codec.encode(Heartbeat(sender=0)))
            # the session is up before it is poisoned
            await asyncio.wait_for(arrived.wait(), 10)
            writer.write(frame)
            await writer.drain()
            # The handler hangs up: EOF.
            await asyncio.wait_for(reader.read(), 10)
            writer.close()
            await writer.wait_closed()
            await b.stop()
            return clock, got

        clock, got = asyncio.run(asyncio.wait_for(scenario(), 30))
        assert [type(m).__name__ for m in got] == ["Heartbeat"]
        (poisoned,) = clock.log.of_kind("net_stream_poisoned")
        assert poisoned.node == 1 and poisoned.get("src") == 0
        return poisoned.get("error")

    @pytest.mark.parametrize("row", [0, DEPTH - 1], ids=["head", "deepest"])
    def test_out_of_order_row_poisons_the_stream(self, row):
        assert "out of order" in self._poison(self._chain_frame(swapped=row))

    @pytest.mark.parametrize(
        "name", ["tag-0-report", "tag-0-heartbeat", "sidecar-bit-4"]
    )
    def test_tag_0_messages_and_sidecar_bit_4_poison_the_stream(self, name):
        frame, complaint = UNWRITTEN_FRAMES[name]
        assert complaint in self._poison(frame)


class TestCountOnlyPricing:
    """The simulator prices a chained report stream through the
    count-only kernel: what ``WireCodec`` charges for each report is
    exactly what building both payloads per bound and reading their
    lengths gave.  This is ``sim85_paper``'s byte-pricing kernel."""

    @SETTINGS
    @given(report_streams())
    def test_simulator_agrees_with_built_payloads(self, reports):
        from repro.sim.network import WireCodec

        priced = WireCodec()
        refs = [None, None]
        for report in reports:
            bounds = (report.interval.lo, report.interval.hi)
            picks = [
                _built_best_encoding(ts, channel_reference(ref, ts))
                for ts, ref in zip(bounds, refs)
            ]
            refs = list(bounds)
            assert priced.entries(report) == sum(cost for _, cost in picks) + 3
