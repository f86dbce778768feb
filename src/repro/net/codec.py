"""The wire protocol: versioned binary frames, one packed form per message.

Every frame on every connection has one layout::

     0        1        2        3      4..6        7
    +--------+--------+--------+----------------+------------------+
    | 0xB1   | tag    | flags  | body length    | packed body      |
    | magic/ | msg    | bit 0: | 4 bytes,       | (+ _meta sidecar |
    | version| type   | _meta  | big-endian     |  when flags&1)   |
    +--------+--------+--------+----------------+------------------+

The sidecar is a uvarint length followed by that many bytes::

    uvarint field bits     bit 0 span · bit 3 epochs
                           (any other bit, retired bits 1–2
                           included: corrupt)
    [svarint node · uvarint sid]                  when bit 0
    [uvarint count · count × uvarint gap]         when bit 3; a strictly
                           increasing list, gap = e - previous - 1 from -1

Those two keys, in those shapes, are the whole sidecar: the encoder
raises ``ValueError`` on any other key or shape (a negative sid,
unsorted epochs).  Bits 1–2 once carried a head-sampling decision and
are never reused.  Flags bit 0 is legal on message tags only.

The first byte doubles as magic and envelope version: a frame starts
with ``0xB1``, and the decoder refuses any other first byte as a
corrupt stream (a different envelope would claim 0xB2, 0xB3, …; body
layouts are versioned by their tags and by :data:`CODEC_VERSION`).

Type tags (see :mod:`repro.sim.wirepack` for body layouts):

====  ==================  =============================================
tag   body                notes
====  ==================  =============================================
0     ``__hello__``       UTF-8 JSON object; any other tag-0 body is
                          corrupt
1     *retired*           codec v1's IntervalReport (one scheme-tagged
                          payload per bound); rejected, never reused
2     Heartbeat           svarint sender
3     AppMessage          JSON payload + svarint piggyback vector
4     AttachRequest       svarint child + svarint member list
5     AttachAccept        svarint parent
6     DetachNotice        svarint child
7     __ack__             uvarint cumulative frame count
8     IntervalReport      varint ids/seq/members for the head and its
                          provenance + one bounds block for all of them
====  ==================  =============================================

Meta frames (``type`` starts with ``__``) stay plain dicts consumed by
the transport before messages reach a role.  There are two: the
``__hello__`` that opens every dialed connection (a tag-0 frame
carrying the sender's ``node`` and ``codec`` version) and the
``__ack__`` (tag 7).  Every message has exactly one packed form
(:func:`repro.sim.wirepack.pack_message` raises for anything else), so
there is no second encoding to fall back to.

Timestamp compression
---------------------
``IntervalReport`` bodies dominate wire volume, and their cost is the
length-``n`` vector timestamps — the O(n) factor of the paper's
Section IV accounting — two for the head interval and two more for
every interval of ``⊓`` provenance it carries.  All of a report's
timestamps travel in one bounds block: narrow unsigned offsets from a
per-frame base row, written and read in one numpy pass
(:func:`repro.sim.wirepack._pack_report`).  The block refers to nothing
outside its frame, so frames are **stateless**: any frame decodes on
its own, with any decoder, in any order, and an encoder holds no state
at all.
"""

from __future__ import annotations

import json
import struct
from typing import List, Optional, Tuple, Union

from ..sim.wirepack import (
    TAG_ACK,
    TAG_HELLO,
    pack_message,
    read_svarint,
    read_uvarint,
    unpack_message,
    write_svarint,
    write_uvarint,
)

__all__ = [
    "FrameCodec",
    "HELLO_TYPE",
    "ACK_TYPE",
    "MAGIC_BINARY_V1",
    "CODEC_VERSION",
]

#: Meta-frame type sent first on every outbound connection so the
#: receiver learns which node is talking (listeners see only an
#: ephemeral source port otherwise).  A tag-0 frame carrying the
#: sender's ``node`` and ``codec`` version.
HELLO_TYPE = "__hello__"

#: Meta frame flowing back on an inbound connection: ``n`` is the
#: cumulative count of message frames received on that connection.
ACK_TYPE = "__ack__"

#: First byte of every frame; a different envelope would claim 0xB2, …
MAGIC_BINARY_V1 = 0xB1

#: Protocol version advertised in ``__hello__``.  2: ``IntervalReport``
#: bodies are tag 8 (one bounds block per frame); tag 1 is retired.
#: 3: the ``_meta`` sidecar is packed (field bits + varints) instead
#: of a JSON object.  4: one framing — the
#: hello is a tag-0 frame, and a legacy length-prefixed JSON frame
#: (which codec 3 and earlier sent the hello in) is refused.
CODEC_VERSION = 4

#: magic/version, type tag, flags, body length.
_HEADER = struct.Struct(">BBBI")
#: flags bit 0: a ``_meta`` sidecar (uvarint length + packed sidecar)
#: follows the packed body.
_FLAG_META = 0x01

#: Packed sidecar field bits (see the module docstring).
_META_SPAN = 0x01
_META_EPOCHS = 0x08
_META_FIELDS = _META_SPAN | _META_EPOCHS
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _packable_span(value) -> bool:
    """``[node, sid]``: two ints, node in int64, sid in ``[0, 2**63)``."""
    return (
        value.__class__ is list
        and len(value) == 2
        and value[0].__class__ is int
        and value[1].__class__ is int
        and _INT64_MIN <= value[0] <= _INT64_MAX
        and 0 <= value[1] <= _INT64_MAX
    )


def _packable_epochs(value) -> bool:
    """A list of ints, strictly increasing, inside ``[0, 2**63)``."""
    if value.__class__ is not list:
        return False
    previous = -1
    for epoch in value:
        if epoch.__class__ is not int or not previous < epoch <= _INT64_MAX:
            return False
        previous = epoch
    return True


class FrameCodec:
    """Frame encoder and decoder.

    Encoding is stateless, so one instance may encode for any number of
    connections.  Decoding buffers a partial frame, so each inbound
    byte stream needs an instance of its own.

    Interval bodies always carry their aggregation provenance
    (``parts``), so the socket runtime delivers exactly what the
    simulator's in-memory channels deliver — root alarms unfold
    solutions down to concrete intervals and the span tracer parents
    alarms over reports.

    Parameters
    ----------
    max_frame:
        Hard bound on body size; oversized frames fail loudly on encode
        and poison the stream on decode (the transport drops the
        connection).
    max_meta:
        Hard bound on the packed ``_meta`` sidecar, checked on both
        ends: an oversized sidecar poisons the frame exactly like an
        oversized body.
    """

    def __init__(
        self,
        *,
        max_frame: int = 8 * 1024 * 1024,
        max_meta: int = 64 * 1024,
    ) -> None:
        self.max_frame = max_frame
        self.max_meta = max_meta
        self._buffer = bytearray()

    # ------------------------------------------------------------------
    # encode
    # ------------------------------------------------------------------
    def encode(
        self, message: Union[object, dict], meta: Optional[dict] = None
    ) -> bytes:
        """One message (or meta dict) -> one framed byte string.

        ``meta`` is an optional sidecar dict carried in the frame —
        transport-level annotations (the sender's span coordinates and
        the epoch ids a report covers) that never touch the message
        dataclass itself.  The decoder hands it back
        via :meth:`feed_meta`.  A message type with no packed form
        raises ``TypeError``; a sidecar key or shape outside the packed
        layout raises ``ValueError``."""
        if isinstance(message, dict):
            kind = message.get("type")
            if kind not in (HELLO_TYPE, ACK_TYPE):
                raise ValueError(
                    f"dict frames are reserved for {HELLO_TYPE} and "
                    f"{ACK_TYPE}, got {kind!r}"
                )
            if meta is not None:
                raise ValueError("meta frames cannot carry a _meta sidecar")
            if kind == ACK_TYPE:
                body = bytearray()
                write_uvarint(body, int(message["n"]))
                return self._frame(TAG_ACK, 0, bytes(body))
            hello = json.dumps(message, separators=(",", ":")).encode("utf-8")
            return self._frame(TAG_HELLO, 0, hello)
        tag, body = pack_message(message)
        if meta is None:
            return self._frame(tag, 0, body)
        sidecar = self._pack_meta(meta)
        framed = bytearray(body)
        write_uvarint(framed, len(sidecar))
        framed += sidecar
        return self._frame(tag, _FLAG_META, framed)

    def _frame(self, tag: int, flags: int, body: bytes) -> bytes:
        if len(body) > self.max_frame:
            raise ValueError(
                f"frame body of {len(body)} bytes exceeds max_frame "
                f"({self.max_frame})"
            )
        return _HEADER.pack(MAGIC_BINARY_V1, tag, flags, len(body)) + body

    def _bound_meta(self, size: int) -> None:
        if size > self.max_meta:
            raise ValueError(
                f"frame _meta sidecar of {size} bytes exceeds max_meta "
                f"({self.max_meta})"
            )

    def _pack_meta(self, meta) -> bytes:
        """The validated packed sidecar bytes (layout in the module
        docstring); ``max_meta`` bounds the packed size."""
        if not isinstance(meta, dict):
            raise ValueError(
                f"frame _meta sidecar must be a dict, got {type(meta).__name__}"
            )
        bits = 0
        span = epochs = None
        for key, value in meta.items():
            if key == "span" and _packable_span(value):
                bits |= _META_SPAN
                span = value
            elif key == "epochs" and _packable_epochs(value):
                bits |= _META_EPOCHS
                epochs = value
            else:
                raise ValueError(
                    f"_meta sidecar key {key!r} with value {value!r} has no "
                    f"packed form"
                )
        sidecar = bytearray((bits,))
        if span is not None:
            write_svarint(sidecar, span[0])
            write_uvarint(sidecar, span[1])
        if epochs is not None:
            write_uvarint(sidecar, len(epochs))
            previous = -1
            for epoch in epochs:
                write_uvarint(sidecar, epoch - previous - 1)
                previous = epoch
        self._bound_meta(len(sidecar))
        return bytes(sidecar)

    def _unpack_meta(self, data: bytes) -> dict:
        """Inverse of :meth:`_pack_meta`; anything it would not have
        written raises ``ValueError``."""
        bits, offset = read_uvarint(data, 0)
        if bits & ~_META_FIELDS:
            raise ValueError(
                f"unknown _meta sidecar field bits 0x{bits:x}; stream is corrupt"
            )
        meta: dict = {}
        if bits & _META_SPAN:
            node, offset = read_svarint(data, offset)
            sid, offset = read_uvarint(data, offset)
            meta["span"] = [node, sid]
        if bits & _META_EPOCHS:
            count, offset = read_uvarint(data, offset)
            if count > len(data) - offset:  # at least one byte per gap
                raise ValueError("truncated epoch list in _meta sidecar")
            epochs = []
            previous = -1
            for _ in range(count):
                gap, offset = read_uvarint(data, offset)
                previous += gap + 1
                epochs.append(previous)
            meta["epochs"] = epochs
        if offset != len(data):
            raise ValueError(
                f"{len(data) - offset} trailing bytes in _meta sidecar; "
                f"stream is corrupt"
            )
        return meta

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    def feed(self, data: bytes) -> List[object]:
        """Buffer raw socket bytes; return every message that became
        complete (meta frames come back as plain dicts).  Frame sidecars
        are discarded — use :meth:`feed_meta` to keep them."""
        return [message for message, _ in self.feed_meta(data)]

    def feed_meta(self, data: bytes) -> List[Tuple[object, Optional[dict]]]:
        """Like :meth:`feed`, but each message comes back with the frame
        ``_meta`` sidecar (or ``None``) it was encoded with."""
        self._buffer.extend(data)
        out: List[Tuple[object, Optional[dict]]] = []
        while self._buffer:
            first = self._buffer[0]
            if first != MAGIC_BINARY_V1:
                raise ValueError(
                    f"unsupported wire version byte 0x{first:02x} (expected "
                    f"0x{MAGIC_BINARY_V1:02X}); stream is corrupt"
                )
            if len(self._buffer) < _HEADER.size:
                break
            _, tag, flags, length = _HEADER.unpack_from(self._buffer)
            if length > self.max_frame:
                raise ValueError(
                    f"declared frame length {length} exceeds max_frame "
                    f"({self.max_frame}); stream is corrupt"
                )
            total = _HEADER.size + length
            if len(self._buffer) < total:
                break
            body = bytes(self._buffer[_HEADER.size : total])
            del self._buffer[:total]
            try:
                out.append(self._decode_frame(tag, flags, body))
            except RecursionError as exc:
                # JSON in a frame (a hello body, an AppMessage payload)
                # nested past the interpreter's stack: corrupt like any
                # other malformed frame, and it must reach the transport
                # as the one error it closes on.
                raise ValueError(
                    f"tag-{tag} frame nests too deeply to decode; "
                    f"stream is corrupt"
                ) from exc
        return out

    def decode(self, frame: bytes) -> object:
        """Decode exactly one complete frame (header + body)."""
        messages = self.feed(frame)
        if len(messages) != 1 or self._buffer:
            raise ValueError("decode() expects exactly one complete frame")
        return messages[0]

    def _decode_frame(
        self, tag: int, flags: int, body: bytes
    ) -> Tuple[object, Optional[dict]]:
        if flags & ~_FLAG_META or (flags and tag in (TAG_ACK, TAG_HELLO)):
            raise ValueError(
                f"frame flags 0x{flags:02x} on tag {tag}; stream is corrupt"
            )
        if tag == TAG_ACK:
            n, offset = read_uvarint(body, 0)
            if offset != len(body):
                raise ValueError("trailing bytes after packed ack frame")
            return {"type": ACK_TYPE, "n": n}, None
        if tag == TAG_HELLO:
            return self._decode_hello(body), None
        message, offset = unpack_message(tag, body)
        meta: Optional[dict] = None
        if flags & _FLAG_META:
            size, offset = read_uvarint(body, offset)
            self._bound_meta(size)
            end = offset + size
            if end > len(body):
                raise ValueError("truncated _meta sidecar in packed frame")
            meta = self._unpack_meta(body[offset:end])
            offset = end
        if offset != len(body):
            raise ValueError(
                f"{len(body) - offset} trailing bytes after packed frame "
                f"body; stream is corrupt"
            )
        return message, meta

    @staticmethod
    def _decode_hello(body: bytes) -> dict:
        data = json.loads(body.decode("utf-8"))
        kind = data.get("type") if isinstance(data, dict) else None
        if kind != HELLO_TYPE:
            raise ValueError(
                f"tag-0 frame carries {kind!r}, not a {HELLO_TYPE}; "
                f"stream is corrupt"
            )
        return data

    # ------------------------------------------------------------------
    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a complete frame."""
        return len(self._buffer)
