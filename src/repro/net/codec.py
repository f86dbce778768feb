"""The wire protocol: versioned binary frames with a JSON escape hatch.

Every frame on every connection has one layout::

     0        1        2        3      4..6        7
    +--------+--------+--------+----------------+------------------+
    | 0xB1   | tag    | flags  | body length    | packed body      |
    | magic/ | msg    | bit 0: | 4 bytes,       | (+ _meta sidecar |
    | version| type   | _meta  | big-endian     |  when flags&1)   |
    +--------+--------+--------+----------------+------------------+

The sidecar is a uvarint length followed by that many bytes::

    uvarint field bits     bit 0 span · bit 1 sampled present
                           bit 2 sampled value · bit 3 epochs
                           bit 4 JSON tail (any other bit: corrupt)
    [svarint node · uvarint sid]                  when bit 0
    [uvarint count · count × uvarint gap]         when bit 3; a strictly
                           increasing list, gap = e - previous - 1 from -1
    [UTF-8 JSON object of every other key]        when bit 4, to the end

A known key whose value has another shape (a negative sid, unsorted
epochs, a non-bool ``sampled``) travels in the JSON tail unchanged, so
any JSON-object sidecar round-trips and unknown keys still reach the
peer; only a sidecar with such keys costs a ``json.dumps``.  Flags bit 0
is legal on message tags only.

The first byte doubles as magic and envelope version: a frame starts
with ``0xB1``, and the decoder refuses any other first byte as a
corrupt stream (a different envelope would claim 0xB2, 0xB3, …; body
layouts are versioned by their tags and by :data:`CODEC_VERSION`).

Type tags (see :mod:`repro.sim.wirepack` for body layouts):

====  ==================  =============================================
tag   body                notes
====  ==================  =============================================
0     JSON escape hatch   UTF-8 JSON object: the ``__hello__``, message
                          types the packer does not know, and reports
                          whose provenance mixes vector widths (their
                          sidecar is the body's ``_meta`` key)
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
``__ack__`` (tag 7).  A tag-0 frame holding any other ``__`` type is
corrupt.

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

from ..sim.serialize import message_from_dict, message_to_dict
from ..sim.wirepack import (
    TAG_ACK,
    TAG_JSON,
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
#: 3: the ``_meta`` sidecar is packed (field bits + varints + an
#: optional JSON tail) instead of a JSON object.  4: one framing — the
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
_META_SAMPLED = 0x02
_META_SAMPLED_TRUE = 0x04
_META_EPOCHS = 0x08
_META_TAIL = 0x10
_META_FIELDS = 0x1F
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

    Parameters
    ----------
    include_parts:
        Ship aggregation provenance (``parts``) inside interval bodies.
        ``True`` (default) makes the socket runtime deliver exactly what
        the simulator's in-memory channels deliver — root alarms can
        unfold solutions down to concrete intervals and the span tracer
        parents alarms over reports.  ``False`` is the paper-faithful
        lean wire (bounds only; see ``payload_entries``).
    max_frame:
        Hard bound on body size; oversized frames fail loudly on encode
        and poison the stream on decode (the transport drops the
        connection).
    max_meta:
        Hard bound on the serialized ``_meta`` sidecar (its packed
        bytes; in a tag-0 body, its JSON bytes).  The sidecar is a
        forward-compatible extension point — decoders tolerate keys
        they do not understand — so its size must be bounded
        independently of the body: an oversized (or non-object) sidecar
        poisons the frame exactly like an oversized body.
    """

    def __init__(
        self,
        *,
        include_parts: bool = True,
        max_frame: int = 8 * 1024 * 1024,
        max_meta: int = 64 * 1024,
    ) -> None:
        self.include_parts = include_parts
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

        ``meta`` is an optional JSON-safe sidecar dict carried in the
        frame — transport-level annotations (the sender's span id, for
        cross-node trace stitching) that never touch the message
        dataclass itself.  The decoder hands it back via
        :meth:`feed_meta`."""
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
            return self._frame(TAG_JSON, 0, self._json_body(message))
        packed = pack_message(message, include_parts=self.include_parts)
        if packed is None:
            # Escape hatch: a message the packer has no packed form for
            # rides as JSON behind the same header.
            data = message_to_dict(message, include_parts=self.include_parts)
            return self._frame(TAG_JSON, 0, self._json_body(data, meta))
        tag, body = packed
        if meta is None:
            return self._frame(tag, 0, body)
        sidecar = self._pack_meta(meta)
        framed = bytearray(body)
        write_uvarint(framed, len(sidecar))
        framed += sidecar
        return self._frame(tag, _FLAG_META, framed)

    def _json_body(self, data: dict, meta: Optional[dict] = None) -> bytes:
        """*data* (never empty: it carries ``type``) as compact JSON,
        with the sidecar as its last key ``_meta``.  The sidecar's bytes
        are spliced in rather than dumped again inside *data*, so an
        encode serializes (and measures) it exactly once."""
        body = json.dumps(data, separators=(",", ":")).encode("utf-8")
        if meta is not None:
            self._require_meta_object(meta)
            sidecar = json.dumps(meta, separators=(",", ":")).encode("utf-8")
            self._bound_meta(len(sidecar))
            body = body[:-1] + b',"_meta":' + sidecar + b"}"
        return body

    def _frame(self, tag: int, flags: int, body: bytes) -> bytes:
        if len(body) > self.max_frame:
            raise ValueError(
                f"frame body of {len(body)} bytes exceeds max_frame "
                f"({self.max_frame})"
            )
        return _HEADER.pack(MAGIC_BINARY_V1, tag, flags, len(body)) + body

    # -- ``_meta`` sidecar hygiene, either side of the wire -------------
    # Only the *shape* (a JSON object) and *size* are checked — never the
    # keys, so newer peers may attach sidecar fields older peers simply
    # ignore.  The size is measured on bytes the caller already holds.
    @staticmethod
    def _require_meta_object(meta) -> None:
        if not isinstance(meta, dict):
            raise ValueError(
                f"frame _meta sidecar must be a JSON object, got "
                f"{type(meta).__name__}"
            )

    def _bound_meta(self, size: int) -> None:
        if size > self.max_meta:
            raise ValueError(
                f"frame _meta sidecar of {size} bytes exceeds max_meta "
                f"({self.max_meta})"
            )

    def _pack_meta(self, meta) -> bytes:
        """The validated packed sidecar bytes (layout in the module
        docstring); ``max_meta`` bounds the packed size."""
        self._require_meta_object(meta)
        bits = 0
        span = epochs = tail = None
        for key, value in meta.items():
            if key == "span" and _packable_span(value):
                bits |= _META_SPAN
                span = value
            elif key == "sampled" and value.__class__ is bool:
                bits |= _META_SAMPLED | (_META_SAMPLED_TRUE if value else 0)
            elif key == "epochs" and _packable_epochs(value):
                bits |= _META_EPOCHS
                epochs = value
            else:
                if tail is None:
                    tail = {}
                    bits |= _META_TAIL
                tail[key] = value
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
        if tail is not None:
            sidecar += json.dumps(tail, separators=(",", ":")).encode("utf-8")
        self._bound_meta(len(sidecar))
        return bytes(sidecar)

    def _unpack_meta(self, data: bytes) -> dict:
        """Inverse of :meth:`_pack_meta`; anything it would not have
        written raises ``ValueError``."""
        bits, offset = read_uvarint(data, 0)
        if bits & ~_META_FIELDS or (
            bits & _META_SAMPLED_TRUE and not bits & _META_SAMPLED
        ):
            raise ValueError(
                f"unknown _meta sidecar field bits 0x{bits:x}; stream is corrupt"
            )
        meta: dict = {}
        if bits & _META_SPAN:
            node, offset = read_svarint(data, offset)
            sid, offset = read_uvarint(data, offset)
            meta["span"] = [node, sid]
        if bits & _META_SAMPLED:
            meta["sampled"] = bool(bits & _META_SAMPLED_TRUE)
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
        if bits & _META_TAIL:
            tail = json.loads(data[offset:].decode("utf-8"))
            self._require_meta_object(tail)
            if not tail or not meta.keys().isdisjoint(tail):
                raise ValueError(
                    "_meta sidecar tail is empty or repeats a packed key; "
                    "stream is corrupt"
                )
            meta.update(tail)
        elif offset != len(data):
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
                # JSON in a frame (a tag-0 body, a sidecar tail, an
                # AppMessage payload) nested past the interpreter's
                # stack: corrupt like any other malformed frame, and it
                # must reach the transport as the one error it closes on.
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
        if flags & ~_FLAG_META or (flags and tag in (TAG_ACK, TAG_JSON)):
            raise ValueError(
                f"frame flags 0x{flags:02x} on tag {tag}; stream is corrupt"
            )
        if tag == TAG_ACK:
            n, offset = read_uvarint(body, 0)
            if offset != len(body):
                raise ValueError("trailing bytes after packed ack frame")
            return {"type": ACK_TYPE, "n": n}, None
        if tag == TAG_JSON:
            return self._decode_json(body)
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

    def _decode_json(self, body: bytes) -> Tuple[object, Optional[dict]]:
        data = json.loads(body.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError(
                f"frame body must be a JSON object, got {type(data).__name__}"
            )
        kind = data.get("type")
        if kind == HELLO_TYPE:
            return data, None
        if str(kind).startswith("__"):
            raise ValueError(f"meta type {kind!r} in a tag-0 frame; stream is corrupt")
        meta = data.pop("_meta", None)
        if meta is not None:
            self._require_meta_object(meta)
            # The sidecar is a substring of the body in hand, so a body
            # within max_meta cannot hold an oversized one; only a longer
            # body needs the sidecar measured on its own.
            if len(body) > self.max_meta:
                self._bound_meta(len(json.dumps(meta, separators=(",", ":"))))
        # The body is schemaless JSON from outside: a missing key or a
        # value of the wrong shape is a corrupt stream like any other,
        # and must reach the transport as the one error it closes on.
        try:
            return message_from_dict(data), meta
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed {kind} frame body: {exc!r}") from exc

    # ------------------------------------------------------------------
    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a complete frame."""
        return len(self._buffer)
