"""Packed binary bodies for the control-plane message dataclasses.

:mod:`repro.sim.serialize` defines the canonical *JSON* forms of every
:mod:`repro.sim.messages` dataclass; this module defines the equivalent
*packed* forms — the payload layer of the binary wire protocol
(:class:`repro.net.FrameCodec` with ``wire="binary"``).  Both layers
serialize exactly the same information, so the round-trip contract is
shared: ``unpack_message(*pack_message(m)) == m`` for every message
type, pinned by the property suite in ``tests/property/test_wire.py``.

Layout conventions
------------------
* **uvarint** — LEB128 unsigned varint (7 bits per byte, little-endian
  groups, continuation bit 0x80).  Used for counts, lengths, sequence
  numbers and vector sizes.
* **svarint** — zigzag-mapped uvarint (``(v << 1) ^ (v >> 63)`` in the
  signed sense, but unbounded — Python ints never truncate).  Used for
  every value field that could conceivably be negative, and for
  timestamp components in sparse/differential payloads: a ``2**62``
  component costs 9 bytes instead of 19 JSON digits.
* **bounds** — an interval's ``lo``/``hi`` vectors are each a one-byte
  scheme tag (:data:`SCHEME_RAW` / :data:`SCHEME_SPARSE` /
  :data:`SCHEME_DIFFERENTIAL`) followed by the scheme payload:

  - raw: ``n`` big-endian int64s (``8*n`` bytes, bulk-copied via numpy);
  - sparse / differential: ``uvarint count`` then ``count`` pairs of
    ``uvarint index, svarint value`` (the :mod:`repro.clocks.encoding`
    pair lists, packed).

  The *choice* of scheme and the per-channel reference chains live in
  the frame codec, injected through the ``bounds`` hooks below; the
  default hooks (used for nested aggregation provenance, which never
  compresses) handle raw and reference-free sparse payloads.

Message tags are part of the stable wire schema, mirroring the JSON
``type`` strings one-to-one (:data:`MESSAGE_TAGS`).  Tag 0 is reserved
by the frame layer for the JSON escape hatch (meta frames and message
types unknown to the packer), so packed message tags start at 1.
"""

from __future__ import annotations

import json
from typing import Callable, Optional, Tuple

import numpy as np

from ..clocks.encoding import decode_differential, decode_sparse
from ..intervals import Interval

__all__ = [
    "TAG_JSON",
    "TAG_INTERVAL_REPORT",
    "TAG_HEARTBEAT",
    "TAG_APP_MESSAGE",
    "TAG_ATTACH_REQUEST",
    "TAG_ATTACH_ACCEPT",
    "TAG_DETACH_NOTICE",
    "TAG_ACK",
    "MESSAGE_TAGS",
    "SCHEME_RAW",
    "SCHEME_SPARSE",
    "SCHEME_DIFFERENTIAL",
    "SCHEME_NAMES",
    "write_uvarint",
    "read_uvarint",
    "write_svarint",
    "read_svarint",
    "pack_pairs",
    "pack_message",
    "unpack_message",
    "default_decode_bound",
]

#: Frame-layer escape hatch: the body is a JSON object (a ``__``-meta
#: frame, or a message type this packer does not know).
TAG_JSON = 0
TAG_INTERVAL_REPORT = 1
TAG_HEARTBEAT = 2
TAG_APP_MESSAGE = 3
TAG_ATTACH_REQUEST = 4
TAG_ATTACH_ACCEPT = 5
TAG_DETACH_NOTICE = 6
#: Transport acknowledgement (``{"type": "__ack__", "n": N}``): packed
#: by the frame codec itself (a single uvarint body), listed here so the
#: tag space has one home.
TAG_ACK = 7

#: JSON ``type`` string -> packed tag, one-to-one.
MESSAGE_TAGS = {
    "IntervalReport": TAG_INTERVAL_REPORT,
    "Heartbeat": TAG_HEARTBEAT,
    "AppMessage": TAG_APP_MESSAGE,
    "AttachRequest": TAG_ATTACH_REQUEST,
    "AttachAccept": TAG_ATTACH_ACCEPT,
    "DetachNotice": TAG_DETACH_NOTICE,
}

SCHEME_RAW = 0
SCHEME_SPARSE = 1
SCHEME_DIFFERENTIAL = 2
#: scheme byte -> the :func:`repro.clocks.encoding.best_encoding` name.
SCHEME_NAMES = {
    SCHEME_RAW: "raw",
    SCHEME_SPARSE: "sparse",
    SCHEME_DIFFERENTIAL: "differential",
}

#: Hard cap on varint length: 10 bytes covers 70 bits, enough for any
#: zigzagged int64.  Longer runs indicate a corrupt or hostile stream.
_MAX_VARINT_BYTES = 10

#: Encode hook signature: ``(slot, timestamp) -> (scheme, payload bytes)``
#: where ``slot`` is 0 for ``lo`` and 1 for ``hi``.
EncodeBound = Callable[[int, np.ndarray], Tuple[int, bytes]]
#: Decode hook signature: ``(slot, scheme, payload, n) -> timestamp``
#: where ``payload`` is an int64 array (raw) or an ``(index, value)``
#: pair list (sparse/differential).
DecodeBound = Callable[[int, int, object, int], np.ndarray]


# ----------------------------------------------------------------------
# varint primitives
# ----------------------------------------------------------------------
def write_uvarint(buf: bytearray, value: int) -> None:
    """Append *value* (non-negative int) to *buf* as a LEB128 varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def read_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    """Read a LEB128 varint from ``data[offset:]``; returns
    ``(value, new_offset)``.  Truncated or over-long runs raise
    :class:`ValueError` (the frame layer treats that as a poisoned
    stream)."""
    value = 0
    shift = 0
    limit = len(data)
    for count in range(_MAX_VARINT_BYTES):
        if offset >= limit:
            raise ValueError("truncated varint in packed frame body")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
    raise ValueError("over-long varint in packed frame body")


def write_svarint(buf: bytearray, value: int) -> None:
    """Append a signed int as a zigzag-mapped varint."""
    write_uvarint(buf, (value << 1) ^ (value >> 63) if value < 0 else value << 1)


def read_svarint(data: bytes, offset: int) -> Tuple[int, int]:
    raw, offset = read_uvarint(data, offset)
    return (raw >> 1) ^ -(raw & 1), offset


# ----------------------------------------------------------------------
# bounds (timestamp vectors)
# ----------------------------------------------------------------------
def pack_pairs(indices: np.ndarray, values: np.ndarray) -> bytes:
    """A sparse/differential payload — parallel index/value arrays, as
    :func:`repro.clocks.encoding.pair_arrays` builds them — packed as
    ``uvarint count`` + ``count`` × (``uvarint index, svarint value``)."""
    buf = bytearray()
    write_uvarint(buf, len(indices))
    for index, value in zip(indices.tolist(), values.tolist()):
        write_uvarint(buf, index)
        write_svarint(buf, value)
    return bytes(buf)


def _pack_bound(
    buf: bytearray, ts: np.ndarray, slot: int, bounds: Optional[EncodeBound]
) -> None:
    if bounds is None:
        buf.append(SCHEME_RAW)
        buf += np.ascontiguousarray(ts, dtype=np.int64).astype(">i8").tobytes()
        return
    scheme, payload = bounds(slot, ts)
    buf.append(scheme)
    buf += payload


def _unpack_bound(
    data: bytes,
    offset: int,
    n: int,
    slot: int,
    bounds: Optional[DecodeBound],
) -> Tuple[np.ndarray, int]:
    if offset >= len(data):
        raise ValueError("truncated interval bounds in packed frame body")
    scheme = data[offset]
    offset += 1
    if scheme == SCHEME_RAW:
        end = offset + 8 * n
        if end > len(data):
            raise ValueError("truncated raw timestamp in packed frame body")
        payload: object = np.frombuffer(data, dtype=">i8", count=n, offset=offset).astype(
            np.int64
        )
        offset = end
    elif scheme in (SCHEME_SPARSE, SCHEME_DIFFERENTIAL):
        count, offset = read_uvarint(data, offset)
        pairs = []
        for _ in range(count):
            index, offset = read_uvarint(data, offset)
            value, offset = read_svarint(data, offset)
            pairs.append((index, value))
        payload = pairs
    else:
        raise ValueError(f"unknown timestamp scheme byte {scheme}")
    decode = bounds if bounds is not None else default_decode_bound
    return decode(slot, scheme, payload, n), offset


def default_decode_bound(slot: int, scheme: int, payload: object, n: int) -> np.ndarray:
    """Reference-free bound decoding (nested provenance, tests): raw
    arrays pass through, pair lists decode as sparse (a differential
    payload with no reference *is* sparse, per
    :func:`repro.clocks.encoding.decode_differential`)."""
    if scheme == SCHEME_RAW:
        return np.asarray(payload, dtype=np.int64)
    if scheme == SCHEME_SPARSE:
        return np.asarray(decode_sparse(payload, n), dtype=np.int64)
    return np.asarray(decode_differential(payload, None, n), dtype=np.int64)


# ----------------------------------------------------------------------
# intervals
# ----------------------------------------------------------------------
def _pack_interval(
    buf: bytearray,
    interval: Interval,
    *,
    include_parts: bool,
    bounds: Optional[EncodeBound],
) -> None:
    write_svarint(buf, interval.owner)
    write_uvarint(buf, interval.seq)
    write_uvarint(buf, interval.n)
    _pack_bound(buf, interval.lo, 0, bounds)
    _pack_bound(buf, interval.hi, 1, bounds)
    members = sorted(interval.members)
    write_uvarint(buf, len(members))
    for member in members:
        write_svarint(buf, int(member))
    parts = interval.parts if include_parts else ()
    write_uvarint(buf, len(parts))
    for part in parts:
        # Provenance bounds stay raw and reference-free, exactly like
        # the JSON path: the compression chain is tied to the *head*
        # timestamps only, keeping both ends' state trivially in
        # lockstep (see FrameCodec._compress_interval).
        _pack_interval(buf, part, include_parts=include_parts, bounds=None)


def _unpack_interval(
    data: bytes, offset: int, *, bounds: Optional[DecodeBound]
) -> Tuple[Interval, int]:
    owner, offset = read_svarint(data, offset)
    seq, offset = read_uvarint(data, offset)
    n, offset = read_uvarint(data, offset)
    lo, offset = _unpack_bound(data, offset, n, 0, bounds)
    hi, offset = _unpack_bound(data, offset, n, 1, bounds)
    count, offset = read_uvarint(data, offset)
    members = []
    for _ in range(count):
        member, offset = read_svarint(data, offset)
        members.append(member)
    count, offset = read_uvarint(data, offset)
    parts = []
    for _ in range(count):
        part, offset = _unpack_interval(data, offset, bounds=None)
        parts.append(part)
    interval = Interval(
        owner=owner,
        seq=seq,
        lo=np.asarray(lo, dtype=np.int64),
        hi=np.asarray(hi, dtype=np.int64),
        members=frozenset(members),
        parts=tuple(parts),
    )
    return interval, offset


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
def pack_message(
    message: object,
    *,
    include_parts: bool = True,
    bounds: Optional[EncodeBound] = None,
) -> Optional[Tuple[int, bytes]]:
    """One dataclass -> ``(tag, packed body)``, or ``None`` when the
    type has no packed form (the caller falls back to the JSON escape
    hatch, so unknown/cold types keep working on a binary wire)."""
    from .messages import (
        AppMessage,
        AttachAccept,
        AttachRequest,
        DetachNotice,
        Heartbeat,
        IntervalReport,
    )

    buf = bytearray()
    if isinstance(message, IntervalReport):
        write_svarint(buf, message.origin)
        write_svarint(buf, message.dest)
        write_uvarint(buf, message.transport_seq)
        _pack_interval(
            buf, message.interval, include_parts=include_parts, bounds=bounds
        )
        return TAG_INTERVAL_REPORT, bytes(buf)
    if isinstance(message, Heartbeat):
        write_svarint(buf, message.sender)
        return TAG_HEARTBEAT, bytes(buf)
    if isinstance(message, AppMessage):
        payload = json.dumps(message.payload, separators=(",", ":")).encode("utf-8")
        write_uvarint(buf, len(payload))
        buf += payload
        piggyback = message.piggyback
        write_uvarint(buf, int(piggyback.shape[0]))
        for component in piggyback.tolist():
            write_svarint(buf, component)
        return TAG_APP_MESSAGE, bytes(buf)
    if isinstance(message, AttachRequest):
        write_svarint(buf, message.child)
        subtree = sorted(int(m) for m in message.subtree)
        write_uvarint(buf, len(subtree))
        for member in subtree:
            write_svarint(buf, member)
        return TAG_ATTACH_REQUEST, bytes(buf)
    if isinstance(message, AttachAccept):
        write_svarint(buf, message.parent)
        return TAG_ATTACH_ACCEPT, bytes(buf)
    if isinstance(message, DetachNotice):
        write_svarint(buf, message.child)
        return TAG_DETACH_NOTICE, bytes(buf)
    return None


def unpack_message(
    tag: int,
    data: bytes,
    offset: int = 0,
    *,
    bounds: Optional[DecodeBound] = None,
) -> Tuple[object, int]:
    """Invert :func:`pack_message`; returns ``(message, new_offset)`` so
    the frame layer can read a trailing sidecar.  Unknown tags and any
    structural damage (truncation, bad scheme bytes) raise
    :class:`ValueError`."""
    from .messages import (
        AppMessage,
        AttachAccept,
        AttachRequest,
        DetachNotice,
        Heartbeat,
        IntervalReport,
    )

    if tag == TAG_INTERVAL_REPORT:
        origin, offset = read_svarint(data, offset)
        dest, offset = read_svarint(data, offset)
        transport_seq, offset = read_uvarint(data, offset)
        interval, offset = _unpack_interval(data, offset, bounds=bounds)
        return (
            IntervalReport(
                origin=origin,
                dest=dest,
                interval=interval,
                transport_seq=transport_seq,
            ),
            offset,
        )
    if tag == TAG_HEARTBEAT:
        sender, offset = read_svarint(data, offset)
        return Heartbeat(sender=sender), offset
    if tag == TAG_APP_MESSAGE:
        length, offset = read_uvarint(data, offset)
        end = offset + length
        if end > len(data):
            raise ValueError("truncated AppMessage payload in packed frame body")
        payload = json.loads(data[offset:end].decode("utf-8"))
        offset = end
        n, offset = read_uvarint(data, offset)
        components = []
        for _ in range(n):
            component, offset = read_svarint(data, offset)
            components.append(component)
        piggyback = np.asarray(components, dtype=np.int64)
        return AppMessage(payload=payload, piggyback=piggyback), offset
    if tag == TAG_ATTACH_REQUEST:
        child, offset = read_svarint(data, offset)
        count, offset = read_uvarint(data, offset)
        members = []
        for _ in range(count):
            member, offset = read_svarint(data, offset)
            members.append(member)
        return AttachRequest(child=child, subtree=frozenset(members)), offset
    if tag == TAG_ATTACH_ACCEPT:
        parent, offset = read_svarint(data, offset)
        return AttachAccept(parent=parent), offset
    if tag == TAG_DETACH_NOTICE:
        child, offset = read_svarint(data, offset)
        return DetachNotice(child=child), offset
    raise ValueError(f"unknown packed message tag {tag}")
