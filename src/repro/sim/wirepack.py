"""Packed binary bodies for the control-plane message dataclasses.

Every :mod:`repro.sim.messages` dataclass has exactly one wire form, the
packed body defined here — the payload layer of the wire protocol
(:class:`repro.net.FrameCodec`).  The round-trip contract
``unpack_message(*pack_message(m)) == m`` holds for every message type,
pinned by the property suite in ``tests/property/test_wire.py``.

Layout conventions
------------------
* **uvarint** — LEB128 unsigned varint (7 bits per byte, little-endian
  groups, continuation bit 0x80).  Used for counts, lengths, sequence
  numbers and vector sizes.
* **svarint** — zigzag-mapped uvarint (``(v << 1) ^ (v >> 63)`` in the
  signed sense, but unbounded — Python ints never truncate).  Used for
  every id field that could conceivably be negative (owners, members,
  origin/dest) and for ``AppMessage`` piggyback components.
* **bounds block** — every timestamp an ``IntervalReport`` carries
  (the head interval's ``lo``/``hi`` and those of all its ``⊓``
  provenance) travels in one block at the end of the body, written and
  read in a single numpy pass; see :func:`_pack_report`.

Message tags are part of the stable wire schema.  Tag 0 is reserved by
the frame layer for the ``__hello__`` that opens a connection.  Tag 1
was the per-bound scheme-tagged ``IntervalReport`` body of codec
version 1; it is retired — nothing emits it and the decoder rejects it
— and never reused.
"""

from __future__ import annotations

import json
from typing import List, Tuple

import numpy as np

from ..intervals import Interval
from .messages import (
    AppMessage,
    AttachAccept,
    AttachRequest,
    DetachNotice,
    Heartbeat,
    IntervalReport,
)

__all__ = [
    "TAG_HELLO",
    "TAG_HEARTBEAT",
    "TAG_APP_MESSAGE",
    "TAG_ATTACH_REQUEST",
    "TAG_ATTACH_ACCEPT",
    "TAG_DETACH_NOTICE",
    "TAG_ACK",
    "TAG_INTERVAL_REPORT_BLOCK",
    "write_uvarint",
    "read_uvarint",
    "write_svarint",
    "read_svarint",
    "pack_message",
    "unpack_message",
]

#: The ``__hello__`` meta frame: a JSON object, written and read by the
#: frame codec itself.
TAG_HELLO = 0
TAG_HEARTBEAT = 2
TAG_APP_MESSAGE = 3
TAG_ATTACH_REQUEST = 4
TAG_ATTACH_ACCEPT = 5
TAG_DETACH_NOTICE = 6
#: Transport acknowledgement (``{"type": "__ack__", "n": N}``): packed
#: by the frame codec itself (a single uvarint body), listed here so the
#: tag space has one home.
TAG_ACK = 7
#: ``IntervalReport`` with all its timestamps in one bounds block.
TAG_INTERVAL_REPORT_BLOCK = 8

#: Hard cap on varint length: 10 bytes covers 70 bits, enough for any
#: zigzagged int64.  Longer runs indicate a corrupt or hostile stream.
_MAX_VARINT_BYTES = 10

#: Bounds-block width code (= bytes per component) -> unsigned
#: big-endian dtype.
_WIDTHS = {
    1: np.dtype("u1"),
    2: np.dtype(">u2"),
    4: np.dtype(">u4"),
    8: np.dtype(">u8"),
}
#: Base width code of a block whose rows are plain signed 8-byte
#: components with no base row (some component is negative).
_NO_BASE = 0
_SIGNED = np.dtype(">i8")


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
    if offset < len(data):
        byte = data[offset]
        if byte < 0x80:  # one byte: most counts, ids and sequence numbers
            return byte, offset + 1
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
# interval reports
# ----------------------------------------------------------------------
def _width(peak: int) -> int:
    """The narrowest width code whose unsigned range holds *peak*."""
    if peak < 1 << 8:
        return 1
    if peak < 1 << 16:
        return 2
    if peak < 1 << 32:
        return 4
    return 8


def _pack_report(message) -> bytes:
    """The :data:`TAG_INTERVAL_REPORT_BLOCK` body::

        svarint origin, dest · uvarint transport_seq · uvarint n · uvarint m
        m × (svarint owner · uvarint seq · uvarint #members · svarint member…
             · uvarint #parts)
        bounds block

    ``m`` counts the intervals in the frame: the head first, then its
    provenance in pre-order (``#parts`` is what rebuilds the tree).  The
    bounds block is the ``(2m, n)`` array of their rows ``lo₀ hi₀ lo₁
    hi₁ …`` written as narrow offsets from a per-frame base row: two
    width codes (bytes per component, each one of 1/2/4/8), the base row
    ``block.min(axis=0)`` at the first width, then ``block - base`` at
    the second, both unsigned big-endian.  Clocks that sit near each
    other — a head and the intervals it aggregates always do — therefore
    cost one or two bytes per component whatever their magnitude.  A
    block with a negative component has no base (code :data:`_NO_BASE`)
    and carries plain signed 8-byte rows, so the whole int64 range
    round-trips.  Nothing refers to an earlier frame.

    A provenance that mixes vector widths (no single ``n``) raises
    ``ValueError``; ``⊓`` never builds one."""
    head = message.interval
    n = head.n
    tree = bytearray()
    rows: List[np.ndarray] = []
    pending = [head]
    while pending:
        interval = pending.pop()
        if interval.n != n:
            raise ValueError(
                f"report provenance mixes vector widths ({interval.n} in a "
                f"width-{n} report); it has no packed form"
            )
        write_svarint(tree, interval.owner)
        write_uvarint(tree, interval.seq)
        members = sorted(interval.members)
        write_uvarint(tree, len(members))
        for member in members:
            write_svarint(tree, int(member))
        write_uvarint(tree, len(interval.parts))
        pending.extend(reversed(interval.parts))
        rows += (interval.lo, interval.hi)
    buf = bytearray()
    write_svarint(buf, message.origin)
    write_svarint(buf, message.dest)
    write_uvarint(buf, message.transport_seq)
    write_uvarint(buf, n)
    write_uvarint(buf, len(rows) // 2)
    buf += tree
    block = np.concatenate(rows).reshape(len(rows), n)
    base = block.min(axis=0)
    if base.min(initial=0) < 0:
        buf.append(_NO_BASE)
        buf.append(8)
        buf += block.astype(_SIGNED).tobytes()
    else:
        off = block - base
        base_width = _width(int(base.max(initial=0)))
        off_width = _width(int(off.max(initial=0)))
        buf.append(base_width)
        buf.append(off_width)
        buf += base.astype(_WIDTHS[base_width]).tobytes()
        buf += off.astype(_WIDTHS[off_width]).tobytes()
    return bytes(buf)


def _unpack_report(data: bytes, offset: int) -> Tuple[object, int]:
    """Invert :func:`_pack_report`.  Everything a hostile frame could
    inflate — the block's size, the provenance tree's shape — is checked
    against the bytes actually present before it is acted on."""
    origin, offset = read_svarint(data, offset)
    dest, offset = read_svarint(data, offset)
    transport_seq, offset = read_uvarint(data, offset)
    n, offset = read_uvarint(data, offset)
    m, offset = read_uvarint(data, offset)
    tree = []
    for _ in range(m):
        owner, offset = read_svarint(data, offset)
        seq, offset = read_uvarint(data, offset)
        count, offset = read_uvarint(data, offset)
        members = []
        for _ in range(count):
            member, offset = read_svarint(data, offset)
            members.append(member)
        nparts, offset = read_uvarint(data, offset)
        tree.append((owner, seq, frozenset(members), nparts))

    if offset + 2 > len(data):
        raise ValueError("truncated bounds block in packed frame body")
    base_width, off_width = data[offset], data[offset + 1]
    offset += 2
    based = base_width != _NO_BASE
    known = base_width in _WIDTHS if based else off_width == 8
    if not known or off_width not in _WIDTHS:
        raise ValueError(
            f"unknown bounds block width codes ({base_width}, {off_width})"
        )
    cells = 2 * m * n
    start = offset + base_width * n
    end = start + off_width * cells
    if end > len(data):
        raise ValueError(
            f"bounds block of {end - offset} bytes overruns the "
            f"{len(data) - offset} present in packed frame body"
        )
    block = (
        np.frombuffer(data, _WIDTHS[off_width] if based else _SIGNED, cells, start)
        .astype(np.int64)
        .reshape(2 * m, n)
    )
    if based:
        base = np.frombuffer(data, _WIDTHS[base_width], n, offset).astype(np.int64)
        off, block = block, block + base
        # Only 8-byte components can leave the non-negative int64 range
        # (wrapping on the cast or on the sum); no encoder writes those.
        if 8 in (base_width, off_width) and (
            min(base.min(initial=0), off.min(initial=0), block.min(initial=0)) < 0
        ):
            raise ValueError("bounds block overflows int64")
    # The block is the frame's own copy (never the receive buffer), made
    # read-only and checked once: every row pair in order, which is the
    # check each interval's constructor would repeat row by row.
    block.setflags(write=False)
    los, his = block[0::2], block[1::2]
    if np.count_nonzero(los > his):
        bad = int(np.flatnonzero((los > his).any(axis=1))[0])
        raise ValueError(
            f"interval bounds out of order in packed frame body: row {bad} "
            f"lo={los[bad].tolist()} hi={his[bad].tolist()}"
        )

    # Pre-order, read backwards: when interval i is reached every later
    # subtree is finished, and its parts are the #parts most recent
    # ones.  Iterative, so a deep chain cannot exhaust the stack.
    build = Interval._checked
    done: List[Interval] = []
    for i in range(m - 1, -1, -1):
        owner, seq, members, nparts = tree[i]
        cut = len(done) - nparts
        if cut < 0:
            raise ValueError("provenance tree overruns the frame's intervals")
        parts = tuple(reversed(done[cut:]))
        del done[cut:]
        # Read-only row views: the intervals of one frame share its block.
        done.append(build(owner, seq, los[i], his[i], members, parts))
    if len(done) != 1:
        raise ValueError("provenance tree does not use the frame's intervals")
    report = IntervalReport(
        origin=origin, dest=dest, interval=done[0], transport_seq=transport_seq
    )
    return report, end


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
def pack_message(message: object) -> Tuple[int, bytes]:
    """One dataclass -> ``(tag, packed body)``.  A type with no packed
    form raises ``TypeError``; a report whose provenance mixes vector
    widths raises ``ValueError``."""
    if isinstance(message, IntervalReport):
        return TAG_INTERVAL_REPORT_BLOCK, _pack_report(message)
    buf = bytearray()
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
    raise TypeError(f"unserializable message type {type(message).__name__}")


def unpack_message(tag: int, data: bytes, offset: int = 0) -> Tuple[object, int]:
    """Invert :func:`pack_message`; returns ``(message, new_offset)`` so
    the frame layer can read a trailing sidecar.  Unknown tags (the
    retired tag 1 among them) and any structural damage (truncation, bad
    width codes, a malformed provenance tree) raise :class:`ValueError`."""
    if tag == TAG_INTERVAL_REPORT_BLOCK:
        return _unpack_report(data, offset)
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
        try:
            piggyback = np.asarray(components, dtype=np.int64)
        except OverflowError as exc:  # a varint carries up to 70 bits
            raise ValueError("AppMessage piggyback component outside int64") from exc
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
