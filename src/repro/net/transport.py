"""Transports: how framed control messages move between node runtimes.

Two implementations of one :class:`Transport` surface:

* :class:`LoopbackTransport` — an in-process hub.  Messages still go
  through the full encode → bytes → decode path (so codec bugs cannot
  hide), but delivery is a ``loop.call_soon``; unit and equivalence
  tests need no ports, no listeners, no reconnect races.
* :class:`TcpTransport` — real sockets.  Each node runs one asyncio
  server; each directed peer link is an outbound connection owned by a
  writer task with a bounded outbox, capped-exponential-backoff
  redials, and head-retransmit on connection loss (at-least-once — the
  receiving role's :class:`~repro.intervals.queues.ReorderBuffer`
  already rejects duplicates by ``transport_seq``, which the runtime
  turns into a counted, non-fatal event).

Backpressure is explicit: every link's outbox is bounded.  Crossing the
high watermark flips the link to a "congested" state (gauge + event);
hitting ``max_outbox`` drops the *newest* message and counts it under
``repro_net_outbox_dropped_total`` — detection stays correct because
interval reports are retried end-to-end by sequence-numbered
retransmission at the role layer's reorder semantics, and because a
drop here models exactly the lossy-channel case the paper's detector
already survives.

Peer-death evidence is part of the contract: a transport that holds
*proof* a peer is gone — not silence, which only a timeout can judge —
reports it through the handler installed with
:meth:`Transport.set_peer_down_handler`.  For TCP the proof is a
refused redial on a link that had completed its hello (the listener we
once had a session with no longer exists); EOF alone is not, because a
connection can flap while the peer lives.  For loopback it is the
peer's detach from the hub.  Each episode is reported once.

The sim :class:`~repro.sim.network.Network` registers
``repro_net_sent_total`` etc. with different labels, so the socket
metrics use their own distinct names (``repro_net_bytes_sent_total``,
``repro_net_frames_total``, …) and both stacks can share one registry.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from ..obs.registry import count_error
from .codec import ACK_TYPE, CODEC_VERSION, HELLO_TYPE, FrameCodec

__all__ = [
    "Transport",
    "LoopbackHub",
    "LoopbackTransport",
    "TcpTransport",
    "SEND_LATENCY_BUCKETS",
    "ACK_TYPE",
]

#: Wall-clock send-latency buckets (seconds): localhost frames land in
#: sub-millisecond territory; the tail covers backoff-redial stalls.
SEND_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, float("inf"),
)

#: Inbound dispatch callback, called as ``(src, message, meta)`` where
#: ``meta`` is the frame's optional ``_meta`` sidecar (``None`` when the
#: frame carried none).
Receiver = Callable[[int, object, Optional[dict]], None]


def _negotiated(hello: dict) -> Dict[str, object]:
    """The :attr:`TcpTransport.negotiated` record a ``__hello__``
    announces.  A hello without an integer ``node`` and ``codec``
    raises ``ValueError`` — a corrupt stream, which the inbound handler
    poisons like any other."""
    node, codec = hello.get("node"), hello.get("codec")
    if node.__class__ is not int or codec.__class__ is not int:
        raise ValueError(
            f"__hello__ needs an integer node and codec, got "
            f"{type(node).__name__} and {type(codec).__name__}"
        )
    return {"node": node, "codec": codec}


class Transport(Protocol):
    """What a :class:`~repro.net.runtime.NodeRuntime` needs from its
    message plane."""

    node_id: int

    def set_receiver(self, receiver: Receiver) -> None:
        """Install the inbound dispatch callback ``(src, message, meta)``."""

    def set_peer_down_handler(self, handler: Callable[[int], None]) -> None:
        """Install the peer-death callback ``(peer)``: called once per
        episode when the transport holds evidence (see module docstring)
        that a peer it had a session with is gone."""

    def send(self, dst: int, message: object, meta: Optional[dict] = None) -> None:
        """Enqueue *message* for *dst* (non-blocking, fire-and-forget).
        ``meta`` is an optional JSON-safe frame sidecar delivered to the
        peer's receiver alongside the message."""

    async def start(self) -> None:
        """Bring the transport up (bind listeners, join the hub)."""

    async def stop(self) -> None:
        """Tear everything down; no callbacks fire afterwards."""

    async def drain(self) -> None:
        """Wait until queued outbound traffic is flushed."""

    def drop_peer(self, peer: int) -> None:
        """Forget *peer*: discard its outbox and stop redialling it."""

    def congested_peers(self) -> Tuple[int, ...]:
        """Peers whose outbound link sits above its high watermark now."""


class _Instruments:
    """The socket-plane metric family, shared by both transports.

    ``clock`` may be a whole :class:`AsyncClock` or a per-node
    :class:`~repro.net.clock.ClockScope` — metrics land in whichever
    registry that handle owns."""

    def __init__(self, clock) -> None:
        registry = clock.telemetry.registry
        self.bytes_sent = registry.counter_vec(
            "repro_net_bytes_sent_total",
            "Socket-plane bytes written, per node.",
            ("node",),
        )
        self.bytes_received = registry.counter_vec(
            "repro_net_bytes_received_total",
            "Socket-plane bytes read, per node.",
            ("node",),
        )
        self.frames = registry.counter_vec(
            "repro_net_frames_total",
            "Frames moved on the socket plane.",
            ("node", "direction", "type"),
        )
        self.reconnects = registry.counter_vec(
            "repro_net_reconnects_total",
            "Peer-link (re)connections established.",
            ("node",),
        )
        self.dropped = registry.counter_vec(
            "repro_net_outbox_dropped_total",
            "Outbound messages dropped by the bounded outbox.",
            ("node", "reason"),
        )
        self.outbox_depth = clock.telemetry.registry.gauge_vec(
            "repro_net_outbox_depth",
            "Messages waiting in a peer link's outbox.",
            ("node", "peer"),
        )
        self.send_latency = registry.histogram(
            "repro_net_send_latency_seconds",
            "Wall seconds from enqueue to the first successful socket "
            "write (once per message; retransmissions do not observe).",
            SEND_LATENCY_BUCKETS,
        )
        self.bytes_by_type = registry.counter_vec(
            "repro_net_bytes_total",
            "Socket-plane bytes written, per node and frame type.",
            ("node", "type"),
        )
        self.acks = registry.counter_vec(
            "repro_net_acks_total",
            "Cumulative ack frames written by inbound handlers.",
            ("node",),
        )
        self.congested_seconds = registry.counter_vec(
            "repro_net_congested_seconds_total",
            "Wall seconds a peer link spent above its congestion "
            "watermark (accumulated on each uncongest edge and at "
            "link teardown).",
            ("node", "peer"),
        )
        # Per-frame accounting runs once per message on the wire, so
        # label keys are resolved once and the bound handles cached.
        self._frame_handles: Dict[tuple, Callable[..., None]] = {}
        self._byte_handles: Dict[tuple, Callable[..., None]] = {}

    def _frame_handle(self, key: tuple) -> Callable[..., None]:
        handle = self._frame_handles.get(key)
        if handle is None:
            handle = self._frame_handles[key] = self.frames.handle(key)
        return handle

    def _byte_handle(self, vec, node: int, direction: str) -> Callable[..., None]:
        cache_key = (node, direction)
        handle = self._byte_handles.get(cache_key)
        if handle is None:
            handle = self._byte_handles[cache_key] = vec.handle(node)
        return handle

    def sent(self, node: int, message: object, nbytes: int) -> None:
        self._byte_handle(self.bytes_sent, node, "out")(nbytes)
        kind = type(message).__name__
        self._frame_handle((node, "out", kind))()
        self._typed_byte_handle(node, kind)(nbytes)

    def _typed_byte_handle(self, node: int, kind: str) -> Callable[..., None]:
        cache_key = (node, "type", kind)
        handle = self._byte_handles.get(cache_key)
        if handle is None:
            handle = self._byte_handles[cache_key] = self.bytes_by_type.handle(
                (node, kind)
            )
        return handle

    def received(self, node: int, message: object, nbytes: int = 0) -> None:
        if nbytes:
            self._byte_handle(self.bytes_received, node, "in")(nbytes)
        self._frame_handle((node, "in", type(message).__name__))()


# ----------------------------------------------------------------------
# loopback
# ----------------------------------------------------------------------
class LoopbackHub:
    """The shared "wire" of an in-process cluster: a registry of
    transports plus same-loop delivery."""

    def __init__(self) -> None:
        self.transports: Dict[int, "LoopbackTransport"] = {}

    def attach(self, transport: "LoopbackTransport") -> None:
        self.transports[transport.node_id] = transport

    def detach(self, node_id: int) -> None:
        """Remove *node_id* from the wire; every transport still
        attached learns its peer is gone (the loopback analogue of a
        refused redial)."""
        if self.transports.pop(node_id, None) is None:
            return
        for transport in list(self.transports.values()):
            transport._peer_down(node_id)


class LoopbackTransport:
    """In-process transport: full codec path, zero sockets.

    One encoder serves every destination (frames are stateless); each
    source gets a decoder of its own, as each inbound TCP connection
    does.
    """

    def __init__(
        self,
        node_id: int,
        hub: LoopbackHub,
        clock,
        *,
        codec_factory: Callable[[], FrameCodec] = FrameCodec,
        max_outbox: int = 4096,
        high_water: int = 1024,
        low_water: int = 256,
    ) -> None:
        if not 0 < low_water <= high_water <= max_outbox:
            raise ValueError(
                "watermarks must satisfy 0 < low_water <= high_water <= max_outbox"
            )
        self.node_id = node_id
        self.hub = hub
        self.clock = clock
        self.codec_factory = codec_factory
        #: Same bounded-outbox contract as :class:`TcpTransport` (same
        #: defaults, same events, same drop reason) over the per-tick
        #: flush buffer: a burst that outruns one loop tick crosses the
        #: high watermark, overflows drop at ``max_outbox``, and the
        #: tick's flush empties the buffer — which is at or below
        #: ``low_water``, the uncongest edge.
        self.max_outbox = max_outbox
        self.high_water = high_water
        self.low_water = low_water
        self.instruments = _Instruments(clock)
        self.receiver: Optional[Receiver] = None
        self.peer_down_handler: Optional[Callable[[int], None]] = None
        self._encoder = codec_factory()
        self._decoders: Dict[int, FrameCodec] = {}
        self._outbufs: Dict[int, bytearray] = {}
        self._depths: Dict[int, int] = {}
        self._congested_since: Dict[int, float] = {}
        self._flush_scheduled: set = set()
        self._running = False

    def set_receiver(self, receiver: Receiver) -> None:
        self.receiver = receiver

    def set_peer_down_handler(self, handler: Callable[[int], None]) -> None:
        self.peer_down_handler = handler

    def _peer_down(self, peer: int) -> None:
        if self._running and self.peer_down_handler is not None:
            self.peer_down_handler(peer)

    async def start(self) -> None:
        self.hub.attach(self)
        self._running = True

    async def stop(self) -> None:
        self._running = False
        for dst in list(self._congested_since):
            self._uncongest(dst)
        self.hub.detach(self.node_id)

    async def drain(self) -> None:
        # Frames batch per destination and flush on the next loop tick;
        # yielding twice covers the flush callback plus its delivery.
        await asyncio.sleep(0)
        await asyncio.sleep(0)

    def drop_peer(self, peer: int) -> None:
        self._decoders.pop(peer, None)
        self._outbufs.pop(peer, None)
        self._depths.pop(peer, None)
        if peer in self._congested_since:
            self._uncongest(peer)

    def congested_peers(self) -> Tuple[int, ...]:
        """Peers whose flush buffer currently sits above high water."""
        return tuple(sorted(self._congested_since))

    def _uncongest(self, dst: int) -> None:
        since = self._congested_since.pop(dst)
        self.instruments.congested_seconds[(self.node_id, dst)] += max(
            0.0, self.clock.now - since
        )
        self.clock.emit("net_uncongested", node=self.node_id, peer=dst)

    def send(self, dst: int, message: object, meta: Optional[dict] = None) -> None:
        if not self._running:
            return
        peer = self.hub.transports.get(dst)
        if peer is None or not peer._running:
            self.instruments.dropped[(self.node_id, "peer-down")] += 1
            return
        depth = self._depths.get(dst, 0)
        if depth >= self.max_outbox:
            self.instruments.dropped[(self.node_id, "outbox-full")] += 1
            return
        frame = self._encoder.encode(message, meta)
        self.instruments.sent(self.node_id, message, len(frame))
        # Mirror the TCP writer's flush batching: frames accumulate per
        # destination and one callback per loop tick delivers the whole
        # batch through the decoder in a single feed.
        buffer = self._outbufs.get(dst)
        if buffer is None:
            buffer = self._outbufs[dst] = bytearray()
        buffer += frame
        depth += 1
        self._depths[dst] = depth
        self.instruments.outbox_depth[(self.node_id, dst)] = depth
        if depth >= self.high_water and dst not in self._congested_since:
            self._congested_since[dst] = self.clock.now
            self.clock.emit(
                "net_congested", node=self.node_id, peer=dst, depth=depth
            )
        if dst not in self._flush_scheduled:
            self._flush_scheduled.add(dst)
            asyncio.get_running_loop().call_soon(self._flush, dst)

    def _flush(self, dst: int) -> None:
        self._flush_scheduled.discard(dst)
        data = self._outbufs.pop(dst, None)
        self._depths[dst] = 0
        self.instruments.outbox_depth[(self.node_id, dst)] = 0
        if dst in self._congested_since:
            self._uncongest(dst)
        if not data or not self._running:
            return
        peer = self.hub.transports.get(dst)
        if peer is not None and peer._running:
            peer._deliver(self.node_id, bytes(data))

    def _deliver(self, src: int, data: bytes) -> None:
        if not self._running or self.receiver is None:
            return
        codec = self._decoders.get(src)
        if codec is None:
            codec = self._decoders[src] = self.codec_factory()
        nbytes = len(data)
        for message, meta in codec.feed_meta(data):
            self.instruments.received(self.node_id, message, nbytes)
            nbytes = 0  # count batch bytes once, frames per message
            self.receiver(src, message, meta)


# ----------------------------------------------------------------------
# tcp
# ----------------------------------------------------------------------
class _PeerLink:
    """One directed outbound connection: bounded outbox + writer task.

    The writer dials with capped exponential backoff (jittered from the
    owning node's deterministic rng stream), sends a hello meta-frame,
    then drains the outbox.  Messages are *encoded at write time* with
    the owner's encoder and removed from the outbox only when the
    receiver's cumulative ack covers them — a TCP write can succeed
    into the kernel buffer of an already-dead connection, so
    pop-on-write would silently lose the frame.  Everything unacked when
    a connection dies is encoded again and retransmitted on the next one
    (at-least-once; the receiver's reorder buffer drops duplicates by
    ``transport_seq``).  A corrupt ack stream poisons the connection
    just as a corrupt inbound stream does: ``net_stream_poisoned``,
    then a hang-up and a redial.
    """

    def __init__(self, owner: "TcpTransport", peer: int, address: Tuple[str, int]):
        self.owner = owner
        self.peer = peer
        self.address = address
        #: ``[enqueued_at, message, meta]``; ``enqueued_at`` becomes
        #: ``None`` once the entry's send latency has been observed.
        self.pending: List[list] = []
        self.wake = asyncio.Event()
        self.congested = False
        self._congested_since = 0.0  # clock time the latest episode began
        self.task: Optional[asyncio.Task] = None
        self.closing = False
        #: True from a completed hello until the peer's death has been
        #: reported: a refusal is evidence only against a listener we
        #: once had a session with, and one episode is reported once.
        self.session = False
        # Per-connection state: pending[:_sent] is written-but-unacked.
        self._sent = 0
        self._acked = 0

    # -- queueing ------------------------------------------------------
    def enqueue(self, message: object, meta: Optional[dict] = None) -> None:
        owner = self.owner
        if len(self.pending) >= owner.max_outbox:
            owner.instruments.dropped[(owner.node_id, "outbox-full")] += 1
            return
        self.pending.append([owner.clock.now, message, meta])
        depth = len(self.pending)
        owner.instruments.outbox_depth[(owner.node_id, self.peer)] = depth
        if depth >= owner.high_water and not self.congested:
            self.congested = True
            self._congested_since = owner.clock.now
            owner.clock.emit(
                "net_congested", node=owner.node_id, peer=self.peer, depth=depth
            )
        self.wake.set()

    def _uncongest(self) -> None:
        """End the congestion episode: fold its duration into the
        per-link ``repro_net_congested_seconds_total`` counter and emit
        the ``net_uncongested`` edge."""
        owner = self.owner
        self.congested = False
        owner.instruments.congested_seconds[(owner.node_id, self.peer)] += max(
            0.0, owner.clock.now - self._congested_since
        )
        owner.clock.emit("net_uncongested", node=owner.node_id, peer=self.peer)

    def _after_pop(self) -> None:
        owner = self.owner
        depth = len(self.pending)
        owner.instruments.outbox_depth[(owner.node_id, self.peer)] = depth
        if self.congested and depth <= owner.low_water:
            self._uncongest()

    # -- writer task ---------------------------------------------------
    async def run(self) -> None:
        owner = self.owner
        backoff = owner.backoff_base
        rng = owner.clock.rng(f"net-backoff-{owner.node_id}")
        while not self.closing:
            try:
                reader, writer = await asyncio.open_connection(*self.address)
            except OSError as exc:
                if self.session and isinstance(exc, ConnectionRefusedError):
                    self.session = False
                    owner._peer_down(self.peer)
                await asyncio.sleep(backoff * (1.0 + float(rng.random())))
                backoff = min(backoff * 2.0, owner.backoff_cap)
                continue
            backoff = owner.backoff_base
            owner.instruments.reconnects[owner.node_id] += 1
            self._sent = 0
            self._acked = 0
            pump = ack_loop = None
            try:
                writer.write(
                    owner._encoder.encode(
                        {
                            "type": HELLO_TYPE,
                            "node": owner.node_id,
                            "codec": CODEC_VERSION,
                        }
                    )
                )
                await writer.drain()
                self.session = True
                # The pump writes, the ack loop confirms (and doubles as
                # the connection-death detector via read EOF).  Either
                # one finishing means this connection is over.
                pump = asyncio.ensure_future(self._pump(writer))
                ack_loop = asyncio.ensure_future(self._read_acks(reader))
                await asyncio.wait(
                    {pump, ack_loop}, return_when=asyncio.FIRST_COMPLETED
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                pass
            finally:
                for task in (pump, ack_loop):
                    if task is not None:
                        task.cancel()
                # Closed before the first await: a cancellation landing
                # in this block (our own stop() racing the peer's EOF)
                # must not leave the socket open.
                writer.close()
                await asyncio.gather(
                    *(t for t in (pump, ack_loop) if t is not None),
                    return_exceptions=True,
                )
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError, asyncio.CancelledError):
                    pass
            if not self.closing:
                owner.clock.emit(
                    "net_connection_lost", node=owner.node_id, peer=self.peer
                )

    async def _pump(self, writer: asyncio.StreamWriter) -> None:
        """Encode pending messages in batches and flush each batch with
        a single write + drain: per-frame syscall cost amortizes over up
        to ``flush_frames`` frames (or ``flush_bytes`` bytes), and the
        stream keeps the outbox's order, which the cumulative ack count
        relies on.

        A message's send latency is observed here, once the batch that
        first carried it has drained into the socket — not when its ack
        arrives, which would measure the peer's ``ack_delay``."""
        owner = self.owner
        while not self.closing:
            if self._sent >= len(self.pending):
                self.wake.clear()
                if self._sent < len(self.pending):
                    continue
                await self.wake.wait()
                continue
            batch: List[bytes] = []
            entries: List[list] = []
            size = 0
            while (
                self._sent + len(batch) < len(self.pending)
                and len(batch) < owner.flush_frames
                and size < owner.flush_bytes
            ):
                entry = self.pending[self._sent + len(batch)]
                frame = owner._encoder.encode(entry[1], entry[2])
                batch.append(frame)
                entries.append(entry)
                size += len(frame)
            writer.write(b"".join(batch))
            await writer.drain()
            self._sent += len(batch)
            now = owner.clock.now
            for entry, frame in zip(entries, batch):
                owner.instruments.sent(owner.node_id, entry[1], len(frame))
                if entry[0] is not None:
                    owner.instruments.send_latency.observe(now - entry[0])
                    entry[0] = None

    async def _read_acks(self, reader: asyncio.StreamReader) -> None:
        owner = self.owner
        codec = owner.codec_factory()
        while not self.closing:
            data = await reader.read(65536)
            if not data:
                return  # EOF: the peer (or its listener) went away
            try:
                frames = codec.feed(data)
            except ValueError as exc:
                # Returning ends the connection: run() hangs up and redials.
                owner.clock.emit(
                    "net_stream_poisoned",
                    node=owner.node_id,
                    src=self.peer,
                    error=repr(exc),
                )
                return
            for meta in frames:
                if not (isinstance(meta, dict) and meta.get("type") == ACK_TYPE):
                    continue
                covered = min(
                    int(meta["n"]) - self._acked, self._sent, len(self.pending)
                )
                if covered > 0:
                    del self.pending[:covered]
                    self._acked += covered
                    self._sent -= covered
                    self._after_pop()

    def close(self) -> None:
        self.closing = True
        if self.congested:
            self._uncongest()
        self.wake.set()
        if self.task is not None:
            self.task.cancel()


class TcpTransport:
    """Real-socket transport: one listener per node, one outbound link
    per peer.

    Startup is two-phase so a cluster can bind every listener on an
    ephemeral port first (``await start()``; read ``.address``) and
    wire the peer map afterwards (:meth:`set_peers`).
    """

    def __init__(
        self,
        node_id: int,
        clock,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        codec_factory: Callable[[], FrameCodec] = FrameCodec,
        max_outbox: int = 4096,
        high_water: int = 1024,
        low_water: int = 256,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        ack_every: int = 64,
        ack_delay: float = 0.05,
        flush_frames: int = 128,
        flush_bytes: int = 64 * 1024,
    ) -> None:
        if not 0 < low_water <= high_water <= max_outbox:
            raise ValueError(
                "watermarks must satisfy 0 < low_water <= high_water <= max_outbox"
            )
        if ack_every < 1 or flush_frames < 1 or flush_bytes < 1:
            raise ValueError("ack_every, flush_frames and flush_bytes must be >= 1")
        self.node_id = node_id
        self.clock = clock
        self.host = host
        self.port = port
        self.codec_factory = codec_factory
        #: Frames are stateless, so one encoder serves every link and
        #: every ack; decoders are per inbound stream (their buffers).
        self._encoder = codec_factory()
        self.max_outbox = max_outbox
        self.high_water = high_water
        self.low_water = low_water
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Coalesced-ack policy: an inbound connection acks after every
        #: ``ack_every`` message frames, or ``ack_delay`` seconds after
        #: the first unacked frame, whichever comes first (plus a final
        #: ack at connection teardown) — instead of one ack per read.
        #: An ack only lets the sender forget a message it may have to
        #: retransmit, so nothing waits on it but outbox memory: 50 ms
        #: (a fifth of the default heartbeat period) lets an ack cover
        #: every frame a leaf link sends in that time, not just one.
        self.ack_every = ack_every
        self.ack_delay = ack_delay
        #: Writer flush batching: cap on frames / bytes coalesced into a
        #: single socket write.
        self.flush_frames = flush_frames
        self.flush_bytes = flush_bytes
        #: Peer node id -> ``{"node", "codec"}`` from the last
        #: ``__hello__`` received on an inbound connection.
        self.negotiated: Dict[int, Dict[str, object]] = {}
        self.instruments = _Instruments(clock)
        self.receiver: Optional[Receiver] = None
        self.peer_down_handler: Optional[Callable[[int], None]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._links: Dict[int, _PeerLink] = {}
        self._inbound: List[asyncio.Task] = []
        self._running = False

    # ------------------------------------------------------------------
    def set_receiver(self, receiver: Receiver) -> None:
        self.receiver = receiver

    def set_peer_down_handler(self, handler: Callable[[int], None]) -> None:
        self.peer_down_handler = handler

    def _peer_down(self, peer: int) -> None:
        if self._running and self.peer_down_handler is not None:
            self.peer_down_handler(peer)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound listen address (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("transport not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_inbound, host=self.host, port=self.port
        )
        self._running = True

    def set_peers(self, addresses: Dict[int, Tuple[str, int]]) -> None:
        """Install the peer map and start one writer task per peer."""
        loop = asyncio.get_running_loop()
        for peer, address in sorted(addresses.items()):
            if peer == self.node_id or peer in self._links:
                continue
            link = _PeerLink(self, peer, address)
            link.task = loop.create_task(link.run())
            self._links[peer] = link

    async def stop(self) -> None:
        self._running = False
        for link in self._links.values():
            link.close()
        tasks = [link.task for link in self._links.values() if link.task]
        self._links.clear()
        for task in self._inbound:
            task.cancel()
        await asyncio.gather(*tasks, *self._inbound, return_exceptions=True)
        self._inbound.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self, *, poll: float = 0.005) -> None:
        """Wait until every outbox entry is acknowledged — up to the
        peer's ``ack_delay`` after the last send."""
        while any(link.pending for link in self._links.values()):
            await asyncio.sleep(poll)

    def drop_peer(self, peer: int) -> None:
        link = self._links.pop(peer, None)
        if link is not None:
            link.close()

    def congested_peers(self) -> Tuple[int, ...]:
        """Peers whose outbound link currently sits above its high
        watermark — the snapshot the traffic plane's admission gate
        probes before pushing more offers at this node."""
        return tuple(
            sorted(peer for peer, link in self._links.items() if link.congested)
        )

    # ------------------------------------------------------------------
    def send(self, dst: int, message: object, meta: Optional[dict] = None) -> None:
        if not self._running:
            return
        link = self._links.get(dst)
        if link is None:
            self.instruments.dropped[(self.node_id, "no-route")] += 1
            return
        link.enqueue(message, meta)

    # ------------------------------------------------------------------
    async def _handle_inbound(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._inbound.append(task)
        codec = self.codec_factory()
        src: Optional[int] = None
        received = 0  # message frames on this connection, acked cumulatively
        acked = 0  # highest cumulative count already acked
        ack_timer: Optional[asyncio.TimerHandle] = None
        loop = asyncio.get_running_loop()

        def flush_ack() -> None:
            """Write one cumulative ack covering every unacked frame.
            Runs inline (threshold crossings, teardown) and from the
            delayed-ack timer."""
            nonlocal acked, ack_timer
            if ack_timer is not None:
                ack_timer.cancel()
                ack_timer = None
            if received <= acked or writer.is_closing():
                return
            frame = self._encoder.encode({"type": ACK_TYPE, "n": received})
            writer.write(frame)
            acked = received
            self.instruments.acks[self.node_id] += 1
            self.instruments._typed_byte_handle(self.node_id, ACK_TYPE)(len(frame))

        try:
            while self._running:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                self.instruments.bytes_received[self.node_id] += len(chunk)
                for message, meta in codec.feed_meta(chunk):
                    if isinstance(message, dict):
                        if message.get("type") == HELLO_TYPE:
                            peer = _negotiated(message)
                            src = peer["node"]
                            self.negotiated[src] = peer
                        continue
                    if src is None:
                        # Peer skipped the handshake; nothing sane to do.
                        self.clock.emit("net_anonymous_frame", node=self.node_id)
                        continue
                    received += 1
                    self.instruments.received(self.node_id, message)
                    if self.receiver is not None:
                        try:
                            self.receiver(src, message, meta)
                        except Exception as exc:  # noqa: BLE001 — keep the link up
                            # The frame still counts as received (acks are
                            # cumulative), so the number is what survives.
                            count_error(self.clock.telemetry.registry, "net.receiver")
                            self.clock.emit(
                                "net_receiver_error",
                                node=self.node_id,
                                src=src,
                                error=repr(exc),
                            )
                # Coalesced acks: one cumulative ack per ack_every
                # frames, else a delayed ack so a quiet stream still
                # confirms within ack_delay seconds.
                if received - acked >= self.ack_every:
                    flush_ack()
                    await writer.drain()
                elif received > acked and ack_timer is None:
                    ack_timer = loop.call_later(self.ack_delay, flush_ack)
        except ValueError as exc:
            # The decoder refused a frame: nothing after it on this
            # stream can be trusted, so the connection closes and the
            # sender redials and retransmits what was not acked.
            self.clock.emit(
                "net_stream_poisoned", node=self.node_id, src=src, error=repr(exc)
            )
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            if ack_timer is not None:
                ack_timer.cancel()
            try:
                flush_ack()
                await writer.drain()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            if task is not None and task in self._inbound:
                self._inbound.remove(task)
