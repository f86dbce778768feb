"""Unit tests: loopback and TCP transports (framing, metrics,
backpressure, reconnects)."""

import asyncio

import pytest

from repro.net import (
    AsyncClock,
    FrameCodec,
    LoopbackHub,
    LoopbackTransport,
    TcpTransport,
)
from repro.sim.messages import Heartbeat


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


def _hello(**fields) -> bytes:
    return FrameCodec().encode({"type": "__hello__", **fields})


def _legacy_hello() -> bytes:
    """The hello as codec 3 and earlier framed it: a bare 4-byte length
    and a JSON body, with no 0xB1 header."""
    body = b'{"type":"__hello__","node":0,"wire":"binary","codec":3}'
    return len(body).to_bytes(4, "big") + body


def _tag_0(body: bytes) -> bytes:
    return bytes([0xB1, 0, 0]) + len(body).to_bytes(4, "big") + body


class TestLoopback:
    def test_delivery_and_metrics(self):
        async def scenario():
            clock = AsyncClock()
            hub = LoopbackHub()
            a = LoopbackTransport(0, hub, clock)
            b = LoopbackTransport(1, hub, clock)
            got = []
            b.set_receiver(lambda src, msg, meta: got.append((src, msg)))
            await a.start()
            await b.start()
            for i in range(3):
                a.send(1, Heartbeat(sender=0))
            await a.drain()
            await a.stop()
            await b.stop()
            return clock, got

        clock, got = run(scenario())
        assert [(src, type(m).__name__) for src, m in got] == [(0, "Heartbeat")] * 3
        registry = clock.telemetry.registry
        assert registry.get("repro_net_frames_total")[(0, "out", "Heartbeat")] == 3
        assert registry.get("repro_net_frames_total")[(1, "in", "Heartbeat")] == 3
        assert registry.get("repro_net_bytes_sent_total")[0] > 0

    def test_send_to_absent_peer_counts_drop(self):
        async def scenario():
            clock = AsyncClock()
            hub = LoopbackHub()
            a = LoopbackTransport(0, hub, clock)
            await a.start()
            a.send(9, Heartbeat(sender=0))
            await a.stop()
            return clock

        clock = run(scenario())
        dropped = clock.telemetry.registry.get("repro_net_outbox_dropped_total")
        assert dropped[(0, "peer-down")] == 1


class TestTcp:
    def test_two_node_exchange(self):
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(0, clock)
            b = TcpTransport(1, clock)
            got = []
            b.set_receiver(lambda src, msg, meta: got.append((src, msg)))
            await a.start()
            await b.start()
            addresses = {0: a.address, 1: b.address}
            a.set_peers(addresses)
            b.set_peers(addresses)
            for _ in range(5):
                a.send(1, Heartbeat(sender=0))
            await a.drain()
            while len(got) < 5:
                await asyncio.sleep(0.01)
            await a.stop()
            await b.stop()
            return clock, got

        clock, got = run(scenario())
        assert [(src, m.sender) for src, m in got] == [(0, 0)] * 5
        registry = clock.telemetry.registry
        assert registry.get("repro_net_reconnects_total")[0] == 1
        assert registry.get("repro_net_send_latency_seconds").count == 5

    def test_reconnect_retransmits_queued_messages(self):
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(0, clock, backoff_base=0.02)
            b = TcpTransport(1, clock)
            got = []
            b.set_receiver(lambda src, msg, meta: got.append(msg))
            await a.start()
            await b.start()
            b_address = b.address
            a.set_peers({1: b_address})
            a.send(1, Heartbeat(sender=0))
            while len(got) < 1:
                await asyncio.sleep(0.01)

            # Take the listener down, queue traffic, bring it back on the
            # SAME port: the writer task must redial and flush the queue.
            await b.stop()
            await asyncio.sleep(0.05)
            for _ in range(3):
                a.send(1, Heartbeat(sender=0))
            b2 = TcpTransport(1, clock, port=b_address[1])
            b2.set_receiver(lambda src, msg, meta: got.append(msg))
            await b2.start()
            while len(got) < 4:
                await asyncio.sleep(0.01)
            await a.stop()
            await b2.stop()
            return clock, got

        clock, got = run(scenario())
        assert len(got) == 4
        assert clock.telemetry.registry.get("repro_net_reconnects_total")[0] >= 2

    def test_raising_receiver_is_counted_and_the_link_stays_up(self):
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(0, clock)
            b = TcpTransport(1, clock)
            got = []

            def receiver(src, msg, meta):
                got.append(msg)
                if len(got) == 1:
                    raise RuntimeError("receiver bug")

            b.set_receiver(receiver)
            await a.start()
            await b.start()
            addresses = {0: a.address, 1: b.address}
            a.set_peers(addresses)
            b.set_peers(addresses)
            for _ in range(3):
                a.send(1, Heartbeat(sender=0))
            await a.drain()
            while len(got) < 3:
                await asyncio.sleep(0.01)
            await a.stop()
            await b.stop()
            return clock

        clock = run(scenario())
        registry = clock.telemetry.registry
        assert registry.get("repro_errors_total") == {"net.receiver": 1}
        assert len(clock.log.of_kind("net_receiver_error")) == 1
        # the same connection carried all three frames
        assert registry.get("repro_net_reconnects_total")[0] == 1
        assert not clock.log.of_kind("net_stream_poisoned")

    def test_corrupt_frame_poisons_the_stream_loudly_and_is_retransmitted(self):
        from repro.sim.messages import IntervalReport

        class CorruptsItsFirstReport(FrameCodec):
            """Well-framed, malformed: the first report's bounds block
            claims a width code no encoder writes."""

            armed = True

            def encode(self, message, meta=None):
                frame = super().encode(message, meta)
                if isinstance(message, IntervalReport) and type(self).armed:
                    type(self).armed = False
                    # n = 2 at one byte a component: the frame ends with
                    # two width codes, a base row and two offset rows.
                    at = len(frame) - 8
                    assert frame[at : at + 2] == b"\x01\x01"
                    return frame[:at] + b"\x03" + frame[at + 1 :]
                return frame

        async def scenario():
            import numpy as np

            from repro.intervals import Interval

            clock = AsyncClock()
            a = TcpTransport(
                0,
                clock,
                backoff_base=0.01,
                codec_factory=CorruptsItsFirstReport,
            )
            b = TcpTransport(1, clock)
            got = []
            b.set_receiver(lambda src, msg, meta: got.append(msg))
            await a.start()
            await b.start()
            a.set_peers({1: b.address})
            a.send(1, Heartbeat(sender=0))
            clock_row = np.array([3, 1], dtype=np.int64)
            report = IntervalReport(
                origin=0,
                dest=1,
                interval=Interval(owner=0, seq=0, lo=clock_row, hi=clock_row + 1),
            )
            deadline = asyncio.get_running_loop().time() + 10

            async def delivered(count):
                while len(got) < count:
                    assert asyncio.get_running_loop().time() < deadline, got
                    await asyncio.sleep(0.005)

            await delivered(1)  # the session is up before it is poisoned
            a.send(1, report)
            await delivered(2)
            await a.stop()
            await b.stop()
            return clock, got, report

        clock, got, report = run(scenario())
        # The receiver said why it hung up ...
        (poisoned,) = clock.log.of_kind("net_stream_poisoned")
        assert poisoned.node == 1 and poisoned.get("src") == 0
        assert "width codes" in poisoned.get("error")
        # ... the sender saw the close, redialled and sent the unacked
        # report again: delivered once, intact.
        assert clock.log.of_kind("net_connection_lost")
        assert clock.telemetry.registry.get("repro_net_reconnects_total")[0] == 2
        assert [type(m).__name__ for m in got] == ["Heartbeat", "IntervalReport"]
        assert got[1].interval.key() == report.interval.key()
        # Send latency is observed once per message: the retransmission
        # of the report on the second connection does not count again.
        latency = clock.telemetry.registry.get("repro_net_send_latency_seconds")
        assert latency.count == 2

    @pytest.mark.parametrize(
        "first, complaint",
        [
            (_hello(codec=4), "__hello__ needs an integer node"),
            (_hello(node=None, codec=4), "__hello__ needs an integer node"),
            (_hello(node="0", codec=4), "__hello__ needs an integer node"),
            (_legacy_hello(), "version byte 0x00"),
            (_tag_0(b"[" * 100_000), "nests too deeply"),
        ],
        ids=["missing-node", "none-node", "string-node", "codec-3-framing", "deep-json"],
    )
    def test_bad_hello_poisons_the_stream(self, first, complaint):
        async def scenario():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _, context: unhandled.append(context))
            clock = AsyncClock()
            b = TcpTransport(1, clock)
            got = []
            b.set_receiver(lambda src, msg, meta: got.append(msg))
            await b.start()
            reader, writer = await asyncio.open_connection(*b.address)
            writer.write(first + FrameCodec().encode(Heartbeat(sender=0)))
            await writer.drain()
            # The handler hangs up: EOF, and no ack for the heartbeat.
            tail = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            await writer.wait_closed()
            await b.stop()
            return clock, got, tail, unhandled

        clock, got, tail, unhandled = run(scenario())
        (poisoned,) = clock.log.of_kind("net_stream_poisoned")
        assert poisoned.node == 1 and poisoned.get("src") is None
        assert complaint in poisoned.get("error")
        assert got == [] and tail == b""
        assert unhandled == []

    def test_poisoned_ack_stream_is_reported_by_the_dialer(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _, context: unhandled.append(context))
            clock = AsyncClock()
            accepted, tails = [], []

            async def listener(reader, writer):
                await reader.read(65536)  # the hello
                accepted.append(writer)
                if len(accepted) == 1:
                    writer.write(b"\x00")  # no frame starts with 0x00
                tails.append(await reader.read())  # until the dialer hangs up
                writer.close()

            server = await asyncio.start_server(listener, "127.0.0.1", 0)
            a = TcpTransport(0, clock, backoff_base=0.01)
            await a.start()
            a.set_peers({1: server.sockets[0].getsockname()[:2]})
            deadline = loop.time() + 10
            while not (tails and len(accepted) >= 2):
                assert loop.time() < deadline, (accepted, tails)
                await asyncio.sleep(0.005)
            await a.stop()
            server.close()
            await server.wait_closed()
            return clock, tails, unhandled

        clock, tails, unhandled = run(scenario())
        # The dialer said why it hung up, once, naming itself and the peer ...
        (poisoned,) = clock.log.of_kind("net_stream_poisoned")
        assert poisoned.node == 0 and poisoned.get("src") == 1
        assert "0x00" in poisoned.get("error")
        # ... closed that connection (EOF on the listener's side) and
        # redialled; the second connection stayed healthy.
        assert tails[0] == b""
        assert clock.telemetry.registry.get("repro_net_reconnects_total")[0] >= 2
        assert unhandled == []

    def test_outbox_hard_cap_drops_and_counts(self):
        async def scenario():
            clock = AsyncClock()
            # No listener on the peer address: everything queues.
            a = TcpTransport(
                0, clock, max_outbox=8, high_water=4, low_water=2, backoff_base=0.5
            )
            await a.start()
            a.set_peers({1: ("127.0.0.1", 1)})  # nothing listens there
            for _ in range(20):
                a.send(1, Heartbeat(sender=0))
            await a.stop()
            return clock

        clock = run(scenario())
        registry = clock.telemetry.registry
        assert registry.get("repro_net_outbox_dropped_total")[(0, "outbox-full")] == 12
        assert registry.get("repro_net_outbox_depth")[(0, 1)] == 8
        assert len(clock.log.of_kind("net_congested")) == 1

    def test_watermark_validation(self):
        clock = AsyncClock()
        with pytest.raises(ValueError):
            TcpTransport(0, clock, max_outbox=4, high_water=8, low_water=2)

    def test_unknown_destination_counts_no_route(self):
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(0, clock)
            await a.start()
            a.send(5, Heartbeat(sender=0))
            await a.stop()
            return clock

        clock = run(scenario())
        dropped = clock.telemetry.registry.get("repro_net_outbox_dropped_total")
        assert dropped[(0, "no-route")] == 1


class TestAckCoalescing:
    """Cumulative acks flush per ``ack_every`` frames or ``ack_delay``
    seconds — never one ack per frame."""

    def test_burst_produces_far_fewer_acks_than_frames(self):
        frames = 300

        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(0, clock)
            b = TcpTransport(1, clock)
            got = []
            b.set_receiver(lambda src, msg, meta: got.append(msg))
            await a.start()
            await b.start()
            a.set_peers({1: b.address})
            for _ in range(frames):
                a.send(1, Heartbeat(sender=0))
            # drain() returns once everything is *acked*, so the ack
            # count below is final for the burst.
            await a.drain()
            await a.stop()
            await b.stop()
            return clock, got, b.ack_every

        clock, got, ack_every = run(scenario())
        assert len(got) == frames
        registry = clock.telemetry.registry
        acks = registry.get("repro_net_acks_total")[1]
        assert 1 <= acks <= frames // ack_every + 2
        # Every frame still confirmed end-to-end despite the coalescing.
        assert registry.get("repro_net_send_latency_seconds").count == frames

    def test_quiet_stream_confirmed_by_delayed_ack(self):
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(0, clock)
            b = TcpTransport(1, clock, ack_delay=0.01)
            got = []
            b.set_receiver(lambda src, msg, meta: got.append(msg))
            await a.start()
            await b.start()
            a.set_peers({1: b.address})
            for _ in range(3):  # far below ack_every: only the timer acks
                a.send(1, Heartbeat(sender=0))
            await a.drain()  # waits for the delayed ack to land
            await a.stop()
            await b.stop()
            return clock, got

        clock, got = run(scenario())
        assert len(got) == 3
        registry = clock.telemetry.registry
        assert registry.get("repro_net_acks_total")[1] >= 1
        assert registry.get("repro_net_send_latency_seconds").count == 3

    def test_paced_stream_shares_acks_at_default_delay(self):
        # A leaf link's cadence: one frame every few ms.  At the default
        # ack_delay one ack covers every frame of its window, not one.
        frames, gap = 40, 0.005

        async def scenario():
            loop = asyncio.get_running_loop()
            clock = AsyncClock()
            a = TcpTransport(0, clock)
            b = TcpTransport(1, clock)
            got = []
            b.set_receiver(lambda src, msg, meta: got.append(msg))
            await a.start()
            await b.start()
            a.set_peers({1: b.address})
            a.send(1, Heartbeat(sender=0))
            while not got:  # connected: the dial is not part of the pacing
                await asyncio.sleep(0.001)
            first = loop.time()
            for _ in range(frames - 1):
                await asyncio.sleep(gap)
                a.send(1, Heartbeat(sender=0))
            last = loop.time()
            await a.drain()
            drained_after = loop.time() - last
            unacked = sum(len(link.pending) for link in a._links.values())
            await a.stop()
            await b.stop()
            return clock, got, last - first, drained_after, unacked, b.ack_delay

        clock, got, span, drained_after, unacked, ack_delay = run(scenario())
        assert ack_delay == 0.05  # the default
        assert len(got) == frames and unacked == 0
        registry = clock.telemetry.registry
        # One timer per ack_delay of stream (the loop may stretch the
        # pacing on a busy machine; never more acks than its real span).
        bound = max(frames * gap, span) / ack_delay + 2
        assert 1 <= registry.get("repro_net_acks_total")[1] <= bound
        assert registry.get("repro_net_send_latency_seconds").count == frames
        assert drained_after <= ack_delay + 0.2

    def test_knob_validation(self):
        clock = AsyncClock()
        for bad in (
            dict(ack_every=0),
            dict(flush_frames=0),
            dict(flush_bytes=0),
        ):
            with pytest.raises(ValueError):
                TcpTransport(0, clock, **bad)


class TestSustainedOverload:
    """Watermark behaviour when a sender outruns its sink for real:
    outbox pinned above high water, drops accounted, the congestion
    window accumulated into ``repro_net_congested_seconds_total``, and a
    clean uncongest edge once the backlog drains below low water."""

    def test_loopback_blast_pins_outbox_then_recovers(self):
        async def scenario():
            clock = AsyncClock()
            hub = LoopbackHub()
            a = LoopbackTransport(
                0, hub, clock, max_outbox=8, high_water=4, low_water=2
            )
            b = LoopbackTransport(1, hub, clock)
            got = []
            b.set_receiver(lambda src, msg, meta: got.append(msg))
            await a.start()
            await b.start()
            # Blast without yielding: the flush callback cannot run, so
            # the buffer crosses high water and then the hard cap.
            for _ in range(20):
                a.send(1, Heartbeat(sender=0))
            during = {
                "congested": a.congested_peers(),
                "depth": clock.telemetry.registry.get(
                    "repro_net_outbox_depth"
                )[(0, 1)],
            }
            await a.drain()  # one tick: the flush empties the buffer
            after = a.congested_peers()
            await a.stop()
            await b.stop()
            return clock, got, during, after

        clock, got, during, after = run(scenario())
        assert during["congested"] == (1,)
        assert during["depth"] == 8  # pinned at the hard cap
        assert after == ()
        registry = clock.telemetry.registry
        assert registry.get("repro_net_outbox_dropped_total")[(0, "outbox-full")] == 12
        assert len(got) == 8  # admitted frames all delivered, overflow dropped
        assert registry.get("repro_net_outbox_depth")[(0, 1)] == 0
        assert len(clock.log.of_kind("net_congested")) == 1
        assert len(clock.log.of_kind("net_uncongested")) == 1
        seconds = registry.get("repro_net_congested_seconds_total")
        assert seconds[(0, 1)] >= 0.0  # episode settled on the uncongest edge

    def test_tcp_outbox_pinned_until_listener_returns(self):
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(
                0,
                clock,
                max_outbox=8,
                high_water=4,
                low_water=2,
                backoff_base=0.02,
            )
            b = TcpTransport(1, clock)
            await b.start()
            address = b.address
            await b.stop()  # listener down before the writer ever connects
            await a.start()
            a.set_peers({1: address})
            for _ in range(20):
                a.send(1, Heartbeat(sender=0))
            congested_at_blast = a.congested_peers()
            await asyncio.sleep(0.1)  # sustained: nothing drains meanwhile
            still_congested = a.congested_peers()
            depth_pinned = clock.telemetry.registry.get(
                "repro_net_outbox_depth"
            )[(0, 1)]

            # Recovery: the listener comes back on the SAME port, the
            # writer redials, acks pop the backlog below low water.
            got = []
            b2 = TcpTransport(1, clock, port=address[1])
            b2.set_receiver(lambda src, msg, meta: got.append(msg))
            await b2.start()
            while a.congested_peers():
                await asyncio.sleep(0.01)
            await a.drain()
            await a.stop()
            await b2.stop()
            return clock, got, congested_at_blast, still_congested, depth_pinned

        clock, got, at_blast, still, depth_pinned = run(scenario())
        assert at_blast == (1,)
        assert still == (1,)  # overload holds while the peer is away
        assert depth_pinned == 8
        assert len(got) == 8
        registry = clock.telemetry.registry
        assert registry.get("repro_net_outbox_dropped_total")[(0, "outbox-full")] == 12
        assert registry.get("repro_net_outbox_depth")[(0, 1)] <= 2  # below low water
        assert len(clock.log.of_kind("net_congested")) == 1
        assert len(clock.log.of_kind("net_uncongested")) == 1
        # The link sat congested across the 0.1s outage at minimum.
        assert registry.get("repro_net_congested_seconds_total")[(0, 1)] >= 0.05

    def test_tcp_drop_peer_ends_the_congestion_episode(self):
        # Repair drops a dead peer's link while its outbox is still above
        # high water: the episode must end with its uncongest edge, or
        # whoever tracks the edges keeps the node congested for good.
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(
                0, clock, max_outbox=8, high_water=4, low_water=2, backoff_base=0.02
            )
            b = TcpTransport(1, clock)
            await b.start()
            address = b.address
            await b.stop()  # the peer is unreachable from the start
            await a.start()
            a.set_peers({1: address})
            for _ in range(8):
                a.send(1, Heartbeat(sender=0))
            await asyncio.sleep(0.05)
            a.drop_peer(1)
            seconds = clock.telemetry.registry.get("repro_net_congested_seconds_total")
            at_drop = seconds[(0, 1)]
            congested_after_drop = a.congested_peers()
            await a.stop()
            return clock, at_drop, seconds[(0, 1)], congested_after_drop

        clock, at_drop, at_stop, congested_after_drop = run(scenario())
        assert congested_after_drop == ()
        assert len(clock.log.of_kind("net_congested")) == 1
        assert len(clock.log.of_kind("net_uncongested")) == 1
        # settled once, at the drop: stopping the transport adds nothing
        assert at_drop >= 0.04
        assert at_stop == at_drop

    def test_loopback_watermark_validation(self):
        clock = AsyncClock()
        with pytest.raises(ValueError):
            LoopbackTransport(
                0, LoopbackHub(), clock, max_outbox=4, high_water=8, low_water=2
            )


class TestNegotiation:
    def test_hello_records_peer_node_and_codec(self):
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(0, clock)
            b = TcpTransport(1, clock)
            got = []
            b.set_receiver(lambda src, msg, meta: got.append(msg))
            await a.start()
            await b.start()
            a.set_peers({1: b.address})
            b.set_peers({0: a.address})
            a.send(1, Heartbeat(sender=0))
            b.send(0, Heartbeat(sender=1))
            while not (a.negotiated.get(1) and b.negotiated.get(0)):
                await asyncio.sleep(0.01)
            await a.stop()
            await b.stop()
            return a.negotiated, b.negotiated

        a_saw, b_saw = run(scenario())
        assert b_saw[0] == {"node": 0, "codec": 4}
        assert a_saw[1] == {"node": 1, "codec": 4}

    def test_bytes_accounted_per_frame_type(self):
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(0, clock)
            b = TcpTransport(1, clock)
            got = []
            b.set_receiver(lambda src, msg, meta: got.append(msg))
            await a.start()
            await b.start()
            a.set_peers({1: b.address})
            for _ in range(4):
                a.send(1, Heartbeat(sender=0))
            await a.drain()
            await a.stop()
            await b.stop()
            return clock

        clock = run(scenario())
        by_type = clock.telemetry.registry.get("repro_net_bytes_total")
        assert by_type[(0, "Heartbeat")] > 0  # sender side, per message type
        assert by_type[(1, "__ack__")] > 0  # receiver side ack traffic


class TestPeerDownEvidence:
    """A transport reports a peer as down only on proof: a refused
    redial on a link that completed its hello (TCP), a hub detach
    (loopback) — once per episode, never on EOF alone, never for a peer
    it has not had a session with."""

    @staticmethod
    async def _until(condition, what):
        deadline = asyncio.get_running_loop().time() + 10
        while not condition():
            assert asyncio.get_running_loop().time() < deadline, what
            await asyncio.sleep(0.005)

    def test_refused_redial_after_a_session_is_reported_once_per_episode(self):
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(0, clock, backoff_base=0.01, backoff_cap=0.02)
            b = TcpTransport(1, clock)
            down, got = [], []
            a.set_peer_down_handler(down.append)
            b.set_receiver(lambda src, msg, meta: got.append(msg))
            await a.start()
            await b.start()
            address = b.address
            a.set_peers({1: address})
            a.send(1, Heartbeat(sender=0))
            await self._until(lambda: got, "no session established")

            await b.stop()
            await self._until(lambda: down, "refusal never reported")
            # Several more refused redials of the same episode: silent.
            await asyncio.sleep(0.15)
            first_episode = list(down)

            # The peer returns on the same port, a new session forms and
            # dies again: that is a new episode, reported again.
            b2 = TcpTransport(1, clock, port=address[1])
            b2.set_receiver(lambda src, msg, meta: got.append(msg))
            await b2.start()
            a.send(1, Heartbeat(sender=0))
            await self._until(lambda: len(got) >= 2, "no second session")
            await b2.stop()
            await self._until(lambda: len(down) >= 2, "second episode unreported")
            await asyncio.sleep(0.1)
            await a.stop()
            return first_episode, down

        first_episode, down = run(scenario())
        assert first_episode == [1]
        assert down == [1, 1]

    def test_connection_flap_with_listener_alive_is_not_evidence(self):
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(0, clock, backoff_base=0.01)
            b = TcpTransport(1, clock)
            down, got = [], []
            a.set_peer_down_handler(down.append)
            b.set_receiver(lambda src, msg, meta: got.append(msg))
            await a.start()
            await b.start()
            a.set_peers({1: b.address})
            a.send(1, Heartbeat(sender=0))
            await self._until(lambda: got, "no session established")

            # Reset the connection from the far side, listener still up:
            # the link reads EOF, redials, and the redial succeeds.
            for task in list(b._inbound):
                task.cancel()
            await self._until(
                lambda: clock.log.of_kind("net_connection_lost"), "no EOF seen"
            )
            a.send(1, Heartbeat(sender=0))
            await self._until(lambda: len(got) >= 2, "redial never delivered")
            await a.stop()
            await b.stop()
            return clock, down

        clock, down = run(scenario())
        assert down == []
        assert clock.telemetry.registry.get("repro_net_reconnects_total")[0] >= 2

    def test_refusal_before_any_session_is_not_evidence(self):
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(0, clock, backoff_base=0.01, backoff_cap=0.02)
            b = TcpTransport(1, clock)
            await b.start()
            address = b.address
            await b.stop()  # start-up ordering: the peer is not up yet
            down, got = [], []
            a.set_peer_down_handler(down.append)
            await a.start()
            a.set_peers({1: address})
            a.send(1, Heartbeat(sender=0))
            await asyncio.sleep(0.15)  # a handful of refused dials
            b2 = TcpTransport(1, clock, port=address[1])
            b2.set_receiver(lambda src, msg, meta: got.append(msg))
            await b2.start()
            await self._until(lambda: got, "late peer never reached")
            await a.stop()
            await b2.stop()
            return down

        assert run(scenario()) == []

    def test_own_stop_reports_nothing(self):
        async def scenario():
            clock = AsyncClock()
            a = TcpTransport(0, clock, backoff_base=0.01)
            b = TcpTransport(1, clock)
            down, got = [], []
            a.set_peer_down_handler(down.append)
            b.set_receiver(lambda src, msg, meta: got.append(msg))
            await a.start()
            await b.start()
            a.set_peers({1: b.address})
            a.send(1, Heartbeat(sender=0))
            await self._until(lambda: got, "no session established")
            await a.stop()
            await b.stop()
            await asyncio.sleep(0.05)
            return down

        assert run(scenario()) == []

    def test_loopback_detach_is_reported_to_attached_peers_once(self):
        async def scenario():
            clock = AsyncClock()
            hub = LoopbackHub()
            transports = [LoopbackTransport(pid, hub, clock) for pid in range(3)]
            down = {pid: [] for pid in range(3)}
            for transport in transports:
                transport.set_peer_down_handler(down[transport.node_id].append)
                await transport.start()
            await transports[2].stop()
            await transports[2].stop()  # already detached: no second report
            hub.detach(7)  # never attached: nothing to report
            await transports[1].stop()
            await transports[0].stop()
            return down

        down = run(scenario())
        # 2 left while 0 and 1 were attached; 1 left while only 0 was;
        # nobody hears of its own departure.
        assert down == {0: [2, 1], 1: [2], 2: []}
