"""Heartbeat-based crash detection (Section III-F).

"Each process in the spanning tree sends heartbeat messages to its
parent and children.  So, when a process ``P_i`` fails, both its parent
and children will stop receiving heartbeat messages from ``P_i`` and
know about ``P_i``'s failure."

:class:`HeartbeatMonitor` implements exactly that: a periodic tick
sends a :class:`~repro.sim.messages.Heartbeat` to every watched peer
and declares any peer not heard from within *timeout* suspected.  The
peer set tracks the node's current tree neighbours and is updated by
the repair machinery as the tree is rewired.

The timeout must exceed ``period + max one-hop delay`` or live peers
get falsely suspected; the defaults leave a generous margin.  (With
crash-stop failures and reliable channels a suspicion is always
accurate once that bound holds.)

Silence is the only signal the simulator has, but a host with real
connections can hold *evidence*: a peer it had a session with now
refuses the redial.  :meth:`HeartbeatMonitor.peer_down` takes that
report and declares the peer suspected through the same code the tick
uses — under crash-stop it is accurate and needs no synchrony bound, so
it can only be earlier than the timeout, never different from it.  The
``suspect`` event's ``cause`` says which of the two fired.

A peer's grace starts when it is added, but never before the monitor's
first tick after :meth:`HeartbeatMonitor.start`: neighbours are added
while a host is still being built, and a stall between that and its
loop's first turn is not the peer's silence.
"""

from __future__ import annotations

from typing import Callable, Dict, Set

from ..sim.kernel import Simulator
from ..sim.messages import Heartbeat

__all__ = ["HeartbeatMonitor"]


class HeartbeatMonitor:
    """Liveness tracking of a node's tree neighbours."""

    def __init__(
        self,
        sim: Simulator,
        owner: int,
        send: Callable[[int, object], None],
        on_suspect: Callable[[int], None],
        *,
        period: float = 5.0,
        timeout: float = 16.0,
    ) -> None:
        if timeout <= period:
            raise ValueError("timeout must exceed the heartbeat period")
        self.sim = sim
        self.owner = owner
        self._send = send
        self._on_suspect = on_suspect
        self.period = period
        self.timeout = timeout
        self._last_seen: Dict[int, float] = {}
        self._suspected: Set[int] = set()
        self._running = False
        self._first_tick = False
        registry = sim.telemetry.registry
        self._c_beats = registry.counter_vec(
            "repro_heartbeats_sent_total",
            "Heartbeat messages sent, per node.",
            ("node",),
        )
        self._c_suspicions = registry.counter_vec(
            "repro_suspicions_total",
            "Peers declared suspected, per suspecting node.",
            ("node",),
        )

    # ------------------------------------------------------------------
    @property
    def peers(self) -> Set[int]:
        return set(self._last_seen)

    def add_peer(self, peer: int) -> None:
        """Start exchanging heartbeats with *peer* (grace starts now, or
        at the first tick if the monitor has not ticked yet)."""
        self._last_seen.setdefault(peer, self.sim.now)
        self._suspected.discard(peer)

    def remove_peer(self, peer: int) -> None:
        self._last_seen.pop(peer, None)
        self._suspected.discard(peer)

    def beat_from(self, peer: int) -> None:
        if peer in self._last_seen:
            self._last_seen[peer] = self.sim.now

    def is_suspected(self, peer: int) -> bool:
        return peer in self._suspected

    def forgive(self, peer: int) -> None:
        """The suspicion of *peer* was wrong (it is alive): watch it
        again, with a fresh grace period from now.  A late heartbeat is
        not enough to clear a suspicion — a dead peer's last beat can
        still be in flight — so only whoever knows better says so."""
        if peer in self._last_seen:
            self._last_seen[peer] = self.sim.now
            self._suspected.discard(peer)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._first_tick = True
        # Desynchronize ticks across nodes deterministically.
        offset = float(self.sim.rng("heartbeat").uniform(0, self.period))
        self.sim.schedule(offset, self._tick)

    def stop(self) -> None:
        self._running = False

    def peer_down(self, peer: int) -> None:
        """The host's transport holds evidence that *peer* is gone (a
        refused redial on an established link).  Ignored unless *peer*
        is a watched neighbour this running monitor has not suspected
        yet — the same conditions the timeout path checks."""
        if self._running and peer in self._last_seen:
            self._suspect(peer, self._last_seen[peer], "refused")

    def _suspect(self, peer: int, last_seen: float, cause: str) -> None:
        if peer in self._suspected:
            return
        self._suspected.add(peer)
        self._c_suspicions[self.owner] += 1
        self.sim.emit(
            "suspect",
            node=self.owner,
            peer=peer,
            last_seen=round(last_seen, 3),
            cause=cause,
        )
        self._on_suspect(peer)

    def _tick(self) -> None:
        if not self._running:
            return
        if self._first_tick:
            self._first_tick = False
            for peer in self._last_seen:
                self._last_seen[peer] = self.sim.now
        beat = Heartbeat(sender=self.owner)
        peers = list(self._last_seen)
        for peer in peers:
            self._send(peer, beat)
        self._c_beats[self.owner] += len(peers)
        deadline = self.sim.now - self.timeout
        for peer, last in list(self._last_seen.items()):
            if last < deadline:
                self._suspect(peer, last, "timeout")
        self.sim.schedule(self.period, self._tick)
