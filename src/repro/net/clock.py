"""Wall-clock stand-in for the :class:`~repro.sim.Simulator` surface.

The detection stack never imports the simulation kernel's event loop
directly — roles, heartbeat monitors and the repair coordinator only
touch a narrow surface of their ``sim`` handle: ``now``, ``schedule``,
``schedule_at``, ``rng``, ``emit``, ``log`` and ``telemetry``.
:class:`AsyncClock` implements exactly that surface against the running
asyncio loop, so the same classes run unmodified on a real network:

* ``now`` is wall time in seconds since the clock started (monotonic,
  from ``loop.time()``), so timeouts and latency histograms read in
  real seconds;
* ``schedule`` is ``loop.call_later`` behind the same
  cancel-handle contract as :class:`~repro.sim.kernel.ScheduledEvent`;
* ``rng`` derives the same named deterministic streams as the
  simulator's int-seed path, so e.g. heartbeat tick phases stay
  reproducible given a cluster seed;
* ``emit``/``telemetry`` feed the ordinary :mod:`repro.obs` pipeline.

A clock can be shared whole (one ``Telemetry`` for every node — fine
for unit tests) or fronted by per-node :class:`ClockScope` views: same
time base, timers and rng streams, but a private registry, span tracker
and event log per node.  Scoped telemetry is what a *real* deployment
looks like — no process can read another's memory — and is what the
cluster observability plane (:mod:`repro.obs.cluster`) scrapes and
merges back into one cross-node view.
"""

from __future__ import annotations

import asyncio
import zlib
from typing import Callable, Dict, Optional

import numpy as np

from ..obs.telemetry import Telemetry
from ..sim.eventlog import EventLog

__all__ = ["AsyncClock", "ClockScope", "ClockHandle", "named_rng"]


class ClockHandle:
    """Cancel-handle for a scheduled callback (``ScheduledEvent`` shape)."""

    __slots__ = ("_handle", "cancelled")

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        self.cancelled = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self._handle.cancel()


def named_rng(seed: int, name: str) -> np.random.Generator:
    """A fresh copy of the stream ``AsyncClock(seed).rng(name)`` starts
    as: what a spec check can draw before any clock exists."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


class AsyncClock:
    """The ``sim`` handle of the socket runtime.

    The clock binds to the running loop lazily on first use, so it can
    be constructed (and handed to roles at bind time) before
    ``asyncio.run`` starts.  ``now`` is ``0.0`` until then.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        telemetry: Optional[Telemetry] = None,
        log: Optional[EventLog] = None,
        log_capacity: Optional[int] = 65536,
    ) -> None:
        self.seed = seed
        self.telemetry = telemetry or Telemetry()
        self.log = log or EventLog(capacity=log_capacity)
        self._rngs: Dict[str, np.random.Generator] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._origin: Optional[float] = None

    # ------------------------------------------------------------------
    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
            self._origin = self._loop.time()
        return self._loop

    @property
    def now(self) -> float:
        if self._loop is None:
            # Bind on first in-loop read, not just on first schedule():
            # bare transports (no runtime, no timers) still need real
            # elapsed time for congestion accounting.
            try:
                self._ensure_loop()
            except RuntimeError:
                return 0.0
        return self._loop.time() - self._origin

    # ------------------------------------------------------------------
    def rng(self, name: str) -> np.random.Generator:
        """Named deterministic stream — same derivation as the
        simulator's legacy int-seed path, so a (seed, name) pair yields
        the same stream whether the stack runs simulated or networked."""
        gen = self._rngs.get(name)
        if gen is None:
            gen = self._rngs[name] = named_rng(self.seed, name)
        return gen

    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None]) -> ClockHandle:
        """Run *action* ``delay`` wall-seconds from now."""
        loop = self._ensure_loop()
        return ClockHandle(loop.call_later(max(0.0, delay), action))

    def schedule_at(self, time: float, action: Callable[[], None]) -> ClockHandle:
        """Run *action* at clock time *time* (seconds since start)."""
        return self.schedule(time - self.now, action)

    # ------------------------------------------------------------------
    def emit(self, kind: str, node=None, **fields) -> None:
        self.log.emit(self.now, kind, node, **fields)

    # ------------------------------------------------------------------
    def scope(self, node: int, *, log_capacity: Optional[int] = 65536) -> "ClockScope":
        """A per-node telemetry island over this clock (see
        :class:`ClockScope`)."""
        return ClockScope(self, node, log_capacity=log_capacity)


class ClockScope:
    """One node's private view of a shared :class:`AsyncClock`.

    Time, timers and named rng streams delegate to the parent clock (so
    heartbeat phases etc. stay exactly as deterministic as the shared
    path), but ``telemetry`` and ``log`` are the node's own — the
    telemetry island a separate OS process would have.  Events are also
    forwarded to the parent clock's log, so the cluster-wide event
    timeline stays whole for in-process consumers while each node's log
    holds exactly what that node could know about itself.
    """

    def __init__(
        self,
        parent: AsyncClock,
        node: int,
        *,
        log_capacity: Optional[int] = 65536,
    ) -> None:
        self.parent = parent
        self.node = node
        self.seed = parent.seed
        self.telemetry = Telemetry()
        self.log = EventLog(capacity=log_capacity)

    # -- delegated surface ---------------------------------------------
    @property
    def now(self) -> float:
        return self.parent.now

    def rng(self, name: str) -> np.random.Generator:
        return self.parent.rng(name)

    def schedule(self, delay: float, action: Callable[[], None]) -> ClockHandle:
        return self.parent.schedule(delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> ClockHandle:
        return self.parent.schedule_at(time, action)

    # -- scoped surface ------------------------------------------------
    def emit(self, kind: str, node=None, **fields) -> None:
        now = self.now
        self.log.emit(now, kind, node, **fields)
        self.parent.log.emit(now, kind, node, **fields)
