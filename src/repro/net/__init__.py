"""``repro.net`` — the asyncio socket runtime.

Everything below :mod:`repro.detect` is transport-agnostic: a
:class:`~repro.detect.HierarchicalRole` only needs a host exposing
``pid``, ``send_control`` and a ``sim``-shaped clock/telemetry handle.
This package supplies real-network implementations of those surfaces,
so the *unmodified* detection, fault and repair machinery runs over
TCP frames instead of the discrete-event simulator:

* :class:`AsyncClock` — wall-clock stand-in for the
  :class:`~repro.sim.Simulator` surface (``now`` / ``schedule`` /
  ``rng`` / ``emit`` / ``telemetry``) backed by the asyncio loop;
* :class:`FrameCodec` — the wire protocol: stateless binary frames
  (struct header + varint-packed bodies from
  :mod:`repro.sim.wirepack`, one packed form per message); a report's
  timestamps travel in one per-frame bounds block;
* :class:`TcpTransport` / :class:`LoopbackTransport` — the
  :class:`Transport` implementations (sockets, and an in-process hub so
  unit tests need no ports);
* :class:`NodeRuntime` — one tree node: a role host plus interval
  ingestion and heartbeat wiring;
* :class:`ClusterSpec` / :class:`LocalCluster` — an n-node localhost
  cluster, also behind the ``repro-cluster`` CLI.

See ``docs/networking.md`` for the architecture and wire format.
"""

from .clock import AsyncClock, ClockScope
from .codec import ACK_TYPE, CODEC_VERSION, HELLO_TYPE, FrameCodec
from .transport import LoopbackHub, LoopbackTransport, TcpTransport, Transport
from .runtime import NodeRuntime
from .cluster import ClusterSpec, LocalCluster
from .script import simulation_script, solution_signatures

__all__ = [
    "AsyncClock",
    "ClockScope",
    "FrameCodec",
    "ACK_TYPE",
    "HELLO_TYPE",
    "CODEC_VERSION",
    "Transport",
    "TcpTransport",
    "LoopbackTransport",
    "LoopbackHub",
    "NodeRuntime",
    "ClusterSpec",
    "LocalCluster",
    "simulation_script",
    "solution_signatures",
]
