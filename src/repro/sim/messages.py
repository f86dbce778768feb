"""Message types for the two planes of the simulation.

Application plane (drives vector clocks and the predicate):

* :class:`AppMessage` — the monitored computation's own traffic; its
  piggybacked timestamp updates the receiver's vector clock per the
  rules of Section II-A.

Control plane (the detection overlay; does *not* tick application
vector clocks):

* :class:`IntervalReport` — a (possibly aggregated) interval sent to a
  parent (hierarchical) or routed hop-by-hop to the sink (centralized).
* :class:`Heartbeat` — the liveness signal of Section III-F.
* :class:`AttachRequest` / :class:`AttachAccept` — spanning-tree repair
  handshake after a failure.
* :class:`DetachNotice` — an orphaned subtree root telling a stale
  parent's replacement bookkeeping it moved (used when repair reattaches
  a subtree below a different parent than before).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clocks import Timestamp
from ..intervals import Interval

__all__ = [
    "AppMessage",
    "IntervalReport",
    "Heartbeat",
    "AttachRequest",
    "AttachAccept",
    "DetachNotice",
]


@dataclass(frozen=True)
class AppMessage:
    """Application traffic: payload plus piggybacked vector timestamp."""

    payload: object
    piggyback: Timestamp


@dataclass(frozen=True)
class IntervalReport:
    """An interval travelling the control plane.

    ``origin`` is the process whose detector emitted the interval (the
    interval's owner); ``dest`` is the final recipient — for the
    hierarchical algorithm always the immediate parent (one hop), for
    the centralized algorithm the sink, reached by forwarding along the
    tree (each hop is counted as one message, per Section IV-A).

    ``transport_seq`` numbers reports 0, 1, 2, … within one
    origin→dest attachment epoch; receivers reorder on it because
    channels are not FIFO.  It is distinct from the interval's own
    per-owner ``seq``, which survives re-attachments.
    """

    origin: int
    dest: int
    interval: Interval
    transport_seq: int = 0


@dataclass(frozen=True)
class Heartbeat:
    sender: int


@dataclass(frozen=True)
class AttachRequest:
    """Orphaned subtree root asks a neighbour to adopt it."""

    child: int
    # Set of processes in the requesting subtree, so the new parent can
    # sanity-check it is not creating a cycle.
    subtree: frozenset


@dataclass(frozen=True)
class AttachAccept:
    parent: int


@dataclass(frozen=True)
class DetachNotice:
    child: int


def payload_entries(message: object) -> int:
    """Wire size of a message in integer *entries* (the unit of the
    paper's O(n)-per-message analysis: one vector component).

    * AppMessage: the piggybacked vector timestamp (n) + 1 for payload;
    * IntervalReport: the interval's two bounds (2n) + 2 ids + seq —
      aggregated intervals ship only their bounds, which is the whole
      point of ``⊓`` (provenance is a simulation artifact, not wire
      data);
    * everything else (heartbeats, repair handshakes): O(1).
    """
    if isinstance(message, AppMessage):
        return int(message.piggyback.shape[0]) + 1
    if isinstance(message, IntervalReport):
        return 2 * message.interval.n + 3
    return 2
