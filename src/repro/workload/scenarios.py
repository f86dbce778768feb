"""Scripted executions, including the paper's illustrative figures.

:class:`ScriptedExecution` builds an execution event by event —
maintaining real vector clocks and recording a real
:class:`~repro.sim.trace.ExecutionTrace` — without the discrete-event
simulator.  The paper's Figures 1–3 are reproduced as exact scenarios;
tests assert the interval relations the paper derives from them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..clocks import Timestamp, VectorClock
from ..intervals import Interval
from ..sim.trace import EventKind, ExecutionTrace

__all__ = [
    "ScriptedExecution",
    "figure1_nested_execution",
    "figure1_staggered_execution",
    "figure2_execution",
    "figure2_tree",
    "figure3_execution",
]


class ScriptedExecution:
    """Deterministic hand-built execution with correct vector clocks.

    Messages are identified by string tags; a ``recv`` consumes the
    timestamp stored by the matching ``send`` (so causality is exactly
    what the script says, with no simulated delays involved).
    """

    def __init__(self, n: int, initial_predicate: Optional[Sequence[bool]] = None):
        self.n = n
        self.trace = ExecutionTrace(n, initial_predicate)
        self.clocks = [VectorClock(n, i) for i in range(n)]
        self.predicate = list(self.trace.initial_predicate)
        self._in_flight: Dict[str, Timestamp] = {}

    # ------------------------------------------------------------------
    def internal(self, p: int) -> Timestamp:
        ts = self.clocks[p].tick()
        self.trace.record(
            p, ts, EventKind.INTERNAL, self.predicate[p], time=float(self.trace._order)
        )
        return ts

    def set_pred(self, p: int, value: bool) -> Timestamp:
        """Flip the local predicate with an internal event (the event
        carries the new value, matching
        :meth:`repro.sim.process.MonitoredProcess.set_predicate`)."""
        self.predicate[p] = bool(value)
        return self.internal(p)

    def send(self, p: int, tag: str) -> Timestamp:
        if tag in self._in_flight:
            raise ValueError(f"message tag {tag!r} already in flight")
        ts = self.clocks[p].send()
        self.trace.record(
            p, ts, EventKind.SEND, self.predicate[p], time=float(self.trace._order)
        )
        self._in_flight[tag] = ts
        return ts

    def recv(self, p: int, tag: str) -> Timestamp:
        piggyback = self._in_flight.pop(tag)
        ts = self.clocks[p].receive(piggyback)
        self.trace.record(
            p, ts, EventKind.RECV, self.predicate[p], time=float(self.trace._order)
        )
        return ts

    # ------------------------------------------------------------------
    def intervals(self) -> Dict[int, List[Interval]]:
        return self.trace.all_intervals()


# ----------------------------------------------------------------------
# Figure 1: a Definitely(Φ) solution set need not be nested
# ----------------------------------------------------------------------
def figure1_staggered_execution() -> ScriptedExecution:
    """Two processes whose (unique) ``Definitely`` solution set is
    *staggered* — ``min(x1) ≺ min(x2)`` and ``max(x1) ≺ max(x2)`` —
    violating the nesting assumption [7]'s hierarchical sketch relies on
    (paper Section III-A, point 1)."""
    ex = ScriptedExecution(2)
    ex.set_pred(0, True)  # min(x1)
    ex.send(0, "m1")
    ex.recv(1, "m1")
    ex.set_pred(1, True)  # min(x2): causally after min(x1)
    ex.send(1, "m2")
    ex.recv(0, "m2")  # inside x1: min(x2) ≺ max(x1)
    ex.send(0, "m3")  # max(x1)
    ex.set_pred(0, False)  # x1 complete
    ex.recv(1, "m3")  # inside x2: max(x1) ≺ this event ≤ max(x2)
    ex.set_pred(1, False)  # x2 complete
    return ex


def figure1_nested_execution() -> ScriptedExecution:
    """The *nested* configuration Figure 1 actually draws — the special
    case [7]'s hierarchical sketch assumed:
    ``min(x1) ≺ min(x2)`` and ``max(x2) ≺ max(x1)`` (x2 inside x1)."""
    ex = ScriptedExecution(2)
    ex.set_pred(0, True)  # min(x1)
    ex.send(0, "m1")
    ex.recv(1, "m1")
    ex.set_pred(1, True)  # min(x2): after min(x1)
    ex.send(1, "m2")  # max(x2)
    ex.set_pred(1, False)  # x2 complete (inside x1)
    ex.recv(0, "m2")  # inside x1: max(x2) ≺ max(x1)
    ex.internal(0)  # max(x1)
    ex.set_pred(0, False)
    return ex


# ----------------------------------------------------------------------
# Figure 2: repeated detection is necessary; P3's failure is survivable
# ----------------------------------------------------------------------
def figure2_tree() -> dict:
    """The Figure 2(a) spanning tree, with the paper's P1…P4 mapped to
    ids 0…3: root P3 (=2) has children P2 (=1) and P4 (=3); P2 has
    child P1 (=0)."""
    return {"root": 2, "parent": {2: None, 1: 2, 3: 2, 0: 1}}


def figure2_execution() -> ScriptedExecution:
    """The Figure 2(b) timing diagram.

    Intervals (paper names → here): ``x1`` at P1(=0), ``x2`` then
    ``x3`` at P2(=1), ``x4`` at P3(=2), ``x5`` at P4(=3), such that

    * ``overlap({x1, x2})`` — first solution at P2,
    * ``overlap({x1, x3})`` — second solution at P2 (repeated detection),
    * ``overlap({x1, x2, x4, x5})`` is FALSE (x2 ends too early),
    * ``overlap({x1, x3, x4, x5})`` is TRUE — the global detection that
      a one-shot algorithm at P2 would make impossible.
    """
    ex = ScriptedExecution(4)
    # --- x1 begins at P1 and stays true for the whole run
    ex.set_pred(0, True)  # min(x1)
    ex.send(0, "a1")
    # --- x2 at P2: overlaps x1 in both directions, ends early
    ex.set_pred(1, True)  # min(x2)
    ex.recv(1, "a1")  # min(x1) ≺ this ≤ max(x2)
    ex.send(1, "b1")  # max(x2)
    ex.set_pred(1, False)  # x2 complete
    ex.recv(0, "b1")  # inside x1: min(x2) ≺ max(x1)
    # --- x3 at P2, x4 at P3, x5 at P4 begin
    ex.set_pred(1, True)  # min(x3)
    ex.set_pred(2, True)  # min(x4)
    ex.set_pred(3, True)  # min(x5)
    # --- gather at P3 (the hub): everyone's min flows into x4
    ex.send(0, "g1")
    ex.send(1, "g2")
    ex.send(3, "g4")
    ex.recv(2, "g1")
    ex.recv(2, "g2")
    ex.recv(2, "g4")
    # --- broadcast from P3: x4's knowledge flows into everyone's max
    ex.send(2, "h1")
    ex.send(2, "h2")
    ex.send(2, "h4")  # max(x4)
    ex.set_pred(2, False)  # x4 complete
    ex.recv(0, "h1")  # max(x1)
    ex.set_pred(0, False)  # x1 complete
    ex.recv(1, "h2")  # max(x3)
    ex.set_pred(1, False)  # x3 complete
    ex.recv(3, "h4")  # max(x5)
    ex.set_pred(3, False)  # x5 complete
    return ex


# ----------------------------------------------------------------------
# Figure 3: aggregation of two solution sets X and Y
# ----------------------------------------------------------------------
def figure3_execution() -> ScriptedExecution:
    """Four processes where ``X = {x1@P1, x2@P3}`` and
    ``Y = {y1@P2, y2@P4}`` each satisfy overlap, and so does ``X ∪ Y`` —
    the Figure 3 setting for the ``⊓`` construction (Eq. 5–6).

    Built with a gather/broadcast through P1: every interval's start
    causally precedes every interval's end, so *all* pairs overlap and
    any bipartition into X and Y exercises Theorem 1's ⇒ direction.
    """
    ex = ScriptedExecution(4)
    for p in range(4):
        ex.set_pred(p, True)
    for p in (1, 2, 3):
        ex.send(p, f"g{p}")
    for p in (1, 2, 3):
        ex.recv(0, f"g{p}")
    for p in (1, 2, 3):
        ex.send(0, f"h{p}")
    ex.set_pred(0, False)
    for p in (1, 2, 3):
        ex.recv(p, f"h{p}")
        ex.set_pred(p, False)
    return ex
