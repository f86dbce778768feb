"""Epoch lifecycle ledger: per-epoch state tracked from offer to
solution-or-stranded.

``Definitely(Φ)`` semantics make the *epoch* — one interval per process
— the real unit of goodput: a solution needs a contribution from every
process, so admitting all-but-one member of an epoch buys nothing but
queue occupancy until ``pending_timeout`` reaps the survivors.  The
per-offer ``repro_load_*`` accounting cannot see that; past the
saturation knee it reports healthy admit rates while goodput collapses.
:class:`EpochLedger` closes the gap: every generated offer carries an
epoch id assigned at the source (``offer.index // stride``, a pure
function of the seed like the rest of the offer schedule), and the
ledger folds admission decisions, detection-queue hooks and completion
events into one per-epoch state machine

    offered → admitted → queued → matched → solved | stranded | expired

with dwell-time histograms per stage, a ``cause``-labelled stranding
counter (``shed-sibling`` / ``dead-target`` / ``pending-timeout``) and
per-process queue-age/depth watermarks.  Everything is online and
bounded: O(1) dict work per transition, and an epoch's record lives
only until it resolves — then it folds into the counters and the
state gauge, and only the oldest :data:`MAX_STRANDED_DETAIL` stranded
epochs keep their detail row.  Memory follows the epochs in flight,
not the length of the run, so the ledger stays cheap enough to leave
on for as long as the detector runs.

Terminal states
---------------
* **solved** — every admitted member was consumed by a detection.
* **stranded** — at least one member was admitted (work was invested)
  and at least one member was shed or abandoned: the admitted siblings'
  queue time was wasted.  The ``cause`` label attributes the waste:
  ``dead-target`` when a member had no live target (or its target died
  under it), ``shed-sibling`` when admission shed a sibling, and
  ``pending-timeout`` when every member was admitted but the epoch
  still timed out.
* **expired** — every member was shed; nothing was invested, nothing
  was wasted.

The accounting identity ``tests/load/test_simload.py::TestEpochLedger``
checks falls out by construction: at drain, ``admitted_epochs == solved
+ stranded + in_flight`` (with ``in_flight == 0``), next to the
per-offer identity ``offered == admitted + shed``.

:class:`StrandingWatchdog` turns the ledger into an SLO check: when the
stranded fraction of admitted epochs crosses a
:class:`~repro.monitor.spec.SLOSpec` threshold it latches a breach the
cluster emits as ``slo_breach`` on its event log.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "EPOCH_DWELL_BUCKETS",
    "EPOCH_STAGES",
    "EPOCH_TERMINAL_STATES",
    "STRANDING_CAUSES",
    "EpochLedger",
    "StrandingWatchdog",
]

#: Wall/virtual-second buckets for per-stage dwell times — same scale
#: as the load sojourn histogram (milliseconds on loopback, tail for
#: saturated queues and pending-timeout reaps).
EPOCH_DWELL_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, math.inf,
)

#: Live lifecycle stages, in rank order (an epoch only moves forward).
EPOCH_STAGES: Tuple[str, ...] = ("offered", "admitted", "queued", "matched")

#: Terminal states an epoch resolves into.
EPOCH_TERMINAL_STATES: Tuple[str, ...] = ("solved", "stranded", "expired")

#: ``cause`` label values of ``repro_epoch_stranded_total``.
STRANDING_CAUSES: Tuple[str, ...] = (
    "shed-sibling", "dead-target", "pending-timeout",
)

#: Shed reasons that mean "the member's target was gone", not "the
#: gate was full" — they attribute a stranding to ``dead-target``.
_DEAD_TARGET_REASONS = frozenset({"no-target", "dead-target"})

#: Stranded epochs retained with full member detail in :meth:`to_dict`
#: (the rest stay counted in the aggregates; a 100k-epoch sweep must
#: not ship a 100k-row scrape payload).
MAX_STRANDED_DETAIL = 64

Key = Tuple[int, int]  # (owner pid, interval seq)

_STAGE_RANK = {stage: rank for rank, stage in enumerate(EPOCH_STAGES)}
_TERMINAL_RANK = len(EPOCH_STAGES)


class _Epoch:
    """One epoch's ledger row (not exported; JSON forms are dicts)."""

    __slots__ = (
        "epoch", "expected", "offered", "keys", "admitted", "shed",
        "completed", "abandoned", "stage", "stage_since", "opened_at",
        "state", "cause", "sheds", "abandons",
    )

    def __init__(self, epoch: int, expected: int, now: float) -> None:
        self.epoch = epoch
        self.expected = expected
        #: members offered so far, and the admitted ones' interval keys
        self.offered = 0
        self.keys: List[Key] = []
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.abandoned = 0
        self.stage = "offered"
        self.stage_since = now
        self.opened_at = now
        self.state: Optional[str] = None  # terminal state once resolved
        self.cause: Optional[str] = None
        #: ``(reason, target)`` per shed member — the stranding culprit
        #: list (*which* process's shed offer stranded the epoch).
        self.sheds: List[Tuple[str, Optional[int]]] = []
        #: ``(key, reason, target)`` per abandoned member.
        self.abandons: List[Tuple[Key, str, int]] = []

    @property
    def resolved_members(self) -> int:
        return self.shed + self.completed + self.abandoned

    def detail(self) -> dict:
        """JSON row for the stranding report."""
        return {
            "epoch": self.epoch,
            "state": self.state or self.stage,
            "cause": self.cause,
            "expected": self.expected,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": [
                {"reason": reason, "target": target}
                for reason, target in self.sheds
            ],
            "abandoned": [
                {"owner": key[0], "seq": key[1], "reason": reason, "target": target}
                for key, reason, target in self.abandons
            ],
        }


class EpochLedger:
    """Track every epoch from first offer to its terminal state.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` receiving the
        ``repro_epoch_*`` family.
    stride:
        Members per epoch — the process count.  Offer *i* belongs to
        epoch ``i // stride``, assigned at the generator so the id is
        a pure function of the seed (identical across sharded workers
        and the sim↔socket scopes).
    total_offers:
        The run's offer budget; fixes the final (possibly partial)
        epoch's expected member count.
    """

    def __init__(self, registry, *, stride: int, total_offers: int) -> None:
        if stride < 1:
            raise ValueError("epoch stride must be >= 1")
        if total_offers < 1:
            raise ValueError("total_offers must be >= 1")
        self.stride = stride
        self.total_offers = total_offers
        # Unresolved epochs and their admitted keys only: a resolved
        # epoch leaves both and lives on in the counters below (and, if
        # stranded and among the oldest, in ``_stranded``).
        self._epochs: Dict[int, _Epoch] = {}
        self._key_epoch: Dict[Key, int] = {}
        self._stranded: List[_Epoch] = []  # oldest stranded, by epoch, capped
        self._states: Dict[str, int] = dict.fromkeys(
            (*EPOCH_STAGES, *EPOCH_TERMINAL_STATES), 0
        )
        self._offered_epochs = 0
        self._admitted_epochs = 0
        self._in_flight = 0

        self._g_state = registry.gauge_vec(
            "repro_epoch_state",
            "Epochs currently in each lifecycle state (terminal states "
            "accumulate).",
            ("state",),
        )
        for state in (*EPOCH_STAGES, *EPOCH_TERMINAL_STATES):
            self._g_state.setdefault(state, 0)
        self._c_stranded = registry.counter_vec(
            "repro_epoch_stranded_total",
            "Epochs that wasted admitted work, by stranding cause.",
            ("cause",),
        )
        self._c_offered = registry.counter(
            "repro_epoch_offered_total", "Epochs that issued at least one offer."
        )
        self._c_solved = registry.counter(
            "repro_epoch_solved_total",
            "Epochs whose every admitted member completed in a detection.",
        )
        self._c_expired = registry.counter(
            "repro_epoch_expired_total",
            "Epochs shed whole (no member admitted, nothing wasted).",
        )
        self._dwell = {
            stage: registry.histogram(
                f"repro_epoch_dwell_seconds_{stage}",
                f"Seconds epochs spent in the {stage!r} stage before "
                "advancing.",
                EPOCH_DWELL_BUCKETS,
            )
            for stage in EPOCH_STAGES
        }
        self._c_queue_events = registry.counter_vec(
            "repro_epoch_queue_events_total",
            "Detection-queue lifecycle events observed for epoch members "
            "(enqueue / prune_solution / prune_incompat).",
            ("event",),
        )
        self._g_depth = registry.gauge_vec(
            "repro_epoch_queue_depth_watermark",
            "High watermark of epoch members pending per target process.",
            ("target",),
        )
        self._g_age = registry.gauge_vec(
            "repro_epoch_queue_age_watermark_seconds",
            "High watermark of the oldest pending epoch member's age per "
            "target process.",
            ("target",),
        )

    # ------------------------------------------------------------------
    # id assignment helpers
    # ------------------------------------------------------------------
    def epoch_for_offer(self, index: int) -> int:
        return index // self.stride

    def expected_members(self, epoch: int) -> int:
        return max(0, min(self.stride, self.total_offers - epoch * self.stride))

    def epoch_of(self, key: Key) -> Optional[int]:
        """The epoch an admitted interval key belongs to (``None`` for
        keys the ledger never admitted) — what rides the frame ``_meta``
        sidecar next to span coordinates."""
        return self._key_epoch.get(key)

    # ------------------------------------------------------------------
    # transitions (fed by the load session)
    # ------------------------------------------------------------------
    def _get(self, epoch: int, now: float) -> _Epoch:
        record = self._epochs.get(epoch)
        if record is None:
            record = _Epoch(epoch, self.expected_members(epoch), now)
            self._epochs[epoch] = record
            self._offered_epochs += 1
            self._enter("offered")
            self._c_offered.inc()
        return record

    def _enter(self, state: str, delta: int = 1) -> None:
        """Count an epoch into (or, with ``delta=-1``, out of) a state:
        the ledger's own tally and the ``repro_epoch_state`` gauge."""
        self._states[state] += delta
        self._g_state[state] = self._g_state.get(state, 0) + delta

    def _advance(self, record: _Epoch, stage: str, now: float) -> None:
        """Move a live epoch forward (stages are ranked; regressions are
        ignored — a second member enqueueing must not pull the epoch
        back from ``matched``)."""
        if _STAGE_RANK[stage] <= _STAGE_RANK[record.stage]:
            return
        self._leave_stage(record, now)
        self._enter(stage)
        record.stage = stage
        record.stage_since = now

    def _leave_stage(self, record: _Epoch, now: float) -> None:
        self._dwell[record.stage].observe(max(0.0, now - record.stage_since))
        self._enter(record.stage, -1)

    def note_offered(self, epoch: int, index: int, now: float) -> None:
        """A generator issued member *index* of *epoch*."""
        record = self._get(epoch, now)
        record.offered += 1
        # Notes may arrive in any order: if this member's resolution was
        # noted first, the epoch can complete right here.
        self._maybe_resolve(record, now)

    def note_shed(
        self, epoch: int, index: int, reason: str, now: float,
        target: Optional[int] = None,
    ) -> None:
        record = self._get(epoch, now)
        record.shed += 1
        record.sheds.append((reason, target))
        self._maybe_resolve(record, now)

    def note_admitted(
        self, epoch: int, index: int, key: Key, target: int, now: float, depth: int
    ) -> None:
        """Member *index* was admitted as *key* on *target*, which now
        holds *depth* pending members (the load plane's pending table
        keeps that count)."""
        record = self._get(epoch, now)
        if not record.admitted:
            self._admitted_epochs += 1
            self._in_flight += 1
        record.admitted += 1
        record.keys.append(key)
        self._key_epoch[key] = epoch
        if depth > self._g_depth.get(target, 0):
            self._g_depth[target] = depth
        self._advance(record, "admitted", now)

    def note_completed(self, key: Key, now: float) -> None:
        """A detection consumed the admitted, still pending *key*."""
        record = self._epochs[self._key_epoch[key]]
        record.completed += 1
        self._advance(record, "matched", now)
        self._maybe_resolve(record, now)

    def note_abandoned(self, key: Key, reason: str, now: float, target: int) -> None:
        """The pending sweep reaped the admitted *key* from *target*."""
        record = self._epochs[self._key_epoch[key]]
        record.abandoned += 1
        record.abandons.append((key, reason, target))
        self._maybe_resolve(record, now)

    def expiry_cause(self, key: Key, *, target_alive: bool = True) -> str:
        """Why a pending member is about to die — the expiry-reason
        label :class:`~repro.load.latency.LatencyStore` records:
        ``dead-target`` when its target is gone, ``shed-sibling`` when
        a sibling of its epoch was shed, else ``pending-timeout``."""
        if not target_alive:
            return "dead-target"
        epoch = self._key_epoch.get(key)
        if epoch is not None:
            record = self._epochs.get(epoch)
            if record is not None and record.sheds:
                if any(r in _DEAD_TARGET_REASONS for r, _ in record.sheds):
                    return "dead-target"
                return "shed-sibling"
        return "pending-timeout"

    # ------------------------------------------------------------------
    # queue hooks (fed by detection cores)
    # ------------------------------------------------------------------
    def core_observer(self, clock, node: Optional[int] = None) -> Callable:
        """An ``observer(event, key, interval)`` compatible with
        :class:`~repro.detect.core.RepeatedDetectionCore` — chain it
        (:meth:`~repro.detect.core.RepeatedDetectionCore.add_observer`)
        onto the core(s) the admitted intervals flow through.

        Only *concrete* members are folded: with ``node`` set (one
        hierarchical node's core) events are accepted for intervals the
        node itself produced (``interval.owner == node`` — child
        aggregates carry the child's owner, so they never collide);
        without it (the centralized sink, every queue concrete) the
        queue key must equal the owner.
        """
        pending = self._key_epoch

        def observe(event: str, key, interval) -> None:
            owner = interval.owner
            if node is not None:
                if owner != node:
                    return
            elif key != owner:
                return
            epoch = pending.get((owner, interval.seq))
            if epoch is None:
                return  # never admitted, or its epoch already resolved
            self._c_queue_events[event] += 1
            record = self._epochs[epoch]
            now = clock.now
            if event == "enqueue":
                self._advance(record, "queued", now)
            elif event == "prune_solution":
                self._advance(record, "matched", now)

        return observe

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _maybe_resolve(self, record: _Epoch, now: float) -> None:
        if record.offered < record.expected:
            return
        if record.resolved_members < record.expected:
            return
        if record.admitted == 0:
            state, cause = "expired", None
            self._c_expired.inc()
        elif record.completed == record.admitted:
            state, cause = "solved", None
            self._c_solved.inc()
        else:
            state = "stranded"
            cause = self._stranding_cause(record)
            self._c_stranded[cause] += 1
        self._leave_stage(record, now)
        self._enter(state)
        record.state = state
        record.cause = cause
        self._fold(record)

    def _fold(self, record: _Epoch) -> None:
        """Forget a resolved epoch: it lives on in the counters, and a
        stranded one among the oldest :data:`MAX_STRANDED_DETAIL` keeps
        its detail row (the same rows :meth:`stranded_details` always
        reported, oldest epoch first)."""
        del self._epochs[record.epoch]
        for key in record.keys:
            del self._key_epoch[key]
        if record.admitted:
            self._in_flight -= 1
        if record.state == "stranded":
            kept = self._stranded
            if len(kept) < MAX_STRANDED_DETAIL or record.epoch < kept[-1].epoch:
                insort(kept, record, key=lambda r: r.epoch)
                del kept[MAX_STRANDED_DETAIL:]

    @staticmethod
    def _stranding_cause(record: _Epoch) -> str:
        reasons = [r for r, _ in record.sheds]
        reasons.extend(r for _, r, _ in record.abandons)
        if any(r in _DEAD_TARGET_REASONS for r in reasons):
            return "dead-target"
        if record.sheds:
            return "shed-sibling"
        return "pending-timeout"

    # ------------------------------------------------------------------
    # watermarks
    # ------------------------------------------------------------------
    def tick(self, now: float, admissions: Iterable[Tuple[int, float]]) -> None:
        """Refresh the per-target queue-age watermark from the pending
        members' ``(target, admitted_at)`` pairs (called from the
        session's sweep with its pending table; depth watermarks update
        inline at admit time)."""
        oldest: Dict[int, float] = {}
        for target, admitted_at in admissions:
            age = now - admitted_at
            if age > oldest.get(target, 0.0):
                oldest[target] = age
        for target, age in oldest.items():
            if age > self._g_age.get(target, 0.0):
                self._g_age[target] = round(age, 6)

    def watermarks(self) -> Dict[int, dict]:
        return {
            target: {
                "depth": int(self._g_depth.get(target, 0)),
                "age_s": float(self._g_age.get(target, 0.0)),
            }
            for target in sorted(set(self._g_depth) | set(self._g_age))
        }

    # ------------------------------------------------------------------
    # introspection / wire forms
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Admitted epochs not yet terminal."""
        return self._in_flight

    def stranded_by_cause(self) -> Dict[str, int]:
        return {
            str(cause): int(count)
            for cause, count in sorted(self._c_stranded.items())
        }

    def stranded_details(self, limit: int = MAX_STRANDED_DETAIL) -> List[dict]:
        """The stranding report rows, oldest epoch first, detail capped
        at *limit* (at most :data:`MAX_STRANDED_DETAIL` are kept; the
        summary counts always cover every epoch)."""
        return [record.detail() for record in self._stranded[:limit]]

    def summary(self) -> dict:
        """The run summary's ``epochs`` block — the ledger line that
        explains the goodput cliff.  ``admitted_epochs == solved +
        stranded + in_flight`` holds at every instant; ``in_flight``
        is 0 once the session drains."""
        states = dict(self._states)
        return {
            "stride": self.stride,
            "total": math.ceil(self.total_offers / self.stride),
            "offered_epochs": self._offered_epochs,
            "admitted_epochs": self._admitted_epochs,
            "solved": states["solved"],
            "stranded": states["stranded"],
            "expired": states["expired"],
            "in_flight": self.in_flight,
            "stranded_by_cause": self.stranded_by_cause(),
            "states": states,
            "watermarks": {
                str(target): marks
                for target, marks in self.watermarks().items()
            },
        }

    def to_dict(self) -> dict:
        """JSON wire form for the cluster admin protocol (the ``epochs``
        scrape payload :mod:`repro.obs.cluster` folds)."""
        return {
            "summary": self.summary(),
            "stranded_detail": self.stranded_details(),
            "stranded_detail_truncated": max(
                0, self._states["stranded"] - MAX_STRANDED_DETAIL
            ),
        }


class StrandingWatchdog:
    """Latch when the stranded fraction of admitted epochs crosses a
    threshold.

    The cluster's SLO loop calls :meth:`check` periodically; the first
    crossing returns the breach payload (value = stranded/admitted
    epochs) and latches — stranding totals are monotone, so repeats
    would only restate the same fact.  ``min_admitted`` suppresses the
    check while the sample is too small to mean anything (one stranded
    epoch out of two is startup noise, not an SLO event).
    """

    def __init__(
        self, ledger: EpochLedger, threshold: float, *, min_admitted: int = 4
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"stranded-epoch-rate threshold must be in (0, 1], got {threshold}"
            )
        self.ledger = ledger
        self.threshold = float(threshold)
        self.min_admitted = min_admitted
        self.latched = False

    def check(self) -> Optional[dict]:
        if self.latched:
            return None
        summary = self.ledger.summary()
        admitted = summary["admitted_epochs"]
        if admitted < self.min_admitted:
            return None
        rate = summary["stranded"] / admitted
        if rate <= self.threshold:
            return None
        self.latched = True
        return {
            "value": round(rate, 6),
            "threshold": self.threshold,
            "stranded": summary["stranded"],
            "admitted_epochs": admitted,
            "by_cause": summary["stranded_by_cause"],
        }
