"""Crash flight recorder: bounded telemetry rings + JSONL snapshots.

A distributed detector earns its fault-tolerance story only if the
telemetry of a failing node survives the failure.  A
:class:`FlightRecorder` therefore keeps a small, bounded ring of the
newest :class:`~repro.sim.eventlog.EventLog` records (fed live through
``log.subscribe``, so ring-buffer eviction upstream can never lose them
first) and, on a *trigger*, persists that ring — plus the tail of the
span table — as one JSON-Lines snapshot file.

Triggers are event kinds: the cluster wires ``crash`` (a node's own
death throes), the repair milestones (``repair_planned``,
``repair_applied``) and ``slo_breach`` (see
:class:`~repro.monitor.spec.SLOSpec`); ``stop()`` flushes survivors
with a final ``shutdown`` snapshot so post-repair history is captured
too.

Snapshot layout — first line is a header, then events, then spans::

    {"record": "header", "source": "node-3", "reason": "crash", ...}
    {"record": "event", "time": …, "kind": …, "node": …, "fields": {…}}
    {"record": "span", "sid": …, "name": …, …}

:func:`load_snapshots` + :func:`reconstruct_timeline` invert this:
events from every snapshot in a directory are merged, deduplicated
(the same record may appear in a repair snapshot *and* the final
shutdown snapshot of one node, or in a node's and the cluster's logs)
and time-sorted.  :func:`postmortem` distils the merged timeline into
the operator's question — *when did the node die, when was the tree
repaired, and when did detection resume?* — which the
``repro-cluster postmortem`` subcommand renders.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Union

from .export import _jsonable, event_dict, merge_events
from .spans import SpanTracker

__all__ = [
    "FlightRecorder",
    "FlightSnapshot",
    "DEFAULT_TRIGGERS",
    "load_snapshot",
    "load_snapshots",
    "reconstruct_timeline",
    "postmortem",
    "render_postmortem",
]

#: Event kinds that trip a snapshot when seen on the recorded log.
DEFAULT_TRIGGERS: FrozenSet[str] = frozenset(
    {"crash", "repair_planned", "repair_applied", "slo_breach"}
)


class FlightRecorder:
    """Bounded ring of one log's newest records, snapshot on trigger.

    Parameters
    ----------
    log:
        The :class:`~repro.sim.eventlog.EventLog` to ride along on.
    spans:
        The :class:`~repro.obs.spans.SpanTracker` whose newest spans are
        included in snapshots (``None`` for logs without a tracker).
    directory:
        Where snapshot files land (created on first snapshot).
    source:
        Snapshot attribution: ``"node-<id>"`` or ``"cluster"``.
    capacity:
        Ring size — the newest *capacity* events (and spans) survive.
    triggers:
        Event kinds that auto-persist a snapshot the moment they are
        recorded (the triggering event is included in its snapshot).
    now:
        Clock callable stamped into headers.
    """

    def __init__(
        self,
        log,
        spans: Optional[SpanTracker],
        directory: Union[str, Path],
        *,
        source: str = "cluster",
        capacity: int = 256,
        triggers: FrozenSet[str] = DEFAULT_TRIGGERS,
        now: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.log = log
        self.spans = spans
        self.directory = Path(directory)
        self.source = source
        self.capacity = capacity
        self.triggers = frozenset(triggers)
        self._now = now
        self._ring: Deque = deque(maxlen=capacity)
        self._seen = 0
        self._snapshots: List[Path] = []
        self._seq = 0
        self._unsubscribe = log.subscribe(None, self._on_record)
        self._closed = False

    # ------------------------------------------------------------------
    def _on_record(self, record) -> None:
        self._ring.append(record)
        self._seen += 1
        if record.kind in self.triggers:
            self.snapshot(record.kind)

    @property
    def dropped(self) -> int:
        """Events that fell out of the ring (seen − retained)."""
        return max(0, self._seen - len(self._ring))

    @property
    def snapshots(self) -> List[Path]:
        """Paths persisted so far, in creation order."""
        return list(self._snapshots)

    # ------------------------------------------------------------------
    def snapshot(self, reason: str) -> Path:
        """Persist the current ring (and span tail) as one JSONL file."""
        self.directory.mkdir(parents=True, exist_ok=True)
        name = f"flight-{self.source}-{self._seq:03d}-{reason}.jsonl"
        self._seq += 1
        path = self.directory / name
        now = self._now() if self._now is not None else None
        lines = [
            json.dumps(
                {
                    "record": "header",
                    "source": self.source,
                    "reason": reason,
                    "time": now,
                    "events": len(self._ring),
                    "events_dropped": self.dropped,
                },
                sort_keys=True,
            )
        ]
        for record in self._ring:
            lines.append(
                json.dumps({"record": "event", **event_dict(record)}, sort_keys=True)
            )
        if self.spans is not None:
            # Content-hash dedup: a snapshot taken while the tracker's
            # ring is mid-eviction (or over a stitched/merged table) may
            # surface the same span twice or a torn row missing its
            # identity fields — neither belongs in a postmortem file.
            seen_spans = set()
            for row in self.spans.to_dicts(tail=self.capacity):
                if row.get("sid") is None or not row.get("name"):
                    continue
                line = json.dumps(
                    {"record": "span", **_jsonable(row)}, sort_keys=True
                )
                if line in seen_spans:
                    continue
                seen_spans.add(line)
                lines.append(line)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self._snapshots.append(path)
        return path

    def close(self) -> None:
        """Stop listening (idempotent); existing snapshots stay."""
        if not self._closed:
            self._closed = True
            self._unsubscribe()


# ----------------------------------------------------------------------
# snapshot loading / postmortem
# ----------------------------------------------------------------------
@dataclass
class FlightSnapshot:
    """One parsed snapshot file."""

    path: Path
    source: str
    reason: str
    time: Optional[float]
    events: List[dict] = field(default_factory=list)
    spans: List[dict] = field(default_factory=list)

    @property
    def span_tracker(self) -> SpanTracker:
        """The snapshot's span tail as a read-only tracker."""
        return SpanTracker.from_dicts(self.spans)


def load_snapshot(path: Union[str, Path]) -> FlightSnapshot:
    """Parse one flight snapshot file."""
    path = Path(path)
    header: Optional[dict] = None
    events: List[dict] = []
    spans: List[dict] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        kind = row.pop("record", None)
        if kind == "header":
            header = row
        elif kind == "event":
            events.append(row)
        elif kind == "span":
            spans.append(row)
        else:
            raise ValueError(f"{path}: unknown record type {kind!r}")
    if header is None:
        raise ValueError(f"{path}: missing header record")
    return FlightSnapshot(
        path=path,
        source=str(header.get("source", "?")),
        reason=str(header.get("reason", "?")),
        time=header.get("time"),
        events=events,
        spans=spans,
    )


def load_snapshots(directory: Union[str, Path]) -> List[FlightSnapshot]:
    """Every ``flight-*.jsonl`` under *directory*, sorted by filename
    (creation order: sources interleave, sequence numbers ascend)."""
    return [
        load_snapshot(path)
        for path in sorted(Path(directory).glob("flight-*.jsonl"))
    ]


def reconstruct_timeline(snapshots: List[FlightSnapshot]) -> List[dict]:
    """Every snapshot's events as one deduplicated, time-sorted timeline
    (see :func:`~repro.obs.export.merge_events`)."""
    return merge_events(snapshot.events for snapshot in snapshots)


def postmortem(
    source: Union[str, Path, List[FlightSnapshot]],
) -> dict:
    """Distil a snapshot directory (or pre-loaded snapshots) into the
    crash → repair → recovery story.

    Returns a dict with the full merged ``timeline`` plus the extracted
    milestones: ``crashes`` (kind ``crash``), ``repairs``
    (``repair_planned`` / ``repair_applied`` pairs) and
    ``detections`` — every detection event, each tagged
    ``after_repair`` when it fired after the last applied repair, which
    is the paper's continued-detection claim made checkable from
    surviving telemetry alone.
    """
    snapshots = (
        source if isinstance(source, list) else load_snapshots(source)
    )
    timeline = reconstruct_timeline(snapshots)
    crashes = [e for e in timeline if e["kind"] == "crash"]
    planned = [e for e in timeline if e["kind"] == "repair_planned"]
    applied = [e for e in timeline if e["kind"] == "repair_applied"]
    breaches = [e for e in timeline if e["kind"] == "slo_breach"]
    repairs: List[Dict] = []
    for plan in planned:
        failed = plan.get("fields", {}).get("failed")
        match = next(
            (
                a
                for a in applied
                if a.get("fields", {}).get("failed") == failed
                and a["time"] >= plan["time"]
            ),
            None,
        )
        repairs.append(
            {
                "failed": failed,
                "planned_at": plan["time"],
                "applied_at": match["time"] if match else None,
                "duration": (
                    match["time"] - plan["time"] if match else None
                ),
            }
        )
    last_applied = max((a["time"] for a in applied), default=None)
    detections = [
        {
            "time": e["time"],
            "node": e["node"],
            "members": e.get("fields", {}).get("members"),
            "after_repair": (
                last_applied is not None and e["time"] > last_applied
            ),
        }
        for e in timeline
        if e["kind"] == "detection"
    ]
    return {
        "snapshots": [
            {"path": str(s.path), "source": s.source, "reason": s.reason}
            for s in snapshots
        ],
        "events": len(timeline),
        "crashes": crashes,
        "repairs": repairs,
        "slo_breaches": breaches,
        "detections": detections,
        "timeline": timeline,
    }


def render_postmortem(report: dict, *, limit: int = 40) -> str:
    """Human-oriented text rendering of a :func:`postmortem` report."""
    lines = [
        f"flight snapshots: {len(report['snapshots'])} "
        f"({sum(1 for s in report['snapshots'] if s['reason'] == 'crash')} crash, "
        f"{sum(1 for s in report['snapshots'] if s['reason'] == 'shutdown')} shutdown)",
        f"merged events: {report['events']}",
    ]
    for crash in report["crashes"]:
        lines.append(f"  crash    t={crash['time']:.3f}s node={crash['node']}")
    for repair in report["repairs"]:
        applied = (
            f"applied t={repair['applied_at']:.3f}s "
            f"(took {repair['duration'] * 1000:.0f} ms)"
            if repair["applied_at"] is not None
            else "never applied"
        )
        lines.append(
            f"  repair   failed={repair['failed']} "
            f"planned t={repair['planned_at']:.3f}s, {applied}"
        )
    for breach in report["slo_breaches"]:
        fields = breach.get("fields", {})
        lines.append(
            f"  slo      t={breach['time']:.3f}s {fields.get('slo')} "
            f"value={fields.get('value')} threshold={fields.get('threshold')}"
        )
    after = [d for d in report["detections"] if d["after_repair"]]
    lines.append(
        f"detections: {len(report['detections'])} total, "
        f"{len(after)} after the last repair"
    )
    for detection in report["detections"][:limit]:
        marker = "post-repair" if detection["after_repair"] else "pre-repair "
        lines.append(
            f"  detect   t={detection['time']:.3f}s node={detection['node']} "
            f"members={detection['members']} [{marker}]"
        )
    return "\n".join(lines)
