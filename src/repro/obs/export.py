"""Run exporters: JSONL event dumps, Prometheus text, Chrome traces.

Three interoperable views of one finished run, all derived from the
same :class:`~repro.obs.telemetry.Telemetry` and
:class:`~repro.sim.eventlog.EventLog`, all deterministic for a given
``(seed, workload, topology)``:

* :func:`eventlog_to_jsonl` — the structured event log, one JSON object
  per line in emission order, for ``jq``/pandas post-processing;
  :func:`load_events` reads it back and :func:`postmortem` distils it,
  in that order, into the crash → repair → recovery story
  ``repro-cluster postmortem`` prints;
* :func:`prometheus_text` — the metrics registry in the Prometheus text
  exposition format (counters, gauges, cumulative histograms);
* :func:`chrome_trace` — the span table as Chrome trace-event JSON,
  loadable in Perfetto / ``chrome://tracing``: *processes* are tree
  levels, *threads* are nodes, and flow arrows follow each alarm's
  causal ancestry down to the concrete intervals.

Simulated time is unitless; the Chrome trace maps 1 simulated time unit
to 1 ms (``ts`` is in microseconds) so timelines are comfortably
zoomable.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import IO, Dict, List, Optional, Union

from .registry import MetricsRegistry
from .spans import SpanTracker

__all__ = [
    "event_dict",
    "eventlog_to_jsonl",
    "load_events",
    "postmortem",
    "render_postmortem",
    "prometheus_text",
    "chrome_trace",
    "write_chrome_trace",
]

#: Chrome-trace ``ts`` is in microseconds.  Simulated time is unitless,
#: so the ``"sim"`` base maps 1 unit → 1 ms for comfortable zooming;
#: the ``"wall"`` base is for spans whose clocks run in real seconds
#: (``AsyncClock`` / ``repro.net``), mapping 1 s → 1e6 µs so Perfetto
#: timelines read in true wall time.
_TS_SCALES = {"sim": 1000.0, "wall": 1_000_000.0}
_TS_SCALE = _TS_SCALES["sim"]


def _jsonable(value):
    """Coerce numpy scalars/arrays, sets and tuples to JSON-safe types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    item = getattr(value, "item", None)  # numpy scalar
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)  # numpy array
    if callable(tolist):
        return tolist()
    return str(value)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def event_dict(record) -> dict:
    """One event record in its wire form:
    ``{"time": …, "kind": …, "node": …, "fields": {…}}`` — the shape of
    JSONL lines and scraped event logs alike."""
    return {
        "time": record.time,
        "kind": record.kind,
        "node": record.node,
        "fields": _jsonable(record.as_dict()),
    }


def eventlog_to_jsonl(log, destination: Union[str, Path, IO[str]]) -> int:
    """Write the event log as JSON Lines (one :func:`event_dict` per
    line); returns the record count."""

    def _write(fp) -> int:
        count = 0
        for record in log.records:
            fp.write(json.dumps(event_dict(record), sort_keys=True))
            fp.write("\n")
            count += 1
        return count

    if hasattr(destination, "write"):
        return _write(destination)
    with open(destination, "w", encoding="utf-8") as fp:
        return _write(fp)


def load_events(path: Union[str, Path]) -> List[dict]:
    """The events :func:`eventlog_to_jsonl` wrote to *path*, in file
    order; raises :class:`ValueError` naming the first malformed line."""
    events: List[dict] = []
    with open(path, encoding="utf-8") as fp:
        for number, line in enumerate(fp, 1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: invalid JSON: {exc}") from None
            if not (isinstance(event, dict) and isinstance(event.get("time"), (int, float))
                    and isinstance(event.get("kind"), str)):
                raise ValueError(f"{path}:{number}: not an event record")
            events.append(event)
    return events


def postmortem(source: Union[str, Path, List[dict]]) -> dict:
    """Distil a run's events — a :func:`eventlog_to_jsonl` file or a
    list of event dicts — into the crash → repair → recovery story.

    The events are read in the order they were emitted (the dump's line
    order), and that order, not their timestamps, is the causality: two
    records may share a time.  Returns a dict with that ``timeline``
    plus the extracted milestones: ``crashes`` (kind ``crash``),
    ``repairs`` (each ``repair_planned`` paired with the first later
    ``repair_applied`` for the same failed node), ``slo_breaches`` and
    ``detections`` — every detection event, tagged ``after_repair`` when
    it comes after the last applied repair: the paper's
    continued-detection claim, checkable from the run's telemetry alone.
    """
    timeline = source if isinstance(source, list) else load_events(source)
    by_kind: Dict[str, List[dict]] = {}
    repairs: List[dict] = []
    unapplied: Dict[object, List[dict]] = {}
    last_applied = -1
    for position, event in enumerate(timeline):
        kind = event["kind"]
        by_kind.setdefault(kind, []).append(event)
        failed = event.get("fields", {}).get("failed")
        if kind == "repair_planned":
            repair = {"failed": failed, "planned_at": event["time"],
                      "applied_at": None, "duration": None}
            repairs.append(repair)
            unapplied.setdefault(failed, []).append(repair)
        elif kind == "repair_applied":
            last_applied = position
            for repair in unapplied.pop(failed, []):
                repair["applied_at"] = event["time"]
                repair["duration"] = event["time"] - repair["planned_at"]
    detections = [
        {
            "time": e["time"],
            "node": e["node"],
            "members": e.get("fields", {}).get("members"),
            "after_repair": position > last_applied >= 0,
        }
        for position, e in enumerate(timeline)
        if e["kind"] == "detection"
    ]
    return {
        "events": len(timeline),
        "crashes": by_kind.get("crash", []),
        "repairs": repairs,
        "slo_breaches": by_kind.get("slo_breach", []),
        "detections": detections,
        "timeline": timeline,
    }


def render_postmortem(report: dict, *, limit: int = 40) -> str:
    """Human-oriented text rendering of a :func:`postmortem` report."""
    lines = [f"events: {report['events']}"]
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


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _format_label_value(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value):
            return str(int(value))
    text = str(value)
    return text.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _format_sample_value(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every registered metric in the Prometheus text format."""
    lines: List[str] = []
    for metric in registry.metrics():
        lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if metric.kind == "histogram":
            for labels, value in metric.samples():
                # Render every label the sample carries, not just ``le``
                # (Prometheus wants ``le`` last by convention).
                rendered = ",".join(
                    f'{name}="{_format_label_value(val)}"'
                    for name, val in sorted(labels.items())
                    if name != "le"
                )
                le = f'le="{_format_label_value(labels["le"])}"'
                rendered = f"{rendered},{le}" if rendered else le
                lines.append(f"{metric.name}_bucket{{{rendered}}} {int(value)}")
            lines.append(f"{metric.name}_sum {_format_sample_value(metric.sum)}")
            lines.append(f"{metric.name}_count {metric.count}")
            continue
        for labels, value in metric.samples():
            if labels:
                rendered = ",".join(
                    f'{name}="{_format_label_value(val)}"'
                    for name, val in labels.items()
                )
                lines.append(f"{metric.name}{{{rendered}}} {_format_sample_value(value)}")
            else:
                lines.append(f"{metric.name} {_format_sample_value(value)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Chrome trace events (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
def chrome_trace(
    tracker: SpanTracker,
    *,
    levels: Optional[Dict[int, int]] = None,
    time_base: str = "sim",
) -> dict:
    """Render the span table as a Chrome trace-event document.

    ``levels`` maps node id → tree level; it fixes the *process* row a
    node's spans appear on.  Spans carrying a ``level`` attribute (the
    detector roles stamp one) win over the mapping; unknown nodes land
    on level 0.

    ``time_base`` selects how span times become trace microseconds:
    ``"sim"`` (default) treats them as unitless simulated time (1 unit →
    1 ms), ``"wall"`` as wall seconds (1 s → 1e6 µs) — the correct base
    for :class:`~repro.net.clock.AsyncClock` spans.
    """
    if time_base not in _TS_SCALES:
        raise ValueError(
            f"time_base must be one of {sorted(_TS_SCALES)}, got {time_base!r}"
        )
    scale = _TS_SCALES[time_base]
    levels = levels or {}
    by_sid = {span.sid: span for span in tracker.spans}

    def _level(span) -> int:
        level = span.attrs.get("level")
        if level is None and span.node is not None:
            level = levels.get(span.node)
        return int(level) if level is not None else 0

    events: List[dict] = []
    seen_rows = set()
    for span in tracker.spans:
        pid = _level(span)
        tid = span.node if span.node is not None else 0
        if (pid, "p") not in seen_rows:
            seen_rows.add((pid, "p"))
            events.append(
                {
                    "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": f"tree level {pid}"},
                }
            )
        if (pid, tid) not in seen_rows:
            seen_rows.add((pid, tid))
            events.append(
                {
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": f"P{tid}"},
                }
            )
        start = span.start * scale
        end = (span.end if span.end is not None else span.start) * scale
        args = {str(k): _jsonable(v) for k, v in span.attrs.items()}
        args["sid"] = span.sid
        if span.parent is not None:
            args["parent"] = span.parent
        if span.marks:
            args["marks"] = [
                {"t": t, "label": label} for t, label in span.marks
            ]
        events.append(
            {
                "name": span.name,
                "cat": "detect",
                "ph": "X",
                "ts": round(start, 3),
                "dur": round(max(end - start, 1.0), 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        if span.parent is not None:
            parent = by_sid.get(span.parent)
            if parent is None:
                continue  # dangling link: the parent is not in this table
            parent_ts = (
                parent.end if parent.end is not None else parent.start
            ) * scale
            flow = {"cat": "causal", "id": span.sid, "name": "aggregates"}
            events.append(
                {**flow, "ph": "s", "pid": pid, "tid": tid, "ts": round(end, 3)}
            )
            events.append(
                {
                    **flow, "ph": "f", "bp": "e", "pid": _level(parent),
                    "tid": parent.node if parent.node is not None else 0,
                    "ts": round(max(parent_ts, end), 3),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    tracker: SpanTracker,
    path: Union[str, Path],
    *,
    levels: Optional[Dict[int, int]] = None,
    time_base: str = "sim",
) -> int:
    """Write :func:`chrome_trace` JSON to *path*; returns the event count."""
    document = chrome_trace(tracker, levels=levels, time_base=time_base)
    Path(path).write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
    return len(document["traceEvents"])
