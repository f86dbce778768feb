"""Trace archives.

Executions are valuable artifacts: a trace captured from a live run (or
a scripted scenario) can be archived, shipped in a bug report, replayed
through any detector offline, and diffed across library versions.  The
JSON schema is deliberately flat and stable:

```json
{
  "version": 1,
  "n": 4,
  "initial_predicate": [false, false, false, false],
  "events": [
    {"p": 0, "ts": [1, 0, 0, 0], "kind": "internal", "pred": true},
    ...
  ]
}
```

Events appear in global recording order, so a round-trip preserves the
linearization (and therefore ``intervals_in_completion_order`` and
every replay built on it).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .trace import ExecutionTrace

__all__ = [
    "trace_to_dict",
    "trace_from_dict",
    "save_trace",
    "load_trace",
]

_SCHEMA_VERSION = 1


def trace_to_dict(trace: ExecutionTrace) -> dict:
    """The JSON-ready representation of a trace."""
    events = sorted(
        (event for seq in trace.events for event in seq),
        key=lambda e: e.global_order,
    )
    return {
        "version": _SCHEMA_VERSION,
        "n": trace.n,
        "initial_predicate": list(trace.initial_predicate),
        "events": [
            {
                "p": e.process,
                "ts": e.timestamp.tolist(),
                "kind": e.kind,
                "pred": e.predicate,
                "t": e.time,
            }
            for e in events
        ],
    }


def trace_from_dict(data: dict) -> ExecutionTrace:
    """Rebuild a trace; validates the schema and every timestamp."""
    version = data.get("version")
    if version != _SCHEMA_VERSION:
        raise ValueError(f"unsupported trace schema version: {version!r}")
    trace = ExecutionTrace(int(data["n"]), data.get("initial_predicate"))
    for entry in data["events"]:
        trace.record(
            int(entry["p"]),
            np.array(entry["ts"], dtype=np.int64),
            str(entry["kind"]),
            bool(entry["pred"]),
            time=float(entry.get("t", 0.0)),
        )
    return trace


def save_trace(trace: ExecutionTrace, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(trace_to_dict(trace)))


def load_trace(path: Union[str, Path]) -> ExecutionTrace:
    return trace_from_dict(json.loads(Path(path).read_text()))
