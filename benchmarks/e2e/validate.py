"""Output validation, run by the benchmark command on its own result.

``problems(doc, spec)`` returns one line per violated rule; the command
exits non-zero when there are any.  The rules are the ones a reader
relies on when comparing two result files: every name in
BENCHMARK.json is there with a finite value and its unit, medians come
with their raw repetitions, percentiles with their sample counts, and
every repetition passed its correctness checks.
"""

from __future__ import annotations

import math
from typing import List

__all__ = ["problems"]

#: percentile metric -> the sample count that must accompany it
PERCENTILES = {
    "alarm_latency_p50_ms": "alarm_latency",
    "load.alarm_latency_p90_ms": "alarm_latency",
    "load.alarm_latency_p99_ms": "alarm_latency",
    "load.generator_lag_p90_ms": "generator_lag",
    "net.transport.hop_wait_p50_ms": "hop_wait",
    "net.transport.hop_wait_p90_ms": "hop_wait",
}
#: the ledger must close: layer self times + unattributed == window CPU
CLOSURE_TOLERANCE = 0.05


def problems(doc: dict, spec: dict, *, repetitions: int, traced: bool) -> List[str]:
    out: List[str] = []
    wanted = list(spec["end_to_end"]) + (list(spec["per_layer"]) if traced else [])
    for name, entry in doc["workloads"].items():
        live = name.startswith("tcp7")
        metrics = entry["metrics"]
        bad = lambda text: out.append(f"{name}: {text}")  # noqa: E731

        for want in wanted:
            cell = metrics.get(want["name"])
            if cell is None:
                bad(f"metric {want['name']} missing")
                continue
            if not isinstance(cell["value"], (int, float)) or not math.isfinite(cell["value"]):
                bad(f"metric {want['name']} is not finite: {cell['value']!r}")
            if cell["unit"] != want["unit"]:
                bad(f"metric {want['name']} has unit {cell['unit']!r}, not {want['unit']!r}")
            if not cell.get("traced") and len(cell.get("repetitions", ())) != repetitions:
                bad(f"metric {want['name']} lacks its {repetitions} raw repetition values")
        for want in spec["end_to_end"]:
            if metrics.get(want["name"], {}).get("value", 1) <= 0:
                bad(f"end-to-end metric {want['name']} must be positive")

        for metric, sample in PERCENTILES.items():
            if metric not in metrics or not (live or sample == "alarm_latency"):
                continue
            counted = [s[sample] for s in entry["samples"] if sample in s]
            if not counted or min(counted) < 1:
                bad(f"percentile {metric} has no sample count")

        for index, checks in enumerate(entry["checks"]):
            for check, passed in checks.items():
                if not passed:
                    bad(f"repetition {index} failed its {check} check")

        value = lambda metric: metrics.get(metric, {}).get("value")  # noqa: E731
        if name == "tcp7_steady":
            if value("load.shed_frac") != 0:
                bad(f"load.shed_frac must be 0, is {value('load.shed_frac')}")
            if (value("goodput_frac") or 0) < 0.99:
                bad(f"goodput_frac must be >= 0.99, is {value('goodput_frac')}")
        if name == "sim85_paper" and value("goodput_frac") != 1.0:
            bad(f"goodput_frac must be exactly 1.0, is {value('goodput_frac')}")
        if name == "tcp7_crash" and not (value("fault.repair_gap_ms") or 0) > 0:
            bad("both kills must be repaired (fault.repair_gap_ms > 0)")
        if live and "fault.false_suspicions" not in metrics:
            bad("fault.false_suspicions must be reported")

        if traced:
            closure = (entry.get("traced") or {}).get("closure")
            if closure is None:
                bad("traced repetition missing")
                continue
            cpu = closure["window_cpu_ms"]
            unattributed = (value("trace.unattributed_frac") or 0.0) * cpu
            if abs(closure["layer_self_ms"] + unattributed - cpu) > CLOSURE_TOLERANCE * cpu:
                bad("layer self times + unattributed CPU do not add up to the window CPU")
            if abs(closure["layer_self_ms"] - closure["root_span_ms"]) > 1e-6 * cpu:
                bad("layer self times do not add up to the root spans' durations")
            if not 0.0 <= (value("trace.unattributed_frac") or 0.0) <= 1.0:
                bad(f"trace.unattributed_frac out of range: {value('trace.unattributed_frac')}")
    return out
