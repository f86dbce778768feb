"""Smoke tests of the benchmark itself.  Run with ``pytest benchmarks/e2e``
(outside tier-1's ``testpaths``: these start real clusters and take
about a minute).
"""

import json
import subprocess
import sys

from . import run, trace

SPEC = run.load_spec()


def test_smoke_run_validates_and_emits_exactly_the_benchmark_names(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--seed", "1", "--out", str(out)],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    doc = json.loads(out.read_text())
    assert doc["smoke"] is True and doc["problems"] == []
    listed = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, entry in doc["workloads"].items():
        assert set(entry["metrics"]) == listed, name
        assert entry["correct"] and entry["failed"] == 0, name
        assert (run.OUT_DIR / f"trace-{name}.json").exists()


def test_self_time_is_duration_minus_child_durations():
    names = [("outer", "a"), ("inner", "b")]
    #        name start  end parent epoch
    spans = [
        [0, 0, 100, -1, 7],  # 0: root, children 1 and 3
        [1, 10, 40, 0, 7],  # 1: child with a grandchild
        [1, 15, 25, 1, 7],  # 2: grandchild
        [1, 50, 70, 0, 7],  # 3: second child
        [0, 200, 230, -1, 8],  # 4: another root, no children
    ]
    assert trace.self_times(spans) == [50, 20, 10, 20, 30]
    table = trace.layer_table(names, spans, 0, 1000)
    assert table == {("outer", "a"): [2, 80], ("inner", "b"): [3, 50]}
    # self times of a window add up to its root spans' durations
    assert sum(own for _, own in table.values()) == trace.root_ns(spans, 0, 1000) == 130
    # a span belongs to the window it started in
    assert trace.layer_table(names, spans, 150, 1000)[("outer", "a")] == [1, 30]


def test_tracer_records_nesting_and_restores_what_it_patched():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

    tracer = trace.Tracer()
    tracer.patch(Layer, "outer", "top", lambda self, x: x)
    tracer.patch(Layer, "inner", "bottom")
    assert Layer().outer(21) == 43
    tracer.uninstall()
    assert Layer().outer(1) == 3 and len(tracer.spans) == 2
    (outer, inner) = tracer.spans
    assert tracer.names[outer[0]] == ("top", "Layer.outer")
    assert outer[3] == -1 and inner[3] == 0  # inner's parent is outer
    assert outer[4] == inner[4] == 21  # the epoch id is inherited
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_sim85_counts_repeat_exactly_for_a_seed():
    first = run.spawn("sim85_paper", seed=5, seconds=1.0)
    second = run.spawn("sim85_paper", seed=5, seconds=1.0)
    assert first["correct"] and second["correct"]
    exact = [
        "alarm_latency_p50_ms",
        "load.alarm_latency_p90_ms",
        "goodput_frac",
        "wire_bytes_per_solved_epoch",
        "ctrl_msgs_per_solved_epoch",
        "msg_ratio_vs_central",
        "detect.core.pair_tests_per_offer",
        "detect.core.prunes_per_solution",
        "detect.core.peak_queue_space",
        "detect.reports_per_input",
        "intervals.aggregates_per_solved_epoch",
        "clocks.compare.refreshes_per_offer",
        "sim.kernel.events_per_solved_epoch",
        "obs.spans_recorded_per_offer",
    ]
    for metric in exact:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["attempted"] == second["attempted"]
