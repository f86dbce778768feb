"""``repro-cluster run --spec FILE``: the spec file is the only
description of a cluster, and the loader behind it is strict."""

import json
from pathlib import Path

import pytest

from repro.load import LoadSpec
from repro.monitor import HeartbeatSpec
from repro.monitor.spec import SLOSpec
from repro.net import ClusterSpec
from repro.net.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[2]

#: a quick loopback cluster: fast heartbeats and repair, 16 epochs
#: paced so a kill after the first detection leaves epochs to detect
QUICK = {
    "nodes": 7,
    "degree": 2,
    "seed": 1,
    "transport": "loopback",
    "epochs": 16,
    "interval_spacing": 0.02,
    "start_delay": 0.05,
    "repair_latency": 0.02,
    "heartbeat": {"period": 0.05, "loss_tolerance": 5},
}


def _write(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def _run(tmp_path, spec, *flags):
    summary = tmp_path / "summary.json"
    code = main(
        ["run", "--spec", _write(tmp_path, spec), "--timeout", "20",
         "--summary-json", str(summary), *flags]
    )
    return code, json.loads(summary.read_text())


class TestRun:
    def test_a_plain_run_detects(self, tmp_path, capsys):
        code, summary = _run(tmp_path, QUICK)
        assert code == 0
        assert summary["detections"] >= 1
        assert summary["solutions"][0] == list(range(7))
        # The summary's spec block is the whole spec, and loads back.
        assert ClusterSpec.from_dict(summary["spec"]) == ClusterSpec.from_dict(QUICK)
        assert json.loads(capsys.readouterr().out) == summary

    def test_a_kill_is_repaired_and_detection_continues_without_it(
        self, tmp_path, capsys
    ):
        events = tmp_path / "events.jsonl"
        code, summary = _run(
            tmp_path, QUICK, "--kill-node", "5", "--kill-after-detections", "1",
            "--jsonl", str(events),
        )
        assert code == 0
        assert summary["killed"] == 5 and summary["repaired"] is True
        assert summary["detections_after_kill"] >= 1
        assert any(5 not in members for members in summary["solutions"])
        # The cluster log's ring kept the whole run, so the dump does
        # too, and the postmortem tells the same story from it.
        assert summary["events_dropped"] == 0
        capsys.readouterr()
        assert main(["postmortem", str(events), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert any(c["node"] == 5 for c in report["crashes"])
        (repair,) = [r for r in report["repairs"] if r["failed"] == 5]
        assert repair["applied_at"] is not None
        assert any(d["after_repair"] for d in report["detections"])
        assert main(["postmortem", str(events)]) == 0
        assert "crash    " in capsys.readouterr().out

    def test_closed_load_matches_the_reference_and_accounts_every_offer(
        self, tmp_path
    ):
        spec = dict(
            QUICK,
            load={
                "mode": "closed",
                "users": 8,
                "think_time": 0.01,
                "total_offers": 40,
                "max_outstanding": 16,
                "pending_timeout": 2.0,
                "start_delay": 0.05,
            },
        )
        code, summary = _run(tmp_path, spec)
        assert code == 0
        load = summary["load"]
        assert load["reference_match"] is True
        assert load["offered"] == 40
        assert load["offered"] == load["admitted"] + load["shed"]
        assert load["outstanding"] == 0


class TestPostmortemRefusesABadFile:
    def test_a_missing_file_exits_1_with_one_line(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.jsonl")
        assert main(["postmortem", missing]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"repro-cluster: {missing}: No such file or directory\n"

    def test_a_malformed_line_exits_1_with_one_line(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            '{"time": 0.1, "kind": "crash", "node": 5, "fields": {}}\n{"time": 0.2,\n',
            name="events.jsonl",
        )
        assert main(["postmortem", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"repro-cluster: {path}:2: invalid JSON")

    def test_a_line_that_is_no_event_exits_1(self, tmp_path, capsys):
        path = _write(tmp_path, '[1, 2]\n', name="events.jsonl")
        assert main(["postmortem", path]) == 1
        err = capsys.readouterr().err
        assert err == f"repro-cluster: {path}:1: not an event record\n"


class TestRejectsABadFile:
    @pytest.mark.parametrize(
        "text, names",
        [
            ('{"nodes": 7, "nodez": 7}', "nodez: unknown key"),
            ('{"load": {"rat": 100}}', "load.rat: unknown key"),
            ('{"sample_rate": 0.1}', "sample_rate: unknown key"),
            ('{"nodes": "7"}', "nodes: expected an integer"),
            ('{"nodes": true}', "nodes: expected an integer"),
            ('{"sync_prob": 2}', "sync_prob must be in [0, 1]"),
            ('{"heartbeat": {"period": -1}}', "heartbeat: heartbeat period must be positive"),
            ('{"load": {"policy": "defer"}}', "load: policy must be 'shed'"),
            ('{"load": {"burstiness": 4}}', "load.burstiness: unknown key"),
            ('{"flight_dir": "flight"}', "flight_dir: unknown key"),
            ('{"flight_capacity": 64}', "flight_capacity: unknown key"),
            ('{"span_capacity": 1000}', "span_capacity: unknown key"),
            ('{"slo_check_interval": 0.1}', "slo_check_interval: unknown key"),
            ('{"slo": {"repair_duration": 1.0}}', "slo.repair_duration: unknown key"),
            ('{"slo": {"outbox_depth": 100}}', "slo.outbox_depth: unknown key"),
            (
                '{"nodes": 7, "load": {"mode": "closed", "users": 5}}',
                "load.users (5) must cover at least one epoch stride (7 processes)",
            ),
            (
                '{"nodes": 7, "load": {"max_outstanding": 6}}',
                "load.max_outstanding (6) must cover at least one epoch stride",
            ),
            (
                '{"nodes": 7, "load": {"dispatch": "weighted"}}',
                "load: weighted dispatch needs load.weights, one per process",
            ),
            (
                '{"nodes": 7, "load": {"dispatch": "weighted", "weights": [1, 2, 1]}}',
                "load.weights: weighted dispatch needs one entry per process (7), got 3",
            ),
            (
                '{"nodes": 3, "load": {"dispatch": "weighted", "weights": [1, 0, 1]}}',
                "load: load.weights must all be positive",
            ),
            ("[7]", "expected an object, got an array"),
            ('{"nodes": 7,', "invalid JSON"),
        ],
        ids=[
            "unknown-key", "unknown-nested-key", "retired-key", "string-for-int",
            "bool-for-int", "out-of-range", "nested-range", "retired-policy",
            "retired-load-key", "retired-flight-dir", "retired-flight-capacity",
            "retired-span-capacity", "retired-slo-interval", "retired-slo-repair",
            "retired-slo-outbox", "users-below-stride", "gate-below-stride",
            "weighted-without-weights", "weights-wrong-length", "weights-not-positive",
            "array", "not-json",
        ],
    )
    def test_exits_2_with_one_line_naming_the_key(self, tmp_path, capsys, text, names):
        path = _write(tmp_path, text)
        assert main(["run", "--spec", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"repro-cluster: --spec {path}: ")
        assert names in err

    def test_an_unreadable_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["run", "--spec", missing]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"repro-cluster: --spec {missing}: ")

    def test_run_requires_a_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2


class TestSpecDicts:
    FULL = ClusterSpec(
        nodes=9,
        degree=3,
        seed=4,
        transport="loopback",
        host="localhost",
        heartbeat=HeartbeatSpec(period=0.1, loss_tolerance=4, timeout=0.7),
        repair_latency=0.03,
        epochs=6,
        sync_prob=0.5,
        interval_spacing=0.01,
        start_delay=0.1,
        load=LoadSpec(
            mode="open",
            rate=500.0,
            arrival="poisson",
            dispatch="weighted",
            weights=(1.0, 2.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
            max_outstanding=20,
            resume_outstanding=10,
            policy="shed",
            start_delay=0.0,
        ),
        admin_port=9400,
        slo=SLOSpec(detection_latency_p99=0.5, stranded_epoch_rate=0.2),
    )

    @pytest.mark.parametrize("spec", [ClusterSpec(), FULL], ids=["default", "full"])
    def test_round_trip_through_json(self, spec):
        data = json.loads(json.dumps(spec.to_dict()))
        assert ClusterSpec.from_dict(data) == spec

    def test_every_field_of_every_spec_is_a_key(self):
        data = self.FULL.to_dict()
        assert set(data) == set(ClusterSpec.__dataclass_fields__)
        assert set(data["heartbeat"]) == set(HeartbeatSpec.__dataclass_fields__)
        assert set(data["load"]) == set(LoadSpec.__dataclass_fields__)
        assert set(data["slo"]) == set(SLOSpec.__dataclass_fields__)
        assert data["load"]["weights"] == [1.0, 2.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    def test_a_missing_key_takes_the_default(self):
        assert ClusterSpec.from_dict({}) == ClusterSpec()
        assert ClusterSpec.from_dict({"load": {}}).load == LoadSpec()
        assert ClusterSpec.from_dict({"load": None}).load is None

    def test_run_accepts_only_run_control_and_export_flags(self):
        run = build_parser()._subparsers._group_actions[0].choices["run"]
        flags = {
            option
            for action in run._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        assert flags == {
            "--spec", "--duration", "--until-detections", "--timeout",
            "--kill-node", "--kill-after-detections",
            "--prom", "--jsonl", "--chrome", "--summary-json",
        }


#: CI's ``repro-cluster run`` scenarios, each the spec its step's flags
#: built before the flags became a file
CI_SCENARIOS = {
    "net-smoke": ClusterSpec(nodes=7, degree=2, seed=1, transport="tcp", epochs=8),
    "load-smoke": ClusterSpec(
        nodes=7,
        degree=2,
        seed=1,
        transport="tcp",
        load=LoadSpec(
            mode="closed",
            users=16,
            think_time=0.01,
            total_offers=120,
            dispatch="least_outstanding",
            max_outstanding=24,
            pending_timeout=3.0,
        ),
    ),
    "kill-slo": ClusterSpec(
        nodes=7,
        degree=2,
        seed=1,
        transport="tcp",
        epochs=16,
        interval_spacing=0.05,
        admin_port=9321,
        slo=SLOSpec(detection_latency_p99=0.000001),
    ),
    "stranding": ClusterSpec(
        nodes=7,
        degree=2,
        seed=1,
        transport="tcp",
        admin_port=9377,
        slo=SLOSpec(stranded_epoch_rate=0.25),
        load=LoadSpec(
            mode="closed",
            users=10,
            think_time=0.01,
            total_offers=42,
            dispatch="weighted",
            weights=(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0),
            max_outstanding=12,
            pending_timeout=1.5,
        ),
    ),
}


def test_ci_scenarios_are_committed_spec_files():
    committed = {p.stem for p in (ROOT / "examples" / "clusters").glob("*.json")}
    assert committed == set(CI_SCENARIOS)
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for name, spec in CI_SCENARIOS.items():
        data = json.loads((ROOT / "examples" / "clusters" / f"{name}.json").read_text())
        assert ClusterSpec.from_dict(data) == spec, name
        assert f"--spec examples/clusters/{name}.json" in ci, name
