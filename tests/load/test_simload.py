"""Virtual-time traffic runs: determinism, saturation, sharded specs."""

import pytest

from repro.experiments.parallel import ShardedRunner
from repro.load import LoadSpec, run_traffic, traffic_specs
from repro.obs import STRANDING_CAUSES


class TestRunTraffic:
    def test_open_loop_drains_with_reference_match(self):
        result = run_traffic(
            seed=1,
            rate=300.0,
            total_offers=60,
            max_outstanding=16,
            pending_timeout=2.0,
            start_delay=0.0,
        )
        assert result["drained"]
        assert result["reference_match"]
        summary = result["summary"]
        assert summary["offered"] == 60
        assert summary["offered"] == summary["admitted"] + summary["shed"]
        assert summary["completed"] > 0
        assert result["detections"] > 0
        assert result["virtual_duration"] > 0

    def test_overload_sheds_instead_of_deadlocking(self):
        result = run_traffic(
            seed=1,
            rate=5000.0,
            total_offers=120,
            max_outstanding=8,
            resume_outstanding=4,
            pending_timeout=1.0,
            start_delay=0.0,
        )
        assert result["drained"]
        summary = result["summary"]
        assert summary["shed"] > 0
        assert summary["offered"] == summary["admitted"] + summary["shed"]
        # shedding must not break correctness on the admitted subset
        assert result["reference_match"]

    def test_same_seed_is_byte_identical(self):
        for model in (
            dict(mode="open", rate=1500.0),
            dict(mode="closed", users=32, think_time=0.002),
        ):
            kwargs = dict(
                seed=5,
                total_offers=80,
                max_outstanding=12,
                resume_outstanding=6,
                pending_timeout=1.0,
                start_delay=0.0,
                **model,
            )
            a = run_traffic(**kwargs)
            b = run_traffic(**kwargs)
            assert a["summary"] == b["summary"]
            assert a["admitted_by_target"] == b["admitted_by_target"]
            assert a["virtual_duration"] == b["virtual_duration"]
            assert a["events"] == b["events"]

    def test_different_seed_differs(self):
        kwargs = dict(rate=1500.0, total_offers=80, max_outstanding=12,
                      pending_timeout=1.0, start_delay=0.0)
        a = run_traffic(seed=5, **kwargs)
        b = run_traffic(seed=6, **kwargs)
        assert (
            a["summary"] != b["summary"]
            or a["virtual_duration"] != b["virtual_duration"]
        )

    def test_closed_loop_self_limits(self):
        result = run_traffic(
            LoadSpec(
                mode="closed",
                users=4,
                think_time=0.01,
                total_offers=40,
                max_outstanding=16,
                pending_timeout=2.0,
                start_delay=0.0,
            ),
            seed=2,
        )
        assert result["drained"]
        summary = result["summary"]
        # a closed loop can never have more offers in flight than users,
        # so the admission gate never engages
        assert summary["shed_by_reason"].get("saturated", 0) == 0
        assert summary["offered"] == 40
        assert result["reference_match"]

    def test_overrides_apply_on_top_of_spec(self):
        result = run_traffic(
            LoadSpec(rate=100.0, total_offers=200),
            seed=1,
            total_offers=10,
            start_delay=0.0,
        )
        assert result["spec"]["total_offers"] == 10
        assert result["summary"]["offered"] == 10

    def test_rejects_negative_service_time(self):
        with pytest.raises(ValueError):
            run_traffic(seed=1, service_time=-0.1)


class TestEpochLedger:
    def test_light_load_solves_every_epoch(self):
        # Below the saturation knee: 7 processes, offered rate well
        # under capacity — nothing sheds, so nothing can strand.
        result = run_traffic(
            seed=1,
            degree=2,
            height=3,
            rate=400.0,
            total_offers=140,
            max_outstanding=16,
            resume_outstanding=8,
            pending_timeout=2.0,
            start_delay=0.0,
        )
        epochs = result["epochs"]
        assert epochs["stranded"] == 0
        assert epochs["in_flight"] == 0
        assert epochs["admitted_epochs"] == epochs["solved"]
        assert epochs["stride"] == 7  # the regular(2, 3) tree's 7 processes

    def test_overload_strands_with_cause_attribution(self):
        result = run_traffic(
            seed=1,
            degree=2,
            height=3,
            rate=4000.0,
            total_offers=140,
            max_outstanding=16,
            resume_outstanding=8,
            pending_timeout=2.0,
            start_delay=0.0,
        )
        epochs = result["epochs"]
        assert result["summary"]["shed"] > 0
        assert epochs["stranded"] > 0
        # the accounting identity at drain
        assert epochs["admitted_epochs"] == (
            epochs["solved"] + epochs["stranded"] + epochs["in_flight"]
        )
        assert epochs["in_flight"] == 0
        assert sum(epochs["stranded_by_cause"].values()) == epochs["stranded"]
        detail = result["epoch_ledger"]["stranded_detail"]
        assert len(detail) == min(epochs["stranded"], 64)
        for row in detail:
            assert row["cause"] in STRANDING_CAUSES
            assert row["shed"] or row["abandoned"]  # culprits named

    def test_expiry_reasons_accounted(self):
        result = run_traffic(
            seed=1,
            degree=2,
            height=3,
            rate=4000.0,
            total_offers=140,
            max_outstanding=16,
            resume_outstanding=8,
            pending_timeout=2.0,
            start_delay=0.0,
        )
        summary = result["summary"]
        assert sum(summary["expired_by_reason"].values()) == summary["abandoned"]
        assert set(summary["expired_by_reason"]) <= set(STRANDING_CAUSES)

    def test_ledger_identical_across_worker_counts(self):
        specs = traffic_specs(
            [400, 4000],
            seed=7,
            total_offers=84,
            max_outstanding=16,
            resume_outstanding=8,
            pending_timeout=1.0,
            start_delay=0.0,
        )
        sequential = ShardedRunner(workers=1).run(list(specs))
        sharded = ShardedRunner(workers=2).run(list(specs))
        for a, b in zip(sequential.values, sharded.values):
            assert a["epochs"] == b["epochs"]
            assert a["epoch_ledger"] == b["epoch_ledger"]


class TestTrafficSpecs:
    def test_one_spec_per_rate(self):
        specs = traffic_specs([100, 400.0], seed=3, total_offers=20)
        assert [s.label for s in specs] == ["load-rate-100", "load-rate-400"]
        for spec, rate in zip(specs, (100.0, 400.0)):
            assert spec.fn is run_traffic
            assert spec.args[0].rate == rate
            assert spec.args[0].mode == "open"
            assert spec.kwargs["seed"] == 3
            assert spec.kwargs["total_offers"] == 20

    def test_specs_execute(self):
        (spec,) = traffic_specs(
            [800],
            seed=1,
            total_offers=30,
            max_outstanding=12,
            pending_timeout=1.0,
            start_delay=0.0,
        )
        result = spec.fn(*spec.args, **spec.kwargs)
        assert result["drained"]
        assert result["summary"]["offered"] == 30
