"""Unit tests: predicate specifications."""

import pytest

from repro.monitor import ConjunctivePredicate, SLOSpec


class TestBuilders:
    def test_uniform(self):
        phi = ConjunctivePredicate.uniform(range(3), lambda v: v.get("x") == 1)
        assert phi.processes == [0, 1, 2]
        assert phi.evaluate(0, {"x": 1})
        assert not phi.evaluate(2, {"x": 2})

    def test_threshold_gt(self):
        phi = ConjunctivePredicate.threshold(range(2), "temp", gt=30.0)
        assert phi.evaluate(0, {"temp": 31.0})
        assert not phi.evaluate(0, {"temp": 30.0})
        assert not phi.evaluate(0, {})  # unknown variable is false

    def test_threshold_band(self):
        phi = ConjunctivePredicate.threshold(range(1), "x", gt=0.0, lt=10.0)
        assert phi.evaluate(0, {"x": 5})
        assert not phi.evaluate(0, {"x": 10})
        assert not phi.evaluate(0, {"x": -1})

    def test_threshold_needs_a_bound(self):
        with pytest.raises(ValueError):
            ConjunctivePredicate.threshold(range(2), "x")

    def test_equals(self):
        phi = ConjunctivePredicate.equals(range(2), "mode", "active")
        assert phi.evaluate(1, {"mode": "active"})
        assert not phi.evaluate(1, {"mode": "idle"})

    def test_per_process_heterogeneous(self):
        """The paper's Section I form: x_i > 20 ∧ y_j < 45."""
        phi = ConjunctivePredicate.per_process(
            {
                0: lambda v: v.get("x", 0) > 20,
                1: lambda v: v.get("y", 100) < 45,
            }
        )
        assert phi.evaluate(0, {"x": 25})
        assert phi.evaluate(1, {"y": 10})
        assert not phi.evaluate(1, {"y": 50})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ConjunctivePredicate({})

    def test_unknown_process(self):
        phi = ConjunctivePredicate.uniform(range(2), lambda v: True)
        with pytest.raises(KeyError):
            phi.evaluate(5, {})


class TestHeartbeatSpec:
    def test_defaults_reproduce_historical_tuple(self):
        from repro.monitor import HeartbeatSpec

        spec = HeartbeatSpec()
        assert spec.as_tuple() == (5.0, 16.0)

    def test_explicit_timeout_wins(self):
        from repro.monitor import HeartbeatSpec

        spec = HeartbeatSpec(period=1.0, timeout=4.5)
        assert spec.resolved_timeout == 4.5
        assert spec.as_tuple() == (1.0, 4.5)

    def test_loss_tolerance_scales_timeout(self):
        from repro.monitor import HeartbeatSpec

        spec = HeartbeatSpec(period=0.5, loss_tolerance=7)
        assert spec.resolved_timeout == pytest.approx(0.5 * 7.2)

    def test_timeout_not_exceeding_period_rejected(self):
        from repro.monitor import HeartbeatSpec

        with pytest.raises(ValueError, match="must exceed"):
            HeartbeatSpec(period=5.0, timeout=5.0)
        with pytest.raises(ValueError, match="must exceed"):
            HeartbeatSpec(period=5.0, timeout=2.0)

    def test_nonsense_values_rejected(self):
        from repro.monitor import HeartbeatSpec

        with pytest.raises(ValueError, match="positive"):
            HeartbeatSpec(period=0.0)
        with pytest.raises(ValueError, match="positive"):
            HeartbeatSpec(period=-1.0)
        with pytest.raises(ValueError, match="finite"):
            HeartbeatSpec(period=float("inf"))
        with pytest.raises(ValueError, match="finite"):
            HeartbeatSpec(period=1.0, timeout=float("nan"))
        with pytest.raises(ValueError, match="loss_tolerance"):
            HeartbeatSpec(loss_tolerance=0)
        with pytest.raises(ValueError, match="loss_tolerance"):
            HeartbeatSpec(loss_tolerance=2.5)

    def test_coerce_normalizes_every_accepted_form(self):
        from repro.monitor import HeartbeatSpec

        assert HeartbeatSpec.coerce(None) is None
        assert HeartbeatSpec.coerce((2.0, 7.0)) == (2.0, 7.0)
        assert HeartbeatSpec.coerce(HeartbeatSpec(period=1.0)) == (1.0, pytest.approx(3.2))
        with pytest.raises(ValueError):
            HeartbeatSpec.coerce((5.0, 1.0))  # tuples are validated too

    def test_monitor_accepts_spec_and_rejects_bad_tuple(self):
        import networkx as nx

        from repro.monitor import (
            ConjunctivePredicate,
            DistributedMonitor,
            HeartbeatSpec,
        )

        graph = nx.path_graph(3)
        phi = ConjunctivePredicate.uniform(range(3), lambda v: v.get("x") == 1)
        monitor = DistributedMonitor(
            graph, phi, heartbeat=HeartbeatSpec(period=2.0, loss_tolerance=4)
        )
        role = monitor.roles[0]
        assert role._heartbeat_cfg == (2.0, pytest.approx(8.4))
        with pytest.raises(ValueError, match="must exceed"):
            DistributedMonitor(graph, phi, heartbeat=(5.0, 3.0))


class TestSLOSpec:
    def test_defaults_disabled(self):
        spec = SLOSpec()
        assert not spec.enabled
        assert spec.as_dict() == {
            "detection_latency_p99": None,
            "stranded_epoch_rate": None,
        }

    def test_any_threshold_enables(self):
        assert SLOSpec(detection_latency_p99=0.5).enabled
        assert SLOSpec(stranded_epoch_rate=0.2).enabled

    def test_nonsense_values_rejected(self):
        import math

        with pytest.raises(ValueError):
            SLOSpec(detection_latency_p99=0.0)
        with pytest.raises(ValueError):
            SLOSpec(detection_latency_p99=-1.0)
        with pytest.raises(ValueError):
            SLOSpec(detection_latency_p99=math.inf)
        with pytest.raises(ValueError):
            SLOSpec(stranded_epoch_rate=0.0)
        with pytest.raises(ValueError):
            SLOSpec(stranded_epoch_rate=1.5)

    def test_as_dict_is_json_safe(self):
        import json

        spec = SLOSpec(detection_latency_p99=0.25, stranded_epoch_rate=0.5)
        assert json.loads(json.dumps(spec.as_dict())) == {
            "detection_latency_p99": 0.25,
            "stranded_epoch_rate": 0.5,
        }
