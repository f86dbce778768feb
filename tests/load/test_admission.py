"""Admission controller: latched watermarks and the congestion gate."""

import pytest

from repro.load import AdmissionController
from repro.sim.kernel import Simulator


def controller(sim=None, **kwargs):
    sim = sim or Simulator(seed=1)
    defaults = dict(max_outstanding=8, resume_outstanding=4)
    defaults.update(kwargs)
    return AdmissionController(sim, sim.telemetry.registry, **defaults), sim


class TestWatermarks:
    def test_admits_below_high_water(self):
        ctrl, _ = controller()
        assert ctrl.decide(0, outstanding=0)
        assert ctrl.decide(0, outstanding=7)
        assert not ctrl.saturated

    def test_latches_at_high_water(self):
        ctrl, sim = controller()
        assert not ctrl.decide(0, outstanding=8)
        assert ctrl.saturated
        kinds = [r.kind for r in sim.log.records]
        assert "load_shed_engaged" in kinds

    def test_hysteresis_holds_between_watermarks(self):
        ctrl, _ = controller()
        ctrl.decide(0, outstanding=8)  # latch
        # outstanding back under high water but above resume: still shed
        assert not ctrl.decide(0, outstanding=6)
        assert ctrl.saturated

    def test_releases_at_resume_watermark(self):
        ctrl, sim = controller()
        ctrl.decide(0, outstanding=8)
        assert ctrl.decide(0, outstanding=4)
        assert not ctrl.saturated
        kinds = [r.kind for r in sim.log.records]
        assert "load_shed_released" in kinds

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            controller(max_outstanding=4, resume_outstanding=5)
        with pytest.raises(ValueError):
            controller(resume_outstanding=0)


class TestCongestion:
    def test_congested_target_sheds_even_when_open(self):
        backed_up = {2}
        ctrl, _ = controller(congestion_probe=lambda pid: pid in backed_up)
        assert not ctrl.decide(2, outstanding=0)
        assert ctrl.decide(1, outstanding=0)
        backed_up.clear()
        assert ctrl.decide(2, outstanding=0)

    def test_probe_backs_the_event_feed(self):
        backed_up = {3}
        ctrl, _ = controller(congestion_probe=lambda pid: pid in backed_up)
        assert not ctrl.decide(3, outstanding=0)
        backed_up.clear()
        assert ctrl.decide(3, outstanding=0)

    def test_congestion_blocks_saturation_release(self):
        backed_up = set()
        ctrl, _ = controller(congestion_probe=lambda pid: pid in backed_up)
        ctrl.decide(0, outstanding=8)
        backed_up.add(0)
        # under resume, but the target link is still backed up
        assert not ctrl.decide(0, outstanding=2)
        backed_up.clear()
        assert ctrl.decide(0, outstanding=2)


class TestShedReason:
    """``decide`` names one shed reason, from the one congestion probe
    it made: congestion outranks the global gate, and
    ``repro_load_shed_total`` books the reason the session books."""

    def test_reason_follows_the_single_probe(self):
        probes = []
        backed_up = set()

        def probe(pid):
            probes.append(pid)
            return pid in backed_up

        ctrl, sim = controller(congestion_probe=probe)
        assert ctrl.decide(1, outstanding=0)
        assert ctrl.shed_reason is None
        backed_up.add(1)
        assert not ctrl.decide(1, outstanding=0)
        assert ctrl.shed_reason == "congested"
        assert not ctrl.decide(0, outstanding=8)
        assert ctrl.shed_reason == "saturated"
        # gate latched *and* the target backed up: booked once, as
        # congested, by the reason and the counter alike
        assert not ctrl.decide(1, outstanding=8)
        assert ctrl.shed_reason == "congested"
        shed = sim.telemetry.registry.get("repro_load_shed_total")
        assert dict(shed) == {"congested": 2, "saturated": 1}
        assert probes == [1, 1, 0, 1]  # one probe per decision


class TestMetrics:
    def test_decision_counters(self):
        ctrl, sim = controller()
        ctrl.decide(1, outstanding=0)
        ctrl.count_admit(1)
        ctrl.decide(1, outstanding=8)
        ctrl.set_outstanding(5)
        registry = sim.telemetry.registry
        assert registry.get("repro_load_offered_total")[1] == 2
        assert registry.get("repro_load_admitted_total")[1] == 1
        assert registry.get("repro_load_shed_total")["saturated"] == 1
        assert registry.get("repro_load_outstanding").value == 5
