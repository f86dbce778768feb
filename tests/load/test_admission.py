"""Admission controller: latched watermarks, congestion gate, defer."""

import pytest

from repro.load import AdmissionController, Offer
from repro.sim.kernel import Simulator


def controller(sim=None, **kwargs):
    sim = sim or Simulator(seed=1)
    defaults = dict(max_outstanding=8, resume_outstanding=4)
    defaults.update(kwargs)
    return AdmissionController(sim, sim.telemetry.registry, **defaults), sim


def offer(attempts=0):
    return Offer(index=0, user=-1, home=0, issued_at=0.0, attempts=attempts)


class TestWatermarks:
    def test_admits_below_high_water(self):
        ctrl, _ = controller()
        assert ctrl.decide(offer(), 0, outstanding=0) == "admit"
        assert ctrl.decide(offer(), 0, outstanding=7) == "admit"
        assert not ctrl.saturated

    def test_latches_at_high_water(self):
        ctrl, sim = controller()
        assert ctrl.decide(offer(), 0, outstanding=8) == "shed"
        assert ctrl.saturated
        kinds = [r.kind for r in sim.log.records]
        assert "load_shed_engaged" in kinds

    def test_hysteresis_holds_between_watermarks(self):
        ctrl, _ = controller()
        ctrl.decide(offer(), 0, outstanding=8)  # latch
        # outstanding back under high water but above resume: still shed
        assert ctrl.decide(offer(), 0, outstanding=6) == "shed"
        assert ctrl.saturated

    def test_releases_at_resume_watermark(self):
        ctrl, sim = controller()
        ctrl.decide(offer(), 0, outstanding=8)
        assert ctrl.decide(offer(), 0, outstanding=4) == "admit"
        assert not ctrl.saturated
        kinds = [r.kind for r in sim.log.records]
        assert "load_shed_released" in kinds

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            controller(max_outstanding=4, resume_outstanding=5)
        with pytest.raises(ValueError):
            controller(resume_outstanding=0)
        with pytest.raises(ValueError):
            controller(policy="drop")


class TestCongestion:
    def test_congested_target_sheds_even_when_open(self):
        ctrl, _ = controller()
        ctrl.note_congestion(2, True)
        assert ctrl.decide(offer(), 2, outstanding=0) == "shed"
        assert ctrl.decide(offer(), 1, outstanding=0) == "admit"
        ctrl.note_congestion(2, False)
        assert ctrl.decide(offer(), 2, outstanding=0) == "admit"

    def test_probe_backs_the_event_feed(self):
        backed_up = {3}
        ctrl, _ = controller(congestion_probe=lambda pid: pid in backed_up)
        assert ctrl.decide(offer(), 3, outstanding=0) == "shed"
        backed_up.clear()
        assert ctrl.decide(offer(), 3, outstanding=0) == "admit"

    def test_congestion_blocks_saturation_release(self):
        ctrl, _ = controller()
        ctrl.decide(offer(), 0, outstanding=8)
        ctrl.note_congestion(0, True)
        # under resume, but the target link is still backed up
        assert ctrl.decide(offer(), 0, outstanding=2) == "shed"
        ctrl.note_congestion(0, False)
        assert ctrl.decide(offer(), 0, outstanding=2) == "admit"


class TestDeferPolicy:
    def test_defers_until_attempts_exhaust(self):
        ctrl, _ = controller(policy="defer", max_defers=2)
        assert ctrl.decide(offer(attempts=0), 0, outstanding=8) == "defer"
        assert ctrl.decide(offer(attempts=1), 0, outstanding=8) == "defer"
        assert ctrl.decide(offer(attempts=2), 0, outstanding=8) == "shed"

    def test_exhausted_defer_counts_as_defer_exhausted(self):
        ctrl, sim = controller(policy="defer", max_defers=1)
        ctrl.decide(offer(attempts=1), 0, outstanding=8)
        registry = sim.telemetry.registry
        shed = registry.get("repro_load_shed_total")
        assert shed["defer-exhausted"] == 1


class TestShedReason:
    """``decide`` names the shed reason the session books, from the one
    congestion probe it made: congestion outranks the global gate
    there, while ``repro_load_shed_total`` keeps the gate that fired."""

    def test_reason_follows_the_single_probe(self):
        probes = []
        backed_up = set()

        def probe(pid):
            probes.append(pid)
            return pid in backed_up

        ctrl, sim = controller(congestion_probe=probe)
        assert ctrl.decide(offer(), 1, outstanding=0) == "admit"
        assert ctrl.shed_reason is None
        backed_up.add(1)
        assert ctrl.decide(offer(), 1, outstanding=0) == "shed"
        assert ctrl.shed_reason == "congested"
        assert ctrl.decide(offer(), 0, outstanding=8) == "shed"
        assert ctrl.shed_reason == "saturated"
        # gate latched *and* the target backed up: the session says
        # congested, the controller's own counter says saturated
        assert ctrl.decide(offer(), 1, outstanding=8) == "shed"
        assert ctrl.shed_reason == "congested"
        shed = sim.telemetry.registry.get("repro_load_shed_total")
        assert dict(shed) == {"congested": 1, "saturated": 2}
        assert probes == [1, 1, 0, 1]  # one probe per decision

    def test_defer_policy_reasons(self):
        ctrl, _ = controller(policy="defer", max_defers=1)
        assert ctrl.decide(offer(attempts=0), 0, outstanding=8) == "defer"
        assert ctrl.shed_reason is None
        assert ctrl.decide(offer(attempts=1), 0, outstanding=8) == "shed"
        assert ctrl.shed_reason == "defer-exhausted"


class TestMetrics:
    def test_decision_counters(self):
        ctrl, sim = controller()
        ctrl.decide(offer(), 1, outstanding=0)
        ctrl.count_admit(1)
        ctrl.decide(offer(), 1, outstanding=8)
        ctrl.set_outstanding(5)
        registry = sim.telemetry.registry
        assert registry.get("repro_load_offered_total")[1] == 2
        assert registry.get("repro_load_admitted_total")[1] == 1
        assert registry.get("repro_load_shed_total")["saturated"] == 1
        assert registry.get("repro_load_outstanding").value == 5
