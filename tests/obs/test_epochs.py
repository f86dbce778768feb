"""Unit tests: the epoch lifecycle ledger and its stranding watchdog."""

import pytest

from repro.obs import (
    EPOCH_STAGES,
    EPOCH_TERMINAL_STATES,
    STRANDING_CAUSES,
    EpochLedger,
    MetricsRegistry,
    StrandingWatchdog,
)
from repro.obs.epochs import MAX_STRANDED_DETAIL


class FakeClock:
    def __init__(self):
        self.now = 0.0


class FakeInterval:
    def __init__(self, owner, seq):
        self.owner = owner
        self.seq = seq


def make_ledger(stride=3, total_offers=6):
    registry = MetricsRegistry()
    return EpochLedger(registry, stride=stride, total_offers=total_offers), registry


def offer_epoch(ledger, epoch, members, t=0.0):
    for m in members:
        ledger.note_offered(epoch, epoch * ledger.stride + m, t)


class TestLifecycle:
    def test_all_completed_is_solved(self):
        ledger, registry = make_ledger()
        offer_epoch(ledger, 0, range(3))
        keys = [(pid, 0) for pid in range(3)]
        for m, key in enumerate(keys):
            ledger.note_admitted(0, m, key, target=m, now=0.1, depth=1)
        for key in keys:
            ledger.note_completed(key, 0.5)
        summary = ledger.summary()
        assert summary["solved"] == 1
        assert summary["stranded"] == 0
        assert summary["in_flight"] == 0
        assert summary["admitted_epochs"] == 1
        assert registry.get("repro_epoch_solved_total").value == 1
        # the epoch visited every stage except 'queued' (no core hook
        # here), so those dwell histograms observed a sample
        assert registry.get("repro_epoch_dwell_seconds_offered").count == 1
        assert registry.get("repro_epoch_dwell_seconds_matched").count == 1

    def test_all_shed_is_expired_not_stranded(self):
        ledger, registry = make_ledger()
        offer_epoch(ledger, 0, range(3))
        for m in range(3):
            ledger.note_shed(0, m, "saturated", 0.1, target=m)
        summary = ledger.summary()
        assert summary["expired"] == 1
        assert summary["stranded"] == 0
        assert summary["stranded_by_cause"] == {}
        assert registry.get("repro_epoch_expired_total").value == 1

    def test_shed_sibling_strands_admitted_members(self):
        ledger, registry = make_ledger()
        offer_epoch(ledger, 0, range(3))
        ledger.note_admitted(0, 0, (0, 0), target=0, now=0.1, depth=1)
        ledger.note_admitted(0, 1, (1, 0), target=1, now=0.1, depth=1)
        ledger.note_shed(0, 2, "saturated", 0.2, target=2)
        ledger.note_abandoned((0, 0), "shed-sibling", 2.0, target=0)
        ledger.note_abandoned((1, 0), "shed-sibling", 2.0, target=1)
        summary = ledger.summary()
        assert summary["stranded"] == 1
        assert summary["stranded_by_cause"] == {"shed-sibling": 1}
        (row,) = ledger.stranded_details()
        assert row["cause"] == "shed-sibling"
        assert row["admitted"] == 2 and row["expected"] == 3
        assert {s["reason"] for s in row["shed"]} == {"saturated"}
        assert {a["reason"] for a in row["abandoned"]} == {"shed-sibling"}

    def test_dead_target_beats_shed_sibling(self):
        ledger, _ = make_ledger()
        offer_epoch(ledger, 0, range(3))
        ledger.note_admitted(0, 0, (0, 0), target=0, now=0.1, depth=1)
        ledger.note_shed(0, 1, "no-target", 0.2)
        ledger.note_shed(0, 2, "saturated", 0.2, target=2)
        ledger.note_abandoned((0, 0), "dead-target", 2.0, target=0)
        assert ledger.stranded_by_cause() == {"dead-target": 1}

    def test_all_admitted_timeout_is_pending_timeout(self):
        ledger, _ = make_ledger()
        offer_epoch(ledger, 0, range(3))
        for m in range(3):
            ledger.note_admitted(0, m, (m, 0), target=m, now=0.1, depth=1)
        ledger.note_completed((0, 0), 0.5)
        ledger.note_abandoned((1, 0), "pending-timeout", 2.5, target=1)
        ledger.note_abandoned((2, 0), "pending-timeout", 2.5, target=2)
        assert ledger.stranded_by_cause() == {"pending-timeout": 1}
        (row,) = ledger.stranded_details()
        assert row["completed"] == 1

    def test_partial_final_epoch_expects_fewer_members(self):
        ledger, _ = make_ledger(stride=3, total_offers=7)
        assert ledger.expected_members(2) == 1
        offer_epoch(ledger, 2, [0])
        ledger.note_admitted(2, 6, (0, 9), target=0, now=0.0, depth=1)
        ledger.note_completed((0, 9), 0.2)
        assert ledger.summary()["solved"] == 1

    def test_note_offered_is_idempotent_per_index(self):
        ledger, _ = make_ledger()
        ledger.note_offered(0, 0, 0.0)
        ledger.note_offered(0, 1, 0.1)
        ledger.note_shed(0, 0, "saturated", 0.2)
        ledger.note_shed(0, 1, "saturated", 0.2)
        ledger.note_shed(0, 2, "saturated", 0.2)
        ledger.note_offered(0, 2, 0.15)
        # 3 distinct offers + 3 resolutions: the epoch resolves exactly once
        assert ledger.summary()["expired"] == 1

    def test_unresolved_admitted_epoch_counts_in_flight(self):
        ledger, _ = make_ledger()
        offer_epoch(ledger, 0, range(3))
        ledger.note_admitted(0, 0, (0, 0), target=0, now=0.1, depth=1)
        assert ledger.in_flight == 1
        summary = ledger.summary()
        assert summary["admitted_epochs"] == 1
        assert summary["solved"] + summary["stranded"] + summary["in_flight"] == 1

    def test_rejects_bad_construction(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            EpochLedger(registry, stride=0, total_offers=10)
        with pytest.raises(ValueError):
            EpochLedger(registry, stride=3, total_offers=0)


class TestExpiryCause:
    def setup_method(self):
        self.ledger, _ = make_ledger()
        offer_epoch(self.ledger, 0, range(3))
        self.ledger.note_admitted(0, 0, (0, 0), target=0, now=0.1, depth=1)

    def test_dead_target_wins(self):
        assert self.ledger.expiry_cause((0, 0), target_alive=False) == "dead-target"

    def test_shed_sibling(self):
        self.ledger.note_shed(0, 1, "saturated", 0.2, target=1)
        assert self.ledger.expiry_cause((0, 0)) == "shed-sibling"

    def test_no_target_sibling_reads_dead_target(self):
        self.ledger.note_shed(0, 1, "no-target", 0.2)
        assert self.ledger.expiry_cause((0, 0)) == "dead-target"

    def test_plain_timeout(self):
        assert self.ledger.expiry_cause((0, 0)) == "pending-timeout"

    def test_unknown_key_is_plain_timeout(self):
        assert self.ledger.expiry_cause((9, 9)) == "pending-timeout"


class TestCoreObserver:
    def test_enqueue_and_prune_advance_stages(self):
        ledger, registry = make_ledger()
        clock = FakeClock()
        offer_epoch(ledger, 0, range(3))
        ledger.note_admitted(0, 0, (4, 7), target=4, now=0.0, depth=1)
        observe = ledger.core_observer(clock)
        clock.now = 0.2
        observe("enqueue", 4, FakeInterval(4, 7))
        assert ledger.summary()["states"]["queued"] == 1
        clock.now = 0.4
        observe("prune_solution", 4, FakeInterval(4, 7))
        assert ledger.summary()["states"]["matched"] == 1
        events = registry.get("repro_epoch_queue_events_total")
        assert events["enqueue"] == 1 and events["prune_solution"] == 1

    def test_sink_mode_ignores_aggregate_queues(self):
        ledger, registry = make_ledger()
        ledger.note_offered(0, 0, 0.0)
        ledger.note_admitted(0, 0, (4, 7), target=4, now=0.0, depth=1)
        observe = ledger.core_observer(FakeClock())
        # queue key != owner: an interval filed under another process's
        # queue is aggregate bookkeeping, not this member's lifecycle
        observe("enqueue", 2, FakeInterval(4, 7))
        assert ledger.summary()["states"]["queued"] == 0

    def test_node_mode_accepts_only_own_intervals(self):
        ledger, _ = make_ledger()
        ledger.note_offered(0, 0, 0.0)
        ledger.note_admitted(0, 0, (4, 7), target=4, now=0.0, depth=1)
        observe = ledger.core_observer(FakeClock(), node=3)
        observe("enqueue", 4, FakeInterval(4, 7))  # owner 4 != node 3
        assert ledger.summary()["states"]["queued"] == 0
        ledger.core_observer(FakeClock(), node=4)("enqueue", 4, FakeInterval(4, 7))
        assert ledger.summary()["states"]["queued"] == 1

    def test_unknown_keys_ignored(self):
        ledger, registry = make_ledger()
        ledger.core_observer(FakeClock())("enqueue", 4, FakeInterval(4, 99))
        assert sum(registry.get("repro_epoch_queue_events_total").values()) == 0


class TestWatermarks:
    def test_depth_watermark_is_sticky_high(self):
        ledger, _ = make_ledger(stride=2, total_offers=4)
        offer_epoch(ledger, 0, range(2))
        ledger.note_admitted(0, 0, (0, 0), target=5, now=0.0, depth=1)
        ledger.note_admitted(0, 1, (1, 0), target=5, now=0.0, depth=2)
        ledger.note_completed((0, 0), 0.1)
        ledger.note_completed((1, 0), 0.1)
        assert ledger.watermarks()[5]["depth"] == 2

    def test_tick_records_oldest_pending_age(self):
        ledger, _ = make_ledger()
        offer_epoch(ledger, 0, range(3))
        ledger.note_admitted(0, 0, (0, 0), target=2, now=1.0, depth=1)
        ledger.tick(3.5, [(2, 1.0)])
        assert ledger.watermarks()[2]["age_s"] == pytest.approx(2.5)
        ledger.tick(2.0, [(2, 1.0)])  # lower instantaneous age must not regress it
        assert ledger.watermarks()[2]["age_s"] == pytest.approx(2.5)


class TestWireForms:
    def test_summary_identity_holds_mid_run(self):
        ledger, _ = make_ledger(stride=2, total_offers=8)
        for epoch in range(3):
            offer_epoch(ledger, epoch, range(2))
        # epoch 0 solved, epoch 1 stranded, epoch 2 in flight
        ledger.note_admitted(0, 0, (0, 0), target=0, now=0.0, depth=1)
        ledger.note_admitted(0, 1, (1, 0), target=1, now=0.0, depth=1)
        ledger.note_completed((0, 0), 0.1)
        ledger.note_completed((1, 0), 0.1)
        ledger.note_admitted(1, 2, (0, 1), target=0, now=0.0, depth=1)
        ledger.note_shed(1, 3, "saturated", 0.1, target=1)
        ledger.note_abandoned((0, 1), "shed-sibling", 2.0, target=0)
        ledger.note_admitted(2, 4, (0, 2), target=0, now=0.2, depth=1)
        summary = ledger.summary()
        assert summary["admitted_epochs"] == 3
        assert (
            summary["solved"] + summary["stranded"] + summary["in_flight"]
            == summary["admitted_epochs"]
        )

    def test_to_dict_bounds_stranded_detail(self):
        extra = 6
        total = MAX_STRANDED_DETAIL + extra
        ledger, _ = make_ledger(stride=1, total_offers=total)
        for epoch in range(total):
            ledger.note_offered(epoch, epoch, 0.0)
            ledger.note_admitted(epoch, epoch, (0, epoch), target=0, now=0.0, depth=1)
            ledger.note_abandoned((0, epoch), "pending-timeout", 5.0, target=0)
        payload = ledger.to_dict()
        assert payload["summary"]["stranded"] == total
        assert len(payload["stranded_detail"]) == MAX_STRANDED_DETAIL
        assert payload["stranded_detail_truncated"] == extra

    def test_constants_are_consistent(self):
        assert set(STRANDING_CAUSES) == {
            "shed-sibling", "dead-target", "pending-timeout",
        }
        assert EPOCH_STAGES[0] == "offered"
        assert set(EPOCH_TERMINAL_STATES) == {"solved", "stranded", "expired"}


class TestStrandingWatchdog:
    def _stranded_ledger(self, stranded, solved):
        ledger, _ = make_ledger(stride=1, total_offers=stranded + solved)
        for epoch in range(stranded + solved):
            ledger.note_offered(epoch, epoch, 0.0)
            ledger.note_admitted(epoch, epoch, (0, epoch), target=0, now=0.0, depth=1)
            if epoch < stranded:
                ledger.note_abandoned((0, epoch), "pending-timeout", 5.0, target=0)
            else:
                ledger.note_completed((0, epoch), 0.5)
        return ledger

    def test_rejects_bad_threshold(self):
        ledger, _ = make_ledger()
        for threshold in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                StrandingWatchdog(ledger, threshold)

    def test_quiet_below_min_admitted(self):
        watchdog = StrandingWatchdog(
            self._stranded_ledger(2, 0), 0.1, min_admitted=4
        )
        assert watchdog.check() is None
        assert not watchdog.latched

    def test_breach_reports_once_then_latches(self):
        watchdog = StrandingWatchdog(
            self._stranded_ledger(3, 5), 0.25, min_admitted=4
        )
        breach = watchdog.check()
        assert breach is not None
        assert breach["value"] == pytest.approx(3 / 8)
        assert breach["threshold"] == 0.25
        assert breach["by_cause"] == {"pending-timeout": 3}
        assert watchdog.latched
        assert watchdog.check() is None

    def test_no_breach_at_or_below_threshold(self):
        watchdog = StrandingWatchdog(
            self._stranded_ledger(1, 7), 0.125, min_admitted=4
        )
        assert watchdog.check() is None
