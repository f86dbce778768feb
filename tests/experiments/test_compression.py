"""Integration tests: the timestamp-compression ablation."""

import pytest

from repro.experiments import compression_ablation


class TestCompressionAblation:
    def test_epoch_workload_compresses_little(self):
        """Globally synchronized epochs touch every vector component
        between reports, so there is little to save — an honest
        negative result worth pinning."""
        result = compression_ablation(d=2, h=3, p=8, sync_prob=1.0, seed=19)
        assert result.reports > 0
        assert 0.0 <= result.savings < 0.25
        assert result.adaptive_entries <= result.raw_entries

    def test_local_workload_compresses_well(self):
        result = compression_ablation(d=2, h=4, p=12, seed=19, workload="local")
        assert result.savings > 0.2
        assert result.picks["differential"] > 0
        # ... and better than the synchronized epochs on the same tree.
        epoch = compression_ablation(d=2, h=4, p=12, sync_prob=1.0, seed=19)
        assert result.savings > epoch.savings

    def test_savings_grow_with_system_size_on_local_traffic(self):
        small = compression_ablation(d=2, h=3, p=10, seed=19, workload="local")
        large = compression_ablation(d=3, h=4, p=10, seed=19, workload="local")
        assert large.n > small.n
        assert large.savings > small.savings

    def test_adaptive_never_exceeds_raw(self):
        for workload in ("epoch", "local"):
            result = compression_ablation(d=2, h=3, p=6, seed=3, workload=workload)
            assert result.adaptive_entries <= result.raw_entries

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            compression_ablation(workload="bogus")
