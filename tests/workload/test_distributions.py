"""The shared exponential gap helper: one sampling funnel for the sim
workload and the open-loop offer plan."""

import numpy as np
import pytest

from repro.workload.distributions import exponential_gap


class TestExponentialGap:
    def test_single_draw_matches_inline_exponential(self):
        # The refactor contract: one call == one rng.exponential(mean),
        # so replacing inline draws keeps byte-identical sequences.
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        gaps = [exponential_gap(a, 0.25) for _ in range(50)]
        inline = [float(b.exponential(0.25)) for _ in range(50)]
        assert gaps == inline

    def test_mean_roughly_holds(self):
        rng = np.random.default_rng(1)
        gaps = [exponential_gap(rng, 0.1) for _ in range(20000)]
        assert np.mean(gaps) == pytest.approx(0.1, rel=0.05)
