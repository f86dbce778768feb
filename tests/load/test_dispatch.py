"""Unit tests for dispatch policies and the load balancer."""

import pytest

from repro.load import (
    LeastOutstanding,
    LoadBalancer,
    Offer,
    RoundRobin,
    Weighted,
    make_policy,
)


def offer():
    return Offer(index=0, user=-1, issued_at=0.0)


class TestRoundRobin:
    def test_cycles_sorted_targets(self):
        policy = RoundRobin()
        picks = [policy.choose(offer(), [1, 2, 3], {}) for _ in range(7)]
        assert picks == [1, 2, 3, 1, 2, 3, 1]

    def test_survives_target_departure(self):
        policy = RoundRobin()
        policy.choose(offer(), [1, 2, 3], {})
        policy.choose(offer(), [1, 2, 3], {})
        # target list shrank; the cursor must still land on a member
        assert policy.choose(offer(), [1, 3], {}) in (1, 3)


class TestLeastOutstanding:
    def test_picks_fewest_in_flight(self):
        policy = LeastOutstanding()
        assert policy.choose(offer(), [1, 2, 3], {1: 5, 2: 1, 3: 4}) == 2

    def test_ties_break_to_lowest_pid(self):
        policy = LeastOutstanding()
        assert policy.choose(offer(), [3, 1, 2], {1: 2, 2: 2, 3: 2}) == 1
        assert policy.choose(offer(), [1, 2], {}) == 1


class TestWeighted:
    def test_pick_counts_match_weights_over_a_period(self):
        policy = Weighted({1: 3.0, 2: 1.0})
        picks = [policy.choose(offer(), [1, 2], {}) for _ in range(8)]
        assert picks.count(1) == 6 and picks.count(2) == 2

    def test_smooth_interleaving_not_runs(self):
        # The nginx smooth WRR property: 5:1 weights give at most one
        # consecutive low-weight pick and spread the rest.
        policy = Weighted({1: 5.0, 2: 1.0})
        picks = [policy.choose(offer(), [1, 2], {}) for _ in range(12)]
        assert picks.count(2) == 2
        assert picks[0] == 1  # highest credit first

    def test_unknown_target_weighs_as_floor(self):
        policy = Weighted({1: 4.0, 2: 2.0})
        picks = [policy.choose(offer(), [1, 2, 9], {}) for _ in range(8)]
        assert picks.count(9) == 2  # floor weight = 2.0 of an 8.0 total

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ValueError):
            Weighted({})
        with pytest.raises(ValueError):
            Weighted({1: 0.0})


class TestMakePolicy:
    def test_builds_stock_policies(self):
        assert isinstance(make_policy("round_robin"), RoundRobin)
        assert isinstance(make_policy("least_outstanding"), LeastOutstanding)
        assert isinstance(make_policy("weighted", weights={1: 1.0}), Weighted)

    def test_unknown_or_missing_weights_raise(self):
        with pytest.raises(ValueError):
            make_policy("random")
        with pytest.raises(ValueError):
            make_policy("weighted")


class TestLoadBalancer:
    def test_filters_dead_targets(self):
        dead = {2}
        balancer = LoadBalancer(
            RoundRobin(), [1, 2, 3], alive=lambda pid: pid not in dead
        )
        assert balancer.live_targets() == [1, 3]
        picks = {balancer.route(offer(), {}) for _ in range(4)}
        assert picks == {1, 3}

    def test_route_returns_none_when_all_dead(self):
        balancer = LoadBalancer(RoundRobin(), [1, 2], alive=lambda pid: False)
        assert balancer.route(offer(), {}) is None

    def test_needs_targets(self):
        with pytest.raises(ValueError):
            LoadBalancer(RoundRobin(), [])
