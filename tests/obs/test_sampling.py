"""Unit tests: deterministic head-based trace sampling.

The sampler's contract is determinism across *everything* — instances,
serialized copies, interpreter processes (hash randomization), and the
sim/socket engines — because cluster nodes must independently reach the
sender's keep/drop decision to stitch sampled cross-node traces.
"""

import os
import subprocess
import sys

import pytest

from repro.obs import DEFAULT_SAMPLE_RATE, SpanTracker, TraceSampler, interval_key


def _interval_keys(count, owner=3):
    return [(owner, seq, b"lo-bytes", b"hi-bytes") for seq in range(count)]


def _shard_decisions(seed=None):
    """ShardedRunner worker payload: the sampler's keep/drop bitstring
    (module-level so the process pool can import it by reference)."""
    sampler = TraceSampler(0.3, seed=9)
    return "".join(
        "1" if sampler.keep((owner, seq, b"lo", b"hi")) else "0"
        for owner in range(4)
        for seq in range(64)
    )


class TestDecision:
    def test_rate_bounds_validated(self):
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                TraceSampler(bad)

    def test_rate_one_keeps_everything(self):
        sampler = TraceSampler(1.0)
        assert all(sampler.keep(key) for key in _interval_keys(500))
        assert sampler.keep(None)
        assert sampler.keep(("agg", 0, 1, b"l", b"h"))

    def test_rate_zero_drops_everything_but_unkeyed(self):
        sampler = TraceSampler(0.0)
        assert not any(sampler.keep(key) for key in _interval_keys(500))
        # Unkeyed spans cannot be re-decided reproducibly: always keep.
        assert sampler.keep(None)

    def test_observed_fraction_tracks_rate(self):
        keys = _interval_keys(10000)
        for rate in (0.1, 0.5, 0.9):
            kept = sum(TraceSampler(rate).keep(k) for k in keys)
            assert abs(kept / len(keys) - rate) < 0.03

    def test_same_seed_same_decisions(self):
        keys = _interval_keys(2000) + [("agg", 5, 9, b"l", b"h"), ("custom", "x")]
        a = TraceSampler(0.2, seed=7)
        b = TraceSampler(0.2, seed=7)
        assert [a.keep(k) for k in keys] == [b.keep(k) for k in keys]

    def test_different_seeds_select_different_subsets(self):
        keys = _interval_keys(2000)
        a = [TraceSampler(0.5, seed=1).keep(k) for k in keys]
        b = [TraceSampler(0.5, seed=2).keep(k) for k in keys]
        assert a != b

    def test_decisions_survive_serialization(self):
        keys = _interval_keys(1000)
        original = TraceSampler(0.3, seed=42)
        restored = TraceSampler.from_dict(original.to_dict())
        assert [original.keep(k) for k in keys] == [restored.keep(k) for k in keys]

    def test_agg_prefixed_keys_fall_back_to_crc(self):
        """Regression: a str leading element must take the CRC path —
        under the integer mix, ``"agg" * _OWNER_MULT`` would *sequence-
        repeat* into a multi-gigabyte string instead of raising."""
        sampler = TraceSampler(0.5, seed=0)
        decisions = [
            sampler.keep(("agg", owner, seq, b"l", b"h"))
            for owner in range(8)
            for seq in range(50)
        ]
        assert True in decisions and False in decisions
        again = TraceSampler(0.5, seed=0)
        assert decisions == [
            again.keep(("agg", owner, seq, b"l", b"h"))
            for owner in range(8)
            for seq in range(50)
        ]

    def test_adhoc_keys_are_deterministic(self):
        sampler = TraceSampler(0.5)
        for key in (("epoch", 3), ("x",), (0,), ("repair", "P4", 9)):
            assert sampler.keep(key) == sampler.keep(key)

    def test_keep_interval_uses_identity_key(self):
        class Fake:
            owner, seq = 2, 11

        for seed in range(8):
            sampler = TraceSampler(0.5, seed=seed)
            assert sampler.keep_interval(Fake()) == sampler.keep((2, 11))

    def test_decisions_stable_across_hash_randomization(self):
        """Keep/drop must not depend on ``PYTHONHASHSEED`` — shard
        workers and cluster nodes run in separate interpreters."""
        code = (
            "from repro.obs import TraceSampler\n"
            "s = TraceSampler(0.3, seed=9)\n"
            "keys = [(o, q, b'lo', b'hi') for o in range(4) for q in range(64)]\n"
            "keys += [('agg', o, q, b'lo', b'hi') for o in range(4) for q in range(16)]\n"
            "print(''.join('1' if s.keep(k) else '0' for k in keys))\n"
        )
        outputs = set()
        for hashseed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1

    def test_default_rate_exported(self):
        assert TraceSampler().rate == DEFAULT_SAMPLE_RATE

    def test_decisions_identical_across_sharded_workers(self):
        """Same seed ⇒ same keep/drop in every ShardedRunner worker
        process as in the driver."""
        from repro.experiments import RunSpec, ShardedRunner

        specs = [
            RunSpec(fn=_shard_decisions, seed=i, label=f"w{i}") for i in range(3)
        ]
        report = ShardedRunner(workers=3).run(specs)
        local = _shard_decisions()
        assert [shard.value for shard in report.shards] == [local] * 3


class TestTrackerRetention:
    """Sampling applied by the tracker: head drop + tail promotion."""

    def _interval(self, seq, owner=1):
        class Fake:
            parts = ()

            def __init__(self, owner, seq):
                self.owner, self.seq = owner, seq

        return Fake(owner, seq)

    def test_unpromoted_intervals_drop_at_rate_zero(self):
        tracker = SpanTracker(sampler=TraceSampler(0.0))
        for seq in range(20):
            tracker.record_interval(self._interval(seq), 0.0, 1.0, 1)
        assert tracker.spans == []
        stats = tracker.stats()
        assert stats["recorded"] == 20
        assert stats["materialized"] == 0

    def test_alarm_explanation_survives_rate_zero(self):
        """The tentpole guarantee: at rate 0.0 an alarm still explains
        itself down to the concrete intervals it adopted."""
        tracker = SpanTracker(sampler=TraceSampler(0.0))
        adopted, bystander = self._interval(0), self._interval(1)
        tracker.record_interval(adopted, 0.0, 1.0, 1)
        tracker.record_interval(bystander, 0.0, 1.0, 1)
        alarm = tracker.record("alarm", 2.0, 2.0, node=0)
        assert tracker.adopt(alarm, interval_key(adopted))
        names = [(s.name, s.parent) for s in tracker.spans]
        assert ("alarm", None) in names
        assert ("interval", alarm.sid) in names
        # The bystander interval was neither kept nor promoted.
        assert len(tracker.spans) == 2

    def test_head_decision_matches_sampler(self):
        sampler = TraceSampler(0.4, seed=5)
        tracker = SpanTracker(sampler=sampler)
        for seq in range(50):
            key = (1, seq, b"lo", b"hi")
            assert tracker.head_decision(key) == sampler.keep(key)
        assert SpanTracker().head_decision((1, 1, b"l", b"h")) is True

    def test_materialized_fraction_tracks_rate(self):
        tracker = SpanTracker(sampler=TraceSampler(0.1))
        for seq in range(2000):
            tracker.record_interval(self._interval(seq), 0.0, 1.0, 1)
        stats = tracker.stats()
        assert 0.05 < stats["sampled_fraction"] < 0.15

    def test_forced_flags_override_head_decision(self):
        tracker = SpanTracker(sampler=TraceSampler(0.0))
        kept = tracker.record("hop", 0.0, 0.0, node=1, key=("h", 1), sampled=True)
        tracker.record("hop", 0.0, 0.0, node=1, key=("h", 2), sampled=False)
        spans = tracker.spans
        assert [s.sid for s in spans] == [kept.sid]
