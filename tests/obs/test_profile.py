"""Unit tests: the continuous-profiling layer.

Signal-based sampling needs ``setitimer`` and the main thread, so every
test that actually arms a timer is gated on
:meth:`SamplingProfiler.available` — on platforms without POSIX timers
the suite still exercises validation and bookkeeping.
"""

import signal
import time

import pytest

from repro.obs import SamplingProfiler


def _busy(deadline: float) -> int:
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


class TestSamplingProfilerValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SamplingProfiler(mode="gpu")

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(0.0)
        with pytest.raises(ValueError):
            SamplingProfiler(-0.001)

    def test_idle_snapshot_shape(self):
        profiler = SamplingProfiler()
        data = profiler.to_dict()
        assert data["samples"] == 0
        assert data["running"] is False
        assert data["top"] == []
        assert profiler.collapsed() == ""
        assert profiler.chrome_trace() == []


@pytest.mark.skipif(
    not SamplingProfiler.available(),
    reason="needs setitimer and the main thread",
)
class TestSamplingProfilerLive:
    def test_collects_samples_from_busy_loop(self):
        profiler = SamplingProfiler(0.001)
        with profiler:
            _busy(time.perf_counter() + 0.2)
        assert not profiler.running
        assert profiler.samples > 0
        assert profiler.elapsed > 0.1
        assert sum(profiler.stacks.values()) == profiler.samples
        # Every collapsed line is "root;...;leaf count".
        for line in profiler.collapsed().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0
        top = profiler.top(5)
        assert top and top[0][1] >= top[-1][1]
        data = profiler.to_dict()
        assert data["samples"] == profiler.samples
        assert data["unique_stacks"] == len(profiler.stacks)
        events = profiler.chrome_trace()
        assert events and all(e["ph"] == "i" for e in events)

    def test_stop_restores_signal_handler(self):
        signum = signal.SIGALRM
        before = signal.getsignal(signum)
        profiler = SamplingProfiler(0.001)
        profiler.start()
        assert signal.getsignal(signum) == profiler._handler
        profiler.stop()
        assert signal.getsignal(signum) == before

    def test_start_stop_idempotent(self):
        profiler = SamplingProfiler(0.001)
        profiler.stop()  # never started: no-op
        profiler.start()
        profiler.start()  # second start: no handler churn
        _busy(time.perf_counter() + 0.05)
        profiler.stop()
        profiler.stop()
        assert not profiler.running

    def test_restart_accumulates_elapsed(self):
        profiler = SamplingProfiler(0.001)
        for _ in range(2):
            with profiler:
                _busy(time.perf_counter() + 0.05)
        assert profiler.elapsed > 0.08
