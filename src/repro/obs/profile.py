"""Continuous profiling: signal-driven stack sampling.

The observability plane can stay on at <10% overhead — which makes
"where do the remaining cycles go?" the next operator question.
:class:`SamplingProfiler` answers it: a low-overhead, always-on
profiler in the style of py-spy/perf.  A POSIX interval timer
(``setitimer``) delivers a signal every ``interval`` seconds and the
handler walks the interrupted frame stack into a collapsed-stack
counter.  Cost is O(stack depth) per *sample*, not per function call,
so it can ride along with a live cluster node (``ClusterSpec.profile``,
read by ``repro-cluster profile``).  ``wall`` mode (``ITIMER_REAL``)
samples elapsed time — including waits in the asyncio selector — while
``cpu`` mode (``ITIMER_PROF``) samples only CPU time.

It emits the two interchange forms the rest of ``repro.obs`` already
speaks: collapsed flamegraph stacks (``a;b;c 42`` lines, ready for
``flamegraph.pl`` / speedscope) and chrome-trace events for
``chrome://tracing``.

Signal handlers can only be installed from the main thread of the main
interpreter on POSIX, so availability is gated — callers check
:meth:`SamplingProfiler.available` and go without.  A cluster runs its asyncio loop on the main thread, so the
gate passes exactly where continuous profiling matters.
"""

from __future__ import annotations

import signal
import threading
import time
from collections import Counter, deque
from typing import Deque, Dict, List, Optional, Tuple

__all__ = ["SamplingProfiler"]

_MODES: Dict[str, Tuple[int, int]] = {}
if hasattr(signal, "setitimer"):  # POSIX only
    _MODES = {
        "wall": (signal.SIGALRM, signal.ITIMER_REAL),
        "cpu": (signal.SIGPROF, signal.ITIMER_PROF),
    }


class SamplingProfiler:
    """Periodic stack sampler built on POSIX interval timers.

    Parameters
    ----------
    interval:
        Seconds between samples (default 5ms ⇒ ~200 samples/s).
    mode:
        ``"wall"`` (elapsed time, ``SIGALRM``) or ``"cpu"``
        (CPU time only, ``SIGPROF``).
    max_depth:
        Frames retained per sample (innermost first while walking,
        stored root→leaf).
    max_trace:
        Timestamped samples kept for chrome-trace export; the collapsed
        stack counter itself is never truncated (it is keyed by unique
        stack, not by sample).
    """

    def __init__(
        self,
        interval: float = 0.005,
        *,
        mode: str = "wall",
        max_depth: int = 64,
        max_trace: int = 20000,
    ) -> None:
        if mode not in ("wall", "cpu"):
            raise ValueError(f"profiler mode must be 'wall' or 'cpu', got {mode!r}")
        if interval <= 0:
            raise ValueError("profiler interval must be positive")
        self.interval = float(interval)
        self.mode = mode
        self.max_depth = int(max_depth)
        self.samples = 0
        self.stacks: Counter = Counter()
        self._trace: Deque[Tuple[float, str]] = deque(maxlen=max_trace)
        self._running = False
        self._old_handler = None
        self._started_at: Optional[float] = None
        self._elapsed = 0.0

    # ------------------------------------------------------------------
    @staticmethod
    def available() -> bool:
        """Signal profiling needs ``setitimer`` and the main thread."""
        return bool(_MODES) and threading.current_thread() is threading.main_thread()

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        if self._running:
            return
        if not _MODES:
            raise RuntimeError("signal-based profiling is unavailable on this platform")
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("signal-based profiling must start on the main thread")
        signum, timer = _MODES[self.mode]
        self._old_handler = signal.signal(signum, self._handler)
        signal.setitimer(timer, self.interval, self.interval)
        self._started_at = time.perf_counter()
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        signum, timer = _MODES[self.mode]
        signal.setitimer(timer, 0.0, 0.0)
        signal.signal(signum, self._old_handler or signal.SIG_DFL)
        self._old_handler = None
        if self._started_at is not None:
            self._elapsed += time.perf_counter() - self._started_at
            self._started_at = None
        self._running = False

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _handler(self, signum, frame) -> None:
        self.samples += 1
        parts: List[str] = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            code = frame.f_code
            filename = code.co_filename.rsplit("/", 1)[-1]
            parts.append(f"{code.co_name} ({filename}:{code.co_firstlineno})")
            frame = frame.f_back
            depth += 1
        parts.reverse()
        stack = ";".join(parts)
        self.stacks[stack] += 1
        self._trace.append((time.perf_counter(), stack))

    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Total wall seconds this profiler has been running."""
        extra = (
            time.perf_counter() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        return self._elapsed + extra

    def collapsed(self) -> str:
        """Collapsed flamegraph stacks: one ``root;...;leaf count`` line
        per unique stack, most-sampled first."""
        return "\n".join(
            f"{stack} {count}"
            for stack, count in sorted(
                self.stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
        )

    def top(self, n: int = 10) -> List[Tuple[str, int]]:
        """The *n* most-sampled leaf frames (self-time attribution)."""
        leaves: Counter = Counter()
        for stack, count in self.stacks.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] += count
        return leaves.most_common(n)

    def to_dict(self) -> dict:
        """JSON-safe snapshot (the ``profile`` admin command payload)."""
        return {
            "mode": self.mode,
            "interval": self.interval,
            "running": self._running,
            "samples": self.samples,
            "elapsed": self.elapsed,
            "unique_stacks": len(self.stacks),
            "top": [[frame, count] for frame, count in self.top(10)],
            "stacks": dict(self.stacks),
        }

    def chrome_trace(self) -> List[dict]:
        """Timestamped samples as chrome-trace instant events."""
        if not self._trace:
            return []
        base = self._trace[0][0]
        return [
            {
                "name": stack.rsplit(";", 1)[-1],
                "ph": "i",
                "ts": (t - base) * 1e6,
                "pid": 0,
                "tid": 0,
                "s": "t",
                "args": {"stack": stack},
            }
            for t, stack in self._trace
        ]
