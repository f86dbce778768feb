"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.intervals import Interval
from repro.workload.scenarios import ScriptedExecution

# No per-example deadline: the default 200 ms is wall time, and this box
# takes the CPU away for longer than that now and then.  One such stall
# inside one example fails the property as ``FlakyFailure`` with no
# counter-example behind it (tests/clocks/test_encoding.py pins the
# case); speed is judged by the benchmark, not by hypothesis.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


def make_interval(owner: int, seq: int, lo, hi, n: int | None = None) -> Interval:
    """Terse interval constructor for tests: lo/hi are plain lists."""
    return Interval(owner=owner, seq=seq, lo=np.array(lo), hi=np.array(hi))


def random_execution(
    n: int, steps: int, rng: np.random.Generator, *, toggle_weight: int = 1
) -> ScriptedExecution:
    """A random but causally valid scripted execution.

    Draws internal events, predicate toggles, sends and (matching)
    receives; closes all open intervals at the end so the trace's
    interval sets are complete.
    """
    ex = ScriptedExecution(n)
    in_flight: list[str] = []
    tag = 0
    for _ in range(steps):
        op = int(rng.integers(0, 3 + toggle_weight))
        p = int(rng.integers(0, n))
        if op == 0:
            ex.internal(p)
        elif op == 1:
            t = f"t{tag}"
            tag += 1
            ex.send(p, t)
            in_flight.append(t)
        elif op == 2 and in_flight:
            ex.recv(p, in_flight.pop(int(rng.integers(0, len(in_flight)))))
        else:
            ex.set_pred(p, not ex.predicate[p])
    for p in range(n):
        if ex.predicate[p]:
            ex.set_pred(p, False)
    return ex


def random_parent_map(n: int, rng: np.random.Generator) -> dict:
    """A random rooted tree over processes 0..n-1 (root 0)."""
    parent = {0: None}
    for i in range(1, n):
        parent[i] = int(rng.integers(0, i))
    return parent


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
