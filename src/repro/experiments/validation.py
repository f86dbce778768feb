"""Self-validation battery — `repro-experiments validate`.

A fast, self-contained correctness sweep a user can run after install
(or on a new platform) to confirm the reproduction behaves: random
executions and random trees are generated, every detector and oracle is
cross-checked, and a summary of checks × trials is printed.  The full
test-suite covers far more; this is the 10-second smoke version.

Checks per trial:

1. hierarchical root detections == centralized reference detections
   (count and solution identity);
2. every solution at every level unfolds to a concrete interval set
   satisfying Eq. (2);
3. first-detection existence == brute-force `Definitely(Φ)`;
4. event-based detection sound w.r.t. the global-state lattice oracle
   (small trials only);
5. the one-shot detector [7] finds exactly the centralized reference's
   first detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..detect import RepeatedDetectionCore, holds_definitely, lattice_definitely
from ..detect.offline import replay_centralized, replay_hierarchical
from ..intervals import overlap
from ..topology.spanning_tree import SpanningTree
from ..workload.scenarios import ScriptedExecution

__all__ = ["ValidationReport", "run_validation"]


@dataclass
class ValidationReport:
    trials: int
    checks: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"validation: {self.trials} random executions"]
        for name, count in sorted(self.checks.items()):
            lines.append(f"  [ok] {name}: {count} checks")
        for failure in self.failures:
            lines.append(f"  [FAIL] {failure}")
        lines.append("RESULT: " + ("all checks passed" if self.ok else "FAILURES"))
        return "\n".join(lines)


def _random_execution(n: int, steps: int, rng: np.random.Generator) -> ScriptedExecution:
    ex = ScriptedExecution(n)
    in_flight: list = []
    tag = 0
    for _ in range(steps):
        op = int(rng.integers(0, 4))
        p = int(rng.integers(0, n))
        if op == 0:
            ex.internal(p)
        elif op == 1:
            ex.set_pred(p, not ex.predicate[p])
        elif op == 2:
            name = f"t{tag}"
            tag += 1
            ex.send(p, name)
            in_flight.append(name)
        elif in_flight:
            ex.recv(p, in_flight.pop(int(rng.integers(0, len(in_flight)))))
    for p in range(n):
        if ex.predicate[p]:
            ex.set_pred(p, False)
    return ex


def _random_tree(n: int, rng: np.random.Generator) -> SpanningTree:
    parent = {0: None}
    for i in range(1, n):
        parent[i] = int(rng.integers(0, i))
    return SpanningTree(0, parent)


def run_validation(*, trials: int = 50, seed: int = 0) -> ValidationReport:
    rng = np.random.default_rng(seed)
    report = ValidationReport(trials=trials)

    def check(name: str, condition: bool, context: str) -> None:
        if condition:
            report.checks[name] = report.checks.get(name, 0) + 1
        else:
            report.failures.append(f"{name} @ {context}")

    for trial in range(trials):
        n = int(rng.integers(2, 5))
        ex = _random_execution(n, int(rng.integers(5, 40)), rng)
        trace = ex.trace
        context = f"trial {trial} (n={n}, seed={seed})"

        reference = replay_centralized(trace, sink=0)
        tree = _random_tree(n, rng)
        emissions = replay_hierarchical(trace, tree)

        check(
            "hierarchical == centralized detections",
            len(emissions[0]) == len(reference),
            context,
        )
        safe = all(
            overlap(list(e.aggregate.concrete_leaves()))
            for emitted in emissions.values()
            for e in emitted
        )
        check("every solution satisfies Eq. (2)", safe, context)
        ground_truth = holds_definitely(trace.all_intervals())
        check(
            "detects iff Definitely holds",
            bool(reference) == ground_truth,
            context,
        )
        if n <= 3 and trace.event_count() <= 20:
            check(
                "sound vs lattice oracle",
                (not ground_truth) or lattice_definitely(trace),
                context,
            )

        one_shot = RepeatedDetectionCore(range(n), repeated=False)
        found = []
        for interval in trace.intervals_in_completion_order():
            found.extend(one_shot.offer(interval.owner, interval))

        def keys(solutions):
            return [
                sorted((iv.owner, iv.seq) for iv in solution.heads.values())
                for solution in solutions
            ]

        check(
            "one-shot == first repeated detection",
            keys(found) == keys(reference[:1]),
            context,
        )
    return report
