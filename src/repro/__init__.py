"""repro — fault-tolerant hierarchical detection of strong conjunctive
predicates.

A production-quality reproduction of *"A Fault-Tolerant Strong
Conjunctive Predicate Detection Algorithm for Large-Scale Networks"*
(Shen & Kshemkalyani, IPDPSW 2013): the hierarchical repeated
``Definitely(Φ)`` detector (Algorithm 1) with interval aggregation
``⊓`` and fault-tolerant tree repair, the centralized and one-shot
baselines it is compared against, a deterministic discrete-event
simulation substrate, offline ground-truth oracles, and the harness
regenerating the paper's Table I and Figures 4–5.

Quick start::

    from repro import SpanningTree, run_hierarchical

    tree = SpanningTree.regular(d=2, h=3)       # 7 nodes
    result = run_hierarchical(tree, seed=1)
    for record in result.detections:
        print(record.time, sorted(record.members))

See ``examples/`` for richer scenarios and ``DESIGN.md`` for the
architecture.
"""

from .analysis import (
    RunMetrics,
    centralized_messages,
    centralized_messages_paper_eq14,
    hierarchical_messages,
    table1_rows,
    tree_nodes,
)
from .clocks import Timestamp, VectorClock, freeze, join, meet, vc_less
from .detect import (
    CentralizedSinkCore,
    DetectionRecord,
    HierarchicalNodeCore,
    RepeatedDetectionCore,
    Solution,
    holds_definitely,
    lattice_definitely,
    replay_centralized,
)
from .experiments import run_centralized, run_hierarchical, run_table1
from .intervals import Interval, aggregate, overlap, possibly
from .monitor import ConjunctivePredicate, DistributedMonitor
from .obs import (
    MetricsRegistry,
    SpanTracker,
    Telemetry,
    chrome_trace,
    eventlog_to_jsonl,
    prometheus_text,
)
from .sim import EventLog, ExecutionTrace, MonitoredProcess, Network, Simulator
from .topology import SpanningTree, plan_repair, random_geometric_topology
from .workload import (
    EpochConfig,
    ScriptedExecution,
    figure1_staggered_execution,
    figure2_execution,
    figure3_execution,
)

__version__ = "1.0.0"

__all__ = [
    "CentralizedSinkCore",
    "ConjunctivePredicate",
    "DetectionRecord",
    "DistributedMonitor",
    "EpochConfig",
    "EventLog",
    "ExecutionTrace",
    "HierarchicalNodeCore",
    "Interval",
    "MetricsRegistry",
    "MonitoredProcess",
    "Network",
    "RepeatedDetectionCore",
    "RunMetrics",
    "ScriptedExecution",
    "Simulator",
    "Solution",
    "SpanTracker",
    "SpanningTree",
    "Telemetry",
    "Timestamp",
    "VectorClock",
    "aggregate",
    "centralized_messages",
    "centralized_messages_paper_eq14",
    "chrome_trace",
    "eventlog_to_jsonl",
    "figure1_staggered_execution",
    "figure2_execution",
    "figure3_execution",
    "freeze",
    "hierarchical_messages",
    "holds_definitely",
    "join",
    "lattice_definitely",
    "meet",
    "overlap",
    "plan_repair",
    "possibly",
    "prometheus_text",
    "random_geometric_topology",
    "replay_centralized",
    "run_centralized",
    "run_hierarchical",
    "run_table1",
    "table1_rows",
    "tree_nodes",
    "vc_less",
]
