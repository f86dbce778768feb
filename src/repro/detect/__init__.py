"""Predicate-detection algorithms: the hierarchical detector (paper),
the centralized repeated baseline [12] (and its one-shot mode [7]),
and offline ground-truth oracles."""

from .base import CoreStats, Solution
from .centralized import CentralizedSinkCore
from .core import RepeatedDetectionCore
from .hierarchical import Emission, EmissionKind, HierarchicalNodeCore
from .offline import (
    enumerate_solution_sets,
    holds_definitely,
    lattice_definitely,
    replay_centralized,
)
from .roles import (
    CentralizedReporterRole,
    CentralizedSinkRole,
    DetectionRecord,
    HierarchicalRole,
)

__all__ = [
    "CentralizedReporterRole",
    "CentralizedSinkCore",
    "CentralizedSinkRole",
    "CoreStats",
    "DetectionRecord",
    "Emission",
    "EmissionKind",
    "HierarchicalNodeCore",
    "RepeatedDetectionCore",
    "Solution",
    "enumerate_solution_sets",
    "holds_definitely",
    "lattice_definitely",
    "replay_centralized",
]
