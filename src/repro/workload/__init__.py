"""Workload generation: epoch waves, random chatter, predicate models,
and the paper's scripted figure scenarios."""

from .distributions import exponential_gap
from .generator import EpochConfig, EpochProcess, EpochWorkload, RandomWorkload
from .predicates import PeriodicPhases, RandomToggle, ThresholdSensor
from .scenarios import (
    ScriptedExecution,
    figure1_nested_execution,
    figure1_staggered_execution,
    figure2_execution,
    figure2_tree,
    figure3_execution,
)

__all__ = [
    "EpochConfig",
    "EpochProcess",
    "EpochWorkload",
    "PeriodicPhases",
    "RandomToggle",
    "RandomWorkload",
    "ScriptedExecution",
    "ThresholdSensor",
    "exponential_gap",
    "figure1_nested_execution",
    "figure1_staggered_execution",
    "figure2_execution",
    "figure2_tree",
    "figure3_execution",
]
