"""Experiment harness: one runner per paper table/figure, plus ablations."""

from .ablation import (
    PruningResult,
    ShapeResult,
    TreeConstructionResult,
    alpha_sweep,
    pruning_rule_ablation,
    replay_with_eq9,
    tree_construction_ablation,
    tree_shape_ablation,
)
from .availability import (
    AvailabilityPoint,
    availability_sweep,
    format_availability,
)
from .compression import CompressionResult, compression_ablation
from .design_space import (
    AlgorithmProfile,
    design_space_comparison,
    format_design_space,
)
from .figures import (
    FigureData,
    empirical_message_sweep,
    format_figure,
    message_complexity_figure,
)
from .harness import (
    RunResult,
    run_centralized,
    run_hierarchical,
)
from .levels import LevelRow, format_levels, level_breakdown
from .parallel import (
    RunSpec,
    ShardReport,
    ShardResult,
    ShardedRunner,
    spawn_seed_sequences,
    spawn_seeds,
)
from .latency import (
    LatencyPoint,
    detection_latencies,
    format_latency,
    latency_sweep,
)
from .scaling import ScalingPoint, growth_slopes, scaling_sweep
from .starvation import StarvationResult, format_starvation, starvation_comparison
from .suite import generate_report
from .table1 import Table1Row, format_table1, run_table1, table1_specs
from .validation import ValidationReport, run_validation

__all__ = [
    "AlgorithmProfile",
    "AvailabilityPoint",
    "CompressionResult",
    "FigureData",
    "LatencyPoint",
    "LevelRow",
    "PruningResult",
    "RunResult",
    "RunSpec",
    "ShapeResult",
    "ShardReport",
    "ShardResult",
    "ShardedRunner",
    "StarvationResult",
    "Table1Row",
    "ValidationReport",
    "TreeConstructionResult",
    "alpha_sweep",
    "availability_sweep",
    "compression_ablation",
    "design_space_comparison",
    "detection_latencies",
    "empirical_message_sweep",
    "format_availability",
    "format_latency",
    "format_starvation",
    "format_levels",
    "generate_report",
    "format_design_space",
    "format_figure",
    "format_table1",
    "message_complexity_figure",
    "pruning_rule_ablation",
    "replay_with_eq9",
    "run_centralized",
    "run_hierarchical",
    "run_table1",
    "run_validation",
    "ScalingPoint",
    "growth_slopes",
    "latency_sweep",
    "level_breakdown",
    "scaling_sweep",
    "spawn_seed_sequences",
    "spawn_seeds",
    "starvation_comparison",
    "table1_specs",
    "tree_construction_ablation",
    "tree_shape_ablation",
]
