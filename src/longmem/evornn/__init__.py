"""EvoRNN: schedule-sized GRU cells with boundary projections.

Public surface of the recurrent-model subpackage.
"""

from .cell import GruCellParams
from .layer import EvoRnnLayer
from .model import (
    ModelParams,
    build_model,
    forward_with_caches,
    load_checkpoint,
    save_checkpoint,
)
from .tasks import lag_distribution, task_lag_recall
from .train import (
    StepMetrics,
    TrainConfig,
    TrainResult,
    clip_global_norm,
    compute_gradients,
    parameter_pairs,
    sample_negatives,
    train_toy,
)

__all__ = [
    "GruCellParams",
    "EvoRnnLayer",
    "ModelParams",
    "build_model",
    "forward_with_caches",
    "load_checkpoint",
    "save_checkpoint",
    "lag_distribution",
    "task_lag_recall",
    "StepMetrics",
    "TrainConfig",
    "TrainResult",
    "clip_global_norm",
    "compute_gradients",
    "parameter_pairs",
    "sample_negatives",
    "train_toy",
]
