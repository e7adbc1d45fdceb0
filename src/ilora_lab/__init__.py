"""Desk-scale continual-learning laboratory: dual-memory adapter training,
replay/regularization/projection baselines, and mode-connectivity probes on a
small adapter-augmented network over synthetic task streams."""

from .bench import ArchConfig, TaskSpec, TaskStream, make_stream, pretrain_backbone
from .connectivity import (LambdaSweep, LandscapeGrid, default_lambda_grid,
                           interpolate, landscape_grid, linear_cka,
                           sweep_lambda, weight_distance)
from .metrics import ResultMatrix, acc_t, bwt_t
from .model import (Batch, Network, embed, forward, init_params,
                    loss_and_grad, param_length, predict_accuracy)
from .numerics import RngState, finite_diff_grad, gaussian_fill, matmul
from .optim import (AdamState, EwcState, GradRef, adam_step, agem_project,
                    ema_update, ewc_fisher, ewc_penalty_grad, lr_at, sgd_step)
from .replay import ReplayBuffer
from .strategies import (DualMemoryState, RunRecord, StrategyConfig,
                         ilora_step, run_sequence, train_task)

__all__ = [
    "ArchConfig", "TaskSpec", "TaskStream", "make_stream", "pretrain_backbone",
    "LambdaSweep", "LandscapeGrid", "default_lambda_grid", "interpolate",
    "landscape_grid", "linear_cka", "sweep_lambda", "weight_distance",
    "ResultMatrix", "acc_t", "bwt_t",
    "Batch", "Network", "embed", "forward", "init_params", "loss_and_grad",
    "param_length", "predict_accuracy",
    "RngState", "finite_diff_grad", "gaussian_fill", "matmul",
    "AdamState", "EwcState", "GradRef", "adam_step", "agem_project",
    "ema_update", "ewc_fisher", "ewc_penalty_grad", "lr_at", "sgd_step",
    "ReplayBuffer",
    "DualMemoryState", "RunRecord", "StrategyConfig", "ilora_step",
    "run_sequence", "train_task",
]
