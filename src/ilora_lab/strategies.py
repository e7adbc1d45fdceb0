"""Continual-training engine: one training loop for six strategy kinds.

Each optimizer step draws a batch from the pool, builds the kind's gradient,
updates, then (ILORA) moves the slow learner by EMA every a-th step.

SEQ    CE on the current task.
ER     CE over the current task plus the replay memory.
EWC    CE plus a quadratic Fisher anchor per past task.
AGEM   CE projected against a fresh memory gradient.
MTL    CE in one training phase over the union of all tasks (upper bound).
ILORA  ER plus an embedding-deviation term against the slow learner, which
       tracks the fast learner by EMA.

Training draws per step come from a single seeded generator, in a fixed
order, so null hyper-parameters give bit-exact reductions (ER with rho=0 is
SEQ; ILORA with gamma=0, lambda=0, a=1 is ER).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .metrics import ResultMatrix
from .model import Batch, Network, embed, init_params, loss_and_grad, \
    predict_accuracy
from .numerics import RngState
from .optim import AdamState, EwcState, GradRef, adam_step, agem_project, \
    ema_update, ewc_fisher, ewc_penalty_grad, sgd_step
from .replay import ReplayBuffer

KINDS = ("SEQ", "ER", "EWC", "AGEM", "MTL", "ILORA")
REPLAY_KINDS = ("ER", "AGEM", "ILORA")
# EWC's Fisher is estimated on at most this many leading rows of each task.
FISHER_SAMPLE_CAP = 256


@dataclass
class StrategyConfig:
    kind: str = "SEQ"
    epochs: int = 3
    batch_size: int = 16
    gamma: float = 1.0
    lambda_ema: float = 0.95
    update_frequency: int = 1
    lambda_ewc: float = 100.0
    rho: float = 0.1
    optimizer: str = "adam"
    base_lr: float = 1e-2
    warmup_ratio: float = 0.2
    deploy_slow: bool = True
    stratified_replay: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.lambda_ema <= 1.0:
            raise ValueError("lambda_ema must lie in [0, 1]")
        if self.update_frequency < 1:
            raise ValueError("update_frequency must be >= 1")
        if self.gamma < 0.0 or self.lambda_ewc < 0.0:
            raise ValueError("gamma and lambda_ewc must be >= 0")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.base_lr < 0.0:
            raise ValueError("base_lr must be >= 0")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ValueError("warmup_ratio must lie in [0, 1]")


@dataclass
class DualMemoryState:
    """Training state of every kind: the fast (working) learner, the slow
    (long-term) learner or None for single-memory kinds, and the optimizer,
    which `train_task` sets fresh for each phase."""
    theta_w: np.ndarray
    theta_l: np.ndarray | None
    adam: AdamState | None = None

    def __post_init__(self):
        if self.theta_l is not None and \
                self.theta_w.shape != self.theta_l.shape:
            raise ValueError("fast/slow parameter layout mismatch")


@dataclass
class RunRecord:
    """What a run measured: the working (and, for ILORA, slow) checkpoint
    after each task, empty for single-memory kinds; the result matrix; and
    general retention, R[T][1] minus the untrained adapters' accuracy on
    task 1's eval set."""
    checkpoints: list[np.ndarray]
    slow_checkpoints: list[np.ndarray]
    result_matrix: ResultMatrix
    general_retention: float


def steps_per_task(n: int, config: StrategyConfig) -> int:
    return config.epochs * math.ceil(n / config.batch_size)


def ilora_step(state: DualMemoryState, config: StrategyConfig, pool: Batch,
               buffer: ReplayBuffer | None, net: Network, rng: RngState,
               k: int, ewc_states: list[EwcState] | tuple = ()
               ) -> DualMemoryState:
    """Step k of any kind: draw a batch, build the kind's gradient (AGEM and
    ILORA draw their memory batch after the step's batch), update the fast
    learner, then move the slow learner by EMA every a-th step (ILORA)."""
    batch = pool.draw(config.batch_size, rng)
    theta = state.theta_w
    if config.kind == "ILORA" and config.gamma > 0.0 and buffer.size > 0:
        mem = buffer.sample(config.batch_size, rng)
        _, grad = loss_and_grad(net, theta, batch, gamma=config.gamma,
                                mem_batch=mem,
                                z_target=embed(net, state.theta_l, mem.X))
    else:
        _, grad = loss_and_grad(net, theta, batch)
    if config.kind == "EWC" and config.lambda_ewc > 0.0 and ewc_states:
        grad = grad + ewc_penalty_grad(theta, ewc_states)[1]
    elif config.kind == "AGEM" and buffer.size > 0:
        mem = buffer.sample(config.batch_size, rng)
        grad = agem_project(grad, GradRef(loss_and_grad(net, theta, mem)[1]))
    step_fn = adam_step if config.optimizer == "adam" else sgd_step
    theta, adam = step_fn(state.adam, theta, grad)
    theta_l = state.theta_l
    if config.kind == "ILORA" and k % config.update_frequency == 0:
        theta_l = ema_update(theta_l, theta, config.lambda_ema)
    return DualMemoryState(theta, theta_l, adam)


def train_task(state: DualMemoryState, config: StrategyConfig, data: Batch,
               steps: int, buffer: ReplayBuffer | None,
               ewc_states: list[EwcState], net: Network,
               rng: RngState) -> DualMemoryState:
    """One training phase: `steps` optimizer steps on `data` (plus the replay
    memory for ER and ILORA) with a fresh optimizer."""
    pool = data
    if config.kind in ("ER", "ILORA") and buffer.union is not None:
        pool = Batch.concat([data, buffer.union])
    state = replace(state, adam=AdamState.fresh(
        state.theta_w.size, config.base_lr, config.warmup_ratio, steps))
    for k in range(1, steps + 1):
        state = ilora_step(state, config, pool, buffer, net, rng, k,
                           ewc_states)
    return state


def run_sequence(config: StrategyConfig, stream: list[tuple[Batch, Batch]],
                 net: Network, rng: RngState) -> RunRecord:
    """Full continual run: adapters initialized from rng, one training phase
    per task, result matrix rows filled with the deployed parameters after
    each. MTL trains one phase on the union of all tasks for the sum of their
    step counts; its final parameters fill every row and checkpoint. General
    retention is R[T][1] minus the untrained adapters' accuracy on task 1's
    eval set, the anchor the backbone was pretrained on; each accuracy is
    measured once."""
    T = len(stream)
    if T < 1:
        raise ValueError("stream must contain at least one task")
    theta0 = init_params(net, rng)
    untrained = predict_accuracy(net, theta0, stream[0][1])
    ilora = config.kind == "ILORA"
    state = DualMemoryState(theta0.copy(), theta0.copy() if ilora else None)
    buffer = None
    if config.kind in REPLAY_KINDS:
        buffer = ReplayBuffer(rho=config.rho,
                              stratified=config.stratified_replay)
    if config.kind == "MTL":
        phases = [(Batch.concat([tr for tr, _ in stream]),
                   sum(steps_per_task(tr.n, config) for tr, _ in stream),
                   range(1, T + 1))]
    else:
        phases = [(tr, steps_per_task(tr.n, config), range(t, t + 1))
                  for t, (tr, _) in enumerate(stream, start=1)]

    ewc_states: list[EwcState] = []
    checkpoints: list[np.ndarray] = []
    slow_checkpoints: list[np.ndarray] = []
    matrix_rows: list[list[float]] = []
    for train, steps, rows in phases:
        state = train_task(state, config, train, steps, buffer, ewc_states,
                           net, rng)
        theta = state.theta_w
        if buffer is not None:
            buffer.ingest_task(train, rows[-1], rng)
        # no task follows the last, so nothing reads its Fisher
        if config.kind == "EWC" and config.lambda_ewc > 0.0 and rows[-1] < T:
            subset = Batch(train.X[:FISHER_SAMPLE_CAP],
                           train.y[:FISHER_SAMPLE_CAP])
            fisher = ewc_fisher(net, theta, subset)
            ewc_states.append(EwcState(theta.copy(), fisher, config.lambda_ewc))

        deployed = state.theta_l if ilora and config.deploy_slow else theta
        accs = [predict_accuracy(net, deployed, ev)
                for _, ev in stream[:rows[-1]]]
        for t in rows:
            checkpoints.append(theta.copy())
            if ilora:
                slow_checkpoints.append(state.theta_l.copy())
            matrix_rows.append(accs[:t])

    return RunRecord(checkpoints, slow_checkpoints,
                     ResultMatrix.from_rows(matrix_rows),
                     matrix_rows[-1][0] - untrained)
