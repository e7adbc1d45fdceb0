"""Continual-training engine: one strategy contract, six implementations.

SEQ    plain sequential fine-tuning on each task.
ER     experience replay: CE batches drawn over current data plus memory.
EWC    sequential training with a quadratic Fisher anchor per past task.
AGEM   sequential CE gradient projected against a fresh memory gradient.
MTL    one joint training pass over all tasks (upper bound).
ILORA  dual memory: fast learner trained like ER plus an embedding-deviation
       term against the slow learner, which tracks the fast learner by EMA.

Training draws per step come from a single seeded generator, in a fixed
order, so null hyper-parameters give bit-exact reductions (ER with rho=0 is
SEQ; ILORA with gamma=0, lambda=0, a=1 is ER).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import ResultMatrix
from .model import Batch, Network, embed, init_params, loss_and_grad, \
    param_length, predict_accuracy
from .numerics import RngState
from .optim import AdamState, EwcState, GradRef, adam_step, agem_project, \
    ema_update, ewc_fisher, ewc_penalty_grad, sgd_step
from .replay import ReplayBuffer

KINDS = ("SEQ", "ER", "EWC", "AGEM", "MTL", "ILORA")
REPLAY_KINDS = ("ER", "AGEM", "ILORA")


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


@dataclass
class DualMemoryState:
    theta_w: np.ndarray
    theta_l: np.ndarray
    adam: AdamState

    def __post_init__(self):
        if self.theta_w.shape != self.theta_l.shape:
            raise ValueError("fast/slow parameter layout mismatch")


@dataclass
class RunRecord:
    checkpoints: list[np.ndarray]
    slow_checkpoints: list[np.ndarray] | None
    result_matrix: ResultMatrix
    seed: int | None
    config: StrategyConfig
    initial_theta: np.ndarray | None = None


def steps_per_task(n: int, config: StrategyConfig) -> int:
    return config.epochs * math.ceil(n / config.batch_size)


def _update(config: StrategyConfig, adam: AdamState, theta, grad):
    step_fn = adam_step if config.optimizer == "adam" else sgd_step
    return step_fn(adam, theta, grad)


def _draw(pool: Batch, batch_size: int, rng: RngState) -> Batch:
    idx = [rng.next_below(pool.n) for _ in range(batch_size)]
    return Batch(pool.X[idx], pool.y[idx])


def _concat_pool(task_data: Batch, buffer: ReplayBuffer | None) -> Batch:
    if buffer is None or buffer.size == 0:
        return task_data
    mem_x = np.concatenate([X for X, _, _ in buffer.stores if len(X)])
    mem_y = np.concatenate([y for _, y, _ in buffer.stores if len(y)])
    return Batch(np.concatenate([task_data.X, mem_x]),
                 np.concatenate([task_data.y, mem_y]))


def ilora_step(state: DualMemoryState, config: StrategyConfig, pool: Batch,
               buffer: ReplayBuffer, net: Network, rng: RngState,
               k: int) -> DualMemoryState:
    """One dual-memory step: CE on mixed data, embedding deviation against the
    frozen slow learner, fast-learner update, then EMA every a-th step."""
    batch = _draw(pool, config.batch_size, rng)
    if config.gamma > 0.0 and buffer.size > 0:
        mem = buffer.sample(config.batch_size, rng)
        z_target = embed(net, state.theta_l, mem.X)
        _, grad = loss_and_grad(net, state.theta_w, batch,
                                gamma=config.gamma, mem_batch=mem,
                                z_target=z_target)
    else:
        _, grad = loss_and_grad(net, state.theta_w, batch)
    theta_w, adam = _update(config, state.adam, state.theta_w, grad)
    theta_l = state.theta_l
    if k % config.update_frequency == 0:
        theta_l = ema_update(theta_l, theta_w, config.lambda_ema)
    return DualMemoryState(theta_w, theta_l, adam)


def train_task(theta: np.ndarray, config: StrategyConfig, task_data: Batch,
               buffer: ReplayBuffer | None, ewc_states: list[EwcState],
               net: Network, rng: RngState,
               dual: DualMemoryState | None = None):
    """Train on one task for `epochs * ceil(n/batch)` optimizer steps.

    Returns the trained fast-learner vector, or the updated DualMemoryState
    for the dual-memory strategy.
    """
    steps = steps_per_task(task_data.n, config)
    n_params = param_length(net)
    adam = AdamState.fresh(n_params, config.base_lr, config.warmup_ratio, steps)

    if config.kind == "ILORA":
        dual = DualMemoryState(dual.theta_w, dual.theta_l, adam)
        pool = _concat_pool(task_data, buffer)
        for k in range(1, steps + 1):
            dual = ilora_step(dual, config, pool, buffer, net, rng, k)
        return dual

    pool = _concat_pool(task_data, buffer) if config.kind == "ER" else task_data
    for k in range(1, steps + 1):
        batch = _draw(pool, config.batch_size, rng)
        _, grad = loss_and_grad(net, theta, batch)
        if config.kind == "EWC" and config.lambda_ewc > 0.0 and ewc_states:
            _, pen_grad = ewc_penalty_grad(theta, ewc_states)
            grad = grad + pen_grad
        elif config.kind == "AGEM" and buffer is not None and buffer.size > 0:
            mem = buffer.sample(config.batch_size, rng)
            _, g_ref = loss_and_grad(net, theta, mem)
            grad = agem_project(grad, GradRef(g_ref))
        theta, adam = _update(config, adam, theta, grad)
    return theta


def run_sequence(config: StrategyConfig, stream: list[tuple[Batch, Batch]],
                 net: Network, rng: RngState, seed: int | None = None,
                 fisher_sample_cap: int = 256) -> RunRecord:
    """Full continual run: adapters initialized from rng, one training pass
    per task, result matrix filled with the deployed parameters after each."""
    T = len(stream)
    if T < 1:
        raise ValueError("stream must contain at least one task")
    theta = init_params(net, rng)
    theta0 = theta.copy()
    R = ResultMatrix(T)

    if config.kind == "MTL":
        total_steps = sum(steps_per_task(tr.n, config) for tr, _ in stream)
        pool = Batch(np.concatenate([tr.X for tr, _ in stream]),
                     np.concatenate([tr.y for tr, _ in stream]))
        adam = AdamState.fresh(param_length(net), config.base_lr,
                               config.warmup_ratio, total_steps)
        for _ in range(total_steps):
            batch = _draw(pool, config.batch_size, rng)
            _, grad = loss_and_grad(net, theta, batch)
            theta, adam = _update(config, adam, theta, grad)
        for t in range(1, T + 1):
            for j in range(1, t + 1):
                R.set(t, j, predict_accuracy(net, theta, stream[j - 1][1]))
        return RunRecord([theta.copy() for _ in range(T)], None, R, seed,
                         config, theta0)

    buffer = None
    if config.kind in REPLAY_KINDS:
        buffer = ReplayBuffer(rho=config.rho,
                              stratified=config.stratified_replay)
    ewc_states: list[EwcState] = []
    dual = None
    if config.kind == "ILORA":
        dual = DualMemoryState(theta.copy(), theta.copy(),
                               AdamState.fresh(param_length(net),
                                               config.base_lr,
                                               config.warmup_ratio, 1))

    checkpoints: list[np.ndarray] = []
    slow_checkpoints: list[np.ndarray] = []
    for t, (train, ev) in enumerate(stream, start=1):
        if config.kind == "ILORA":
            dual = train_task(dual.theta_w, config, train, buffer, ewc_states,
                              net, rng, dual=dual)
            theta = dual.theta_w
        else:
            theta = train_task(theta, config, train, buffer, ewc_states,
                               net, rng)
        if buffer is not None:
            buffer.ingest_task(train, t, rng)
        if config.kind == "EWC" and config.lambda_ewc > 0.0:
            cap = min(train.n, fisher_sample_cap)
            subset = Batch(train.X[:cap], train.y[:cap])
            fisher = ewc_fisher(net, theta, subset)
            ewc_states.append(EwcState(theta.copy(), fisher, config.lambda_ewc))

        checkpoints.append(theta.copy())
        if config.kind == "ILORA":
            slow_checkpoints.append(dual.theta_l.copy())
            deployed = dual.theta_l if config.deploy_slow else dual.theta_w
        else:
            deployed = theta
        for j in range(1, t + 1):
            R.set(t, j, predict_accuracy(net, deployed, stream[j - 1][1]))

    return RunRecord(checkpoints,
                     slow_checkpoints if config.kind == "ILORA" else None,
                     R, seed, config, theta0)
