"""Synthetic task streams: Gaussian-cluster classification whose input
distribution drifts task to task through cumulative plane rotations and
class-conditional mean shifts, plus backbone pretraining on the drift-free
anchor task.

Labels keep their meaning across tasks (domain-incremental protocol); only
the input geometry moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (Batch, Network, backbone_from_vector, backbone_loss_and_grad,
                    backbone_vector)
from .numerics import RngState, gaussian_fill, skip_gaussian_fill
from .optim import AdamState, adam_step


@dataclass(frozen=True)
class TaskSpec:
    task_id: int = 0
    n_train: int = 512
    n_eval: int = 256
    classes: int = 4
    input_dim: int = 16
    cluster_std: float = 0.5
    rotation_deg: float = 25.0
    mean_shift: float = 0.5
    class_separation: float = 2.0


@dataclass(frozen=True)
class TaskStream:
    """Per task (train, eval, spec); anchor is task 0's (train, eval). A
    stream made with ``train_sets=False`` holds None for every train set."""

    tasks: list[tuple[Batch | None, Batch, TaskSpec]]

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def anchor(self) -> tuple[Batch | None, Batch]:
        return self.tasks[0][:2]

    @property
    def pairs(self) -> list[tuple[Batch | None, Batch]]:
        return [(tr, ev) for tr, ev, _ in self.tasks]

    @property
    def evals(self) -> list[Batch]:
        return [ev for _, ev, _ in self.tasks]


def _plane_rotation(d: int, i: int, j: int, angle_rad: float) -> np.ndarray:
    Q = np.eye(d)
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    Q[i, i] = c
    Q[j, j] = c
    Q[i, j] = -s
    Q[j, i] = s
    return Q


def _rotation_step(rng: RngState, d: int, angle_rad: float) -> np.ndarray:
    """Orthogonal drift step: the coordinates are paired into floor(d/2)
    disjoint seeded planes and every plane is rotated by the task angle."""
    perm = list(range(d))
    for i in range(d):
        j = i + rng.next_below(d - i)
        perm[i], perm[j] = perm[j], perm[i]
    Q = np.eye(d)
    for k in range(0, d - 1, 2):
        Q = _plane_rotation(d, perm[k], perm[k + 1], angle_rad) @ Q
    return Q


def _sample_task(rng: RngState, means: np.ndarray, spec: TaskSpec,
                 n: int) -> Batch:
    c, d = means.shape
    y = np.arange(n) % c  # round-robin labels: counts differ by at most 1
    noise = gaussian_fill(rng, n, d, 0.0, spec.cluster_std)
    return Batch(means[y] + noise, y.astype(np.int64))


def make_stream(seed: int, T: int, base_spec: TaskSpec | None = None,
                train_sets: bool = True) -> TaskStream:
    """Deterministic T-task stream. Task 0 is the anchor (no rotation, no
    shift); task t compounds t seeded plane rotations and adds a fresh
    class-conditional mean shift of the configured magnitude.

    The first T tasks are the same whatever T is, so a caller that reads
    tasks 0..t asks for T = t+1. With ``train_sets=False`` the generator
    jumps over each training set's draws instead of making it (the train
    entries are None); the eval sets stay byte-identical."""
    if T < 1:
        raise ValueError("T must be >= 1")
    spec = base_spec or TaskSpec()
    rng = RngState(seed)
    c, d = spec.classes, spec.input_dim
    raw = gaussian_fill(rng, c, d, 0.0, 1.0)
    # scale so the closest pair of class means sits class_separation apart
    dists = [np.linalg.norm(raw[i] - raw[j])
             for i in range(c) for j in range(i + 1, c)]
    anchor_means = raw * (spec.class_separation / min(dists)) if dists else raw

    tasks = []
    Q = np.eye(d)
    angle = math.radians(spec.rotation_deg)
    for t in range(T):
        if t == 0:
            means = anchor_means
        else:
            Q = _rotation_step(rng, d, angle) @ Q
            dirs = gaussian_fill(rng, c, d, 0.0, 1.0)
            norms = np.sqrt((dirs * dirs).sum(axis=1, keepdims=True))
            shifts = spec.mean_shift * dirs / np.maximum(norms, 1e-12)
            means = (Q @ anchor_means.T).T + shifts
        if train_sets:
            train = _sample_task(rng, means, spec, spec.n_train)
        else:
            train = None
            skip_gaussian_fill(rng, spec.n_train, d)
        ev = _sample_task(rng, means, spec, spec.n_eval)
        task_spec = replace(spec, task_id=t)
        tasks.append((train, ev, task_spec))
    return TaskStream(tasks=tasks)


@dataclass(frozen=True)
class ArchConfig:
    hidden: int = 32
    embed: int = 16
    rank: int = 8
    alpha: float = 16.0
    pretrain_epochs: int = 30
    pretrain_lr: float = 1e-2
    pretrain_batch: int = 16


def pretrain_backbone(anchor_train: Batch, arch: ArchConfig, seed: int,
                      classes: int) -> Network:
    """Full-parameter training of the plain MLP on the anchor task; the result
    is frozen for every continual run."""
    rng = RngState(seed)
    d = anchor_train.X.shape[1]
    c, h, e = classes, arch.hidden, arch.embed
    net = Network(
        W1=gaussian_fill(rng, h, d, 0.0, 1.0 / math.sqrt(d)),
        b1=np.zeros(h),
        W2=gaussian_fill(rng, e, h, 0.0, 1.0 / math.sqrt(h)),
        b2=np.zeros(e),
        Whead=gaussian_fill(rng, c, e, 0.0, 1.0 / math.sqrt(e)),
        bhead=np.zeros(c),
        rank=arch.rank, alpha=arch.alpha)

    n = anchor_train.n
    steps = arch.pretrain_epochs * math.ceil(n / arch.pretrain_batch)
    vec = backbone_vector(net)
    shape = (d, h, e, c, arch.rank, arch.alpha)
    adam = AdamState.fresh(vec.size, arch.pretrain_lr, 0.2, steps)
    for _ in range(steps):
        batch = anchor_train.draw(arch.pretrain_batch, rng)
        # adam_step returns a fresh vector, so views into vec stay valid
        _, grad = backbone_loss_and_grad(backbone_from_vector(vec, *shape),
                                         batch)
        vec, adam = adam_step(adam, vec, grad)
    return backbone_from_vector(vec.copy(), *shape)
