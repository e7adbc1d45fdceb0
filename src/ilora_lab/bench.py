"""Synthetic task streams: Gaussian-cluster classification whose input
distribution drifts task to task through cumulative plane rotations and
class-conditional mean shifts, plus backbone pretraining on the drift-free
anchor task.

Labels keep their meaning across tasks (domain-incremental protocol); only
the input geometry moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (Batch, Network, backbone_from_vector, backbone_loss_and_grad,
                    init_backbone)
from .numerics import RngState, gaussian_fill
from .optim import AdamState, adam_step


@dataclass(frozen=True)
class TaskSpec:
    n_train: int = 512
    n_eval: int = 256
    classes: int = 4
    input_dim: int = 16
    cluster_std: float = 0.5
    rotation_deg: float = 25.0
    mean_shift: float = 0.5
    class_separation: float = 2.0

    def __post_init__(self):
        # a negative separation or shift mirrors the stream
        for key in ("cluster_std", "class_separation", "mean_shift"):
            if getattr(self, key) < 0.0:
                raise ValueError(f"{key} must be >= 0")


@dataclass(frozen=True)
class TaskStream:
    """Per task (train, eval, spec), spec being the stream's one TaskSpec;
    anchor is task 0's (train, eval)."""

    tasks: list[tuple[Batch, Batch, TaskSpec]]

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def anchor(self) -> tuple[Batch, Batch]:
        return self.tasks[0][:2]

    @property
    def pairs(self) -> list[tuple[Batch, Batch]]:
        return [(tr, ev) for tr, ev, _ in self.tasks]

    @property
    def evals(self) -> list[Batch]:
        return [ev for _, ev, _ in self.tasks]


def _rotation_step(rng: RngState, d: int, angle_rad: float) -> np.ndarray:
    """Orthogonal drift step: the coordinates are paired into floor(d/2)
    disjoint seeded planes and every plane is rotated by the task angle.

    The planes are disjoint, so each plane's four entries are written into
    the identity directly. Every zero entry is +0.0, as in the identity,
    whatever the angle: hence ``0.0 - s`` and ``+ 0.0``, where ``-s`` would
    give -0.0 at a zero angle."""
    perm = rng.shuffled(d, d)
    c = math.cos(angle_rad) + 0.0
    s = math.sin(angle_rad)
    Q = np.eye(d)
    for i, j in zip(perm[0::2], perm[1::2]):
        Q[i, i] = Q[j, j] = c
        Q[i, j] = 0.0 - s
        Q[j, i] = s + 0.0
    return Q


def round_robin_labels(n: int, classes: int) -> np.ndarray:
    """Every task's labels: counts differ by at most 1."""
    return np.arange(n, dtype=np.int64) % classes


def _sample_task(rng: RngState, means: np.ndarray, spec: TaskSpec,
                 n: int) -> Batch:
    c, d = means.shape
    y = round_robin_labels(n, c)
    noise = gaussian_fill(rng, n, d, 0.0, spec.cluster_std)
    return Batch(means[y] + noise, y)


def make_stream(seed: int, T: int,
                base_spec: TaskSpec | None = None) -> TaskStream:
    """Deterministic T-task stream. Task 0 is the anchor (no rotation, no
    shift); task t compounds t seeded plane rotations and adds a fresh
    class-conditional mean shift of the configured magnitude.

    The first T tasks are the same whatever T is, so a caller that reads
    tasks 0..t asks for T = t+1."""
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
        train = _sample_task(rng, means, spec, spec.n_train)
        ev = _sample_task(rng, means, spec, spec.n_eval)
        tasks.append((train, ev, spec))
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

    def __post_init__(self):
        if self.pretrain_lr < 0.0:
            raise ValueError("pretrain_lr must be >= 0")
        # alpha 0 makes every adapter a no-op, a negative one flips its sign
        if self.alpha <= 0.0:
            raise ValueError("alpha must be > 0")


def pretrain_backbone(anchor_train: Batch, arch: ArchConfig, seed: int,
                      classes: int) -> Network:
    """Full-parameter training of the plain MLP on the anchor task; the result
    is frozen for every continual run."""
    rng = RngState(seed)
    dims = (anchor_train.X.shape[1], arch.hidden, arch.embed, classes)
    vec = init_backbone(rng, *dims)

    n = anchor_train.n
    steps = arch.pretrain_epochs * math.ceil(n / arch.pretrain_batch)
    shape = (*dims, arch.rank, arch.alpha)
    adam = AdamState.fresh(vec.size, arch.pretrain_lr, 0.2, steps)
    # the network's arrays are views into vec, which each step overwrites
    net = backbone_from_vector(vec, *shape)
    for _ in range(steps):
        batch = anchor_train.draw(arch.pretrain_batch, rng)
        _, grad = backbone_loss_and_grad(net, batch)
        vec[:], adam = adam_step(adam, vec, grad)
    return backbone_from_vector(vec.copy(), *shape)
