"""Episodic memory: per-task reservoir of raw rows with uniform sampling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Batch
from .numerics import RngState


@dataclass
class ReplayBuffer:
    rho: float = 0.1
    stratified: bool = False
    stores: list[tuple[np.ndarray, np.ndarray, int]] = field(default_factory=list)
    # every stored row in store order, rebuilt per ingest; None while empty
    union: Batch | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")

    @property
    def size(self) -> int:
        return 0 if self.union is None else self.union.n

    @property
    def task_ids(self) -> list[int]:
        return [tid for _, _, tid in self.stores]

    def ingest_task(self, task_data: Batch, task_id: int, rng: RngState) -> None:
        """Keep a uniform without-replacement sample of floor(rho * n) rows
        (at least one when rho > 0), preserving original row order."""
        if task_id in self.task_ids:
            raise ValueError(f"task {task_id} already ingested")
        n = task_data.n
        k = int(self.rho * n)
        if self.rho > 0.0 and n > 0:
            k = max(k, 1)
        idx = rng.choose_without_replacement(n, k)  # no draw when k == 0
        self.stores.append((task_data.X[idx], task_data.y[idx], task_id))
        if k:
            self.union = Batch.concat([Batch(X, y) for X, y, _ in self.stores
                                       if len(y)])

    def sample(self, batch_size: int, rng: RngState) -> Batch:
        """batch_size rows uniform with replacement over the stored union,
        or stratified per task when configured."""
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        if self.stratified:
            # two uniforms per row, a store and then a row within it, as
            # two next_below calls pick them; the union holds the non-empty
            # stores back to back
            sizes = np.array([len(y) for _, y, _ in self.stores if len(y)])
            u = rng.uniforms(2 * batch_size)
            store = (u[0::2] * len(sizes)).astype(np.int64)
            idx = (np.cumsum(sizes) - sizes)[store] + \
                (u[1::2] * sizes[store]).astype(np.int64)
            return Batch(self.union.X[idx],
                         self.union.y[idx].astype(np.int64, copy=False))
        return self.union.draw(batch_size, rng)
