"""Mode-connectivity probes: linear interpolation between checkpoints,
accuracy sweeps along the path, weight distance, linear CKA, and the 2-D
embedding-deviation landscape.

The sweep, CKA and landscape probes run the model's feature-major inference
forward, through ``model.forward`` (the sweep's accuracies) or
``model.embed`` (CKA and the landscape), one parameter vector at a time.
``embed`` returns a C-contiguous (rows, e) array, and the landscape's mean
reduces it in that layout: numpy's pairwise sum groups its terms by memory
layout, so a strided view would change the bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Batch, Network, accuracy, embed, forward

LAMBDA_GRID_POINTS = 21  # a λ sweep's default points, endpoints included


@dataclass
class LambdaSweep:
    transition: int
    lambda_grid: np.ndarray
    Ap: np.ndarray
    An: np.ndarray
    Aall: np.ndarray


@dataclass
class LandscapeGrid:
    a_grid: np.ndarray
    b_grid: np.ndarray
    values: np.ndarray


def default_lambda_grid(points: int = LAMBDA_GRID_POINTS) -> np.ndarray:
    if points < 2:
        raise ValueError("grid needs at least the two endpoints")
    return np.linspace(0.0, 1.0, points)


def interpolate(theta_a: np.ndarray, theta_b: np.ndarray, lam: float) -> np.ndarray:
    """(1 - lam) * theta_a + lam * theta_b; endpoints returned bit-exact."""
    if theta_a.shape != theta_b.shape:
        raise ValueError("parameter layout mismatch")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    if lam == 0.0:
        return theta_a.copy()
    if lam == 1.0:
        return theta_b.copy()
    return (1.0 - lam) * theta_a + lam * theta_b


def sweep_lambda(theta_t: np.ndarray, theta_t1: np.ndarray, net: Network,
                 past_evals: list[Batch], new_eval: Batch,
                 grid: np.ndarray | None = None,
                 transition: int = 0) -> LambdaSweep:
    """Accuracy along the linear path between two adjacent checkpoints.

    Ap: mean over the past tasks' eval sets; An: the new task; Aall: unweighted
    mean over all t+1 tasks.

    Each lambda runs one forward over the stacked eval sets; matmul is
    bit-equal to the triple loop, so every row's logits are the ones a
    forward over its own set would give. The sets are joined column-major,
    so the transposed input of the feature-major inference forward is built
    once per sweep, not once per lambda.
    """
    if grid is None:
        grid = default_lambda_grid()
    grid = np.asarray(grid, dtype=np.float64)
    if len(past_evals) == 0:
        raise ValueError("need at least one past eval set")
    Ap = np.empty(len(grid))
    An = np.empty(len(grid))
    Aall = np.empty(len(grid))
    t = len(past_evals)
    evals = [*past_evals, new_eval]
    X = np.concatenate([ev.X.T for ev in evals], axis=1).T
    ends = np.cumsum([ev.n for ev in evals])
    for i, lam in enumerate(grid):
        logits, _ = forward(net, interpolate(theta_t, theta_t1, float(lam)), X)
        *past, new = [accuracy(logits[end - ev.n:end], ev.y)
                      for ev, end in zip(evals, ends)]
        Ap[i] = np.mean(past)
        An[i] = new
        Aall[i] = (sum(past) + new) / (t + 1)
    return LambdaSweep(transition, grid, Ap, An, Aall)


def weight_distance(theta_a: np.ndarray, theta_b: np.ndarray) -> float:
    """Euclidean distance between two parameter vectors."""
    if theta_a.shape != theta_b.shape:
        raise ValueError("parameter layout mismatch")
    dist = float(np.sqrt(np.sum((theta_a - theta_b) ** 2)))
    if not np.isfinite(dist):
        raise ArithmeticError("non-finite weight distance")
    return dist


def linear_cka(X: np.ndarray, Y: np.ndarray) -> float:
    """Linear centered kernel alignment between two feature matrices (rows are
    paired samples). Invariant to orthogonal transforms and isotropic scaling."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must be 2-D with matching row counts")
    if X.shape[0] < 2:
        raise ValueError("need at least two samples")
    Xc = X - X.mean(axis=0, keepdims=True)
    Yc = Y - Y.mean(axis=0, keepdims=True)
    xnorm = np.linalg.norm(Xc.T @ Xc)
    ynorm = np.linalg.norm(Yc.T @ Yc)
    if xnorm == 0.0 or ynorm == 0.0:
        raise ValueError("degenerate (constant) representation")
    cross = np.linalg.norm(Yc.T @ Xc) ** 2
    return float(cross / (xnorm * ynorm))


def landscape_grid(theta0: np.ndarray, d1: np.ndarray, d2: np.ndarray,
                   a_grid, b_grid, net: Network, probe: Batch) -> LandscapeGrid:
    """Mean squared embedding deviation of theta0 + a*d1 + b*d2 from theta0
    over a probe batch; exactly zero at the origin by construction.

    The points are walked row-major and embedded one at a time; each value
    is ``np.mean``'s bytes over the point's C-contiguous (rows, e) deviation
    array, without the wrapper: ``np.add.reduce(sq, axis=None) / sq.size``.
    """
    if theta0.shape != d1.shape or theta0.shape != d2.shape:
        raise ValueError("parameter layout mismatch")
    a_grid = np.asarray(a_grid, dtype=np.float64)
    b_grid = np.asarray(b_grid, dtype=np.float64)
    X = np.asfortranarray(probe.X)  # so no embed copies its transpose
    z0 = embed(net, theta0, X)
    values = np.zeros((len(a_grid), len(b_grid)))
    for i, a in enumerate(a_grid):
        for j, b in enumerate(b_grid):
            if a != 0.0 or b != 0.0:
                sq = (embed(net, theta0 + a * d1 + b * d2, X) - z0) ** 2
                values[i, j] = np.add.reduce(sq, axis=None) / sq.size
    return LandscapeGrid(a_grid, b_grid, values)
