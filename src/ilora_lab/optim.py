"""Update machinery: Adam with linear warmup, the slow-learner EMA, diagonal
Fisher regularization, and memory-gradient projection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connectivity import interpolate
from .model import Batch, Network, per_sample_grads


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    base_lr: float = 1e-2
    warmup_ratio: float = 0.2
    total_steps: int = 1

    @classmethod
    def fresh(cls, n_params: int, base_lr: float, warmup_ratio: float,
              total_steps: int) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params),
                   base_lr=base_lr, warmup_ratio=warmup_ratio,
                   total_steps=total_steps)


def lr_at(state: AdamState, step: int) -> float:
    """Linear ramp over the first ceil(warmup_ratio * total_steps) steps,
    constant base_lr afterwards."""
    if state.total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    w = math.ceil(state.warmup_ratio * state.total_steps)
    if w > 0 and step <= w:
        return state.base_lr * step / w
    return state.base_lr


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray):
    """One bias-corrected Adam update; returns (new theta, new state)."""
    if theta.shape != grad.shape:
        raise ValueError("theta/grad length mismatch")
    if not np.all(np.isfinite(grad)):
        raise ArithmeticError("non-finite gradient, update rejected")
    # The operations and their order are those of
    # m' = b1*m + (1-b1)*g, v' = b2*v + (1-b2)*g*g and
    # theta - lr*mhat / (sqrt(vhat) + eps), done in place on fresh arrays.
    b1, b2, step = state.beta1, state.beta2, state.step + 1
    m = b1 * state.m
    m += (1.0 - b1) * grad
    t = (1.0 - b2) * grad
    t *= grad
    v = b2 * state.v
    v += t
    update = m / (1.0 - b1 ** step)
    update *= lr_at(state, step)
    t = np.divide(v, 1.0 - b2 ** step, out=t)
    np.sqrt(t, out=t)
    t += state.eps
    update /= t
    return theta - update, _stepped(state, m, v)


def sgd_step(state: AdamState, theta: np.ndarray, grad: np.ndarray):
    """Plain gradient descent with the same warmup schedule (the literal
    Algorithm-1 style update); reuses AdamState for step/schedule bookkeeping."""
    if theta.shape != grad.shape:
        raise ValueError("theta/grad length mismatch")
    if not np.all(np.isfinite(grad)):
        raise ArithmeticError("non-finite gradient, update rejected")
    return (theta - lr_at(state, state.step + 1) * grad,
            _stepped(state, state.m, state.v))


def _stepped(state: AdamState, m: np.ndarray, v: np.ndarray) -> AdamState:
    """`state` one step on, with moments m and v."""
    return AdamState(m, v, state.step + 1, state.beta1, state.beta2,
                     state.eps, state.base_lr, state.warmup_ratio,
                     state.total_steps)


def ema_update(theta_l: np.ndarray, theta_w: np.ndarray, lam: float) -> np.ndarray:
    """Slow-learner update lam * theta_l + (1 - lam) * theta_w: the same
    bytes as interpolating from theta_w to theta_l, as addition commutes."""
    return interpolate(theta_w, theta_l, lam)


@dataclass
class GradRef:
    g_ref: np.ndarray


def agem_project(g: np.ndarray, ref: GradRef) -> np.ndarray:
    """Project g onto the half-space of non-negative inner product with the
    reference memory gradient; pass through unchanged when already there."""
    g_ref = ref.g_ref
    if g.shape != g_ref.shape:
        raise ValueError("gradient length mismatch")
    denom = float(g_ref @ g_ref)
    if denom == 0.0:
        return g
    dot = float(g @ g_ref)
    if dot >= 0.0:
        return g
    return g - (dot / denom) * g_ref


@dataclass
class EwcState:
    theta_star: np.ndarray
    fisher: np.ndarray
    lambda_ewc: float


def ewc_fisher(net: Network, theta: np.ndarray, dataset: Batch) -> np.ndarray:
    """Empirical diagonal Fisher: mean over samples of the squared per-sample
    log-likelihood gradient. Deterministic: the full dataset is visited."""
    total = np.zeros_like(theta)
    for block in per_sample_grads(net, theta, dataset):
        # grad of -log p == grad of single-sample CE. Squares are added one
        # row at a time, in row order: summing a block first would regroup
        # the sum and change bits.
        np.square(block, out=block)
        for sq in block:
            total += sq
    return total / dataset.n


def ewc_penalty_grad(theta: np.ndarray, states: list[EwcState]):
    """Quadratic anchoring penalty summed over past tasks and its gradient."""
    penalty = 0.0
    grad = np.zeros_like(theta)
    for st in states:
        if st.theta_star.shape != theta.shape:
            raise ValueError("parameter length mismatch")
        diff = theta - st.theta_star
        penalty += 0.5 * st.lambda_ewc * float(st.fisher @ (diff * diff))
        grad += st.lambda_ewc * st.fisher * diff
    return penalty, grad
