"""Adapter-augmented MLP: frozen backbone, trainable low-rank deltas on both
hidden weight matrices, analytic gradients of the combined CE + embedding-MSE
loss.

Flat parameter layout (all row-major): A1 (r x d) | B1 (h x r) | A2 (r x h)
| B2 (e x r). The effective delta on an adapted matrix is (alpha/rank) * B @ A
and B is zero at init, so a fresh adapter set reproduces the backbone exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngState, gaussian_fill, matmul

ADAPTER_INIT_STD = 0.02


@dataclass(frozen=True)
class Network:
    """Frozen backbone weights plus the adapter hyper-parameters.

    Shapes: W1 h x d, W2 e x h, Whead c x e; biases match their out dims.
    """

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    Whead: np.ndarray
    bhead: np.ndarray
    rank: int = 8
    alpha: float = 16.0

    @property
    def d(self) -> int:
        return self.W1.shape[1]

    @property
    def h(self) -> int:
        return self.W1.shape[0]

    @property
    def e(self) -> int:
        return self.W2.shape[0]

    @property
    def c(self) -> int:
        return self.Whead.shape[0]

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


@dataclass(frozen=True)
class Batch:
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.ndim != 1 or len(self.X) != len(self.y):
            raise ValueError("batch shapes inconsistent")
        if len(self.X) < 1:
            raise ValueError("batch must be nonempty")

    @property
    def n(self) -> int:
        return len(self.y)

    @classmethod
    def concat(cls, batches: list[Batch]) -> Batch:
        return cls(np.concatenate([b.X for b in batches]),
                   np.concatenate([b.y for b in batches]))

    def draw(self, count: int, rng: RngState) -> Batch:
        """`count` rows uniform with replacement, one uniform per row: row
        int(u * n), the row `next_below(n)` would pick."""
        idx = (rng.uniforms(count) * self.n).astype(np.int64)
        return Batch(self.X[idx], self.y[idx])


def param_length(net: Network) -> int:
    r = net.rank
    return r * net.d + net.h * r + r * net.h + net.e * r


def split_params(net: Network, theta: np.ndarray):
    """Views (A1, B1, A2, B2) into the flat vector; no copies."""
    r, d, h, e = net.rank, net.d, net.h, net.e
    if theta.shape != (param_length(net),):
        raise ValueError(
            f"parameter vector length {theta.shape} != ({param_length(net)},)")
    o0 = r * d
    o1 = o0 + h * r
    o2 = o1 + r * h
    return (theta[:o0].reshape(r, d), theta[o0:o1].reshape(h, r),
            theta[o1:o2].reshape(r, h), theta[o2:].reshape(e, r))


def join_params(*arrays: np.ndarray) -> np.ndarray:
    """Flattened and concatenated in order: every flat parameter vector."""
    return np.concatenate([a.ravel() for a in arrays])


def init_params(net: Network, rng: RngState) -> np.ndarray:
    """A factors Gaussian(0, 0.02), B factors zero: adapted net == backbone."""
    A1 = gaussian_fill(rng, net.rank, net.d, 0.0, ADAPTER_INIT_STD)
    A2 = gaussian_fill(rng, net.rank, net.h, 0.0, ADAPTER_INIT_STD)
    B1 = np.zeros((net.h, net.rank))
    B2 = np.zeros((net.e, net.rank))
    return join_params(A1, B1, A2, B2)


def _effective_weights(net: Network, A1, B1, A2, B2):
    """Adapted weight matrices from the four adapter factors."""
    W1eff = net.W1 + net.scaling * matmul(B1, A1)
    W2eff = net.W2 + net.scaling * matmul(B2, A2)
    return W1eff, W2eff


def _embed_cached(net: Network, W1eff: np.ndarray, W2eff: np.ndarray,
                  X: np.ndarray):
    """Embedding and hidden activation. The pre-activation is not kept: the
    ReLU mask the backward pass needs is h1 > 0, which holds exactly where
    the pre-activation is > 0 (NaN included)."""
    h1 = matmul(X, W1eff.T)
    h1 += net.b1
    np.maximum(h1, 0.0, out=h1)
    z = matmul(h1, W2eff.T) + net.b2
    return z, h1


def _head(net: Network, z: np.ndarray) -> np.ndarray:
    return matmul(z, net.Whead.T) + net.bhead


def embed(net: Network, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Pre-head embedding (n x e) for an input batch; the head is not run.
    Raises ArithmeticError on a non-finite embedding."""
    if X.shape[1] != net.d:
        raise ValueError(f"input dim {X.shape[1]} != {net.d}")
    W1eff, W2eff = _effective_weights(net, *split_params(net, theta))
    z, _ = _embed_cached(net, W1eff, W2eff, X)
    if not np.isfinite(z).all():
        raise ArithmeticError("non-finite embedding")
    return z


def forward(net: Network, theta: np.ndarray, X: np.ndarray):
    """Logits (n x c) and pre-head embedding (n x e) for an input batch."""
    z = embed(net, theta, X)
    logits = _head(net, z)
    if not np.isfinite(logits).all():
        raise ArithmeticError("non-finite logits")
    return logits, z


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def _head_loss(net: Network, z: np.ndarray, y: np.ndarray):
    """Mean CE of the head on embeddings z, with its gradients in logits, z."""
    n = len(y)
    rows = np.arange(n)
    dlogits = softmax(_head(net, z))
    loss = float(-np.mean(np.log(dlogits[rows, y])))
    dlogits[rows, y] -= 1.0
    dlogits /= n
    return loss, dlogits, matmul(dlogits, net.Whead)


def _hidden_backward(dz, h1, X, W2):
    """Backprop dz (n x e) through W2, ReLU and layer 1: dW1, dW2, dpre1."""
    dW2 = matmul(dz.T, h1)
    dpre1 = matmul(dz, W2) * (h1 > 0.0)
    return matmul(dpre1.T, X), dW2, dpre1


def _adapter_grads_from_embedding_grad(net, dz, h1, X, A1, B1, A2, B2,
                                       W2eff):
    """Backprop an embedding-level gradient dz (n x e) into adapter grads."""
    s = net.scaling
    dW1eff, dW2eff, _ = _hidden_backward(dz, h1, X, W2eff)
    return (s * matmul(B1.T, dW1eff), s * matmul(dW1eff, A1.T),
            s * matmul(B2.T, dW2eff), s * matmul(dW2eff, A2.T))


def _check_finite(loss: float, grad: np.ndarray) -> None:
    if not (np.isfinite(loss) and np.isfinite(grad).all()):
        raise ArithmeticError("non-finite loss or gradient")


def loss_and_grad(net: Network, theta: np.ndarray, batch: Batch,
                  gamma: float = 0.0, mem_batch: Batch | None = None,
                  z_target: np.ndarray | None = None):
    """Mean CE on the batch plus gamma * full-mean squared embedding deviation
    on the memory batch; exact analytic gradient w.r.t. the adapters only.
    """
    if gamma > 0.0 and (mem_batch is None or z_target is None):
        raise ValueError("gamma > 0 requires mem_batch and z_target")
    A1, B1, A2, B2 = split_params(net, theta)
    W1eff, W2eff = _effective_weights(net, A1, B1, A2, B2)

    z, h1 = _embed_cached(net, W1eff, W2eff, batch.X)
    loss, _, dz = _head_loss(net, z, batch.y)
    dA1, dB1, dA2, dB2 = _adapter_grads_from_embedding_grad(
        net, dz, h1, batch.X, A1, B1, A2, B2, W2eff)

    if gamma > 0.0:
        if z_target.shape != (mem_batch.n, net.e):
            raise ValueError("z_target shape mismatch")
        zm, h1m = _embed_cached(net, W1eff, W2eff, mem_batch.X)
        diff = zm - z_target
        loss += gamma * float(np.mean(diff * diff))
        dzm = (2.0 * gamma / diff.size) * diff
        for g, mg in zip((dA1, dB1, dA2, dB2),
                         _adapter_grads_from_embedding_grad(
                             net, dzm, h1m, mem_batch.X, A1, B1, A2, B2,
                             W2eff)):
            g += mg

    grad = join_params(dA1, dB1, dA2, dB2)
    _check_finite(loss, grad)
    return loss, grad


# Element budget of one block of per_sample_grads rows: the block's stacked
# (rows, h, d) and (rows, e, h) weight gradients and (rows, P) adapter
# gradients stay near 32k float64 values, 256 KB.
_PER_SAMPLE_ELEMS = 1 << 15


def per_sample_grads(net: Network, theta: np.ndarray, batch: Batch):
    """Each row's CE gradient w.r.t. the adapters, byte for byte what
    `loss_and_grad` gives on that row alone. Yields blocks of rows in row
    order, one (rows, P) array per block; the effective weights are built
    once. Raises ArithmeticError when any row's loss or gradient is
    non-finite.

    Stacking rows changes no bits: every matmul entry is the same k-ascending
    sum, and the elementwise steps and softmax's per-row max and sum do not
    mix rows. A one-row mean and the division by n=1 change nothing, so they
    are left out. A one-row weight gradient is a K=1 product, i.e. an outer
    product plus 0.0 (matmul's zero start, which turns -0.0 into +0.0), and
    the four adapter products of all rows are one column- or row-stacked
    matmul each.
    """
    A1, B1, A2, B2 = split_params(net, theta)
    W1eff, W2eff = _effective_weights(net, A1, B1, A2, B2)
    r, d, h, e = net.rank, net.d, net.h, net.e
    size = max(1, _PER_SAMPLE_ELEMS // (h * d + e * h + param_length(net)))
    for start in range(0, batch.n, size):
        X = batch.X[start:start + size]
        y = batch.y[start:start + size]
        n = len(y)
        rows = np.arange(n)
        z, h1 = _embed_cached(net, W1eff, W2eff, X)
        dlogits = softmax(_head(net, z))
        finite = np.isfinite(np.log(dlogits[rows, y])).all()
        dlogits[rows, y] -= 1.0
        dz = matmul(dlogits, net.Whead)
        dpre1 = matmul(dz, W2eff) * (h1 > 0.0)
        dW2 = dz[:, :, None] * h1[:, None, :] + 0.0
        dW1 = dpre1[:, :, None] * X[:, None, :] + 0.0
        dA1 = matmul(B1.T, dW1.transpose(1, 0, 2).reshape(h, n * d))
        dA2 = matmul(B2.T, dW2.transpose(1, 0, 2).reshape(e, n * h))
        g = net.scaling * np.concatenate([
            dA1.reshape(r, n, d).transpose(1, 0, 2).reshape(n, -1),
            matmul(dW1.reshape(n * h, d), A1.T).reshape(n, -1),
            dA2.reshape(r, n, h).transpose(1, 0, 2).reshape(n, -1),
            matmul(dW2.reshape(n * e, h), A2.T).reshape(n, -1)], axis=1)
        if not (finite and np.isfinite(g).all()):
            raise ArithmeticError("non-finite loss or gradient")
        yield g


def accuracy(logits: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct rows; argmax ties go to the lowest class."""
    pred = np.argmax(logits, axis=1)  # np.argmax returns the first maximum
    return float(np.mean(pred == y))


def predict_accuracy(net: Network, theta: np.ndarray, eval_batch: Batch) -> float:
    """Fraction of argmax-correct rows; argmax ties go to the lowest class."""
    logits, _ = forward(net, theta, eval_batch.X)
    return accuracy(logits, eval_batch.y)


# --- full-network gradients, used only for backbone pretraining -------------

def backbone_vector(net: Network) -> np.ndarray:
    return join_params(net.W1, net.b1, net.W2, net.b2, net.Whead, net.bhead)


def backbone_from_vector(vec: np.ndarray, d: int, h: int, e: int, c: int,
                         rank: int, alpha: float) -> Network:
    """Network with input d, hidden h, embedding e and c classes whose arrays
    are views into vec (no copies); copy vec first if it will be mutated."""
    sizes = (h * d, h, e * h, e, c * e, c)
    if vec.shape != (sum(sizes),):
        raise ValueError(f"backbone vector length {vec.shape} != "
                         f"({sum(sizes)},) for d={d} h={h} e={e} c={c}")
    parts = []
    off = 0
    for s in sizes:
        parts.append(vec[off:off + s])
        off += s
    return Network(parts[0].reshape(h, d), parts[1], parts[2].reshape(e, h),
                   parts[3], parts[4].reshape(c, e), parts[5],
                   rank=rank, alpha=alpha)


def backbone_loss_and_grad(net: Network, batch: Batch):
    """Mean CE and its gradient w.r.t. every backbone array (adapters absent)."""
    z, h1 = _embed_cached(net, net.W1, net.W2, batch.X)
    loss, dlogits, dz = _head_loss(net, z, batch.y)
    dW1, dW2, dpre1 = _hidden_backward(dz, h1, batch.X, net.W2)
    grad = join_params(dW1, dpre1.sum(axis=0), dW2, dz.sum(axis=0),
                       matmul(dlogits.T, z), dlogits.sum(axis=0))
    _check_finite(loss, grad)
    return loss, grad
