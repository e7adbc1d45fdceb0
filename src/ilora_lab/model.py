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
        """`count` rows uniform with replacement, one draw per row."""
        idx = [rng.next_below(self.n) for _ in range(count)]
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


def join_params(A1, B1, A2, B2) -> np.ndarray:
    return np.concatenate([A1.ravel(), B1.ravel(), A2.ravel(), B2.ravel()])


def init_params(net: Network, rng: RngState) -> np.ndarray:
    """A factors Gaussian(0, 0.02), B factors zero: adapted net == backbone."""
    A1 = gaussian_fill(rng, net.rank, net.d, 0.0, ADAPTER_INIT_STD)
    A2 = gaussian_fill(rng, net.rank, net.h, 0.0, ADAPTER_INIT_STD)
    B1 = np.zeros((net.h, net.rank))
    B2 = np.zeros((net.e, net.rank))
    return join_params(A1, B1, A2, B2)


def _effective_weights(net: Network, theta: np.ndarray):
    A1, B1, A2, B2 = split_params(net, theta)
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
    z, _ = _embed_cached(net, *_effective_weights(net, theta), X)
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


def _adapter_grads_from_embedding_grad(net, dz, h1, X, A1, B1, A2, B2,
                                       W2eff):
    """Backprop an embedding-level gradient dz (n x e) into adapter grads."""
    s = net.scaling
    dW2eff = matmul(dz.T, h1)
    dB2 = s * matmul(dW2eff, A2.T)
    dA2 = s * matmul(B2.T, dW2eff)
    dh1 = matmul(dz, W2eff)
    dpre1 = dh1 * (h1 > 0.0)
    dW1eff = matmul(dpre1.T, X)
    dB1 = s * matmul(dW1eff, A1.T)
    dA1 = s * matmul(B1.T, dW1eff)
    return dA1, dB1, dA2, dB2


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
    W1eff, W2eff = _effective_weights(net, theta)

    z, h1 = _embed_cached(net, W1eff, W2eff, batch.X)
    logits = _head(net, z)
    n = batch.n
    probs = softmax(logits)
    eps_rows = probs[np.arange(n), batch.y]
    loss = float(-np.mean(np.log(eps_rows)))

    dlogits = probs.copy()
    dlogits[np.arange(n), batch.y] -= 1.0
    dlogits /= n
    dz = matmul(dlogits, net.Whead)
    dA1, dB1, dA2, dB2 = _adapter_grads_from_embedding_grad(
        net, dz, h1, batch.X, A1, B1, A2, B2, W2eff)

    if gamma > 0.0:
        if z_target.shape != (mem_batch.n, net.e):
            raise ValueError("z_target shape mismatch")
        zm, h1m = _embed_cached(net, W1eff, W2eff, mem_batch.X)
        diff = zm - z_target
        loss += gamma * float(np.mean(diff * diff))
        dzm = (2.0 * gamma / diff.size) * diff
        mA1, mB1, mA2, mB2 = _adapter_grads_from_embedding_grad(
            net, dzm, h1m, mem_batch.X, A1, B1, A2, B2, W2eff)
        dA1 += mA1
        dB1 += mB1
        dA2 += mA2
        dB2 += mB2

    grad = join_params(dA1, dB1, dA2, dB2)
    _check_finite(loss, grad)
    return loss, grad


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
    return np.concatenate([net.W1.ravel(), net.b1, net.W2.ravel(), net.b2,
                           net.Whead.ravel(), net.bhead])


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
    X, y = batch.X, batch.y
    n = batch.n
    z, h1 = _embed_cached(net, net.W1, net.W2, X)
    probs = softmax(_head(net, z))
    loss = float(-np.mean(np.log(probs[np.arange(n), y])))

    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    dWhead = matmul(dlogits.T, z)
    dbhead = dlogits.sum(axis=0)
    dz = matmul(dlogits, net.Whead)
    dW2 = matmul(dz.T, h1)
    db2 = dz.sum(axis=0)
    dh1 = matmul(dz, net.W2)
    dpre1 = dh1 * (h1 > 0.0)
    dW1 = matmul(dpre1.T, X)
    db1 = dpre1.sum(axis=0)
    grad = np.concatenate([dW1.ravel(), db1, dW2.ravel(), db2,
                           dWhead.ravel(), dbhead])
    _check_finite(loss, grad)
    return loss, grad
