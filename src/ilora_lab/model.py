"""Adapter-augmented MLP: frozen backbone, trainable low-rank deltas on both
hidden weight matrices, analytic gradients of the combined CE + embedding-MSE
loss.

Each flat vector is laid out by one table, the (shape, init std) of its
arrays in order, all row-major: ``_adapter_layout`` (A1, B1, A2, B2) and
``_backbone_layout`` (W1, b1, W2, b2, Whead, bhead). The effective delta on
an adapted matrix is (alpha/rank) * B @ A and B is zero at init, so a fresh
adapter set reproduces the backbone exactly.

Two forwards, each in the layout its consumers want:

- training, ``_embed_cached``, is row-major: h1 = relu(X W1eff.T + b1) and
  z = h1 W2eff.T + b2 as (rows, features). The backward's products over
  the rows want row-major h1 and dz, and softmax's per-row class sum
  changes bits with the layout from 8 classes up.
- inference, ``_embed_transposed``, is feature-major: h1.T = relu(W1eff
  X.T + b1), z.T = W2eff h1.T + b2 and, in ``forward``, logits.T = Whead
  z.T + bhead as (features, rows), or, for ``embed``, (G, features, rows)
  under (G, ...) stacks of effective weights. The rows are every product's
  output rows, so a batch with at least as many rows as a layer has
  outputs (G*hidden for a stack's first layer) switches orientation in no
  layer's ``matmul``, and under a vector every layer reads its K-row input
  contiguously; the row-major forward switches in each layer of such a
  batch and gathers each strided input. Slice g of a stack has the bytes
  of the pair W1eff[g], W2eff[g] (each entry of a product is its own sum).

Both compute every entry as the same k-ascending sum, so the two give the
same bytes; ``embed`` copies its result to row order, ``forward`` returns
transposed views. Only parameter stacks reach ``_product``'s stacked kernel.

One chain rule, ``_adapter_grads``, takes weight gradients to the adapters
(dA = s B.T dW, dB = s dW A.T, s = alpha/rank): a stack of one for each
``loss_and_grad`` term, a stack of rows in ``per_sample_grads``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (RngState, all_finite, gaussian_fill, matmul,
                       stacked_matmul)

ADAPTER_INIT_STD = 0.02


@dataclass(frozen=True)
class Network:
    """Frozen backbone weights plus the adapter hyper-parameters; the
    arrays' shapes are ``_backbone_layout``'s."""

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
        """`count` rows uniform with replacement, one uniform u per row:
        row int(u * n)."""
        idx = (rng.uniforms(count) * self.n).astype(np.int64)
        return Batch(self.X[idx], self.y[idx])


def _adapter_layout(net: Network):
    """(shape, init std) of A1, B1, A2, B2 in flat order: A factors
    Gaussian(0, 0.02), B factors zero, so adapted net == backbone."""
    r, d, h, e = net.rank, net.d, net.h, net.e
    return (((r, d), ADAPTER_INIT_STD), ((h, r), 0.0),
            ((r, h), ADAPTER_INIT_STD), ((e, r), 0.0))


def _backbone_layout(d: int, h: int, e: int, c: int):
    """(shape, init std) of W1, b1, W2, b2, Whead, bhead in flat order:
    weights Gaussian(0, 1/sqrt(fan_in)), biases zero."""
    return (((h, d), 1.0 / math.sqrt(d)), ((h,), 0.0),
            ((e, h), 1.0 / math.sqrt(h)), ((e,), 0.0),
            ((c, e), 1.0 / math.sqrt(e)), ((c,), 0.0))


def _views(vec: np.ndarray, layout, what: str) -> list[np.ndarray]:
    """Views of the layout's arrays in the flat vector, or (G, ...) stacks
    of them from the rows of a (G, P) stack of vectors; no copies."""
    lead = vec.shape[:-1]
    cuts = []
    stop = 0
    for shape, _ in layout:
        start, stop = stop, stop + math.prod(shape)
        cuts.append((start, stop, lead + shape))
    if vec.ndim not in (1, 2) or vec.shape[-1] != stop:
        raise ValueError(f"{what} length {vec.shape} != ({stop},)")
    return [vec[..., start:stop].reshape(shape)
            for start, stop, shape in cuts]


def _init(rng: RngState, layout) -> np.ndarray:
    """A fresh flat vector: the layout's arrays in order, each drawn
    Gaussian(0, std), or zeros where std is 0."""
    return join_params(*[gaussian_fill(rng, *shape, 0.0, std) if std
                         else np.zeros(shape) for shape, std in layout])


def param_length(net: Network) -> int:
    return sum(math.prod(shape) for shape, _ in _adapter_layout(net))


def split_params(net: Network, theta: np.ndarray):
    """Views (A1, B1, A2, B2) into the flat vector, or (G, ...) stacks of
    them from the rows of a (G, P) stack of vectors; no copies."""
    return _views(theta, _adapter_layout(net), "parameter vector")


def join_params(*arrays: np.ndarray) -> np.ndarray:
    """Flattened and concatenated in order: every flat parameter vector."""
    return np.concatenate([a.ravel() for a in arrays])


def init_params(net: Network, rng: RngState) -> np.ndarray:
    """A fresh adapter vector: A1 then A2 drawn, B factors zero."""
    return _init(rng, _adapter_layout(net))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of two matrices, or the G products of two (G, ...) stacks."""
    return matmul(a, b) if a.ndim == 2 else stacked_matmul(a, b)


def _effective_weights(net: Network, A1, B1, A2, B2):
    """Adapted weight matrices from the four adapter factors, or (G, ...)
    stacks of them from stacks of factors."""
    W1eff = net.W1 + net.scaling * _product(B1, A1)
    W2eff = net.W2 + net.scaling * _product(B2, A2)
    return W1eff, W2eff


def _embed_cached(net: Network, W1eff: np.ndarray, W2eff: np.ndarray,
                  X: np.ndarray):
    """The training forward: embedding (n, e) and hidden activation (n, h)
    of an (n, d) batch. The pre-activation is not kept: the ReLU mask the
    backward pass needs is h1 > 0, which holds exactly where the
    pre-activation is > 0 (NaN included)."""
    h1 = matmul(X, W1eff.T)
    h1 += net.b1
    np.maximum(h1, 0.0, out=h1)
    return matmul(h1, W2eff.T) + net.b2, h1


def _head(net: Network, z: np.ndarray) -> np.ndarray:
    return matmul(z, net.Whead.T) + net.bhead


def _embed_transposed(net: Network, theta: np.ndarray, X: np.ndarray):
    """The inference forward: transposed embedding (e, n) and hidden
    activation (h, n) of an (n, d) batch under a vector theta, or (G, e, n)
    and (G, h, n) under a (G, P) stack. X is transposed to C order, which
    copies nothing when X is column-major. Raises ArithmeticError on a
    non-finite embedding."""
    if X.ndim != 2 or X.shape[1] != net.d:
        raise ValueError(f"input shape {X.shape} != (n, {net.d})")
    W1eff, W2eff = _effective_weights(net, *split_params(net, theta))
    h1 = matmul(W1eff.reshape(-1, net.d), np.ascontiguousarray(X.T))
    h1 = h1.reshape(*W1eff.shape[:-1], len(X))
    h1 += net.b1[:, None]
    np.maximum(h1, 0.0, out=h1)
    z = _product(W2eff, h1)
    z += net.b2[:, None]
    if not all_finite(z):
        raise ArithmeticError("non-finite embedding")
    return z, h1


def embed(net: Network, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Pre-head embedding of an (n, d) input batch; the head is not run. A
    vector theta (P,) gives a C-contiguous (n, e) array, a (G, P) stack a
    (G, n, e) one whose slice g is the embedding of theta[g]: the inference
    forward's result copied to row order once. Raises ArithmeticError on a
    non-finite embedding."""
    z, h1 = _embed_transposed(net, theta, X)
    # Copied while h1 is alive. Freed first, h1's block would take the copy
    # and leave the forward's temporaries free at the top of the C heap,
    # which malloc hands back to the system; a landscape's next block then
    # faults them in again (2,000-4,000 more page faults and 10-25% more
    # time per `probe landscape`, measured on glibc).
    return np.ascontiguousarray(z.swapaxes(-1, -2))


def forward(net: Network, theta: np.ndarray, X: np.ndarray):
    """Logits (n, c) and pre-head embedding (n, e) of an (n, d) input batch
    under a vector theta: transposed views of the inference forward's
    feature-major arrays. Raises ArithmeticError on a non-finite embedding
    or logit."""
    z, _ = _embed_transposed(net, theta, X)
    logits = matmul(net.Whead, z)
    logits += net.bhead[:, None]
    if not all_finite(logits):
        raise ArithmeticError("non-finite logits")
    return logits.T, z.T


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.add.reduce(ex, axis=1, keepdims=True)


def _head_loss(net: Network, z: np.ndarray, y: np.ndarray):
    """Mean CE of the head on embeddings z, with its gradients in logits, z."""
    n = len(y)
    rows = np.arange(n)
    dlogits = softmax(_head(net, z))
    loss = float(-np.add.reduce(np.log(dlogits[rows, y])) / n)
    dlogits[rows, y] -= 1.0
    dlogits /= n
    return loss, dlogits, matmul(dlogits, net.Whead)


def _hidden_backward(dz, h1, X, W2):
    """Backprop dz (n x e) through W2, ReLU and layer 1: dW1, dW2, dpre1."""
    dW2 = matmul(dz.T, h1)
    dpre1 = matmul(dz, W2) * (h1 > 0.0)
    return matmul(dpre1.T, X), dW2, dpre1


def _adapter_grads(net: Network, dW1, dW2, A1, B1, A2, B2) -> np.ndarray:
    """Row i of the (n, P) result is the adapter gradient of dW1[i], dW2[i]
    from (n, h, d) and (n, e, h) stacks; each of the four products is one
    matmul over the n pairs' columns side by side or rows stacked."""
    n = len(dW1)
    parts = []
    for dW, A, B in ((dW1, A1, B1), (dW2, A2, B2)):
        _, rows, cols = dW.shape
        dA = matmul(B.T, dW.transpose(1, 0, 2).reshape(rows, n * cols))
        parts += [dA.reshape(-1, n, cols).transpose(1, 0, 2).reshape(n, -1),
                  matmul(dW.reshape(n * rows, cols), A.T).reshape(n, -1)]
    return np.concatenate(parts, axis=1) * net.scaling


def _check_finite(loss: float, grad: np.ndarray) -> None:
    if not (math.isfinite(loss) and all_finite(grad)):
        raise ArithmeticError("non-finite loss or gradient")


def loss_and_grad(net: Network, theta: np.ndarray, batch: Batch,
                  gamma: float = 0.0, mem_batch: Batch | None = None,
                  z_target: np.ndarray | None = None):
    """Mean CE on the batch plus gamma * full-mean squared embedding deviation
    on the memory batch; exact analytic gradient w.r.t. the adapters only.
    """
    if gamma > 0.0 and (mem_batch is None or z_target is None):
        raise ValueError("gamma > 0 requires mem_batch and z_target")
    factors = split_params(net, theta)
    W1eff, W2eff = _effective_weights(net, *factors)

    z, h1 = _embed_cached(net, W1eff, W2eff, batch.X)
    loss, _, dz = _head_loss(net, z, batch.y)
    dW1, dW2, _ = _hidden_backward(dz, h1, batch.X, W2eff)
    grad = _adapter_grads(net, dW1[None], dW2[None], *factors)[0]

    if gamma > 0.0:
        if z_target.shape != (mem_batch.n, net.e):
            raise ValueError("z_target shape mismatch")
        zm, h1m = _embed_cached(net, W1eff, W2eff, mem_batch.X)
        diff = zm - z_target
        loss += gamma * float(np.add.reduce(diff * diff, axis=None)
                              / diff.size)
        dW1, dW2, _ = _hidden_backward((2.0 * gamma / diff.size) * diff,
                                       h1m, mem_batch.X, W2eff)
        grad += _adapter_grads(net, dW1[None], dW2[None], *factors)[0]

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
    are left out. A one-row weight gradient is the K=1 product, an outer
    product plus matmul's zero start 0.0; `_adapter_grads` takes the rows'
    stacks to the adapters, as in `loss_and_grad`.
    """
    factors = split_params(net, theta)
    W1eff, W2eff = _effective_weights(net, *factors)
    size = max(1, _PER_SAMPLE_ELEMS // (net.h * net.d + net.e * net.h
                                        + param_length(net)))
    for start in range(0, batch.n, size):
        X = batch.X[start:start + size]
        y = batch.y[start:start + size]
        rows = np.arange(len(y))
        z, h1 = _embed_cached(net, W1eff, W2eff, X)
        dlogits = softmax(_head(net, z))
        finite = all_finite(np.log(dlogits[rows, y]))
        dlogits[rows, y] -= 1.0
        dz = matmul(dlogits, net.Whead)
        dpre1 = matmul(dz, W2eff) * (h1 > 0.0)
        g = _adapter_grads(net, dpre1[:, :, None] * X[:, None] + 0.0,
                           dz[:, :, None] * h1[:, None] + 0.0, *factors)
        if not (finite and all_finite(g)):
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


def init_backbone(rng: RngState, d: int, h: int, e: int, c: int) -> np.ndarray:
    """A fresh backbone vector: W1, W2, Whead drawn in order, biases zero."""
    return _init(rng, _backbone_layout(d, h, e, c))


def backbone_from_vector(vec: np.ndarray, d: int, h: int, e: int, c: int,
                         rank: int, alpha: float) -> Network:
    """Network with input d, hidden h, embedding e and c classes whose arrays
    are views into the 1-D vec; copy vec first if it will be mutated."""
    if vec.ndim != 1:
        raise ValueError(f"backbone vector must be 1-D, not {vec.shape}")
    return Network(*_views(vec, _backbone_layout(d, h, e, c),
                           f"backbone vector (d={d} h={h} e={e} c={c})"),
                   rank=rank, alpha=alpha)


def backbone_loss_and_grad(net: Network, batch: Batch):
    """Mean CE and its gradient w.r.t. every backbone array (adapters absent)."""
    z, h1 = _embed_cached(net, net.W1, net.W2, batch.X)
    loss, dlogits, dz = _head_loss(net, z, batch.y)
    dW1, dW2, dpre1 = _hidden_backward(dz, h1, batch.X, net.W2)
    grad = join_params(dW1, np.add.reduce(dpre1, axis=0), dW2,
                       np.add.reduce(dz, axis=0), matmul(dlogits.T, z),
                       np.add.reduce(dlogits, axis=0))
    _check_finite(loss, grad)
    return loss, grad
