import numpy as np
import pytest

# the scalar oracle's helpers assert; rewrite them for pytest's messages
pytest.register_assert_rewrite("scalar_rng")

from ilora_lab import Batch, Network, RngState, gaussian_fill


def make_tiny_net(seed=0, d=4, h=5, e=4, c=3, rank=2, alpha=4.0) -> Network:
    rng = RngState(seed)
    return Network(
        W1=gaussian_fill(rng, h, d, 0.0, 0.5),
        b1=gaussian_fill(rng, 1, h, 0.0, 0.1)[0],
        W2=gaussian_fill(rng, e, h, 0.0, 0.5),
        b2=gaussian_fill(rng, 1, e, 0.0, 0.1)[0],
        Whead=gaussian_fill(rng, c, e, 0.0, 0.5),
        bhead=gaussian_fill(rng, 1, c, 0.0, 0.1)[0],
        rank=rank, alpha=alpha)


def make_batch(rng: RngState, n: int, d: int, c: int) -> Batch:
    X = gaussian_fill(rng, n, d, 0.0, 1.0)
    y = (rng.uniforms(n) * c).astype(np.int64)
    return Batch(X, y)


def random_theta(net: Network, seed=1, std=0.1) -> np.ndarray:
    from ilora_lab import param_length
    rng = RngState(seed)
    return gaussian_fill(rng, 1, param_length(net), 0.0, std)[0]


@pytest.fixture
def tiny_net():
    return make_tiny_net()
