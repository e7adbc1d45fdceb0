import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

# the scalar oracle's helpers assert; rewrite them for pytest's messages
pytest.register_assert_rewrite("scalar_rng")

from ilora_lab import Batch, Network, RngState, gaussian_fill

# The benchmark's modules that tests load. hypothesis draws integer
# constants from every loaded module, so each is loaded here, before any
# test runs: a property file then tries the same examples alone and in the
# whole suite.
PERFBENCH_MODULES = ("tracing", "workloads")


def load_perfbench(name):
    """A module of the benchmark, loaded read-only from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


for _name in PERFBENCH_MODULES:
    load_perfbench(_name)


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
