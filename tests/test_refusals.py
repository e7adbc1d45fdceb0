"""Each library refusal that no other test reaches: the exception type and
its whole message, one parametrized test per module."""

import re
from dataclasses import replace

import numpy as np
import pytest

from ilora_lab import (AdamState, Batch, DualMemoryState, EwcState, GradRef,
                       ResultMatrix, RngState, StrategyConfig, adam_step,
                       agem_project, bwt_t, ewc_penalty_grad, forward,
                       gaussian_fill, linear_cka, loss_and_grad, lr_at,
                       sgd_step, weight_distance)

from conftest import make_batch, make_tiny_net, random_theta


def refused(call, error, message):
    with np.errstate(all="ignore"):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: weight_distance(np.zeros(3), np.zeros(4)),
     "parameter layout mismatch"),
    (lambda: linear_cka(np.ones((1, 2)), np.ones((1, 2))),
     "need at least two samples"),
], ids=["weight_distance", "linear_cka"])
def test_connectivity(call, message):
    refused(call, ValueError, message)


@pytest.mark.parametrize("call, message", [
    (lambda: ResultMatrix(0), "T must be >= 1"),
    (lambda: bwt_t(ResultMatrix(2), 3), "t=3 out of range 2..2"),
], ids=["ResultMatrix", "bwt_t"])
def test_metrics(call, message):
    refused(call, ValueError, message)


def _huge_head_forward():
    # finite weights and embedding whose logits overflow
    net = make_tiny_net()
    net = replace(net, Whead=np.full_like(net.Whead, 1e308))
    forward(net, random_theta(net),
            gaussian_fill(RngState(2), 6, net.d, 0.0, 1e3))


def _wrong_z_target():
    net = make_tiny_net()
    mem = make_batch(RngState(3), 4, net.d, net.c)
    loss_and_grad(net, random_theta(net), mem, gamma=1.0, mem_batch=mem,
                  z_target=np.zeros((3, net.e)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Batch(np.zeros((2, 3)), np.zeros(3, dtype=np.int64)),
     ValueError, "batch shapes inconsistent"),
    (lambda: Batch(np.zeros((0, 3)), np.zeros(0, dtype=np.int64)),
     ValueError, "batch must be nonempty"),
    (_huge_head_forward, ArithmeticError, "non-finite logits"),
    (_wrong_z_target, ValueError, "z_target shape mismatch"),
], ids=["Batch-shapes", "Batch-empty", "forward-logits", "z_target"])
def test_model(call, error, message):
    refused(call, error, message)


def _state(total_steps=10):
    return AdamState.fresh(3, 0.01, 0.2, total_steps)


@pytest.mark.parametrize("call, error, message", [
    (lambda: lr_at(_state(total_steps=0), 1), ValueError,
     "total_steps must be >= 1"),
    (lambda: adam_step(_state(), np.zeros(3), np.zeros(4)), ValueError,
     "theta/grad length mismatch"),
    (lambda: sgd_step(_state(), np.zeros(3), np.zeros(4)), ValueError,
     "theta/grad length mismatch"),
    (lambda: sgd_step(_state(), np.zeros(3), np.array([0.0, np.inf, 0.0])),
     ArithmeticError, "non-finite gradient, update rejected"),
    (lambda: agem_project(np.zeros(3), GradRef(np.zeros(4))), ValueError,
     "gradient length mismatch"),
    (lambda: ewc_penalty_grad(np.zeros(3), [EwcState(np.zeros(4),
                                                     np.zeros(4), 1.0)]),
     ValueError, "parameter length mismatch"),
], ids=["lr_at", "adam_step-length", "sgd_step-length", "sgd_step-finite",
        "agem_project", "ewc_penalty_grad"])
def test_optim(call, error, message):
    refused(call, error, message)


@pytest.mark.parametrize("call, message", [
    (lambda: StrategyConfig(gamma=-1.0), "gamma and lambda_ewc must be >= 0"),
    (lambda: StrategyConfig(lambda_ewc=-1.0),
     "gamma and lambda_ewc must be >= 0"),
    (lambda: StrategyConfig(rho=-0.1), "rho must lie in [0, 1]"),
    (lambda: StrategyConfig(rho=1.5), "rho must lie in [0, 1]"),
    (lambda: StrategyConfig(epochs=0), "epochs and batch_size must be >= 1"),
    (lambda: StrategyConfig(batch_size=0),
     "epochs and batch_size must be >= 1"),
    (lambda: DualMemoryState(np.zeros(3), np.zeros(4)),
     "fast/slow parameter layout mismatch"),
], ids=["gamma", "lambda_ewc", "rho-low", "rho-high", "epochs", "batch_size",
        "DualMemoryState"])
def test_strategies(call, message):
    refused(call, ValueError, message)
