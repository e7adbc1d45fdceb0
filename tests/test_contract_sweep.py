"""The determinism contract over a handful of seeded tiny configs.

Each config's odd sizes are drawn from its seed; its fixed part picks what
it covers: partial batches with rank 1 and two classes; hidden 300 and
embed 160 with SGD, so training products have long rows and a long K;
stratified replay. Per config, the five null-hyperparameter reductions
hold byte for byte and a rerun from config_echo.json writes the same bytes.
A wide ILORA run writes the same bytes through matmul's C einsum entry and
through its k-loop fallback.
"""

import dataclasses
import json

import numpy as np
import pytest

from ilora_lab import RngState, numerics, run_sequence
from ilora_lab.artifacts import rebuild_environment
from ilora_lab.cli import _strategy_config, main, validate_config

from scalar_rng import ScalarRng


def draw_config(seed: int, kind: str, stream: dict, arch: dict,
                training: dict, strategy: dict | None = None) -> dict:
    """A config whose n_train, n_eval and batch size are odd numbers drawn
    from the scalar oracle at seed, the given blocks merged over them."""
    rng = ScalarRng(seed)
    return {
        "seed": seed,
        "stream": {"n_train": 17 + 2 * rng.next_below(12),
                   "n_eval": 7 + 2 * rng.next_below(6), **stream},
        "arch": {"pretrain_epochs": 1, **arch},
        "strategy": {"kind": kind, "rho": 0.3, **(strategy or {})},
        "training": {"epochs": 2, "batch_size": 3 + 2 * rng.next_below(3),
                     **training},
    }


CONFIGS = {
    "partial-batches-rank-1": draw_config(
        301, "ILORA", {"tasks": 3, "input_dim": 5, "classes": 2},
        {"hidden": 7, "embed": 3, "rank": 1, "alpha": 2.0,
         "pretrain_batch": 9}, {}),
    "k-loop-sgd": draw_config(
        302, "AGEM", {"tasks": 2, "input_dim": 6, "classes": 3},
        {"hidden": 300, "embed": 160, "rank": 2},
        {"epochs": 1, "optimizer": "sgd", "base_lr": 0.05}),
    "stratified-replay": draw_config(
        303, "ILORA", {"tasks": 3, "input_dim": 6, "classes": 3},
        {"hidden": 10, "embed": 6, "rank": 3}, {},
        {"stratified_replay": True}),
}


def test_configs_cover_both_kernel_paths_and_odd_sizes():
    # a hidden-to-embedding product of one batch: K*m*n per config, from a
    # few hundred products, bound by per-call cost, to over 100k, bound by
    # arithmetic (the former vector path's and k loop's sizes)
    sizes = [c["arch"]["hidden"] * c["arch"]["embed"]
             * c["training"]["batch_size"] for c in CONFIGS.values()]
    assert min(sizes) < 1 << 10 and max(sizes) > 1 << 17
    for cfg in CONFIGS.values():
        assert cfg["stream"]["n_train"] % 2 == 1
        assert cfg["stream"]["n_train"] % cfg["training"]["batch_size"] != 0


def stack_bytes(record) -> bytes:
    return np.stack(record.checkpoints).tobytes()


def tree_bytes(root):
    """Every file's bytes; the echo's out_dir, the one value that names the
    directory, is dropped."""
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
    echo = json.loads(files.pop("config_echo.json"))
    assert echo.pop("out_dir") == str(root)
    return files, echo


@pytest.mark.parametrize("name", CONFIGS)
def test_contract(name, tmp_path):
    cfg = validate_config(CONFIGS[name])
    base = dataclasses.replace(_strategy_config(cfg), gamma=1.0,
                               lambda_ema=0.9, lambda_ewc=10.0)
    stream, net = rebuild_environment(cfg)
    pairs, seed = stream.pairs, cfg["seed"]

    def run(pairs=pairs, **changes):
        return run_sequence(dataclasses.replace(base, **changes), pairs, net,
                            RngState(seed))

    seq = stack_bytes(run(kind="SEQ"))
    assert stack_bytes(run(kind="ER", rho=0.0)) == seq
    assert stack_bytes(run(kind="EWC", lambda_ewc=0.0)) == seq
    assert stack_bytes(run(kind="AGEM", rho=0.0)) == seq
    er = run(kind="ER")
    ilora = run(kind="ILORA", gamma=0.0, lambda_ema=0.0, update_frequency=1)
    assert stack_bytes(ilora) == stack_bytes(er)
    assert np.stack(ilora.slow_checkpoints).tobytes() == stack_bytes(er)
    assert stack_bytes(run(pairs[:1], kind="MTL")) == \
        stack_bytes(run(pairs[:1], kind="SEQ"))

    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIGS[name]))
    assert main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(tmp_path / "a" / "config_echo.json"),
                 "--out", str(tmp_path / "b")]) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_the_fallback_changes_no_byte(tmp_path, monkeypatch):
    # hidden 256 sends the K=256 second layer, its stacked slow-memory
    # twin and the dW2 products through numpy's C einsum entry; the same
    # run with the entry's import failed (every product in the k loop)
    # writes the same bytes
    path = tmp_path / "config.json"
    path.write_text(json.dumps(draw_config(
        304, "ILORA", {"tasks": 2, "input_dim": 8, "classes": 3,
                       "n_train": 95},
        {"hidden": 256, "embed": 16, "rank": 4, "pretrain_batch": 32},
        {"epochs": 1, "batch_size": 32})))
    multiarray = np._core.multiarray
    c_einsum = multiarray.c_einsum
    calls = []

    def count(*args, **kwargs):
        calls.append(None)
        return c_einsum(*args, **kwargs)

    products = []
    kernels = []
    for out, entry in (("a", count), ("b", None)):
        # the run's first product probes the entry and binds the kernel
        monkeypatch.setattr(numerics, "_kernel", numerics._bind)
        if entry is None:
            monkeypatch.delattr(multiarray, "c_einsum")
        else:
            monkeypatch.setattr(multiarray, "c_einsum", entry)
        calls.clear()
        assert main(["run", str(path), "--out", str(tmp_path / out)]) == 0
        products.append(len(calls))
        kernels.append(numerics._kernel)
    assert products[0] > 100 and products[1] == 0
    assert kernels == [count, numerics._k_loop]
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
