"""What the training and pretraining step may call.

Every step runs a handful of reductions on 16-row arrays, where numpy's
Python-level wrappers (`np.mean`, `np.all`, `ndarray.sum`, ...) cost more
than the reduction itself. The step path calls the ufunc reductions
directly (`np.add.reduce`, `np.maximum.reduce`, `np.logical_and.reduce`);
this test pins that, so a wrapper creeping back fails here instead of
quietly slowing every step.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ilora_lab"
# reduction wrappers, called as np.<name>(...) or <array>.<name>(...)
WRAPPERS = {"sum", "mean", "max", "min", "all", "any", "prod", "amax",
            "amin"}

STEP_PATH = {
    "numerics.py": ("matmul", "_products", "_k_loop", "all_finite"),
    "model.py": ("softmax", "_head", "_head_loss", "_embed_cached",
                 "_embed_transposed", "_effective_weights",
                 "_hidden_backward", "_adapter_grads", "_check_finite",
                 "embed", "forward", "loss_and_grad", "per_sample_grads",
                 "backbone_loss_and_grad"),
    "optim.py": ("adam_step", "sgd_step", "lr_at", "_stepped", "ewc_fisher"),
}


def wrapper_calls(path: Path, names) -> dict[str, list[str]]:
    """For each function in `names` defined at the top of `path`, the
    wrapper calls in its body as 'np.mean'/'.sum' strings."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            found[node.name] = [
                ("np." if isinstance(call.func.value, ast.Name)
                 and call.func.value.id == "np" else ".") + call.func.attr
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in WRAPPERS]
    return found


def test_step_path_calls_no_reduction_wrapper():
    for file, names in STEP_PATH.items():
        found = wrapper_calls(SRC / file, names)
        assert sorted(found) == sorted(names), (file, names)
        assert {n: calls for n, calls in found.items() if calls} == {}, file


def test_the_scanner_sees_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import numpy as np\n"
        "def f(x):\n"
        "    return (np.mean(x), np.all(x), x.sum(axis=0), x.max(),\n"
        "            (x > 0).all(), x.mean(), np.add.reduce(x),\n"
        "            np.maximum.reduce(x), np.logical_and.reduce(x))\n"
        "def g(x):\n"
        "    return x.sum()\n")
    assert wrapper_calls(path, ("f",)) == {
        "f": ["np.mean", "np.all", ".sum", ".max", ".all", ".mean"]}
