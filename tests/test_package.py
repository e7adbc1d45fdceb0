import ast
import importlib
import json
import types
from pathlib import Path

import ilora_lab
from ilora_lab.cli import main

from conftest import PERFBENCH_MODULES, load_perfbench


def test_all_lists_only_the_public_api():
    exported = set(ilora_lab.__all__)
    modules = {name for name in dir(ilora_lab)
               if isinstance(getattr(ilora_lab, name), types.ModuleType)}
    assert modules and not exported & modules
    public = {name for name in dir(ilora_lab)
              if not name.startswith("_") and name not in modules}
    assert exported == public
    assert len(ilora_lab.__all__) == len(exported)


def test_conftest_loads_every_perfbench_module_tests_load():
    """Every `load_perfbench` call in the test files names a module that
    conftest loads before any test runs, as a literal."""
    names = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "load_perfbench":
                assert len(node.args) == 1 and \
                    isinstance(node.args[0], ast.Constant), path.name
                names.append(node.args[0].value)
    assert names and set(names) <= set(PERFBENCH_MODULES), names


def test_benchmark_trace_targets_resolve():
    """Every function the benchmark's tracer patches is still bound where
    the tracer looks it up; a moved function would go uncounted."""
    tracing = load_perfbench("tracing")
    for mod_name, attr in tracing.TARGETS:
        obj = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{mod_name}.{attr} does not resolve"


def test_traced_run_and_probes(tmp_path):
    """A tiny ILORA run, a sweep and both embedding probes under the
    benchmark's tracer: its counters read every traced call's arguments
    (``matmul``'s as a 2-D shape), so a traced round must not fail where an
    untraced one passes."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "stream": {"tasks": 3, "input_dim": 8, "classes": 3,
                   "n_train": 48, "n_eval": 32},
        "arch": {"hidden": 12, "embed": 8, "rank": 4, "alpha": 8.0,
                 "pretrain_epochs": 2},
        "strategy": {"kind": "ILORA"}, "training": {"epochs": 1}}))
    out = str(tmp_path / "run")
    tracer = load_perfbench("tracing").Tracer()
    with tracer.patched():
        for argv in (["run", str(cfg), "--out", out],
                     ["sweep-lambda", out, "--transition", "1"],
                     ["probe", out, "cka"],
                     ["probe", out, "landscape", "--transition", "1",
                      "--grid-points", "3"]):
            assert main(argv) == 0, argv
    assert tracer.summary()["matmul"]["calls"] > 0


def test_every_product_is_traced(tmp_path, monkeypatch):
    """`probe cka` and a small `probe landscape` under the benchmark's
    tracer: its `matmul` count equals the number of products summed, as a
    spy on `numerics._products` counts them, so no product runs past the
    traced entry point."""
    from ilora_lab import numerics
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "stream": {"tasks": 3, "input_dim": 8, "classes": 3,
                   "n_train": 48, "n_eval": 32},
        "arch": {"hidden": 12, "embed": 8, "rank": 4, "alpha": 8.0,
                 "pretrain_epochs": 2},
        "strategy": {"kind": "ILORA"}, "training": {"epochs": 1}}))
    out = str(tmp_path / "run")
    assert main(["run", str(cfg), "--out", out]) == 0  # binds the kernel
    products = []
    real = numerics._products

    def spy(x, y):
        products.append(x.shape)
        return real(x, y)

    monkeypatch.setattr(numerics, "_products", spy)
    tracer = load_perfbench("tracing").Tracer()
    with tracer.patched():
        for argv in (["probe", out, "cka"],
                     ["probe", out, "landscape", "--transition", "1",
                      "--grid-points", "3"]):
            assert main(argv) == 0, argv
    # cka: 3 checkpoints; landscape: the origin and 8 points; 4 products
    # an embed
    assert len(products) == 4 * (3 + 9)
    assert tracer.summary()["matmul"]["calls"] == len(products)


def test_benchmark_checks_pass_on_fresh_runs(tmp_path):
    """The benchmark's own output checks on a tiny run of each kind and on
    one probe round over a 5-task ILORA run: an artifact change that would
    fail every benchmark command fails here first."""
    workloads = load_perfbench("workloads")
    tiny = {"stream": {"tasks": 5, "input_dim": 6, "classes": 3,
                       "n_train": 24, "n_eval": 16},
            "arch": {"hidden": 8, "embed": 6, "rank": 2, "alpha": 4.0,
                     "pretrain_epochs": 1},
            "training": {"epochs": 1, "batch_size": 8}}
    training = workloads.TrainingWorkload("tiny", workloads.KINDS, tiny)
    probes = workloads.ProbeWorkload("tiny-probes")
    training.prepare(tmp_path, 0)
    setup = probes.prepare(tmp_path, 0)
    # the probe round's run on the tiny config, not the default one
    (tmp_path / "ILORA.json").write_text(json.dumps(
        {**tiny, "strategy": {"kind": "ILORA"}}))
    for cmd in (*training.round(tmp_path, 0, 0), *setup,
                *probes.round(tmp_path, 0, 0)):
        assert main(list(cmd.argv)) == 0, cmd.label
        cfg = json.loads((cmd.run_dir / "config_echo.json").read_text())
        missing = [name for name in cmd.outputs(cfg)
                   if not (cmd.run_dir / name).is_file()]
        assert missing == [], cmd.label
        # a run's checks are _validate_run's
        assert cmd.validate(cfg) == [], cmd.label
