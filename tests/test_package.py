import importlib
import importlib.util
import types
from pathlib import Path

import ilora_lab


def test_all_lists_only_the_public_api():
    exported = set(ilora_lab.__all__)
    modules = {name for name in dir(ilora_lab)
               if isinstance(getattr(ilora_lab, name), types.ModuleType)}
    assert modules and not exported & modules
    public = {name for name in dir(ilora_lab)
              if not name.startswith("_") and name not in modules}
    assert exported == public
    assert len(ilora_lab.__all__) == len(exported)


def test_benchmark_trace_targets_resolve():
    """Every function the benchmark's tracer patches is still bound where
    the tracer looks it up; a moved function would go uncounted."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod_name, attr in tracing.TARGETS:
        obj = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{mod_name}.{attr} does not resolve"
