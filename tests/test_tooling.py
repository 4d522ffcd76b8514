"""The benchmark's tracer finds every function it wraps.

`bench/spans.py` looks the public functions of each braggbell layer up by
name, and `Tracer.install` raises AttributeError on a missing one, which
would break every traced benchmark run. The file is executed from its source
text, so nothing is written under `bench/`.
"""

import importlib
import sys
import types
from pathlib import Path

BENCH_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans() -> types.ModuleType:
    module = types.ModuleType("bench_spans")
    code = compile(BENCH_SPANS.read_text(), str(BENCH_SPANS), "exec")
    before = set(sys.modules)
    exec(code, module.__dict__)
    loaded = {name.split(".")[0] for name in set(sys.modules) - before}
    assert loaded <= set(sys.stdlib_module_names), loaded - set(sys.stdlib_module_names)
    return module


def test_every_traced_layer_function_exists():
    spans = _load_spans()
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"braggbell.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"braggbell.{layer}.{name}"
