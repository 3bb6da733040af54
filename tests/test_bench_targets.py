"""The benchmark's tracer names program functions by dotted path; each
must still exist, or the per-layer metrics silently read zero."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(target):
    module, *attrs = target.split(".")
    obj = importlib.import_module("derived_kernel." + module)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_traced_target_resolves():
    tracer = _tracer()
    functions = set(tracer.LEAF_HELPERS) | set(tracer.BUILT)
    layers = set()
    for source, target in tracer.PER_LAYER.values():
        (layers if source == "layer_self_s" else functions).add(target)
    missing = []
    for target in sorted(functions | layers):
        try:
            obj = _resolve(target)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        assert callable(obj) or target in layers, target
    assert not missing
    assert len(functions) >= 54 and len(layers) >= 11
