"""The benchmark's wrap list names functions that exist in capmhd.

``bench/layers.py`` lists the functions a traced benchmark run wraps; the
tracer skips a name it cannot find, which would quietly empty that layer's
metric.  These tests fail instead when a refactor drops or renames one.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from capmhd import flowmap

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_target_resolves():
    targets = _load_layers().targets()
    assert targets
    missing = []
    for module_name, path, _ in targets:
        module = importlib.import_module(f"capmhd.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        # the tracer wraps only an attribute defined on the owner itself
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_integrate_positions_keeps_the_arguments_the_classifier_reads():
    parameters = list(inspect.signature(flowmap.integrate_positions).parameters)
    assert parameters == ["positions", "sampler", "t0", "t1", "h"]
