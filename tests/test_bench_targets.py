"""The benchmark's wrap list and run checks still fit capmhd.

``bench/layers.py`` lists the functions a traced benchmark run wraps; the
tracer skips a name it cannot find, which would quietly empty that layer's
metric.  ``bench/checks.py`` reads the run result, the written artifacts and
some capmhd functions after each benchmark run.  These tests fail when a
refactor drops or renames what either file uses, rather than when the
benchmark next runs.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from capmhd import cli, flowmap, galerkin
from capmhd.config import RunConfig

from conftest import reference_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_target_resolves():
    targets = _load("layers").targets()
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


def test_every_run_check_passes_on_a_short_reference_run(tmp_path, monkeypatch):
    check_run = _load("checks").check_run
    path = tmp_path / "config.json"
    path.write_text(json.dumps(reference_config(T=0.1).resolved()))
    out = tmp_path / "out"
    results = []
    real_run = galerkin.run

    def capture(config):
        results.append(real_run(config))
        return results[-1]

    monkeypatch.setattr(galerkin, "run", capture)
    code = cli.main(["run", "--config", str(path), "--out", str(out)])
    checks = check_run(RunConfig.from_json(path), results[0], code, str(out))
    assert {name: check["ok"] for name, check in checks.items()} == dict.fromkeys(checks, True)
