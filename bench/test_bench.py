"""Harness tests: on a tiny two-window config the traced run emits every
per-layer metric, its self times account for the traced wall time, and the
property checks reject a wrong indicator.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import op  # noqa: E402  (puts src/ on sys.path)
import run  # noqa: E402
from capmhd import galerkin  # noqa: E402
from capmhd.config import RunConfig  # noqa: E402
from checks import check_run  # noqa: E402

# Two windows of two sub-steps each, so the second window back-traces
# through a pre-window history.
TINY = {
    "dimension": 2,
    "kmax": 1,
    "T": 0.04,
    "initial_velocity": {"type": "taylor_green", "amplitude": 0.25},
    "initial_magnetic": {"type": "single_mode", "wavevector": [1, 0], "phase": "cos",
                         "polarization": 0, "amplitude": 0.2},
    "phase": {"shape": "disk", "center": [3.141592653589793, 3.141592653589793], "radius": 1.0},
    "nu_plus": 0.2,
    "nu_minus": 0.1,
    "sigma": 1.0,
    "kappa": 0.1,
    "solver": {"delta": 0.02, "n_sub": 2, "tol": 1e-8, "h_flow": 0.01, "mesh_resolution": 32},
    "output": {"cadence": 0.02},
}

# Self times plus the time outside every span must add up to the traced
# wall time within this share of it.
COVERAGE_TOL = 0.01


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    config = base / "tiny.json"
    config.write_text(json.dumps(TINY))
    return config, base


@pytest.fixture(scope="module")
def traced(tiny):
    config, base = tiny
    spans = base / "spans.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(op, "SETUP_REPS", 2)
        return op.run_op(config, base / "out", traced=True, spans_path=spans), spans


def _declared_per_layer():
    with open(HERE.parent / "BENCHMARK.json") as handle:
        return {m["name"] for m in json.load(handle)["per_layer"]}


def test_traced_run_passes_its_checks(traced):
    result, _ = traced
    assert result["ok"], result["checks"]
    assert result["trace"]["missing_targets"] == []


def test_every_per_layer_metric_is_emitted(traced):
    result, _ = traced
    plain = dict(result, traced=False, ok=True)
    traced_op = dict(result, traced=True, ok=True)
    samples = run.per_layer_samples([plain, traced_op])
    assert set(samples) == _declared_per_layer()
    layers = result["layers"]
    assert layers["galerkin.windows"] == 2
    assert layers["flowmap.history_trace_s"] > 0.0
    assert layers["flowmap.history_point_steps"] > 0
    assert layers["flowmap.window_trace_s"] > 0.0
    assert layers["galerkin.sweeps"] >= 2 * 2


def test_self_times_account_for_traced_wall_time(traced):
    trace = traced[0]["trace"]
    untraced = trace["wall_s"] - trace["root_s"]
    assert untraced >= 0.0
    assert abs(trace["self_s_total"] + untraced - trace["wall_s"]) <= COVERAGE_TOL * trace["wall_s"]
    assert trace["min_span_self_s"] >= -1e-6


def test_spans_are_written(traced):
    result, spans = traced
    lines = spans.read_text().splitlines()
    assert lines[0] == "index,name,start_ns,end_ns,parent"
    assert len(lines) == result["trace"]["spans"] + 1


def test_checks_reject_a_wrong_indicator(tiny, traced):
    config_path, base = tiny
    config = RunConfig.from_json(config_path)
    out = base / "out"  # artifacts of the traced run of the same config
    result = galerkin.run(config)
    assert all(c["ok"] for c in check_run(config, result, 0, out).values())
    chi = result.windows[-1].chi_cache[-1]
    result.windows[-1].chi_cache[-1] = 1 - np.asarray(chi)
    checks = check_run(config, result, 0, out)
    assert not checks["indicator_vs_mesh"]["ok"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ball3d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
