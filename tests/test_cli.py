import json
import subprocess
import sys
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmhd import cli, galerkin
from capmhd.basis import make_basis
from capmhd.config import RunConfig, build_initial_field
from capmhd import interface as ci
from capmhd.errors import ConfigError, MeshInvariantError

from conftest import CENTER_2D, reference_config


def small_config_dict(**overrides):
    data = {
        "dimension": 2,
        "kmax": 1,
        "T": 0.1,
        "initial_velocity": {"type": "taylor_green", "amplitude": 0.2},
        "initial_magnetic": {"type": "single_mode", "wavevector": [1, 0],
                             "phase": "cos", "polarization": 0, "amplitude": 0.1},
        "phase": {"shape": "disk", "center": list(CENTER_2D), "radius": 1.0},
        "nu_plus": 0.2,
        "nu_minus": 0.1,
        "sigma": 1.0,
        "kappa": 0.1,
        "solver": {"n_sub": 4, "mesh_resolution": 64},
        "output": {"directory": "out", "cadence": 0.05},
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigValidation:
    def test_sigma_zero_rejected(self):
        with pytest.raises(ConfigError, match="sigma > 0"):
            RunConfig.from_dict(small_config_dict(sigma=0.0))

    def test_missing_field_rejected(self):
        data = small_config_dict()
        del data["kappa"]
        with pytest.raises(ConfigError, match="kappa"):
            RunConfig.from_dict(data)

    def test_inviscid_with_tension_rejected(self):
        with pytest.raises(ConfigError, match="dissipation"):
            RunConfig.from_dict(small_config_dict(nu_plus=0.0, nu_minus=0.0))

    def test_inviscid_hydro_allowed(self):
        RunConfig.from_dict(
            small_config_dict(
                nu_plus=0.0, nu_minus=0.0, kappa=0.0,
                initial_magnetic={"type": "zero"},
            )
        )

    def test_shape_outside_cell_rejected(self):
        data = small_config_dict(phase={"shape": "disk", "center": [0.5, 0.5], "radius": 1.0})
        with pytest.raises(ConfigError, match="phase"):
            RunConfig.from_dict(data)

    def test_unknown_mode_rejected(self):
        data = small_config_dict(
            initial_velocity={"type": "single_mode", "wavevector": [5, 0],
                              "phase": "cos", "polarization": 0, "amplitude": 1.0}
        )
        with pytest.raises(ConfigError, match="not in the basis"):
            RunConfig.from_dict(data).build()

    def test_resolved_round_trip_reference(self):
        config = reference_config()
        assert RunConfig.from_dict(config.resolved()) == config

    def test_resolved_round_trip_every_field_set(self):
        solver = {
            "delta": 0.05, "n_sub": 3, "tol": 1e-9, "quadrature_order": 6,
            "h_flow": 0.02, "dt_b": 0.01, "mesh_resolution": 32, "delta_min": 1e-4,
            "max_iter": 12,
        }
        output = {"directory": "elsewhere", "cadence": 0.02}
        config = RunConfig.from_dict(small_config_dict(solver=solver, output=output))
        for f in fields(RunConfig):
            if f.default is not MISSING:
                assert getattr(config, f.name) != f.default, f.name
        resolved = config.resolved()
        assert resolved["solver"] == solver
        assert resolved["output"] == output
        assert RunConfig.from_dict(resolved) == config

    def test_resample_2d_false_from_an_older_summary_loads(self):
        data = small_config_dict()
        data["solver"]["resample_2d"] = False
        assert RunConfig.from_dict(data) == RunConfig.from_dict(small_config_dict())
        # a summary written while omega existed: retired keys at their only
        # value, in the config and in every attempt record
        data["solver"]["omega"] = 1.0
        summary = {"config": data, "pass": True, "attempts": [{"t": 0.0, "omega": 1.0}]}
        assert RunConfig.from_dict(summary) == RunConfig.from_dict(small_config_dict())

    def test_summary_wrapper_accepted(self, tmp_path):
        path = write_config(tmp_path, {"config": small_config_dict()})
        config = RunConfig.from_json(path)
        assert config.dimension == 2

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"nu_minus": -0.1}, "viscosities must be nonnegative, got nu_plus=0.2, nu_minus=-0.1"),
            ({"sigma": -1.0}, "sigma > 0, got -1.0"),
            ({"kappa": -0.5}, "kappa must be nonnegative, got -0.5"),
        ],
        ids=["viscosity", "sigma", "kappa"],
    )
    def test_constants_rejected_with_the_offending_value(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict(small_config_dict(**overrides))


class TestBuild:
    def test_returns_the_state_at_t0_and_the_phase(self):
        config = reference_config()
        state, phase = config.build()
        basis = make_basis(config.dimension, config.kmax)
        order = config.quadrature_order
        assert state.t == 0.0 and state.mesh.t == 0.0
        for name in ("wavevectors", "polarization_indices", "is_sine"):
            assert getattr(state.u.basis, name).tobytes() == getattr(basis, name).tobytes()
        for built, spec in ((state.u, config.initial_velocity), (state.B, config.initial_magnetic)):
            expected = build_initial_field(spec, basis, order)
            np.testing.assert_array_equal(built.coefficients, expected.coefficients)
        assert phase == config.phase_region()
        mesh = ci.mesh_initial(phase, config.mesh_resolution)
        np.testing.assert_array_equal(state.mesh.vertices, mesh.vertices)
        np.testing.assert_array_equal(state.mesh.elements, mesh.elements)
        assert state.params == galerkin.FluidParams(0.2, 0.1, 1.0, 0.1)


class TestCmdRun:
    def test_zero_horizon(self, tmp_path):
        path = write_config(tmp_path, small_config_dict(T=0.0))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True
        assert (out / "ledger.csv").exists()
        assert (out / "interface_t0.000000.csv").exists()
        assert (out / "varifold_t0.000000.csv").exists()

    def test_sigma_zero_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config_dict(sigma=0.0))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "sigma > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("solver", "delta", float("nan")),
            (None, "nu_plus", float("nan")),
            ("solver", "tol", float("inf")),
            (None, "kmax", 2.7),
            ("solver", "max_iter", True),
            ("solver", "resample_2d", "false"),
            ("solver", "resample_2d", True),
            ("solver", "omega", 0.5),
            ("solver", "omega", True),
            ("solver", "max_iters", 3),
            (None, "kmaxx", 8),
            ("output", "cadense", 0.5),
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, section, key, value):
        data = small_config_dict()
        (data[section] if section else data)[key] = value
        path = write_config(tmp_path, data)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("initial_velocity", {"type": "taylor_green", "amplitude": float("nan")}, "finite"),
            ("initial_velocity", {"type": "coefficients", "values": [float("inf")] + [0.0] * 7},
             "finite"),
            ("initial_magnetic", {"type": "single_mode", "wavevector": [1.5, 0], "phase": "cos",
                                  "polarization": 0, "amplitude": 0.1}, "integers"),
            ("phase", {"shape": "disk", "center": [float("nan"), 3.0], "radius": 1.0}, "finite"),
            ("phase", {"shape": "disk", "center": list(CENTER_2D), "radius": float("nan")},
             "finite"),
            ("initial_magnetic", {"type": "single_mode", "wavevector": [5, 0], "phase": "cos",
                                  "polarization": 0, "amplitude": 0.1}, "not in the basis"),
            ("initial_magnetic", {"type": "single_mode", "wavevector": [1, 0], "phase": "cos",
                                  "polarization": "x", "amplitude": 0.1}, "integer"),
            ("initial_magnetic", {"type": "single_mode", "wavevector": [1, 0], "phase": "cos",
                                  "polarization": 0.7, "amplitude": 0.1}, "integer"),
            ("initial_magnetic", {"type": "single_mode", "wavevector": [1, 0], "phase": "cos",
                                  "polarization": True, "amplitude": 0.1}, "integer"),
        ],
        ids=["amplitude-nan", "coefficient-inf", "wavevector-fraction", "center-nan",
             "radius-nan", "mode-outside-basis", "polarization-string",
             "polarization-fraction", "polarization-bool"],
    )
    def test_bad_nested_value_exits_2(self, tmp_path, capsys, key, value, message):
        path = write_config(tmp_path, small_config_dict(**{key: value}))
        for command in ("run", "dump-mesh"):
            assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err
            assert "Traceback" not in err

    def test_small_two_phase_run_passes(self, tmp_path):
        path = write_config(tmp_path, small_config_dict())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True
        assert summary["final"]["t"] == pytest.approx(0.1)
        # cadence 0.05 over T=0.1: dumps at 0, 0.05, 0.1
        assert (out / "interface_t0.050000.csv").exists()
        assert (out / "interface_t0.100000.csv").exists()

    def test_solver_failure_exits_3_with_dump(self, tmp_path, capsys):
        data = small_config_dict()
        data["solver"]["max_iter"] = 1
        data["solver"]["delta_min"] = 0.02  # one sweep converges near delta = 2e-4
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 3
        dump = json.loads((out / "failure_state.json").read_text())
        assert dump["error"] == "NonConvergenceError"
        assert "diagnostics" in dump

    def test_first_window_below_delta_min_exits_3_with_dump(self, tmp_path, capsys):
        # the fast initial velocity makes the first window 5.1e-7 long
        data = reference_config(
            T=0.05, initial_velocity={"type": "taylor_green", "amplitude": 1000.0}
        ).resolved()
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 3
        dump = json.loads((out / "failure_state.json").read_text())
        assert dump["error"] == "NonConvergenceError"
        assert 0.0 < dump["diagnostics"]["delta"] < data["solver"]["delta_min"]
        assert dump["diagnostics"]["failures"] == 0
        assert "below delta_min" in capsys.readouterr().err

    @settings(max_examples=10, deadline=None)
    @given(
        amplitude=st.floats(-1.0, 4.0).map(lambda e: 10.0**e),
        radius=st.floats(0.3, 3.0),
        n_sub=st.integers(2, 8),
        delta=st.floats(1e-4, 0.5),
        kmax=st.sampled_from([1, 2]),
        T=st.floats(1e-5, 1e-3),
    )
    def test_perturbed_configs_end_with_an_exit_code(self, amplitude, radius, n_sub, delta,
                                                      kmax, T):
        data = small_config_dict(
            kmax=kmax,
            T=T,
            initial_velocity={"type": "taylor_green", "amplitude": amplitude},
            phase={"shape": "disk", "center": list(CENTER_2D), "radius": radius},
        )
        # delta_min bounds a run at T / delta_min = 10 windows
        data["solver"].update(n_sub=n_sub, delta=delta, mesh_resolution=16, delta_min=1e-4)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), data)
            code = cli.main(["run", "--config", path, "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2, 3)

    def test_attempts_record_the_halved_window(self, tmp_path, monkeypatch):
        # the first accepted end mesh is reported crossed: the record shows
        # the failed attempt, then the halved window that was accepted
        real = galerkin.check_simple
        calls = []

        def crossed_once(mesh):
            calls.append(mesh.t)
            if len(calls) == 1:
                raise MeshInvariantError("2D mesh crosses itself (edges 0 and 2)")
            return real(mesh)

        monkeypatch.setattr(galerkin, "check_simple", crossed_once)
        data = small_config_dict()
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        attempts = summary["attempts"]
        failed, halved = attempts[:2]
        assert failed["accepted"] is False
        assert failed["error"] == "MeshInvariantError"
        assert "crosses itself" in failed["message"]
        assert failed["sweeps"] == len(failed["residual_history"]) >= 1
        assert all(0 <= a["indicator_traces"] <= a["sweeps"] for a in attempts)
        # neither attempt at t = 0 has a predecessor to extrapolate
        assert failed["start"] == halved["start"] == "euler"
        assert all(a["start"] in ("euler", "extrapolated") for a in attempts)
        assert halved["accepted"] is True and halved["error"] is None
        assert failed["t"] == halved["t"] == 0.0
        assert halved["delta"] == pytest.approx(failed["delta"] / 2)
        assert all(a["accepted"] for a in attempts[1:])
        assert summary["window_failures"] == 1
        assert summary["windows"] == len(attempts) - 1
        # the record lives in summary.json only: the ledger keeps its columns
        # and one row per accepted sub-step
        lines = (out / "ledger.csv").read_text().splitlines()
        assert lines[0] == "t,kinetic,magnetic,tension,viscous_cum,resistive_cum,E0"
        assert len(lines) == 2 + data["solver"]["n_sub"] * summary["windows"]

    def test_non_finite_forcing_exits_3_with_dump(self, tmp_path, capsys, monkeypatch):
        def nan_pairing(mesh, basis):
            return np.full(len(basis), np.nan)

        monkeypatch.setattr(galerkin, "curvature_pairing_modes", nan_pairing)
        data = small_config_dict()
        data["solver"]["delta_min"] = 0.02
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 3
        dump = json.loads((out / "failure_state.json").read_text())
        assert dump["error"] == "NonConvergenceError"
        assert dump["diagnostics"]["failures"] >= 2
        assert "solver failure" in capsys.readouterr().err

    def test_config_round_trip_reproduces_ledger(self, tmp_path):
        path = write_config(tmp_path, small_config_dict())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(out1 / "summary.json"), "--out", str(out2)]) == 0
        assert (out1 / "ledger.csv").read_bytes() == (out2 / "ledger.csv").read_bytes()


class TestCmdCheckEnergy:
    @pytest.fixture()
    def ledger_path(self, tmp_path):
        path = write_config(tmp_path, small_config_dict())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        return str(out / "ledger.csv"), summary["tau_E"]

    def test_passing_ledger(self, ledger_path):
        path, tau = ledger_path
        assert cli.main(["check-energy", "--ledger", path, "--tol", str(tau)]) == 0

    def test_violating_row_named(self, ledger_path, tmp_path, capsys):
        path, tau = ledger_path
        lines = Path(path).read_text().strip().splitlines()
        parts = lines[2].split(",")
        parts[1] = str(float(parts[1]) + 100.0)
        lines[2] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert cli.main(["check-energy", "--ledger", str(bad), "--tol", str(tau)]) == 1
        err = capsys.readouterr().err
        assert f"t={float(parts[0]):.6g}" in err

    def test_non_finite_row_exits_2(self, ledger_path, tmp_path, capsys):
        path, tau = ledger_path
        lines = Path(path).read_text().strip().splitlines()
        parts = lines[2].split(",")
        parts[1] = "nan"
        lines[2] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert cli.main(["check-energy", "--ledger", str(bad), "--tol", str(tau)]) == 2
        assert "cannot read ledger" in capsys.readouterr().err

    def test_non_finite_tol_exits_2(self, ledger_path):
        path, _ = ledger_path
        assert cli.main(["check-energy", "--ledger", path, "--tol", "nan"]) == 2

    def test_non_finite_e0_exits_2(self, ledger_path):
        path, tau = ledger_path
        assert cli.main(["check-energy", "--ledger", path, "--tol", str(tau), "--e0", "nan"]) == 2

    def test_empty_file_exits_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert cli.main(["check-energy", "--ledger", str(empty), "--tol", "1.0"]) == 2


class TestCmdRefine:
    def test_zero_data_observables_zero(self, tmp_path, capsys):
        data = small_config_dict(
            initial_velocity={"type": "zero"},
            initial_magnetic={"type": "zero"},
            kappa=0.0,
            nu_plus=0.1, nu_minus=0.1,
        )
        path = write_config(tmp_path, data)
        out = tmp_path / "ref"
        assert cli.main(["refine", "--config", path, "--levels", "2", "--out", str(out)]) == 0
        report = json.loads((out / "refine_report.json").read_text())
        for row in report["levels"]:
            assert row["u_norm"] == 0.0
            assert row["B_norm"] == 0.0
        for diff in report["differences"]:
            assert diff["u_norm"] == 0.0
            assert diff["perimeter"] == 0.0
        for row in report["levels"]:
            # zero forcing: every window converges in its first sweep
            assert row["sweeps"] == row["windows"] >= 1
            assert row["window_failures"] == 0

    def test_smooth_decay_differences_shrink(self, tmp_path):
        # magnetically coupled smooth data: the transport terms excite higher
        # modes, so observables genuinely move with kmax and converge fast
        data = small_config_dict(
            T=0.2,
            initial_velocity={"type": "taylor_green", "amplitude": 0.4},
            initial_magnetic={"type": "single_mode", "wavevector": [1, 0],
                              "phase": "cos", "polarization": 0, "amplitude": 0.4},
            kappa=0.0,
            nu_plus=0.15, nu_minus=0.15,
        )
        path = write_config(tmp_path, data)
        out = tmp_path / "ref"
        assert cli.main(["refine", "--config", path, "--levels", "3", "--out", str(out)]) == 0
        report = json.loads((out / "refine_report.json").read_text())
        diffs = [d["B_norm"] for d in report["differences"]]
        assert diffs[0] > 0.0
        assert diffs[1] <= diffs[0] / 2.0

    def test_level_floor(self, tmp_path):
        path = write_config(tmp_path, small_config_dict())
        assert cli.main(["refine", "--config", path, "--levels", "1"]) == 2

    def test_solver_failure_exits_3_with_dump(self, tmp_path, capsys):
        data = small_config_dict()
        data["solver"]["max_iter"] = 1
        data["solver"]["delta_min"] = 0.02  # one sweep converges near delta = 2e-4
        path = write_config(tmp_path, data)
        out = tmp_path / "ref"
        assert cli.main(["refine", "--config", path, "--levels", "2", "--out", str(out)]) == 3
        dump = json.loads((out / "failure_state.json").read_text())
        assert dump["error"] == "NonConvergenceError"
        assert dump["diagnostics"]["kmax"] == 1
        assert dump["diagnostics"]["failures"] >= 1
        assert "solver failure at kmax=1" in capsys.readouterr().err
        assert not (out / "refine_report.json").exists()

    def test_config_error_names_the_level(self, tmp_path, capsys):
        # eight coefficients fit the kmax = 1 basis and not the kmax = 2 one
        data = small_config_dict(
            initial_velocity={"type": "coefficients", "values": [0.0] * 8},
            initial_magnetic={"type": "zero"},
        )
        path = write_config(tmp_path, data)
        assert cli.main(["refine", "--config", path, "--levels", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: at kmax=2:") and "coefficient list" in err
        assert "Traceback" not in err


class TestCmdDumpMesh:
    def test_writes_initial_mesh(self, tmp_path):
        path = write_config(tmp_path, small_config_dict())
        out = tmp_path / "mesh"
        assert cli.main(["dump-mesh", "--config", path, "--out", str(out)]) == 0
        assert (out / "interface_t0.000000.csv").exists()

    def test_bad_config_exits_2_without_traceback(self, tmp_path, capsys):
        bad = write_config(tmp_path, small_config_dict(sigma=0.0))
        for path in (bad, str(tmp_path / "absent.json")):
            out = tmp_path / "mesh"
            assert cli.main(["dump-mesh", "--config", path, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "Traceback" not in err
            assert not out.exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "capmhd.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout
