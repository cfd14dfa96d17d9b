"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The reference two-phase configuration (d=2, kmax=2, unit disk, kappa=0.1,
T=0.5) is solved once per session and shared by the certificate, energy,
bound-audit and determinism criteria.  Every tolerance is pinned here.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from capmhd import basis as cb
from capmhd import cli
from capmhd import galerkin as cg
from capmhd import interface as ci
from capmhd import varifold as cv
from capmhd.energy import check_inequality

import reference as ref
from conftest import (
    CENTER_2D,
    CENTER_3D,
    circle_first_variation,
    phi_identity,
    reference_config,
    single_phase_decay_config,
    smooth_phi_2d,
    smooth_phi_3d,
    sphere_first_variation,
    taylor_green_2d,
)

TOL_FIXED_POINT = 1e-8


@contextmanager
def criterion(number, name, budget_seconds):
    """Time a criterion body and print its pass/fail line."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:2d}] FAIL  {name} ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] PASS  {name} ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its runtime budget: {elapsed:.1f}s >= {budget_seconds}s"
    )


@pytest.fixture(scope="module")
def reference_run():
    start = time.perf_counter()
    result = cg.run(reference_config())
    return result, time.perf_counter() - start


def test_criterion_1_flow_map_volume_preservation():
    with criterion(1, "flow-map volume preservation", 10.0):
        basis = cb.make_basis(2, 3)
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(5):
            field = cb.SpectralField(basis, 0.5 * rng.standard_normal(len(basis)))
            x0 = rng.uniform(0.0, 2 * np.pi, (3, 2))
            jac = ref.jacobian(x0, ref.SteadyField(field), 1.0, 5e-3)
            worst = max(worst, float(np.max(np.abs(np.linalg.det(jac) - 1.0))))
        assert worst <= 1e-6


def test_criterion_2_indicator_mass_conservation():
    with criterion(2, "mass conservation of the transported phase", 30.0):
        tg = taylor_green_2d()
        coarse = ci.advect(ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 256), tg, 0.5, 0.01)
        drift_coarse = abs(ci.enclosed_volume(coarse) - np.pi) / np.pi
        assert drift_coarse <= 1e-3
        fine = ci.advect(ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 512), tg, 0.5, 0.005)
        drift_fine = abs(ci.enclosed_volume(fine) - np.pi) / np.pi
        assert drift_coarse / drift_fine >= 2.0


def test_criterion_3_first_variation_oracle():
    with criterion(3, "first variation against curvature oracles", 10.0):
        # identity test field: (d-1) * analytic area, 1e-3 relative
        for radius in (0.5, 1.0):
            mesh = ci.mesh_initial(ci.disk(CENTER_2D, radius), 256)
            value = cv.first_variation(cv.lift(mesh), phi_identity)
            assert value == pytest.approx(2 * np.pi * radius, rel=1e-3)
        sphere5 = ci.mesh_initial(ci.ball(CENTER_3D, 1.0), 5)
        value = cv.first_variation(cv.lift(sphere5), phi_identity)
        assert value == pytest.approx(8 * np.pi, rel=1e-3)

        # general test field against the dense closed-form oracle, 1e-2 at
        # default resolution, with convergence order >= 1.8 under refinement
        exact_circle = circle_first_variation(CENTER_2D, 1.0, smooth_phi_2d)
        errors_circle = []
        for resolution in (128, 256):
            mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), resolution)
            got = cv.first_variation(cv.lift(mesh), smooth_phi_2d)
            errors_circle.append(abs(got - exact_circle))
        assert errors_circle[1] <= 1e-2 * abs(exact_circle)
        assert np.log2(errors_circle[0] / errors_circle[1]) >= 1.8

        exact_sphere = sphere_first_variation(CENTER_3D, 1.0, smooth_phi_3d)
        errors_sphere = []
        for level in (3, 4):
            mesh = ci.mesh_initial(ci.ball(CENTER_3D, 1.0), level)
            got = cv.first_variation(cv.lift(mesh), smooth_phi_3d)
            errors_sphere.append(abs(got - exact_sphere))
        assert errors_sphere[1] <= 1e-2 * abs(exact_sphere)
        assert np.log2(errors_sphere[0] / errors_sphere[1]) >= 1.8


def test_criterion_4_coupling_identity():
    with criterion(4, "varifold/boundary-measure coupling identity", 5.0):
        rng = np.random.default_rng(2025)
        for mesh in (
            ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 256),
            ci.mesh_initial(ci.ball(CENTER_3D, 1.0), 3),
        ):
            d = mesh.dimension
            lifted = cv.lift(mesh)
            for _ in range(20):
                matrix = rng.standard_normal((d, d))
                shift = rng.standard_normal(d)
                wave = rng.integers(-2, 3, size=d)

                def psi(points, m=matrix, c=shift, k=wave):
                    return points @ m.T + c + np.sin(points @ k)[:, None]

                assert cv.coupling_residual(lifted, mesh, psi) == 0.0


def test_criterion_5_induction_decay_and_antisymmetry():
    with criterion(5, "induction decay and transport antisymmetry", 10.0):
        from capmhd.induction import solve_B, transport_pairing

        basis = cb.make_basis(2, 1)
        j = int(np.flatnonzero(basis.eigenvalues == 1.0)[0])
        coeffs = np.zeros(len(basis))
        coeffs[j] = 1.0
        b0 = cb.SpectralField(basis, coeffs)
        quad = basis.quadrature(4)
        zero_u = quad.field_values(np.zeros((2, len(basis))))
        b_end, _, _ = solve_B(
            zero_u, [0.0, 1.0], b0, quad.field_values(b0.coefficients), 1e-3, 1.0, quad
        )
        ratio = b_end.norm() / b0.norm()
        assert ratio == pytest.approx(np.exp(-1.0), rel=1e-3)

        basis2 = cb.make_basis(2, 2)
        order = cb.default_quadrature_order(2)
        rng = np.random.default_rng(2026)
        cu = 0.5 * rng.standard_normal(len(basis2))
        cbv = 0.5 * rng.standard_normal(len(basis2))
        points, weight = cb.quadrature_rule(2, order)
        u_vals, b_vals = ref.synthesize(basis2, cu, points), ref.synthesize(basis2, cbv, points)
        transport = transport_pairing(u_vals, b_vals, basis2.quadrature(order))
        lhs = float(cbv @ transport)
        grads = ref.synthesize_gradient(basis2, cu, points)
        rhs = weight * float(np.einsum("mi,mil,ml->", b_vals, grads, b_vals))
        assert abs(lhs - rhs) <= 1e-8


def test_criterion_6_fixed_point_certificate(reference_run):
    result, elapsed = reference_run
    with criterion(6, "fixed-point certificate on the reference run", 300.0 - elapsed):
        assert result.windows, "reference run accepted no windows"
        for window in result.windows:
            assert window.residual_history[-1] < TOL_FIXED_POINT
        bound = len(result.windows) * TOL_FIXED_POINT
        assert float(np.max(result.galerkin_residual())) <= bound
    assert elapsed < 300.0, f"reference run took {elapsed:.1f}s (budget 300s)"


def test_criterion_7_generalized_energy_inequality(reference_run):
    result, _ = reference_run
    with criterion(7, "generalized energy inequality", 600.0):
        report = check_inequality(result.ledger, result.tau_E)
        assert report.passed, f"worst margin {report.worst_margin} at t={report.worst_time}"

        # smooth single-phase limit: the ledger defect is O(dt)
        defects = []
        for n_sub in (8, 16):
            run = cg.run(single_phase_decay_config(n_sub=n_sub))
            defects.append(float(np.max(np.abs(run.ledger.totals() - run.E0))))
        ratio = defects[0] / defects[1]
        assert 1.7 <= ratio <= 4.5


def test_criterion_8_forcing_bound_audit(reference_run):
    result, _ = reference_run
    with criterion(8, "forcing-functional bound audit", 60.0):
        assert result.n_bound_samples
        for t, n_norm, u_norm, b_norm, bv_norm in result.n_bound_samples:
            bracket = cg.n_bound_bracket(u_norm, b_norm, bv_norm)
            assert n_norm <= cg.N_BOUND_COEFF * bracket, f"bound violated at t={t}"


def test_criterion_9_refinement_stability(tmp_path):
    with criterion(9, "refinement stability of observables", 1800.0):
        config_path = tmp_path / "reference.json"
        config_path.write_text(json.dumps(reference_config().resolved()))
        out = tmp_path / "refine"
        status = cli.main(
            ["refine", "--config", str(config_path), "--levels", "3", "--out", str(out)]
        )
        assert status == 0
        report = json.loads((out / "refine_report.json").read_text())
        assert [row["kmax"] for row in report["levels"]] == [2, 4, 8]
        for key in ("u_norm", "perimeter"):
            diffs = [d[key] for d in report["differences"]]
            assert diffs[1] < diffs[0], f"{key} differences did not decrease: {diffs}"


def test_criterion_10_determinism(tmp_path, reference_run):
    _, elapsed = reference_run
    with criterion(10, "byte-identical ledgers across repeated runs", 600.0):
        config_path = tmp_path / "reference.json"
        config_path.write_text(json.dumps(reference_config().resolved()))
        ledgers = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
            ledgers.append((out / "ledger.csv").read_bytes())
        assert ledgers[0] == ledgers[1]
