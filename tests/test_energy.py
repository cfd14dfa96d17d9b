import numpy as np
import pytest

from capmhd import basis as cb
from capmhd import energy as ce
from capmhd import galerkin as cg
from capmhd import interface as ci

import reference as ref
from conftest import CENTER_2D, CENTER_3D, reference_config, single_phase_decay_config


@pytest.fixture(scope="module")
def unit_disk_mesh():
    return ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 256)


def make_state(basis, u_coeffs, b_coeffs, mesh, params):
    return cg.GalerkinState(
        mesh.t,
        cb.SpectralField(basis, u_coeffs),
        cb.SpectralField(basis, b_coeffs),
        mesh,
        params,
    )


class TestInitialEnergy:
    def test_tension_only(self, basis_2d, unit_disk_mesh):
        zero = cb.SpectralField(basis_2d, np.zeros(len(basis_2d)))
        value = ce.initial_energy(zero, zero, unit_disk_mesh, kappa=1.0)
        assert value == pytest.approx(2 * np.pi, abs=1e-3)

    def test_single_unit_mode(self, basis_2d, unit_disk_mesh):
        coeffs = np.zeros(len(basis_2d))
        coeffs[0] = 1.0
        u0 = cb.SpectralField(basis_2d, coeffs)
        zero = cb.SpectralField(basis_2d, np.zeros(len(basis_2d)))
        assert ce.initial_energy(u0, zero, unit_disk_mesh, kappa=0.0) == pytest.approx(0.5)

    def test_sum_of_terms(self, basis_2d, unit_disk_mesh):
        coeffs = np.zeros(len(basis_2d))
        coeffs[0] = 1.0
        u0 = cb.SpectralField(basis_2d, coeffs)
        b0 = cb.SpectralField(basis_2d, coeffs)
        value = ce.initial_energy(u0, b0, unit_disk_mesh, kappa=1.0)
        assert value == pytest.approx(1.0 + 2 * np.pi, abs=1e-3)


class TestRecord:
    def test_zero_fields_tension_only_row(self, basis_2d, unit_disk_mesh):
        params = cg.FluidParams(0.1, 0.1, 1.0, 0.5)
        state = make_state(basis_2d, np.zeros(len(basis_2d)), np.zeros(len(basis_2d)),
                           unit_disk_mesh, params)
        ledger = ce.EnergyLedger(E0=1.0)
        ce.record(state, ledger, (0.0, 0.0))
        row = ledger.rows[0]
        assert row[1] == 0.0 and row[2] == 0.0
        assert row[3] == pytest.approx(0.5 * 2 * np.pi, abs=1e-3)

    def test_cumulative_columns_accumulate_exactly(self, basis_2d, unit_disk_mesh):
        params = cg.FluidParams(0.1, 0.1, 1.0, 0.0)
        state = make_state(basis_2d, np.zeros(len(basis_2d)), np.zeros(len(basis_2d)),
                           unit_disk_mesh, params)
        ledger = ce.EnergyLedger(E0=1.0)
        ce.record(state, ledger, (0.25, 0.125))
        ce.record(state, ledger, (0.25, 0.125))
        assert ledger.rows[1][4] == 0.5
        assert ledger.rows[1][5] == 0.25

    def test_viscous_rate_single_mode_closed_form(self, basis_2d, unit_disk_mesh):
        # 2 nu integral |Du|^2 = nu |k|^2 ||u||^2 for one mode
        nu = 0.3
        params = cg.FluidParams(nu, nu, 1.0, 0.0)
        j = 4
        coeffs = np.zeros(len(basis_2d))
        coeffs[j] = 0.7
        state = make_state(basis_2d, coeffs, np.zeros(len(basis_2d)), unit_disk_mesh, params)
        rate = ce.viscous_dissipation_rate(state, 8)
        expected = nu * basis_2d.eigenvalues[j] * 0.7**2
        dt = 1e-3
        assert rate * dt == pytest.approx(expected * dt, abs=1e-8)

    def test_decreasing_cumulative_rejected(self):
        ledger = ce.EnergyLedger(E0=1.0)
        ledger.append(0.0, 0.1, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="nondecreasing"):
            ledger.append(0.1, 0.1, 0.0, 0.0, 0.5, 0.0)


class TestCheckInequality:
    def test_single_initial_row_margin_zero(self, basis_2d, unit_disk_mesh):
        params = cg.FluidParams(0.1, 0.1, 1.0, 0.5)
        state = make_state(basis_2d, np.zeros(len(basis_2d)), np.zeros(len(basis_2d)),
                           unit_disk_mesh, params)
        e0 = ce.initial_energy(state.u, state.B, unit_disk_mesh, 0.5)
        ledger = ce.EnergyLedger(E0=e0)
        ce.record(state, ledger, (0.0, 0.0))
        report = ce.check_inequality(ledger, tau_E=0.0)
        assert report.passed
        assert report.worst_margin == 0.0

    def test_pure_decay_near_equality(self):
        # kappa = 0 decay run: margins stay within the first-order defect and
        # the inequality is near-equality throughout
        config = single_phase_decay_config()
        result = cg.run(config)
        margins = result.ledger.totals() - result.E0
        dt = result.delta_initial / config.n_sub
        assert np.max(np.abs(margins)) <= 5.0 * dt * result.E0
        report = ce.check_inequality(result.ledger, result.tau_E)
        assert report.passed

    def test_fault_injection_names_the_time(self):
        config = single_phase_decay_config(T=0.3)
        result = cg.run(config)
        ledger = result.ledger
        idx = min(range(len(ledger)), key=lambda i: abs(ledger.rows[i][0] - 0.2))
        t_bad = ledger.rows[idx][0]
        row = list(ledger.rows[idx])
        row[1] += 10.0  # inflate kinetic energy
        ledger.rows[idx] = tuple(row)
        report = ce.check_inequality(ledger, tau_E=0.01)
        assert not report.passed
        assert report.worst_time == pytest.approx(t_bad)
        assert t_bad in report.failed_times

    def test_defect_first_order_in_dt(self):
        # halving the sub-step roughly halves the worst energy defect
        defects = []
        for n_sub in (8, 16):
            result = cg.run(single_phase_decay_config(n_sub=n_sub))
            defects.append(float(np.max(np.abs(result.ledger.totals() - result.E0))))
        ratio = defects[0] / defects[1]
        assert 1.7 <= ratio <= 4.5


class TestCancellationAudit:
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_transport_power_matches_between_equations(self, dimension):
        # the magnetic transfer term shows up with opposite signs in the two
        # energy identities; audit that the discrete pairings agree
        from capmhd.basis import quadrature_rule
        from capmhd.induction import transport_pairing

        basis = cb.make_basis(dimension, 2)
        order = cb.default_quadrature_order(2)
        rng = np.random.default_rng(139)
        cu = 0.4 * rng.standard_normal(len(basis))
        cbv = 0.4 * rng.standard_normal(len(basis))
        u = cb.SpectralField(basis, cu)
        b = cb.SpectralField(basis, cbv)
        points, _ = quadrature_rule(dimension, order)
        b_vals = ref.synthesize(basis, cbv, points)
        if dimension == 2:
            mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 64)
        else:
            mesh = ci.mesh_initial(ci.ball(CENTER_3D, 1.0), 1)
        params = cg.FluidParams(0.0, 0.0, 1.0, 0.0)
        zero = cb.SpectralField(basis, np.zeros(len(basis)))
        # u-equation side: (B (x) B, grad u) via the Lorentz pairing tested with u
        lorentz = cg.apply_N(cg.GalerkinState(0.0, u, b, mesh, params), order) - cg.apply_N(
            cg.GalerkinState(0.0, u, zero, mesh, params), order
        )
        u_side = -float(cu @ lorentz)
        # B-equation side: transport pairing tested with B
        u_vals = ref.synthesize(basis, cu, points)
        b_side = float(cbv @ transport_pairing(u_vals, b_vals, basis.quadrature(order)))
        assert abs(u_side - b_side) <= 1e-8

    def test_monotone_cumulative_columns(self):
        result = cg.run(reference_config(T=0.2))
        viscous = result.ledger.column("viscous_cum")
        resistive = result.ledger.column("resistive_cum")
        assert np.all(np.diff(viscous) >= 0.0)
        assert np.all(np.diff(resistive) >= 0.0)


class TestLedgerIO:
    def test_round_trip(self, tmp_path):
        ledger = ce.EnergyLedger(E0=2.5)
        ledger.append(0.0, 1.0, 0.5, 1.0, 0.0, 0.0)
        ledger.append(0.1, 0.9, 0.45, 1.0, 0.05, 0.025)
        path = tmp_path / "ledger.csv"
        ledger.write_csv(path)
        loaded = ce.EnergyLedger.read_csv(path)
        assert loaded.E0 == 2.5
        assert loaded.rows == ledger.rows

    def test_csv_matches_the_row_formatter(self, tmp_path):
        ledger = ce.EnergyLedger(E0=1e300)
        ledger.append(-0.0, 5e-324, 1e-7, 3.0, 0.0, 0.0)
        ledger.append(1e-7, 1.0 / 3.0, 2.0, 1e300, 5e-324, 1e-300)
        ledger.append(0.1, 123456789012.5, 1e15, 0.5, 7.0, 1e-7)
        ledger.write_csv(tmp_path / "new.csv")
        ref.write_ledger(ledger, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        empty = ce.EnergyLedger(E0=1.0)
        empty.write_csv(tmp_path / "new_empty.csv")
        ref.write_ledger(empty, tmp_path / "old_empty.csv")
        assert (tmp_path / "new_empty.csv").read_bytes() == (
            tmp_path / "old_empty.csv"
        ).read_bytes()

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="malformed"):
            ce.EnergyLedger.read_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            ce.EnergyLedger.read_csv(path)
