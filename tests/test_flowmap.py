import numpy as np
import pytest

from capmhd import basis as cb
from capmhd import flowmap as cf
from capmhd.errors import IntegrationError

import reference as ref
from conftest import CENTER_2D, rigid_rotation, rotate_about, taylor_green_2d


@pytest.fixture(scope="module")
def spectral_sampler():
    basis = cb.make_basis(2, 2)
    rng = np.random.default_rng(41)
    field = cb.SpectralField(basis, 0.4 * rng.standard_normal(len(basis)))
    return ref.SteadyField(field)


class TestAdvance:
    def test_zero_velocity_is_identity(self):
        zero = ref.AnalyticField(lambda t, p: np.zeros_like(p))
        start = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = cf.integrate_positions(start, zero, 0.0, 1.5, 0.1)
        np.testing.assert_array_equal(out, start)

    def test_rigid_rotation_full_turn(self):
        start = np.array([[np.pi + 0.8, np.pi]])
        out = cf.integrate_positions(start, rigid_rotation(), 0.0, 2 * np.pi, 1e-3)
        assert np.linalg.norm(out - start) <= 1e-6

    def test_taylor_green_streamline(self):
        # psi = sin x sin y is a first integral of the steady flow
        rng = np.random.default_rng(43)
        start = rng.uniform(1.0, 5.0, (20, 2))
        psi0 = np.sin(start[:, 0]) * np.sin(start[:, 1])
        out = cf.integrate_positions(start, taylor_green_2d(), 0.0, 1.0, 1e-3)
        psi1 = np.sin(out[:, 0]) * np.sin(out[:, 1])
        assert np.max(np.abs(psi1 - psi0)) <= 1e-5

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError, match="step"):
            cf.integrate_positions(np.zeros((1, 2)), rigid_rotation(), 0.0, 1.0, 0.0)

    def test_nonfinite_velocity_reports_location(self):
        def bad(t, p):
            v = np.ones_like(p)
            v[p[..., 0] > 3.0] = np.nan
            return v

        start = np.array([[0.0, 0.0], [3.5, 0.0]])
        with pytest.raises(IntegrationError) as err:
            cf.integrate_positions(start, ref.AnalyticField(bad), 0.0, 1.0, 0.1)
        assert err.value.x is not None
        assert err.value.x[0] > 3.0

    def test_group_property(self, spectral_sampler):
        rng = np.random.default_rng(47)
        start = rng.uniform(0, 2 * np.pi, (10, 2))
        via = cf.integrate_positions(start, spectral_sampler, 0.0, 0.35, 0.01)
        via = cf.integrate_positions(via, spectral_sampler, 0.35, 1.0, 0.01)
        direct = cf.integrate_positions(start, spectral_sampler, 0.0, 1.0, 0.01)
        assert np.max(np.linalg.norm(via - direct, axis=1)) <= 2e-6

    def test_convergence_order_is_fourth(self):
        start = np.array([[np.pi + 0.8, np.pi]])
        exact = rotate_about(start, CENTER_2D, 1.0)

        def error(h):
            out = cf.integrate_positions(start, rigid_rotation(), 0.0, 1.0, h)
            return np.linalg.norm(out - exact)

        ratio = error(2e-2) / error(1e-2)
        assert 12.0 <= ratio <= 20.0


class TestBacktrace:
    def test_zero_velocity(self):
        zero = ref.AnalyticField(lambda t, p: np.zeros_like(p))
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(ref.backtrace(x, zero, 3.0, 0.1), x)

    def test_rigid_rotation_quarter_turn(self):
        x = np.array([np.pi, np.pi + 0.8])
        expected = rotate_about(x, CENTER_2D, -np.pi / 2)
        out = ref.backtrace(x, rigid_rotation(), np.pi / 2, 1e-3)
        assert np.linalg.norm(out - expected) <= 1e-6

    def test_round_trip_taylor_green(self):
        rng = np.random.default_rng(53)
        x = rng.uniform(0.5, 2 * np.pi - 0.5, (100, 2))
        tg = taylor_green_2d()
        back = ref.backtrace(x, tg, 1.0, 1e-3)
        forward = cf.integrate_positions(back, tg, 0.0, 1.0, 1e-3)
        assert np.max(np.linalg.norm(forward - x, axis=1)) <= 1e-6


class TestJacobian:
    def test_zero_velocity_identity(self):
        zero = ref.AnalyticField(
            lambda t, p: np.zeros_like(p),
            lambda t, p: np.zeros(p.shape[:-1] + (2, 2)),
        )
        jac = ref.jacobian(np.array([1.0, 1.0]), zero, 1.0, 0.1)
        np.testing.assert_array_equal(jac, np.eye(2))

    def test_rotation_matrix(self):
        t = 0.7
        jac = ref.jacobian(np.array([4.0, 2.5]), rigid_rotation(), t, 1e-3)
        expected = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        assert np.max(np.abs(jac - expected)) <= 1e-6

    def test_determinant_one_spectral(self, spectral_sampler):
        rng = np.random.default_rng(59)
        x0 = rng.uniform(0, 2 * np.pi, (6, 2))
        jac = ref.jacobian(x0, spectral_sampler, 1.0, 5e-3)
        assert np.max(np.abs(np.linalg.det(jac) - 1.0)) <= 1e-6


class TestSpectralTrajectory:
    def test_linear_interpolation_preserves_divergence(self):
        basis = cb.make_basis(2, 2)
        rng = np.random.default_rng(61)
        coeffs = rng.standard_normal((3, len(basis)))
        traj = cf.SpectralTrajectory(basis, [0.0, 0.5, 1.0], coeffs)
        points = rng.uniform(0, 2 * np.pi, (50, 2))
        for t in (0.0, 0.2, 0.5, 0.77, 1.0):
            grads = ref.synthesize_gradient(basis, traj.coefficients_at(t), points)
            assert np.max(np.abs(np.trace(grads, axis1=1, axis2=2))) <= 1e-12

    def test_interpolation_is_linear_and_clamped(self):
        basis = cb.make_basis(2, 1)
        c = np.zeros((2, len(basis)))
        c[1, 0] = 2.0
        traj = cf.SpectralTrajectory(basis, [0.0, 1.0], c)
        assert traj.coefficients_at(0.25)[0] == pytest.approx(0.5)
        assert traj.coefficients_at(-1.0)[0] == 0.0
        assert traj.coefficients_at(2.0)[0] == 2.0

    def test_extended_skips_duplicate_node(self):
        basis = cb.make_basis(2, 1)
        traj = cf.SpectralTrajectory(basis, [0.0], np.zeros((1, len(basis))))
        out = traj.extended([0.0, 0.5], np.ones((2, len(basis))))
        assert out.times.tolist() == [0.0, 0.5]

    def test_samples_match_the_table_form(self):
        basis = cb.make_basis(3, 2)
        rng = np.random.default_rng(67)
        coeffs = rng.standard_normal((3, len(basis)))
        traj = cf.SpectralTrajectory(basis, [0.0, 0.5, 1.0], coeffs)
        points = rng.uniform(-2 * np.pi, 4 * np.pi, (30, 3))
        for t in (-0.5, 0.0, 0.3, 0.5, 0.9, 1.0, 2.0):
            c = traj.coefficients_at(t)
            speed = np.abs(c) @ basis.normalizations
            got = traj.velocity(t, points)
            assert np.max(np.abs(got - ref.synthesize(basis, c, points))) <= 1e-12 * speed

    def test_extended_carries_the_lattice_rows(self, monkeypatch):
        basis = cb.make_basis(2, 2)
        rng = np.random.default_rng(71)
        traj = cf.SpectralTrajectory(basis, [0.0, 0.5], rng.standard_normal((2, len(basis))))
        built = []
        real = basis.lattice.coefficients

        def record(coefficients):
            built.append(len(np.atleast_2d(coefficients)))
            return real(coefficients)

        monkeypatch.setattr(basis.lattice, "coefficients", record)
        out = traj.extended([0.5, 0.75, 1.0], rng.standard_normal((3, len(basis))))
        assert built == [2]
        assert out.lattice_rows[:2].tobytes() == traj.lattice_rows.tobytes()
        want = basis.lattice.coefficients(out.coefficients)
        assert out.lattice_rows.tobytes() == want.tobytes()

    def test_rk4_stages_at_one_time_share_an_interpolation(self, monkeypatch):
        basis = cb.make_basis(2, 1)
        traj = cf.SpectralTrajectory(basis, [0.0, 1.0], np.ones((2, len(basis))))
        times = []
        real = traj._interpolate

        def record(rows, t):
            times.append(t)
            return real(rows, t)

        monkeypatch.setattr(traj, "_interpolate", record)
        cf.integrate_positions(np.ones((4, 2)), traj, 0.0, 0.5, 0.1)
        # t = 0, then each step's midpoint and end; the end is the next start
        assert len(times) == 1 + 2 * 5
        assert len(set(times)) == len(times)

    def test_nan_position_raises_integration_error(self):
        basis = cb.make_basis(3, 2)
        rng = np.random.default_rng(73)
        traj = cf.SpectralTrajectory(basis, [0.0, 1.0], rng.standard_normal((2, len(basis))))
        start = np.array([[1.0, 2.0, 3.0], [np.nan, 1.0, 1.0]])
        with pytest.raises(IntegrationError, match="non-finite"):
            cf.integrate_positions(start, traj, 0.0, 0.5, 0.1)
        with pytest.raises(IntegrationError, match="non-finite"):
            cf.integrate_positions(start, traj, 0.5, 0.0, 0.1)

    def test_rejects_decreasing_times(self):
        basis = cb.make_basis(2, 1)
        with pytest.raises(ValueError, match="increasing"):
            cf.SpectralTrajectory(basis, [0.0, 0.0], np.zeros((2, len(basis))))
