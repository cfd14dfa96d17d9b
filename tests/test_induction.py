import numpy as np
import pytest

from capmhd import basis as cb
from capmhd import induction as cind
from capmhd.errors import NumericsError
from capmhd.flowmap import SpectralTrajectory

import reference as ref


@pytest.fixture(scope="module")
def basis_k1():
    return cb.make_basis(2, 1)


@pytest.fixture(scope="module")
def zero_velocity(basis_k1):
    return ref.SteadyField(cb.SpectralField(basis_k1, np.zeros(len(basis_k1))))


def step(b_field, sampler, t, sigma, dt, order):
    """``step_B`` from ``b_field`` at t, with u synthesized from the sampler's
    coefficients at t and B from ``b_field``'s."""
    quad = b_field.basis.quadrature(order)
    u_values = quad.field_values(sampler.coefficients_at(t))
    b_values = quad.field_values(b_field.coefficients)
    return cind.step_B(b_field, u_values, b_values, sigma, dt, quad)


def march(sampler, b0, t0, t1, dt, sigma, order):
    """``solve_B`` over the one sub-step [t0, t1], with u synthesized from the
    sampler's coefficients at both ends: B at t1 and the steps' increments."""
    quad = b0.basis.quadrature(order)
    ends = np.stack([sampler.coefficients_at(t0), sampler.coefficients_at(t1)])
    fields, _, (increments,) = cind.solve_B(
        quad.field_values(ends), [t0, t1], b0, dt, sigma, quad
    )
    return fields[-1], increments


def unit_mode_field(basis, eigenvalue=1.0):
    j = int(np.flatnonzero(basis.eigenvalues == eigenvalue)[0])
    coeffs = np.zeros(len(basis))
    coeffs[j] = 1.0
    return cb.SpectralField(basis, coeffs)


class TestStepB:
    def test_zero_is_fixed_point(self, basis_k1, zero_velocity):
        b0 = cb.SpectralField(basis_k1, np.zeros(len(basis_k1)))
        out = step(b0, zero_velocity, 0.0, 1.0, 0.1, 4)
        assert np.all(out.coefficients == 0.0)

    def test_implicit_decay_factor(self, basis_k1, zero_velocity):
        b0 = unit_mode_field(basis_k1)
        out = step(b0, zero_velocity, 0.0, 1.0, 0.25, 4)
        assert out.norm() == pytest.approx(1.0 / 1.25, rel=1e-14)

    def test_aligned_field_transport_vanishes(self, basis_k1):
        # u = B on one mode: the antisymmetric pairing cancels identically
        field = unit_mode_field(basis_k1)
        points, _ = cb.quadrature_rule(2, 4)
        values = ref.synthesize(basis_k1, field.coefficients, points)
        transport = cind.transport_pairing(values, values, basis_k1.quadrature(4))
        assert np.max(np.abs(transport)) == 0.0

    def test_unconditional_decay(self, basis_k1, zero_velocity):
        rng = np.random.default_rng(79)
        field = cb.SpectralField(basis_k1, rng.standard_normal(len(basis_k1)))
        for dt in (0.1, 1.0, 10.0):
            out = step(field, zero_velocity, 0.0, 1.0, dt, 4)
            assert out.norm() < field.norm()

    def test_nonfinite_velocity_raises(self, basis_k1):
        bad = SpectralTrajectory(basis_k1, [0.0], [np.full(len(basis_k1), np.nan)])
        b0 = unit_mode_field(basis_k1)
        with pytest.raises(NumericsError):
            step(b0, bad, 0.0, 1.0, 0.1, 4)


class TestSolveB:
    def test_zero_initial_field(self, basis_k1, zero_velocity):
        b0 = cb.SpectralField(basis_k1, np.zeros(len(basis_k1)))
        _, fields, _ = ref.induction_steps(zero_velocity, b0, 0.0, 1.0, 0.1, 1.0, 4)
        assert all(f.norm() == 0.0 for f in fields)

    def test_heat_decay_closed_form(self, basis_k1, zero_velocity):
        # u = 0, |k|^2 = 1, sigma = 1: the IMEX chain gives (1 + dt)^-N,
        # matching e^{-sigma |k|^2 t} to first order
        b0 = unit_mode_field(basis_k1)
        b_end, _ = march(zero_velocity, b0, 0.0, 1.0, 1e-3, 1.0, 4)
        ratio = b_end.norm() / b0.norm()
        assert ratio == pytest.approx((1.001) ** -1000, rel=1e-12)
        assert ratio == pytest.approx(np.exp(-1.0), rel=1e-3)

    def test_multimode_decay(self, basis_k1, zero_velocity):
        rng = np.random.default_rng(83)
        coeffs = rng.standard_normal(len(basis_k1))
        b0 = cb.SpectralField(basis_k1, coeffs)
        sigma = 0.7
        b_end, _ = march(zero_velocity, b0, 0.0, 0.5, 1e-3, sigma, 4)
        exact = coeffs * np.exp(-sigma * basis_k1.eigenvalues * 0.5)
        np.testing.assert_allclose(b_end.coefficients, exact, rtol=1e-3)

    def test_resistive_increments_recorded(self, basis_k1, zero_velocity):
        b0 = unit_mode_field(basis_k1)
        _, increments = march(zero_velocity, b0, 0.0, 0.1, 0.025, 1.0, 4)
        assert len(increments) == 4
        # first step: sigma * |k|^2 * c_new^2 * dt with c_new = 1/(1 + dt)
        expected = 1.0 * (1.0 / 1.025) ** 2 * 0.025
        assert increments[0] == pytest.approx(expected, rel=1e-12)

    def test_final_step_lands_exactly(self, basis_k1, zero_velocity):
        b0 = unit_mode_field(basis_k1)
        times, _, _ = ref.induction_steps(zero_velocity, b0, 0.0, 0.1, 0.03, 1.0, 4)
        assert times[-1] == 0.1

    @pytest.mark.parametrize("dt", [0.025, 0.03])
    def test_end_field_and_increments_match_the_step_chain(self, basis_k1, dt):
        # 0.1 / 0.03 is not whole: the chain's last step is shortened to 0.01
        rng = np.random.default_rng(107)
        u = ref.SteadyField(cb.SpectralField(basis_k1, rng.standard_normal(len(basis_k1))))
        b0 = cb.SpectralField(basis_k1, rng.standard_normal(len(basis_k1)))
        b_end, increments = march(u, b0, 0.0, 0.1, dt, 0.7, 4)
        times, fields, chain_increments = ref.induction_steps(u, b0, 0.0, 0.1, dt, 0.7, 4)
        assert len(times) == 5
        assert b_end.coefficients.tobytes() == fields[-1].coefficients.tobytes()
        assert increments.tobytes() == chain_increments.tobytes()

    @pytest.mark.parametrize("steps, tolerance", [(1, 0.0), (4, 1e-13)])
    def test_window_march_matches_the_step_chain(self, steps, tolerance):
        # u comes from one synthesis at the window's nodes.  At one step per
        # sub-step every step starts at a node, so each node's B is the step
        # chain's byte for byte; at four, the march takes u linearly between
        # the node values and the chain synthesizes the interpolated
        # coefficients, which agree to rounding
        basis = cb.make_basis(2, 2)
        order = 8
        quad = basis.quadrature(order)
        rng = np.random.default_rng(211)
        t_grid = 0.3 + np.linspace(0.0, 0.1, 5)
        coefficients = 0.5 * rng.standard_normal((5, len(basis)))
        sampler = SpectralTrajectory(basis, t_grid, coefficients)
        b0 = cb.SpectralField(basis, 0.3 * rng.standard_normal(len(basis)))
        dt = 0.025 / steps
        fields, values, increments = cind.solve_B(
            quad.field_values(coefficients), t_grid, b0, dt, 0.7, quad
        )
        chain, chain_increments = [b0], []
        for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
            _, kept, kept_increments = ref.induction_steps(
                sampler, chain[-1], t0, t1, dt, 0.7, order
            )
            chain.append(kept[-1])
            chain_increments.append(kept_increments)
        assert len(fields) == len(values) == 5
        assert [len(part) for part in increments] == [steps] * 4
        for field, want, node_values in zip(fields, chain, values):
            # the node values handed to the forcing are the field's own
            assert node_values.tobytes() == quad.field_values(field.coefficients).tobytes()
            if tolerance == 0.0:
                assert field.coefficients.tobytes() == want.coefficients.tobytes()
            else:
                np.testing.assert_allclose(
                    field.coefficients, want.coefficients, rtol=0.0, atol=tolerance
                )
        for got, want in zip(increments, chain_increments):
            if tolerance == 0.0:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=tolerance)

    def test_small_window_late_in_time(self, basis_k1, zero_velocity):
        # the node spacing rounds by ulp(0.3), about 4e-12 of dt, so the
        # step count takes one more, nearly empty, last step
        t_grid = 0.3 + np.linspace(0.0, 1e-4, 9)
        dt = 1e-4 / 8
        b0 = unit_mode_field(basis_k1)
        b_end, increments = march(zero_velocity, b0, t_grid[0], t_grid[1], dt, 1.0, 4)
        times, fields, chain_increments = ref.induction_steps(
            zero_velocity, b0, t_grid[0], t_grid[1], dt, 1.0, 4
        )
        assert times[-1] == t_grid[1]
        assert np.all(np.diff(times) >= 0.0)
        assert b_end.coefficients.tobytes() == fields[-1].coefficients.tobytes()
        assert increments.tobytes() == chain_increments.tobytes()
        assert b_end.norm() == pytest.approx(1.0 / (1.0 + dt), rel=1e-10)


class TestEnergyMechanism:
    def test_transport_antisymmetry_transfer(self):
        # the discrete pairing satisfies (u(x)B - B(x)u, grad B) = (B(x)B, grad u)
        # up to quadrature round-off: the exact cancellation mechanism between
        # the kinetic and magnetic energy identities
        basis = cb.make_basis(2, 2)
        order = cb.default_quadrature_order(2)
        rng = np.random.default_rng(89)
        cu = 0.5 * rng.standard_normal(len(basis))
        cbv = 0.5 * rng.standard_normal(len(basis))
        points, weight = cb.quadrature_rule(2, order)
        u_vals, b_vals = ref.synthesize(basis, cu, points), ref.synthesize(basis, cbv, points)
        transport = cind.transport_pairing(u_vals, b_vals, basis.quadrature(order))
        lhs = float(cbv @ transport)
        grads = ref.synthesize_gradient(basis, cu, points)
        rhs = weight * float(np.einsum("mi,mil,ml->", b_vals, grads, b_vals))
        assert abs(lhs - rhs) <= 1e-8

    def test_energy_identity_residual_first_order(self):
        # discrete magnetic energy balance: residual of
        # 1/2||B(t)||^2 - 1/2||B0||^2 - transport power + resistive = O(dt)
        basis = cb.make_basis(2, 2)
        order = cb.default_quadrature_order(2)
        rng = np.random.default_rng(97)
        cu = np.zeros(len(basis))
        cu[3] = 0.4
        sampler = ref.SteadyField(cb.SpectralField(basis, cu))
        b0 = cb.SpectralField(basis, 0.3 * rng.standard_normal(len(basis)))
        points, _ = cb.quadrature_rule(2, order)
        u_vals = sampler.velocity(0.0, points)

        def residual(dt):
            times, fields, increments = ref.induction_steps(sampler, b0, 0.0, 0.5, dt, 1.0, order)
            power = 0.0
            for i in range(len(times) - 1):
                h = times[i + 1] - times[i]
                b_vals = ref.synthesize(basis, fields[i].coefficients, points)
                transport = cind.transport_pairing(u_vals, b_vals, basis.quadrature(order))
                power += h * float(fields[i].coefficients @ transport)
            return abs(
                0.5 * fields[-1].norm() ** 2
                - 0.5 * b0.norm() ** 2
                - power
                + float(np.sum(increments))
            )

        r_coarse, r_fine = residual(2e-3), residual(1e-3)
        assert r_coarse <= 6.0 * 2e-3  # calibrated constant, ~3 observed
        assert 1.5 <= r_coarse / r_fine <= 3.0

    def test_velocity_continuity_surrogate(self):
        # nearby velocity trajectories give proportionally nearby magnetic
        # fields; the measured ratio is finite and stable under dt refinement
        basis = cb.make_basis(2, 1)
        rng = np.random.default_rng(101)
        b0 = cb.SpectralField(basis, 0.5 * rng.standard_normal(len(basis)))
        cu = rng.standard_normal(len(basis))
        delta = 1e-2
        perturb = rng.standard_normal(len(basis))
        perturb *= delta / np.linalg.norm(perturb)

        def distance(dt):
            u1 = ref.SteadyField(cb.SpectralField(basis, cu))
            u2 = ref.SteadyField(cb.SpectralField(basis, cu + perturb))
            times, fields1, _ = ref.induction_steps(u1, b0, 0.0, 0.5, dt, 1.0, 4)
            _, fields2, _ = ref.induction_steps(u2, b0, 0.0, 0.5, dt, 1.0, 4)
            diffs = [
                (a.coefficients - b.coefficients) for a, b in zip(fields1, fields2)
            ]
            steps = np.diff(times)
            sq = np.array([np.sum(d**2) for d in diffs])
            return np.sqrt(np.sum(steps * 0.5 * (sq[:-1] + sq[1:])))

        c_coarse = distance(5e-3) / delta
        c_fine = distance(2.5e-3) / delta
        assert c_coarse < 50.0
        assert abs(c_coarse - c_fine) <= 0.5 * max(c_coarse, c_fine)


class TestDivergenceFree:
    def test_b_stays_divergence_free(self, basis_k1):
        rng = np.random.default_rng(103)
        u = ref.SteadyField(cb.SpectralField(basis_k1, rng.standard_normal(len(basis_k1))))
        b0 = cb.SpectralField(basis_k1, rng.standard_normal(len(basis_k1)))
        _, fields, _ = ref.induction_steps(u, b0, 0.0, 0.3, 0.01, 1.0, 4)
        points = rng.uniform(0, 2 * np.pi, (50, 2))
        for f in fields[:: len(fields) // 4]:
            grads = ref.synthesize_gradient(basis_k1, f.coefficients, points)
            traces = np.trace(grads, axis1=1, axis2=2)
            assert np.max(np.abs(traces)) <= 1e-10 * max(1.0, np.abs(f.coefficients).sum())
