import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmhd import basis as cb
from capmhd import energy as ce
from capmhd import galerkin as cg
from capmhd import interface as ci
from capmhd.config import RunConfig
from capmhd.errors import (
    MeshInvariantError,
    NonConvergenceError,
    NumericsError,
    WindowFailureError,
)
from capmhd.flowmap import SpectralTrajectory, integrate_positions

import reference as ref
from conftest import (
    CENTER_2D,
    circle_first_variation,
    reference_config,
    single_phase_decay_config,
    smooth_phi_2d,
)


def make_state(basis, u_coeffs=None, b_coeffs=None, params=None, resolution=64):
    params = params or cg.FluidParams(0.1, 0.1, 1.0, 0.0)
    mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), resolution)
    u = cb.SpectralField(basis, u_coeffs if u_coeffs is not None else np.zeros(len(basis)))
    b = cb.SpectralField(basis, b_coeffs if b_coeffs is not None else np.zeros(len(basis)))
    return cg.GalerkinState(0.0, u, b, mesh, params)


class TestFluidParams:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma > 0"):
            cg.FluidParams(0.1, 0.1, 0.0, 0.0)

    def test_two_phase_flag(self):
        assert cg.FluidParams(0.2, 0.1, 1.0, 0.0).two_phase
        assert not cg.FluidParams(0.1, 0.1, 1.0, 0.0).two_phase

    def test_viscosity_blend(self):
        params = cg.FluidParams(0.3, 0.1, 1.0, 0.0)
        assert params.viscosity(1.0) == pytest.approx(0.3)
        assert params.viscosity(0.0) == pytest.approx(0.1)
        np.testing.assert_allclose(params.viscosity(np.array([0, 1])), [0.1, 0.3])

    def test_negative_viscosity_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cg.FluidParams(-0.1, 0.1, 1.0, 0.0)

    @pytest.mark.parametrize(
        "values,message",
        [
            ((0.1, -0.25, 1.0, 0.0), "got nu_plus=0.1, nu_minus=-0.25"),
            ((0.1, 0.1, -2.0, 0.0), "got -2.0"),
            ((0.1, 0.1, 1.0, -0.5), "got -0.5"),
        ],
        ids=["viscosity", "sigma", "kappa"],
    )
    def test_messages_name_the_offending_value(self, values, message):
        with pytest.raises(ValueError, match=message):
            cg.FluidParams(*values)


class TestApplyN:
    def test_zero_state_zero_forcing(self, basis_2d):
        state = make_state(basis_2d)
        assert np.all(cg.apply_N(state, 8) == 0.0)

    def test_pure_curvature_against_circle_oracle(self, basis_2d):
        # u = B = 0, kappa = 1: N reduces to the capillary pairing, checked
        # against the dense closed-form circle oracle mode by mode
        params = cg.FluidParams(0.1, 0.1, 1.0, 1.0)
        state = make_state(basis_2d, params=params, resolution=256)
        forcing = cg.apply_N(state, 8)
        for j in (0, 5, 11):
            coeffs = np.zeros(len(basis_2d))
            coeffs[j] = 1.0
            mode = cb.SpectralField(basis_2d, coeffs)

            def phi(points, m=mode):
                grads = ref.synthesize_gradient(basis_2d, m.coefficients, points)
                return m.evaluate(points), grads

            exact = circle_first_variation(CENTER_2D, 1.0, phi)
            assert forcing[j] == pytest.approx(exact, abs=1e-3 * max(1.0, abs(exact)))

    def test_single_mode_stokes_damping(self, basis_2d):
        # nu+ = nu-: the viscous term on one mode is -nu |k|^2 c exactly
        nu = 0.3
        params = cg.FluidParams(nu, nu, 1.0, 0.0)
        j = 5
        coeffs = np.zeros(len(basis_2d))
        coeffs[j] = 0.8
        state = make_state(basis_2d, u_coeffs=coeffs, params=params)
        forcing = cg.apply_N(state, 8)
        expected = -nu * basis_2d.eigenvalues[j] * coeffs[j]
        assert forcing[j] == pytest.approx(expected, abs=1e-8)

    def test_respects_frozen_bound(self, basis_2d):
        rng = np.random.default_rng(107)
        params = cg.FluidParams(0.2, 0.1, 1.0, 0.1)
        state = make_state(
            basis_2d,
            u_coeffs=0.5 * rng.standard_normal(len(basis_2d)),
            b_coeffs=0.5 * rng.standard_normal(len(basis_2d)),
            params=params,
            resolution=256,
        )
        chi = ci.point_in_mesh(state.mesh, basis_2d.quadrature(8).points)
        forcing = cg.apply_N(state, 8, chi_values=chi)
        bracket = cg.n_bound_bracket(state.u.norm(), state.B.norm(), state.bv_norm())
        assert np.linalg.norm(forcing) <= cg.N_BOUND_COEFF * bracket


    def test_matches_quadrature_rule_reference(self, basis_2d):
        rng = np.random.default_rng(109)
        state = make_state(
            basis_2d,
            u_coeffs=0.5 * rng.standard_normal(len(basis_2d)),
            b_coeffs=0.5 * rng.standard_normal(len(basis_2d)),
            params=cg.FluidParams(0.2, 0.1, 1.0, 0.1),
        )
        chi = ci.point_in_mesh(state.mesh, basis_2d.quadrature(8).points)
        got = cg.apply_N(state, 8, chi_values=chi)
        want = _apply_N_reference(state, 8)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("evaluate", [cg.apply_N, ce.viscous_dissipation_rate])
    def test_indicator_needed_only_when_the_viscosities_differ(self, basis_2d, evaluate):
        # FluidParams.viscosity decides: a two-phase state without chi is an
        # error, and a single-phase one gives what any explicit chi gives
        rng = np.random.default_rng(131)
        u_coeffs = 0.5 * rng.standard_normal(len(basis_2d))
        two = make_state(basis_2d, u_coeffs=u_coeffs, params=cg.FluidParams(0.2, 0.1, 1.0, 0.1))
        with pytest.raises(ValueError, match="chi_values required"):
            evaluate(two, 8)
        one = make_state(basis_2d, u_coeffs=u_coeffs, params=cg.FluidParams(0.2, 0.2, 1.0, 0.1))
        chi = ci.point_in_mesh(one.mesh, basis_2d.quadrature(8).points)
        omitted = np.asarray(evaluate(one, 8))
        assert omitted.tobytes() == np.asarray(evaluate(one, 8, chi_values=chi)).tobytes()


def _apply_N_reference(state, order):
    """apply_N from the grid of ``quadrature_rule`` and field samples taken
    from the reference trig tables, with no Quadrature object.  The pairings
    take the same order as the solver's: node-tensor moments against the
    derivative table, then the contraction with e_j and k_j per mode."""
    basis = state.u.basis
    d = basis.dimension
    points, weight = cb.quadrature_rule(d, order)
    dph = basis.phase_derivatives(points)

    def pairing(tensors):
        moments = (tensors.reshape(-1, d * d).T @ dph).reshape(d, d, -1)
        contracted = np.einsum("ni,iln,nl->n", basis.polarizations, moments, basis.wavevectors)
        return weight * basis.normalizations * contracted

    u_values = ref.synthesize(basis, state.u.coefficients, points)
    b_values = ref.synthesize(basis, state.B.coefficients, points)
    result = pairing(u_values[:, :, None] * u_values[:, None, :])
    result -= pairing(b_values[:, :, None] * b_values[:, None, :])
    grads = ref.synthesize_gradient(basis, state.u.coefficients, points)
    du = 0.5 * (grads + np.swapaxes(grads, 1, 2))
    nu = state.params.viscosity(ci.point_in_mesh(state.mesh, points))
    result -= pairing(2.0 * nu[:, None, None] * du)
    result += state.params.kappa * ci.curvature_pairing_modes(state.mesh, basis)
    return result


class TestApplyK:
    def test_zero_forcing_constant_trajectory(self, basis_2d):
        states = [make_state(basis_2d) for _ in range(3)]
        for i, s in enumerate(states):
            s.t = 0.1 * i
            s.mesh.t = 0.1 * i
        anchor = np.zeros(len(basis_2d))
        traj = np.zeros((3, len(basis_2d)))
        out, n_values = cg.apply_K(traj, anchor, states, 8)
        assert np.all(out == 0.0)
        assert np.all(n_values == 0.0)

    def test_single_substep_is_trapezoid(self, basis_2d):
        # one interval with known endpoint forcings: anchor + dt (N0 + N1)/2
        params = cg.FluidParams(0.3, 0.3, 1.0, 0.0)
        j = 2
        c0 = np.zeros(len(basis_2d)); c0[j] = 1.0
        c1 = np.zeros(len(basis_2d)); c1[j] = 0.5
        mesh0 = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 64)
        mesh1 = ci.InterfaceMesh(mesh0.vertices.copy(), mesh0.elements.copy(), t=0.25)
        s0 = cg.GalerkinState(0.0, cb.SpectralField(basis_2d, c0),
                              cb.SpectralField(basis_2d, np.zeros(len(basis_2d))), mesh0, params)
        s1 = cg.GalerkinState(0.25, cb.SpectralField(basis_2d, c1),
                              cb.SpectralField(basis_2d, np.zeros(len(basis_2d))), mesh1, params)
        traj = np.stack([c0, c1])
        out, n_values = cg.apply_K(traj, c0, [s0, s1], 8)
        np.testing.assert_array_equal(out[0], c0)
        np.testing.assert_allclose(
            out[1], c0 + 0.25 * 0.5 * (n_values[0] + n_values[1]), atol=1e-15
        )

    def test_anchor_is_exact(self, basis_2d):
        rng = np.random.default_rng(109)
        anchor = rng.standard_normal(len(basis_2d))
        states = []
        for i in range(3):
            mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 64)
            mesh.t = 0.05 * i
            states.append(
                cg.GalerkinState(
                    0.05 * i,
                    cb.SpectralField(basis_2d, anchor),
                    cb.SpectralField(basis_2d, np.zeros(len(basis_2d))),
                    mesh,
                    cg.FluidParams(0.1, 0.1, 1.0, 0.0),
                )
            )
        traj = np.tile(anchor, (3, 1))
        out, _ = cg.apply_K(traj, anchor, states, 8)
        np.testing.assert_array_equal(out[0], anchor)

    def test_handed_anchor_forcing_replaces_the_node_0_call(self, monkeypatch, basis_2d):
        rng = np.random.default_rng(131)
        states = []
        for i in range(3):
            mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 64)
            mesh.t = 0.05 * i
            states.append(cg.GalerkinState(
                0.05 * i,
                cb.SpectralField(basis_2d, 0.3 * rng.standard_normal(len(basis_2d))),
                cb.SpectralField(basis_2d, 0.2 * rng.standard_normal(len(basis_2d))),
                mesh, cg.FluidParams(0.1, 0.1, 1.0, 0.1),
            ))
        traj = np.stack([st.u.coefficients for st in states])
        want, want_n = cg.apply_K(traj, traj[0], states, 8)
        real = cg.apply_N
        calls = []

        def counted(state, *args, **kwargs):
            calls.append(state.t)
            return real(state, *args, **kwargs)

        monkeypatch.setattr(cg, "apply_N", counted)
        got, got_n = cg.apply_K(
            traj, traj[0], states, 8, anchor_forcing=real(states[0], 8)
        )
        assert calls == [0.05, 0.1]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_n, want_n)

    def test_contraction_for_small_data(self, basis_2d):
        # small anchor, kappa = 0, short window: K contracts trajectories
        params = cg.FluidParams(0.1, 0.1, 1.0, 0.0)
        rng = np.random.default_rng(113)
        anchor = 1e-2 * rng.standard_normal(len(basis_2d))
        delta, n_nodes = 1e-2, 3
        t_grid = np.linspace(0.0, delta, n_nodes)
        mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 64)

        def sweep(traj):
            states = []
            for i, t in enumerate(t_grid):
                m = ci.InterfaceMesh(mesh.vertices.copy(), mesh.elements.copy(), t=t)
                states.append(
                    cg.GalerkinState(
                        t,
                        cb.SpectralField(basis_2d, traj[i]),
                        cb.SpectralField(basis_2d, np.zeros(len(basis_2d))),
                        m,
                        params,
                    )
                )
            return cg.apply_K(traj, anchor, states, 8)[0]

        traj1 = np.tile(anchor, (n_nodes, 1))
        traj2 = traj1 + 1e-3 * rng.standard_normal(traj1.shape)
        k1, k2 = sweep(traj1), sweep(traj2)
        num = np.max(np.linalg.norm(k1 - k2, axis=1))
        den = np.max(np.linalg.norm(traj1 - traj2, axis=1))
        assert num / den < 1.0


class TestFixedPointWindow:
    def test_zero_data_converges_first_sweep(self, basis_2d):
        anchor = make_state(basis_2d)
        window = cg.fixed_point_window(
            anchor, 0.1, 4, 1e-8, 10,
            order=8, h_flow=0.01, dt_b=0.025,
            phase=ci.disk(CENTER_2D, 1.0),
        )
        assert window.iterations == 1
        assert np.all(window.u_trajectory == 0.0)

    def test_damped_sweeps_keep_the_anchor_row(self, basis_2d):
        # every sweep takes K(u) as the next iterate: the window's first node
        # must stay on the anchor bit for bit through all of them
        rng = np.random.default_rng(127)
        anchor = make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)))
        window = cg.fixed_point_window(
            anchor, 0.05, 4, 1e-8, 80,
            order=8, h_flow=0.01, dt_b=0.0125,
        )
        assert window.iterations > 1
        assert window.u_trajectory[0].tobytes() == anchor.u.coefficients.tobytes()

    def test_first_sweep_starts_from_euler_predictor(self, monkeypatch, basis_2d):
        rng = np.random.default_rng(151)
        params = cg.FluidParams(0.2, 0.1, 1.0, 0.1)
        anchor = make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)),
                            params=params)
        real = cg.apply_K
        iterates = []

        def capture(u_trajectory, *args, **kwargs):
            iterates.append(u_trajectory.copy())
            return real(u_trajectory, *args, **kwargs)

        monkeypatch.setattr(cg, "apply_K", capture)
        window = cg.fixed_point_window(
            anchor, 0.05, 4, 1e-8, 30,
            order=8, h_flow=0.01, dt_b=0.0125,
            phase=ci.disk(CENTER_2D, 1.0),
        )
        # the predictor's indicator is the anchor mesh's classification
        chi = ci.point_in_mesh(anchor.mesh, basis_2d.quadrature(8).points)
        forcing = cg.apply_N(anchor, 8, chi_values=chi)
        t_grid = window.t_grid
        expected = anchor.u.coefficients + (t_grid - t_grid[0])[:, None] * forcing
        np.testing.assert_array_equal(iterates[0], expected)
        assert iterates[0][0].tobytes() == anchor.u.coefficients.tobytes()

    def test_non_finite_predictor_is_a_window_failure(self, monkeypatch, basis_2d):
        # the first apply_N call of a window is the predictor's
        real = cg.curvature_pairing_modes
        calls = []

        def nan_once(mesh, basis):
            calls.append(mesh.t)
            values = real(mesh, basis)
            return np.full_like(values, np.nan) if len(calls) == 1 else values

        real_k = cg.apply_K
        sweeps = []

        def counted(*args, **kwargs):
            sweeps.append(1)
            return real_k(*args, **kwargs)

        monkeypatch.setattr(cg, "curvature_pairing_modes", nan_once)
        monkeypatch.setattr(cg, "apply_K", counted)
        anchor = make_state(basis_2d, u_coeffs=np.full(len(basis_2d), 0.1),
                            params=cg.FluidParams(0.2, 0.1, 1.0, 0.1))
        with pytest.raises(WindowFailureError, match="sweep 1") as err:
            cg.fixed_point_window(
                anchor, 0.05, 4, 1e-8, 5,
                order=8, h_flow=0.01, dt_b=0.0125,
                phase=ci.disk(CENTER_2D, 1.0),
            )
        assert isinstance(err.value.__cause__, NumericsError)
        assert err.value.residual_history == []
        assert sweeps == []

    def test_single_mode_matches_stokes_decay(self, basis_2d):
        nu = 0.4
        params = cg.FluidParams(nu, nu, 1.0, 0.0)
        j = 2
        coeffs = np.zeros(len(basis_2d))
        coeffs[j] = 1.0
        anchor = make_state(basis_2d, u_coeffs=coeffs, params=params)
        delta = 0.1
        window = cg.fixed_point_window(
            anchor, delta, 8, 1e-10, 30,
            order=8, h_flow=0.01, dt_b=delta / 8,
            phase=ci.disk(CENTER_2D, 1.0),
        )
        lam = basis_2d.eigenvalues[j]
        exact = np.exp(-nu * lam * delta)
        assert window.u_trajectory[-1, j] == pytest.approx(exact, abs=1e-4)

    def test_certificate_on_accepted_window(self, basis_2d):
        rng = np.random.default_rng(127)
        params = cg.FluidParams(0.2, 0.2, 1.0, 0.0)
        anchor = make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)),
                            params=params)
        tol = 1e-8
        window = cg.fixed_point_window(
            anchor, 0.05, 4, tol, 30,
            order=8, h_flow=0.01, dt_b=0.0125,
            phase=ci.disk(CENTER_2D, 1.0),
        )
        assert window.residual_history[-1] < tol
        # residuals strictly decrease after the first sweep on accepted windows
        history = window.residual_history
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_failure_raised_when_budget_too_small(self, basis_2d):
        rng = np.random.default_rng(131)
        params = cg.FluidParams(0.2, 0.2, 1.0, 0.0)
        anchor = make_state(basis_2d, u_coeffs=0.5 * rng.standard_normal(len(basis_2d)),
                            params=params)
        with pytest.raises(WindowFailureError) as err:
            cg.fixed_point_window(
                anchor, 2.0, 4, 1e-8, 3,
                order=8, h_flow=0.01, dt_b=0.5,
                phase=ci.disk(CENTER_2D, 1.0),
            )
        assert len(err.value.residual_history) == 3

    def test_blown_up_window_reported_as_failure(self, basis_2d):
        # an absurd window destroys the advected mesh mid-sweep; the caller's
        # halving is the remedy, so this surfaces as a window failure
        rng = np.random.default_rng(137)
        params = cg.FluidParams(0.2, 0.2, 1.0, 0.0)
        anchor = make_state(basis_2d, u_coeffs=rng.standard_normal(len(basis_2d)),
                            params=params)
        with pytest.raises(WindowFailureError, match="sweep"):
            cg.fixed_point_window(
                anchor, 10.0, 4, 1e-8, 3,
                order=8, h_flow=0.05, dt_b=2.5,
                phase=ci.disk(CENTER_2D, 1.0),
            )


def _full_backtrace_indicator(points, t_grid, sampler, history, phase, h_flow):
    """Reference indicator: every node's points back-traced to t = 0."""
    t_start = t_grid[0]
    blocks = [points]
    for t in t_grid[1:]:
        blocks.append(integrate_positions(points, sampler, t, t_start, h_flow))
    stacked = np.concatenate(blocks)
    if t_start > 0.0:
        stacked = integrate_positions(stacked, history, t_start, 0.0, h_flow)
    m = len(points)
    return [phase.contains(stacked[i * m : (i + 1) * m]) for i in range(len(t_grid))]


def _run_checking_indicator(monkeypatch, config):
    """Run, comparing every window indicator with the full back-trace.

    Returns the run and, summed over the sweeps, the number of points that
    the windows took from a trace and that they left to the window-start
    mesh, and the number of sweeps that reused an earlier sweep's trace.
    """
    real = cg._WindowIndicator.__call__
    counts = {"band": 0, "mesh": 0, "reused": 0}

    def checked(indicator, sampler):
        traces = indicator.traces
        chi = real(indicator, sampler)
        t_grid = indicator.t_grid
        expected = _full_backtrace_indicator(
            indicator.points, t_grid, sampler, indicator.history, indicator.phase,
            indicator.h_flow,
        )
        for node, (got, want) in enumerate(zip(chi, expected)):
            np.testing.assert_array_equal(got, want, err_msg=f"t={t_grid[node]}")
        speed = np.max(np.abs(sampler.coefficients) @ sampler.basis.normalizations)
        moving = indicator.distance <= cg.INDICATOR_BAND + (t_grid[-1] - t_grid[0]) * speed
        counts["band"] += int(moving.sum())
        counts["mesh"] += int((~moving).sum())
        counts["reused"] += bool(moving.any()) and indicator.traces == traces
        return chi

    monkeypatch.setattr(cg._WindowIndicator, "__call__", checked)
    return cg.run(config), counts


def _first_iterate(monkeypatch):
    """Capture the iterate of every apply_K call; the first is the start."""
    real = cg.apply_K
    iterates = []

    def capture(u_trajectory, *args, **kwargs):
        iterates.append(u_trajectory.copy())
        return real(u_trajectory, *args, **kwargs)

    monkeypatch.setattr(cg, "apply_K", capture)
    return iterates


def _euler_only(monkeypatch):
    """Run windows as if none had a predecessor: every start is Euler's."""
    real = cg.fixed_point_window

    def without_previous(*args, previous=None, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(cg, "fixed_point_window", without_previous)


class TestWindowStart:
    PARAMS = cg.FluidParams(0.2, 0.1, 1.0, 0.1)
    ARGS = dict(order=8, h_flow=0.01, dt_b=0.0125, phase=ci.disk(CENTER_2D, 1.0))

    @pytest.mark.parametrize("n_sub", [2, 4, 8])
    def test_extrapolation_integrates_a_polynomial_forcing_exactly(self, basis_2d, n_sub):
        # N of degree p = min(4, n_sub) in t is reproduced by its extrapolation,
        # so the start is the trapezoid integral of the true forcing
        rng = np.random.default_rng(173 + n_sub)
        degree = min(cg.EXTRAPOLATION_DEGREE, n_sub)
        powers = rng.standard_normal((degree + 1, len(basis_2d)))

        def forcing(t):
            return np.stack([(t - 0.4) ** k for k in range(degree + 1)], axis=-1) @ powers

        old_grid = 0.3 + np.linspace(0.0, 0.1, n_sub + 1)
        previous = cg.WindowSolve(old_grid, None, 1, [], N_values=forcing(old_grid))
        anchor = make_state(basis_2d, u_coeffs=rng.standard_normal(len(basis_2d)))
        for delta in (0.1, 0.05):
            t_grid = 0.4 + np.linspace(0.0, delta, n_sub + 1)
            got = cg.extrapolated_predictor(anchor, t_grid, previous)
            want = cg._trapezoid(anchor.u.coefficients, t_grid, forcing(t_grid))
            assert got[0].tobytes() == anchor.u.coefficients.tobytes()
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def _anchor(self, basis_2d):
        rng = np.random.default_rng(179)
        return make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)),
                          params=self.PARAMS)

    def _previous(self, basis_2d):
        return cg.fixed_point_window(self._anchor(basis_2d), 0.05, 4, 1e-8, 30, **self.ARGS)

    def _assert_euler_start(self, monkeypatch, basis_2d, anchor, previous, delta):
        iterates = _first_iterate(monkeypatch)
        window = cg.fixed_point_window(
            anchor, delta, 4, 1e-8, 30, previous=previous, **self.ARGS
        )
        chi = ci.point_in_mesh(anchor.mesh, basis_2d.quadrature(8).points)
        forcing = cg.apply_N(anchor, 8, chi_values=chi)
        assert window.start == "euler"
        assert iterates[0].tobytes() == cg.euler_predictor(
            anchor, window.t_grid, forcing
        ).tobytes()

    def test_first_window_starts_from_euler(self, monkeypatch, basis_2d):
        self._assert_euler_start(monkeypatch, basis_2d, self._anchor(basis_2d), None, 0.05)

    def test_longer_window_starts_from_euler(self, monkeypatch, basis_2d):
        previous = self._previous(basis_2d)
        self._assert_euler_start(monkeypatch, basis_2d, previous.states[-1], previous, 0.1)

    def test_indicator_flip_in_the_previous_window_starts_from_euler(
        self, monkeypatch, basis_2d
    ):
        previous = self._previous(basis_2d)
        rows = [row.copy() for row in previous.chi_cache]
        rows[1][0] = 1.0 - rows[1][0]
        flipped = dataclasses.replace(previous, chi_cache=rows)
        self._assert_euler_start(monkeypatch, basis_2d, previous.states[-1], flipped, 0.05)

    def test_same_or_shorter_window_extrapolates(self, monkeypatch, basis_2d):
        previous = self._previous(basis_2d)
        anchor = previous.states[-1]
        for delta in (0.05, 0.025):
            iterates = _first_iterate(monkeypatch)
            window = cg.fixed_point_window(
                anchor, delta, 4, 1e-8, 30, previous=previous, **self.ARGS
            )
            assert window.start == "extrapolated"
            assert iterates[0].tobytes() == cg.extrapolated_predictor(
                anchor, window.t_grid, previous
            ).tobytes()

    def test_previous_must_end_at_the_anchor(self, basis_2d):
        previous = self._previous(basis_2d)
        with pytest.raises(ValueError, match="end at the anchor"):
            cg.fixed_point_window(
                previous.states[0], 0.05, 4, 1e-8, 30, previous=previous, **self.ARGS
            )

    def test_node_0_forcing_is_computed_once(self, monkeypatch, basis_2d):
        # single phase, so the indicator row never changes: the Euler start
        # computes N(anchor) and every sweep reuses it; a window with a
        # predecessor takes it from the predecessor's last node
        rng = np.random.default_rng(181)
        anchor = make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)))
        real = cg.apply_N
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cg, "apply_N", counted)
        args = dict(order=8, h_flow=0.01, dt_b=0.0125)
        first = cg.fixed_point_window(anchor, 0.05, 4, 1e-8, 30, **args)
        assert first.iterations > 1
        assert len(calls) == 1 + 4 * first.iterations
        calls.clear()
        second = cg.fixed_point_window(
            first.states[-1], 0.05, 4, 1e-8, 30, previous=first, **args
        )
        assert len(calls) == 4 * second.iterations

    def test_node_0_forcing_is_computed_once_per_row(self, monkeypatch, basis_2d):
        # two phases at order 20 on a 16-gon: quadrature points between its
        # chords and the circle are in the band, so node 0's indicator row
        # differs between the mesh (Euler start) and the trace (sweeps), and
        # N(anchor) is computed again exactly when the row read changes
        rng = np.random.default_rng(191)
        anchor = make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)),
                            params=self.PARAMS, resolution=16)
        args = dict(self.ARGS, order=20)
        points = basis_2d.quadrature(20).points
        real_n, real_k = cg.apply_N, cg.apply_K
        times, rows = [], []

        def counted(state, *args, **kwargs):
            times.append(state.t)
            return real_n(state, *args, **kwargs)

        def recorded(u_trajectory, u_anchor, states, order, chi_values=None, **kwargs):
            rows.append(chi_values[0])
            return real_k(u_trajectory, u_anchor, states, order, chi_values=chi_values, **kwargs)

        def changes(read):
            return sum(not np.array_equal(a, b) for a, b in zip(read, read[1:]))

        monkeypatch.setattr(cg, "apply_N", counted)
        monkeypatch.setattr(cg, "apply_K", recorded)
        first = cg.fixed_point_window(anchor, 0.05, 4, 1e-8, 30, **args)
        read = [ci.point_in_mesh(anchor.mesh, points)] + rows
        assert first.start == "euler" and changes(read) > 0
        assert times.count(anchor.t) == 1 + changes(read)
        times.clear()
        rows.clear()
        second_anchor = first.states[-1]
        second = cg.fixed_point_window(second_anchor, 0.05, 4, 1e-8, 30, previous=first, **args)
        read = [first.chi_cache[-1]]
        if second.start == "euler":
            read.append(ci.point_in_mesh(second_anchor.mesh, points))
        read += rows
        assert changes(read) > 0
        assert times.count(second_anchor.t) == changes(read)


class _TranslatingWindow:
    """A window of the flow u = s (1, 0) along y = pi, from t = 0 to 0.3.

    Its points lie 1.2, 0 and 2 right of the unit disk's centre; the first
    is in the band, and its origin is 1.2 - s t right of the centre.
    ``indicator`` is the window's indicator, and ``flow(s)`` the iterate.
    """

    def __init__(self):
        self.basis = cb.make_basis(2, 1)
        self.mode = self.basis.index((0, 1), "cos", 0)
        anchor = make_state(self.basis, params=cg.FluidParams(0.2, 0.1, 1.0, 0.0),
                            resolution=256)
        points = np.asarray(CENTER_2D) + np.array([[1.2, 0.0], [0.0, 0.0], [2.0, 0.0]])
        t_grid = np.array([0.0, 0.15, 0.3])
        history = SpectralTrajectory(self.basis, [0.0], [self.coefficients(1.0)])
        self.indicator = cg._WindowIndicator(
            anchor, points, t_grid, history, ci.disk(CENTER_2D, 1.0), 0.01
        )

    def coefficients(self, speed):
        coefficients = np.zeros(len(self.basis))
        coefficients[self.mode] = speed / self.basis.normalizations[self.mode]
        return coefficients

    def flow(self, speed):
        flow = SpectralTrajectory(
            self.basis, self.indicator.t_grid, np.tile(self.coefficients(speed), (3, 1))
        )
        np.testing.assert_allclose(
            flow.velocity(0.0, self.indicator.points[:1]), [[speed, 0.0]], atol=1e-14
        )
        return flow


class TestWindowIndicator:
    def test_banded_matches_full_backtrace_2d(self, monkeypatch):
        config = reference_config(T=0.3)
        config.quadrature_order = 20  # puts quadrature points inside the band
        result, counts = _run_checking_indicator(monkeypatch, config)
        assert len(result.windows) == 3
        assert counts["band"] > 0 and counts["mesh"] > 0
        assert counts["reused"] > 0

    def test_band_points_follow_the_backtrace(self, basis_2d):
        # the chords of a 16-gon lie up to 0.019 inside the unit circle: a
        # point between a chord and the circle is in the region but outside
        # the polygon, and it lies in the band, so the back-trace decides it
        anchor = make_state(basis_2d, params=cg.FluidParams(0.2, 0.1, 1.0, 0.0), resolution=16)
        anchor.t = anchor.mesh.t = 0.2
        angle = np.pi / 16
        offsets = [[0.0, 0.0], [0.99 * np.cos(angle), 0.99 * np.sin(angle)], [2.0, 0.0]]
        points = np.asarray(CENTER_2D) + np.array(offsets)
        assert ci.point_in_mesh(anchor.mesh, points).tolist() == [1, 0, 0]
        still = SpectralTrajectory(basis_2d, [0.0, 0.3], np.zeros((2, len(basis_2d))))
        indicator = cg._WindowIndicator(
            anchor, points, np.array([0.2, 0.3]), still, ci.disk(CENTER_2D, 1.0), 0.01
        )
        chi = indicator(still)
        assert [node.tolist() for node in chi] == [[1, 1, 0], [1, 1, 0]]

    def test_points_the_window_carries_into_the_band_are_traced(self):
        # u = (1, 0) along y = pi: the point 1.2 right of the centre lies
        # 0.2 outside the unit disk, beyond the band but within the window's
        # reach, and is inside the region at the last node only
        window = _TranslatingWindow()
        chi = window.indicator(window.flow(1.0))
        assert [node.tolist() for node in chi] == [[0, 1, 0], [0, 1, 0], [1, 1, 0]]
        assert window.indicator.moving.tolist() == [True, False, False]
        assert window.indicator.traces == 1

    @settings(max_examples=20)
    @given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
    def test_coefficient_sum_bounds_the_speed(self, dimension, seed):
        # |trig| <= 1 and |e_j| = 1, so sum_j |c_j| n_j bounds |u| everywhere
        basis = cb.make_basis(dimension, 2)
        rng = np.random.default_rng(seed)
        coefficients = rng.standard_normal(len(basis)) * rng.uniform(0.0, 10.0, len(basis))
        points = np.concatenate([
            basis.quadrature(8).points, rng.uniform(0.0, 2 * np.pi, (200, dimension))
        ])
        speed = np.abs(coefficients) @ basis.normalizations
        u = basis.synthesize(coefficients, points)
        assert np.max(np.linalg.norm(u, axis=1)) <= speed

    @settings(max_examples=20)
    @given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
    def test_coefficient_sum_bounds_the_gradient(self, dimension, seed):
        # each mode's gradient is n_j trig'(k_j . x) e_j k_j^T, of operator
        # norm at most n_j |k_j|, so sum_j |c_j| n_j |k_j| bounds ||grad u||
        basis = cb.make_basis(dimension, 2)
        rng = np.random.default_rng(seed)
        coefficients = rng.standard_normal(len(basis)) * rng.uniform(0.0, 10.0, len(basis))
        points = np.concatenate([
            basis.quadrature(8).points, rng.uniform(0.0, 2 * np.pi, (200, dimension))
        ])
        bound = cg._row_bound(coefficients, cg._gradient_weights(basis))
        grads = ref.synthesize_gradient(basis, coefficients, points)
        assert np.max(np.linalg.norm(grads, ord=2, axis=(1, 2))) <= bound

    def test_banded_matches_full_backtrace_3d(self, monkeypatch):
        config = RunConfig.from_dict({
            "dimension": 3, "kmax": 1, "T": 0.04,
            "initial_velocity": {"type": "taylor_green", "amplitude": 0.25},
            "initial_magnetic": {"type": "single_mode", "wavevector": [0, 1, 0],
                                 "phase": "sin", "polarization": 1, "amplitude": 0.3},
            "phase": {"shape": "ball", "center": [np.pi, np.pi, np.pi], "radius": 1.0},
            "nu_plus": 0.2, "nu_minus": 0.1, "sigma": 1.0, "kappa": 0.05,
            "solver": {"delta": 0.02, "n_sub": 4, "mesh_resolution": 2, "tol": 1e-8,
                       "quadrature_order": 8},
        })
        result, counts = _run_checking_indicator(monkeypatch, config)
        assert len(result.windows) == 2
        assert counts["band"] > 0 and counts["mesh"] > 0
        assert counts["reused"] > 0


def _counting_traces(monkeypatch):
    """Count the window indicator's integrate_positions calls."""
    real = cg.integrate_positions
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(cg, "integrate_positions", counted)
    return calls


class TestIndicatorReuse:
    def test_unchanged_iterate_reuses_without_tracing(self, monkeypatch):
        window = _TranslatingWindow()
        flow = window.flow(1.0)
        chi = window.indicator(flow)
        calls = _counting_traces(monkeypatch)
        again = window.indicator(flow)
        assert window.indicator.traces == 1 and calls == []
        for got, want in zip(again, chi):
            np.testing.assert_array_equal(got, want)

    def test_nearby_iterate_reuses_the_flags_its_own_trace_gives(self, monkeypatch):
        # eps = 1e-3 moves no origin by more than e^0.3 * 3e-4, while the
        # origins clear the circle by 0.2, 0.05 and 0.1
        window = _TranslatingWindow()
        window.indicator(window.flow(1.0))
        clearance = window.indicator.clearance
        np.testing.assert_allclose(clearance[:, 0], [0.2, 0.05, 0.1], atol=1e-12)
        nearby = window.flow(1.001)
        fresh = _TranslatingWindow().indicator(nearby)
        calls = _counting_traces(monkeypatch)
        chi = window.indicator(nearby)
        assert window.indicator.traces == 1 and calls == []
        for got, want in zip(chi, fresh):
            np.testing.assert_array_equal(got, want)

    def test_origin_inside_the_bound_forces_a_retrace(self, monkeypatch):
        # at speed 1.5 the reach at t = 0.15 is e^0.225 * 0.075 against a
        # clearance of 0.05, and the origin does cross: 0.025 inside the disk
        window = _TranslatingWindow()
        window.indicator(window.flow(1.0))
        faster = window.flow(1.5)
        calls = _counting_traces(monkeypatch)
        chi = window.indicator(faster)
        assert window.indicator.traces == 2 and len(calls) == 4
        assert [node.tolist() for node in chi] == [[0, 1, 0], [1, 1, 0], [1, 1, 0]]
        assert window.indicator.inside.tolist() == [[0], [1], [1]]

    def test_changed_moving_mask_forces_a_retrace(self, monkeypatch):
        window = _TranslatingWindow()
        flow = window.flow(1.0)
        window.indicator(flow)
        calls = _counting_traces(monkeypatch)
        window.indicator.distance[2] = 0.0
        chi = window.indicator(flow)
        assert window.indicator.traces == 2 and len(calls) == 4
        assert window.indicator.moving.tolist() == [True, False, True]
        assert [node.tolist() for node in chi] == [[0, 1, 0], [0, 1, 0], [1, 1, 0]]

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.sampled_from([0.01, 0.037]),
        st.floats(0.05, 0.3),
        st.integers(0, 2**32 - 1),
    )
    def test_backtraces_obey_the_stability_bound(self, dimension, h, span, seed):
        # |X_u - X_v| <= tau eps e^{tau L} holds for the RK4 trace itself
        basis = cb.make_basis(dimension, 2)
        rng = np.random.default_rng(seed)
        times = np.linspace(0.0, 0.3, 4)
        u = rng.standard_normal((4, len(basis))) * rng.uniform(0.0, 0.5)
        v = u + rng.standard_normal((4, len(basis))) * rng.uniform(0.0, 0.05)
        points = rng.uniform(0.0, 2 * np.pi, (16, dimension))
        x_u = integrate_positions(points, SpectralTrajectory(basis, times, u), span, 0.0, h)
        x_v = integrate_positions(points, SpectralTrajectory(basis, times, v), span, 0.0, h)
        eps = cg._row_bound(v - u, basis.normalizations)
        weights = cg._gradient_weights(basis)
        lipschitz = max(cg._row_bound(u, weights), cg._row_bound(v, weights))
        bound = span * eps * np.exp(span * lipschitz)
        assert np.max(np.linalg.norm(x_u - x_v, axis=1)) <= bound + 1e-12


def _nan_first_sweep(monkeypatch):
    """Make the first apply_K call return a NaN image, so the iterate goes NaN."""
    real = cg.apply_K
    calls = []

    def nan_once(*args, **kwargs):
        calls.append(1)
        k_coeffs, n_values = real(*args, **kwargs)
        return (np.full_like(k_coeffs, np.nan) if len(calls) == 1 else k_coeffs), n_values

    monkeypatch.setattr(cg, "apply_K", nan_once)


class TestRun:
    def test_zero_horizon_initial_state_only(self):
        config = reference_config(T=0.0)
        result = cg.run(config)
        assert len(result.states) == 1
        assert len(result.ledger) == 1
        row = result.ledger.rows[0]
        # row 0 is the E0 decomposition: kinetic + magnetic + tension = E0
        assert row[1] + row[2] + row[3] == pytest.approx(result.E0, rel=1e-14)

    def test_pure_phase_mhd_decay_closed_form(self):
        # kappa = 0, equal viscosities, u and B on one shared mode: the
        # aligned transport pairing cancels identically, so each field decays
        # at its own linear rate
        nu, sigma = 0.3, 0.8
        mode = {"wavevector": [1, 0], "phase": "cos", "polarization": 0}
        config = single_phase_decay_config(
            initial_velocity={"type": "single_mode", "amplitude": 1.0, **mode},
            initial_magnetic={"type": "single_mode", "amplitude": 0.5, **mode},
            nu_plus=nu, nu_minus=nu, sigma=sigma,
        )
        config.dt_b = 1e-3  # first-order magnetic stepping needs a fine step here
        result = cg.run(config)
        final = result.final_state
        assert final.u.norm() == pytest.approx(np.exp(-nu * 0.5), rel=1e-3)
        assert final.B.norm() == pytest.approx(0.5 * np.exp(-sigma * 0.5), rel=1e-3)

    def test_two_phase_reference_run(self):
        from capmhd.energy import check_inequality

        result = cg.run(reference_config())
        assert result.final_state.t == pytest.approx(0.5)
        report = check_inequality(result.ledger, result.tau_E)
        assert report.passed
        # uniform bound: sup_t ||u|| <= sqrt(2 E0) + tau_E
        kinetic = result.ledger.column("kinetic")
        assert np.max(np.sqrt(2 * kinetic)) <= np.sqrt(2 * result.E0) + result.tau_E

    def test_anchor_chaining_is_exact(self):
        result = cg.run(reference_config(T=0.2))
        for prev, nxt in zip(result.windows, result.windows[1:]):
            np.testing.assert_array_equal(prev.u_trajectory[-1], nxt.u_trajectory[0])

    def test_accepted_meshes_share_the_initial_connectivity(self):
        result = cg.run(reference_config(T=0.2))
        elements = result.states[0].mesh.elements
        meshes = [st.mesh for window in result.windows for st in window.states]
        assert len(meshes) > 1
        assert all(mesh.elements is elements for mesh in meshes)
        with pytest.raises(ValueError, match="read-only"):
            elements[0, 0] = 1

    def test_window_failure_triggers_halving_then_success(self):
        # a sweep budget of 3 fails at the policy window, halves, and succeeds
        # (from the Euler predictor the policy window converges in 4 sweeps)
        config = reference_config(T=0.2)
        config.max_iter = 3
        result = cg.run(config)
        assert result.window_failures >= 1
        assert result.final_state.t == pytest.approx(0.2)
        # only delta halves, and the halved windows converge within the
        # budget; no attempt records a damping factor
        assert result.window_failures == 2
        assert len(result.windows) == 8
        assert result.window_failures == len(result.attempts) - len(result.windows)
        assert sum(not a["accepted"] for a in result.attempts) == result.window_failures
        assert not any("omega" in a for a in result.attempts)

    def test_non_finite_forcing_halves_the_window(self, monkeypatch):
        # the capillary term of the first apply_N call, the first window's
        # predictor, comes back NaN: the window fails, halves, and the run
        # carries on to T
        real = cg.curvature_pairing_modes
        calls = []

        def nan_once(mesh, basis):
            calls.append(mesh.t)
            values = real(mesh, basis)
            return np.full_like(values, np.nan) if len(calls) == 1 else values

        monkeypatch.setattr(cg, "curvature_pairing_modes", nan_once)
        result = cg.run(reference_config(T=0.1))
        assert result.window_failures == 1
        first = result.windows[0].t_grid
        assert first[-1] - first[0] == pytest.approx(result.delta_initial / 2)
        assert result.final_state.t == pytest.approx(0.1)
        failed, halved = result.attempts[:2]
        assert (failed["accepted"], failed["sweeps"], failed["error"]) == (
            False, 0, "NumericsError"
        )
        assert halved["accepted"] and halved["delta"] == failed["delta"] / 2

    def test_two_phase_window_needs_the_phase(self, basis_2d):
        anchor = make_state(basis_2d, params=cg.FluidParams(0.2, 0.1, 1.0, 0.0))
        with pytest.raises(ValueError, match="phase region"):
            cg.fixed_point_window(
                anchor, 0.05, 4, 1e-8, 5, order=8, h_flow=0.01, dt_b=0.0125
            )

    def test_window_records_its_indicator_traces(self, basis_2d):
        # order 20 puts points in the band of the unit disk: the window
        # traces them once and reuses that trace in its later sweeps, and a
        # failed window reports its count as it reports its residuals
        anchor = make_state(basis_2d, u_coeffs=np.full(len(basis_2d), 0.05),
                            params=cg.FluidParams(0.2, 0.1, 1.0, 0.1))
        args = dict(order=20, h_flow=0.01, dt_b=0.0125, phase=ci.disk(CENTER_2D, 1.0))
        window = cg.fixed_point_window(anchor, 0.05, 4, 1e-8, 20, **args)
        assert window.iterations > 1
        assert window.indicator_traces == 1
        with pytest.raises(WindowFailureError) as err:
            cg.fixed_point_window(anchor, 0.05, 4, 1e-8, 2, **args)
        assert err.value.indicator_traces == 1
        assert len(err.value.residual_history) == 2

    def test_non_finite_iterate_is_a_numerics_failure(self, monkeypatch, basis_2d):
        _nan_first_sweep(monkeypatch)
        anchor = make_state(basis_2d, u_coeffs=np.full(len(basis_2d), 0.1))
        with pytest.raises(WindowFailureError, match="sweep 2") as err:
            cg.fixed_point_window(
                anchor, 0.05, 4, 1e-8, 5,
                order=8, h_flow=0.01, dt_b=0.0125,
                phase=ci.disk(CENTER_2D, 1.0),
            )
        assert isinstance(err.value.__cause__, NumericsError)

    def test_non_finite_iterate_halves_the_window(self, monkeypatch):
        _nan_first_sweep(monkeypatch)
        result = cg.run(reference_config(T=0.1))
        assert result.window_failures == 1
        first = result.windows[0].t_grid
        assert first[-1] - first[0] == pytest.approx(result.delta_initial / 2)
        assert result.final_state.t == pytest.approx(0.1)

    def test_predictor_takes_fewer_sweeps_than_the_tiled_start(self, monkeypatch):
        # Euler-only against tiled, both with every window started alike;
        # then the extrapolated start against Euler-only
        config = reference_config(T=0.2)
        extrapolated = cg.run(config)
        _euler_only(monkeypatch)
        predicted = cg.run(config)

        def tiled_start(anchor, t_grid, forcing):
            return np.tile(anchor.u.coefficients, (len(t_grid), 1))

        monkeypatch.setattr(cg, "euler_predictor", tiled_start)
        tiled = cg.run(config)
        assert predicted.window_failures == tiled.window_failures == 0
        assert predicted.sweeps < tiled.sweeps
        for new, old in zip(predicted.windows, tiled.windows):
            assert new.iterations < old.iterations
            assert new.residual_history[0] < old.residual_history[0]
        assert extrapolated.window_failures == 0
        assert extrapolated.sweeps < predicted.sweeps

    def test_extrapolated_start_never_costs_a_sweep(self, monkeypatch):
        # the reference at T = 0.5: every window after the first extrapolates,
        # none takes more sweeps than from Euler, and the total falls
        config = reference_config()
        extrapolated = cg.run(config)
        _euler_only(monkeypatch)
        euler = cg.run(config)
        assert extrapolated.window_failures == euler.window_failures == 0
        starts = [a["start"] for a in extrapolated.attempts]
        assert starts == ["euler"] + ["extrapolated"] * (len(starts) - 1)
        assert {a["start"] for a in euler.attempts} == {"euler"}
        assert len(extrapolated.windows) == len(euler.windows)
        for new, old in zip(extrapolated.windows, euler.windows):
            assert new.iterations <= old.iterations
        assert extrapolated.sweeps < euler.sweeps

    def test_crossed_end_mesh_halves_the_window(self, monkeypatch):
        # the accepted end mesh is checked once per window; a crossing found
        # there fails the window like any other broken dependent
        real = ci.check_simple
        calls = []

        def crossed_once(mesh):
            calls.append(mesh.t)
            if len(calls) == 1:
                raise MeshInvariantError("2D mesh crosses itself (edges 0 and 2)")
            return real(mesh)

        monkeypatch.setattr(cg, "check_simple", crossed_once)
        result = cg.run(reference_config(T=0.1))
        assert result.window_failures == 1
        assert len(calls) == 1 + len(result.windows)
        assert result.final_state.t == pytest.approx(0.1)

    def test_hard_nonconvergence_below_delta_floor(self):
        # one sweep from the Euler predictor converges once delta is near
        # 2e-4, so the floor sits above that
        config = reference_config(T=0.1)
        config.max_iter = 1
        config.delta_min = 0.02
        with pytest.raises(NonConvergenceError) as err:
            cg.run(config)
        assert "t" in err.value.diagnostics

    def test_three_dimensional_smoke(self):
        from capmhd.config import RunConfig

        config = RunConfig.from_dict({
            "dimension": 3, "kmax": 1, "T": 0.05,
            "initial_velocity": {"type": "single_mode", "wavevector": [1, 0, 0],
                                 "phase": "cos", "polarization": 0, "amplitude": 0.5},
            "initial_magnetic": {"type": "single_mode", "wavevector": [0, 1, 0],
                                 "phase": "sin", "polarization": 1, "amplitude": 0.3},
            "phase": {"shape": "ball", "center": [np.pi, np.pi, np.pi], "radius": 1.0},
            "nu_plus": 0.2, "nu_minus": 0.2, "sigma": 1.0, "kappa": 0.05,
            "solver": {"n_sub": 4, "mesh_resolution": 2, "tol": 1e-8},
        })
        result = cg.run(config)
        assert result.final_state.t == pytest.approx(0.05)
        from capmhd.energy import check_inequality

        assert check_inequality(result.ledger, result.tau_E).passed

    def test_phase_tables_are_built_only_for_the_quadrature(self, monkeypatch):
        # off the grid every field goes through the basis lattice: an m x n
        # trig table is built once per quadrature table and never elsewhere
        calls = []
        for name in ("phase_values", "phase_derivatives"):
            real = getattr(cb.Basis, name)

            def record(basis, points, real=real, name=name):
                calls.append((basis, name, points))
                return real(basis, points)

            monkeypatch.setattr(cb.Basis, name, record)
        config = RunConfig.from_dict({
            "dimension": 3, "kmax": 1, "T": 0.02,
            "initial_velocity": {"type": "taylor_green", "amplitude": 0.25},
            "initial_magnetic": {"type": "single_mode", "wavevector": [0, 1, 0],
                                 "phase": "sin", "polarization": 1, "amplitude": 0.3},
            "phase": {"shape": "ball", "center": [np.pi, np.pi, np.pi], "radius": 1.0},
            "nu_plus": 0.2, "nu_minus": 0.1, "sigma": 1.0, "kappa": 0.05,
            "solver": {"delta": 0.02, "n_sub": 4, "mesh_resolution": 2, "tol": 1e-8},
        })
        result = cg.run(config)
        assert len(result.windows) == 1
        assert {name for _, name, _ in calls} == {"phase_values", "phase_derivatives"}
        for basis, _, points in calls:
            assert any(points is quad.points for quad in basis._quadratures.values())
        assert len({(name, id(points)) for _, name, points in calls}) == len(calls)

    def test_galerkin_residual_bounded_by_window_count(self):
        result = cg.run(reference_config(T=0.3))
        bound = len(result.windows) * 1e-8
        assert float(np.max(result.galerkin_residual())) <= bound
