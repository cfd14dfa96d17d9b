import dataclasses
from pathlib import Path

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
    MESH_FAULTS,
    circle_first_variation,
    faulty_advection,
    faulty_B_step,
    faulty_forcing,
    reference_config,
    single_phase_decay_config,
    smooth_phi_2d,
)


ROOT = Path(__file__).resolve().parent.parent


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


def _rate(state, order, chi_values=None):
    """The dissipation rate at one state, from the one-node forcing pass."""
    quad = state.u.basis.quadrature(order)
    return cg._forcing([state], quad, *_node_values([state], order), [chi_values])[1][0]


def _node_values(states, order):
    """u and B of ``states`` on the quadrature grid of ``order``: (S, m, d) each."""
    quad = states[0].u.basis.quadrature(order)
    return tuple(
        quad.field_values(np.stack([field.coefficients for field in fields]))
        for fields in ([s.u for s in states], [s.B for s in states])
    )


def _apply_K(states, order, anchor_forcing):
    """``apply_K`` with the states' u and B synthesized on the grid, for
    viscosities that agree (no indicator rows)."""
    return cg.apply_K(
        states, order, anchor_forcing, *_node_values(states, order), [None] * len(states)
    )


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

            def phi(points, c=coeffs):
                grads = ref.synthesize_gradient(basis_2d, c, points)
                return ref.synthesize(basis_2d, c, points), grads

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

    @pytest.mark.parametrize(
        "evaluate", [cg.apply_N, pytest.param(_rate, id="viscous_dissipation_rate")]
    )
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
    """apply_N from the grid of ``quadrature_rule`` and the basis's trig
    tables at its points, with no Quadrature object.  The pairing takes the
    same order as the solver's: one node tensor u (x) u - B (x) B - 2 nu Du,
    its moments against the derivative table, then the contraction with e_j
    and k_j per mode.  The tables themselves are checked against direct sin
    and cos in test_basis."""
    basis = state.u.basis
    d = basis.dimension
    points, weight = cb.quadrature_rule(d, order)
    ph, dph = basis.phase_values(points), basis.phase_derivatives(points)

    def pairing(tensors):
        moments = (tensors.reshape(-1, d * d).T @ dph).reshape(d, d, -1)
        contracted = np.einsum("ni,iln,nl->n", basis.polarizations, moments, basis.wavevectors)
        return weight * basis.normalizations * contracted

    def samples(coefficients):
        return ph @ ((coefficients * basis.normalizations)[:, None] * basis.polarizations)

    u_values, b_values = samples(state.u.coefficients), samples(state.B.coefficients)
    scaled = state.u.coefficients * basis.normalizations
    outer = scaled[:, None, None] * basis.polarizations[:, :, None] * basis.wavevectors[:, None, :]
    grads = np.tensordot(dph, outer, axes=([1], [0]))
    du = 0.5 * (grads + np.swapaxes(grads, 1, 2))
    nu = state.params.viscosity(ci.point_in_mesh(state.mesh, points))
    tensor = u_values[:, :, None] * u_values[:, None, :]
    tensor = tensor - b_values[:, :, None] * b_values[:, None, :] - 2.0 * nu[:, None, None] * du
    result = pairing(tensor)
    result += state.params.kappa * ci.curvature_pairing_modes(state.mesh, basis)
    return result


class TestApplyK:
    def test_zero_forcing_constant_trajectory(self, basis_2d):
        states = [make_state(basis_2d) for _ in range(3)]
        for i, s in enumerate(states):
            s.t = 0.1 * i
            s.mesh.t = 0.1 * i
        out, n_values, rates = _apply_K(states, 8, cg.apply_N(states[0], 8))
        assert np.all(out == 0.0)
        assert np.all(rates == 0.0)
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
        out, n_values, _ = _apply_K([s0, s1], 8, cg.apply_N(s0, 8))
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
        out, _, _ = _apply_K(states, 8, cg.apply_N(states[0], 8))
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
        # N and the rate at every node, one node at a time, and K(u) as the
        # trapezoid of N from states[0]
        want_n = np.stack([cg.apply_N(st, 8) for st in states])
        want_rates = np.array([_rate(st, 8) for st in states[1:]])
        want = cg._trapezoid(states[0].u.coefficients, [0.0, 0.05, 0.1], want_n)
        real = cg._forcing
        calls = []

        def counted(nodes, *args, **kwargs):
            calls.append([state.t for state in nodes])
            return real(nodes, *args, **kwargs)

        monkeypatch.setattr(cg, "_forcing", counted)
        got, got_n, got_rates = _apply_K(states, 8, want_n[0])
        # one pass over the later nodes, byte for byte the one-node calls
        assert calls == [[0.05, 0.1]]
        assert got.tobytes() == want.tobytes()
        assert got_n.tobytes() == want_n.tobytes()
        assert got_rates.tobytes() == want_rates.tobytes()

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
            return _apply_K(states, 8, cg.apply_N(states[0], 8))[0]

        traj1 = np.tile(anchor, (n_nodes, 1))
        traj2 = traj1 + 1e-3 * rng.standard_normal(traj1.shape)
        # an iterate's first row is the anchor
        traj2[0] = anchor
        k1, k2 = sweep(traj1), sweep(traj2)
        num = np.max(np.linalg.norm(k1 - k2, axis=1))
        den = np.max(np.linalg.norm(traj1 - traj2, axis=1))
        assert num / den < 1.0


def _history(window):
    """The accepted velocity up to ``window``'s end, from t = 0 on, as ``run``
    hands it to the next window."""
    return SpectralTrajectory(window.states[-1].u.basis, window.t_grid, window.u_trajectory)


class TestGridPass:
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_a_stack_of_nodes_is_its_one_node_calls(self, dimension):
        # two phases and a capillary term: N and the dissipation rate of S
        # nodes in one pass equal those of S one-node calls byte for byte
        basis = cb.make_basis(dimension, 2)
        order = 8
        quad = basis.quadrature(order)
        rng = np.random.default_rng(197 + dimension)
        params = cg.FluidParams(0.2, 0.1, 1.0, 0.1)
        center = CENTER_2D if dimension == 2 else (np.pi,) * 3
        region = ci.disk(center, 1.0) if dimension == 2 else ci.ball(center, 1.0)
        mesh = ci.mesh_initial(region, 64 if dimension == 2 else 2)
        states = [
            cg.GalerkinState(
                0.0,
                cb.SpectralField(basis, 0.4 * rng.standard_normal(len(basis))),
                cb.SpectralField(basis, 0.3 * rng.standard_normal(len(basis))),
                mesh,
                params,
            )
            for _ in range(5)
        ]
        rows = rng.integers(0, 2, (5, len(quad.points)))
        forcing, rates = cg._forcing(states, quad, *_node_values(states, order), rows)
        for state, row, n_value, rate in zip(states, rows, forcing, rates):
            assert n_value.tobytes() == cg.apply_N(state, order, chi_values=row).tobytes()
            assert rate.tobytes() == _rate(state, order, chi_values=row).tobytes()

    def _counted_window_passes(self, monkeypatch, basis_2d):
        """The first two windows and the grid work of each: the calls of
        apply_K and apply_N, of the forcing pairing, of the stacked
        (two-dimensional) synthesis of u and of the gradient synthesis."""
        keys = ("apply_K", "apply_N", "pairing", "u", "gradients")
        counts = dict.fromkeys(keys, 0)

        def counting(real, key, stacked=lambda *args: True):
            def wrapper(*args, **kwargs):
                counts[key] += bool(stacked(*args))
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cg, "apply_K", counting(cg.apply_K, "apply_K"))
        monkeypatch.setattr(cg, "apply_N", counting(cg.apply_N, "apply_N"))
        monkeypatch.setattr(cg, "gradient_pairing", counting(cg.gradient_pairing, "pairing"))
        real_values, real_gradients = cb.Quadrature.field_values, cb.Quadrature.field_gradients
        monkeypatch.setattr(cb.Quadrature, "field_values", counting(
            real_values, "u", lambda quad, coefficients: np.ndim(coefficients) == 2
        ))
        monkeypatch.setattr(cb.Quadrature, "field_gradients", counting(
            real_gradients, "gradients"
        ))
        rng = np.random.default_rng(199)
        phase = ci.disk(CENTER_2D, 1.0)
        anchor = make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)),
                            params=cg.FluidParams(0.2, 0.1, 1.0, 0.1))
        args = dict(order=8, h_flow=0.01, dt_b=0.0125, phase=phase)
        windows, passes = [cg.initial_window(anchor, 8, phase)], []
        # the second window's tighter tol makes it sweep more than once
        for tol in (1e-8, 1e-13):
            counts.update(dict.fromkeys(counts, 0))
            windows.append(cg.fixed_point_window(
                windows[-1], 0.05, 4, tol, 30, history=_history(windows[-1]), **args
            ))
            passes.append(dict(counts))
        return windows[1:], passes

    def test_one_sweep_is_one_grid_pass(self, monkeypatch, basis_2d):
        # a window started from several nodes: per sweep one apply_K, one
        # stacked synthesis of u (the B march synthesizes B alone, one row
        # at a time), one stacked gradient synthesis and one forcing
        # pairing, and no one-node apply_N
        (_, window), (_, counts) = self._counted_window_passes(monkeypatch, basis_2d)
        assert window.start == "extrapolated"
        sweeps = len(window.residual_history)
        assert sweeps > 1
        assert counts == dict(apply_K=sweeps, apply_N=0, pairing=sweeps, u=sweeps,
                              gradients=sweeps)
        assert window.work["forcing_evaluations"] == 4 * sweeps

    def test_a_marched_sweep_evaluates_each_node_once(self, monkeypatch, basis_2d):
        # a window started from one node marches: per sweep one gradient
        # synthesis and one forcing pairing at each of its 4 later nodes, one
        # stacked synthesis (of the anchor's u and B), and no apply_K or
        # apply_N
        (window, _), (counts, _) = self._counted_window_passes(monkeypatch, basis_2d)
        assert window.start == "march"
        sweeps = len(window.residual_history)
        assert sweeps > 1
        assert counts == dict(apply_K=0, apply_N=0, pairing=4 * sweeps, u=sweeps,
                              gradients=4 * sweeps)
        assert window.work["forcing_evaluations"] == 4 * sweeps


class TestFixedPointWindow:
    def test_zero_data_converges_first_sweep(self, basis_2d):
        phase = ci.disk(CENTER_2D, 1.0)
        window = cg.fixed_point_window(
            cg.initial_window(make_state(basis_2d), 8, phase), 0.1, 4, 1e-8, 10,
            order=8, h_flow=0.01, dt_b=0.025, phase=phase,
        )
        assert len(window.residual_history) == 1
        assert np.all(window.u_trajectory == 0.0)

    def test_damped_sweeps_keep_the_anchor_row(self, basis_2d):
        # every sweep builds the next iterate from the anchor: the window's
        # first node must stay on the anchor bit for bit through all of them
        rng = np.random.default_rng(127)
        anchor = make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)))
        window = cg.fixed_point_window(
            cg.initial_window(anchor, 8, None), 0.05, 4, 1e-8, 80,
            order=8, h_flow=0.01, dt_b=0.0125,
        )
        assert len(window.residual_history) > 1
        assert window.u_trajectory[0].tobytes() == anchor.u.coefficients.tobytes()

    def test_pure_viscous_decay_converges_in_two_sweeps(self, basis_2d):
        # one shear mode, B = 0, kappa = 0, one viscosity: u . grad u = 0, so
        # N = -nu |k|^2 u exactly.  The first sweep takes that term
        # implicitly in K's trapezoid, so its iterate is K's fixed point, the
        # trapezoid (Crank-Nicolson) decay, and the second sweep certifies it
        nu, delta, n_sub = 0.3, 0.1, 4
        j = basis_2d.index((1, 0), "cos", 0)
        u = np.zeros(len(basis_2d))
        u[j] = 0.5
        anchor = make_state(basis_2d, u_coeffs=u, params=cg.FluidParams(nu, nu, 1.0, 0.0))
        window = cg.fixed_point_window(
            cg.initial_window(anchor, 8, None), delta, n_sub, 1e-12, 10,
            order=8, h_flow=0.01, dt_b=delta / n_sub,
        )
        assert len(window.residual_history) == 2
        assert window.residual_history[0] > 1e-6
        assert window.residual_history[1] < 1e-14
        h = 0.5 * delta / n_sub * nu * basis_2d.eigenvalues[j]
        decay = np.concatenate([[1.0], np.cumprod(np.full(n_sub, (1.0 - h) / (1.0 + h)))])
        np.testing.assert_allclose(window.u_trajectory[:, j], 0.5 * decay, rtol=1e-14)

    def test_first_sweep_starts_from_euler_predictor(self, monkeypatch, basis_2d):
        rng = np.random.default_rng(151)
        params = cg.FluidParams(0.2, 0.1, 1.0, 0.1)
        anchor = make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)),
                            params=params)
        iterates = _first_iterate(monkeypatch)
        phase = ci.disk(CENTER_2D, 1.0)
        initial = cg.initial_window(anchor, 8, phase)
        window = cg.fixed_point_window(
            initial, 0.05, 4, 1e-8, 30,
            order=8, h_flow=0.01, dt_b=0.0125, phase=phase, history=_history(initial),
        )
        # the predictor's indicator is the initial region's at t = 0
        chi = phase.contains(basis_2d.quadrature(8).points)
        forcing = cg.apply_N(anchor, 8, chi_values=chi)
        t_grid = window.t_grid
        # u + (t - t0) N, summed as the march sums it: the cumulative
        # trapezoid of a constant N
        expected = cg._trapezoid(
            anchor.u.coefficients, t_grid, np.tile(forcing, (len(t_grid), 1))
        )
        np.testing.assert_array_equal(iterates[0], expected)
        assert iterates[0][0].tobytes() == anchor.u.coefficients.tobytes()

    def test_non_finite_predictor_is_a_window_failure(self, monkeypatch, basis_2d):
        # a handed-over N of +-1e308 overflows the Euler start's trapezoid:
        # the march's guess is checked before any forcing is evaluated
        real_n = cg._forcing
        passes = []

        def counted(*args, **kwargs):
            passes.append(1)
            return real_n(*args, **kwargs)

        anchor = make_state(basis_2d, u_coeffs=np.full(len(basis_2d), 0.1),
                            params=cg.FluidParams(0.2, 0.1, 1.0, 0.1))
        phase = ci.disk(CENTER_2D, 1.0)
        initial = cg.initial_window(anchor, 8, phase)
        signs = np.where(np.arange(len(basis_2d)) % 2 == 0, 1.0, -1.0)
        initial = dataclasses.replace(initial, N_values=1e308 * signs[None])
        monkeypatch.setattr(cg, "_forcing", counted)
        with np.errstate(over="ignore"), pytest.raises(WindowFailureError, match="sweep 1") as err:
            cg.fixed_point_window(
                initial, 0.05, 4, 1e-8, 5,
                order=8, h_flow=0.01, dt_b=0.0125, phase=phase, history=_history(initial),
            )
        assert isinstance(err.value.__cause__, NumericsError)
        assert err.value.residual_history == []
        assert err.value.start == "march"
        assert passes == [] and err.value.work["forcing_evaluations"] == 0

    def test_single_mode_matches_stokes_decay(self, basis_2d):
        nu = 0.4
        params = cg.FluidParams(nu, nu, 1.0, 0.0)
        j = 2
        coeffs = np.zeros(len(basis_2d))
        coeffs[j] = 1.0
        anchor = make_state(basis_2d, u_coeffs=coeffs, params=params)
        delta = 0.1
        phase = ci.disk(CENTER_2D, 1.0)
        window = cg.fixed_point_window(
            cg.initial_window(anchor, 8, phase), delta, 8, 1e-10, 30,
            order=8, h_flow=0.01, dt_b=delta / 8, phase=phase,
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
        phase = ci.disk(CENTER_2D, 1.0)
        window = cg.fixed_point_window(
            cg.initial_window(anchor, 8, phase), 0.05, 4, tol, 30,
            order=8, h_flow=0.01, dt_b=0.0125, phase=phase,
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
        phase = ci.disk(CENTER_2D, 1.0)
        with pytest.raises(WindowFailureError) as err:
            cg.fixed_point_window(
                cg.initial_window(anchor, 8, phase), 2.0, 4, 1e-8, 3,
                order=8, h_flow=0.01, dt_b=0.5, phase=phase,
            )
        assert len(err.value.residual_history) == 3

    def test_blown_up_window_reported_as_failure(self, basis_2d):
        # an absurd window destroys the advected mesh mid-sweep; the caller's
        # halving is the remedy, so this surfaces as a window failure
        rng = np.random.default_rng(137)
        params = cg.FluidParams(0.2, 0.2, 1.0, 0.0)
        anchor = make_state(basis_2d, u_coeffs=rng.standard_normal(len(basis_2d)),
                            params=params)
        phase = ci.disk(CENTER_2D, 1.0)
        with pytest.raises(WindowFailureError, match="sweep"):
            cg.fixed_point_window(
                cg.initial_window(anchor, 8, phase), 10.0, 4, 1e-8, 3,
                order=8, h_flow=0.05, dt_b=2.5, phase=phase,
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


def _recording_legs(monkeypatch):
    """Record the (sampler, positions, t1, result) of every integrate_positions
    call that galerkin makes."""
    real = cg.integrate_positions
    legs = []

    def traced(positions, sampler, t0, t1, h):
        legs.append((sampler, positions, t1, real(positions, sampler, t0, t1, h)))
        return legs[-1][-1]

    monkeypatch.setattr(cg, "integrate_positions", traced)
    return legs


def _run_checking_indicator(monkeypatch, config):
    """Run, comparing every window indicator with the full back-trace.

    Returns the run and, summed over the sweeps, the number of points that
    the windows took from a trace and that they left to the window-start
    mesh, and the number of sweeps that reused an earlier sweep's trace;
    summed over the traces, the carried points that the window-start mesh
    decided and the history legs, counted from the legs the traces ran and
    checked against the attempts' own tally.
    """
    real = cg._WindowIndicator.__call__
    legs = _recording_legs(monkeypatch)
    counts = {"band": 0, "mesh": 0, "reused": 0, "decided": 0, "history_legs": 0}

    def checked(indicator, sampler):
        traces = indicator.work["indicator_traces"]
        legs.clear()
        chi = real(indicator, sampler)
        t_grid = indicator.t_grid
        expected = _full_backtrace_indicator(
            indicator.points, t_grid, sampler, indicator.history, indicator.phase,
            indicator.h_flow,
        )
        for node, (got, want) in enumerate(zip(chi, expected)):
            np.testing.assert_array_equal(got, want, err_msg=f"t={t_grid[node]}")
        speed = np.max(np.abs(sampler.coefficients) @ sampler.basis.normalizations)
        reach = indicator.band + (t_grid[-1] - t_grid[0]) * speed
        moving = ci.mesh_distance(indicator.mesh, indicator.points, reach) <= reach
        counts["band"] += int(moving.sum())
        counts["mesh"] += int((~moving).sum())
        traced = indicator.work["indicator_traces"] > traces
        counts["reused"] += bool(moving.any()) and not traced
        if traced:
            stack = int(moving.sum()) * (len(t_grid) - 1)
            (band,) = _assert_history_takes_the_band(
                legs, indicator.history, indicator.mesh, [stack]
            )
            counts["decided"] += stack - len(band)
            counts["history_legs"] += sum(leg[0] is indicator.history for leg in legs)
        return chi

    monkeypatch.setattr(cg._WindowIndicator, "__call__", checked)
    result = cg.run(config)
    for key, tally in (("decided", "mesh_decided_points"), ("history_legs", "history_legs")):
        assert counts[key] == sum(attempt[tally] for attempt in result.attempts)
    return result, counts


def _first_iterate(monkeypatch):
    """Capture the iterate of every window-indicator call; the first is the
    start: a stacked sweep's first iterate, or the guess a march starts from."""
    real = cg._WindowIndicator.__call__
    iterates = []

    def capture(indicator, sampler):
        iterates.append(sampler.coefficients)
        return real(indicator, sampler)

    monkeypatch.setattr(cg._WindowIndicator, "__call__", capture)
    return iterates


def _euler_only(monkeypatch):
    """Start every window from its predecessor's last node alone: Euler's
    start, which a window marches from."""
    monkeypatch.setattr(cg, "_start_nodes", lambda previous, delta: 1)


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
        rows = [np.zeros(16, dtype=np.int64) for _ in old_grid]
        previous = cg.WindowSolve(
            old_grid, None, [], N_values=forcing(old_grid), chi_cache=rows
        )
        anchor = make_state(basis_2d, u_coeffs=rng.standard_normal(len(basis_2d)))
        # only a window longer than the previous one beyond rounding starts
        # from its last node alone
        assert cg._start_nodes(previous, 0.1 * (1 + 1e-12)) == degree + 1
        assert cg._start_nodes(previous, 0.101) == 1
        for delta in (0.1, 0.05):
            nodes = cg._start_nodes(previous, delta)
            assert nodes == degree + 1
            t_grid = 0.4 + np.linspace(0.0, delta, n_sub + 1)
            got = cg.predictor(anchor, t_grid, old_grid[-nodes:], previous.N_values[-nodes:])
            want = cg._trapezoid(anchor.u.coefficients, t_grid, forcing(t_grid))
            assert got[0].tobytes() == anchor.u.coefficients.tobytes()
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def _anchor(self, basis_2d):
        rng = np.random.default_rng(179)
        return make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)),
                          params=self.PARAMS)

    def _initial(self, basis_2d):
        return cg.initial_window(self._anchor(basis_2d), 8, self.ARGS["phase"])

    def _previous(self, basis_2d):
        initial = self._initial(basis_2d)
        return cg.fixed_point_window(
            initial, 0.05, 4, 1e-8, 30, history=_history(initial), **self.ARGS
        )

    def _start(self, monkeypatch, previous, delta):
        """(window, its first iterate, the forcing passes made for the predictor)."""
        iterates = _first_iterate(monkeypatch)
        real_n, real_predictor = cg._forcing, cg.predictor
        calls, at_start = [], []

        def counted(*args, **kwargs):
            calls.append(1)
            return real_n(*args, **kwargs)

        def predictor(*args):
            at_start.append(len(calls))
            return real_predictor(*args)

        monkeypatch.setattr(cg, "_forcing", counted)
        monkeypatch.setattr(cg, "predictor", predictor)
        window = cg.fixed_point_window(
            previous, delta, 4, 1e-8, 30, history=_history(previous), **self.ARGS
        )
        assert len(at_start) == 1
        return window, iterates[0], at_start[0]

    def _assert_euler_start(self, monkeypatch, previous, delta, forcing):
        # one node: the march's first guess is the forward-Euler step of the
        # given N(anchor)
        window, first, start_calls = self._start(monkeypatch, previous, delta)
        anchor, t_grid = previous.states[-1], window.t_grid
        assert window.start == "march"
        assert first.tobytes() == cg.predictor(anchor, t_grid, t_grid[:1], forcing[None]).tobytes()
        euler = anchor.u.coefficients + (t_grid - t_grid[0])[:, None] * forcing
        np.testing.assert_allclose(first, euler, rtol=1e-14, atol=1e-15)
        return start_calls

    def test_first_window_starts_from_euler(self, monkeypatch, basis_2d):
        # the initial window's one node: N(anchor) with the initial region's
        # indicator, computed before the window, which evaluates no N to start
        initial = self._initial(basis_2d)
        chi = self.ARGS["phase"].contains(basis_2d.quadrature(8).points)
        forcing = cg.apply_N(initial.states[0], 8, chi_values=chi)
        assert self._assert_euler_start(monkeypatch, initial, 0.05, forcing) == 0

    def test_longer_window_starts_from_euler(self, monkeypatch, basis_2d):
        # the previous window's N at its last node is N(anchor): no new call
        previous = self._previous(basis_2d)
        assert cg._start_nodes(previous, 0.1) == 1
        forcing = previous.N_values[-1]
        assert self._assert_euler_start(monkeypatch, previous, 0.1, forcing) == 0

    def _flipped_at(self, previous, node):
        rows = [row.copy() for row in previous.chi_cache]
        rows[node][0] = 1 - rows[node][0]
        return dataclasses.replace(previous, chi_cache=rows)

    def test_indicator_flip_in_the_previous_window_starts_from_euler(
        self, monkeypatch, basis_2d
    ):
        # a flip at the last node leaves one node after the jump: no trend,
        # and that node's N is N(anchor), so the start evaluates no N
        previous = self._previous(basis_2d)
        flipped = self._flipped_at(previous, -1)
        assert cg._start_nodes(flipped, 0.05) == 1
        forcing = flipped.N_values[-1]
        assert self._assert_euler_start(monkeypatch, flipped, 0.05, forcing) == 0

    def test_indicator_flip_before_the_tail_extrapolates_from_the_tail(
        self, monkeypatch, basis_2d
    ):
        # a flip at node 1 of 4 sub-steps leaves nodes 2..4 on one piece of
        # N: the start is the quadratic through those three nodes
        previous = self._previous(basis_2d)
        flipped = self._flipped_at(previous, 1)
        assert cg._start_nodes(flipped, 0.05) == 3
        anchor = previous.states[-1]
        window, first, start_calls = self._start(monkeypatch, flipped, 0.05)
        assert window.start == "extrapolated" and start_calls == 0
        assert first.tobytes() == cg.predictor(
            anchor, window.t_grid, previous.t_grid[2:], previous.N_values[2:]
        ).tobytes()

    def test_same_or_shorter_window_extrapolates(self, monkeypatch, basis_2d):
        previous = self._previous(basis_2d)
        anchor = previous.states[-1]
        for delta in (0.05, 0.025):
            nodes = cg._start_nodes(previous, delta)
            assert nodes > 1
            window, first, start_calls = self._start(monkeypatch, previous, delta)
            assert window.start == "extrapolated" and start_calls == 0
            assert first.tobytes() == cg.predictor(
                anchor, window.t_grid, previous.t_grid[-nodes:], previous.N_values[-nodes:]
            ).tobytes()

    def test_node_0_forcing_is_computed_once(self, monkeypatch, basis_2d):
        # single phase, so the indicator row never changes: the initial
        # window computes N(anchor) once and every sweep of the first window
        # reuses it; a later window takes it from its predecessor's last node
        rng = np.random.default_rng(181)
        anchor = make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)))
        real = cg._forcing
        nodes = []

        def counted(states, *args, **kwargs):
            nodes.append(len(states))
            return real(states, *args, **kwargs)

        monkeypatch.setattr(cg, "_forcing", counted)
        args = dict(order=8, h_flow=0.01, dt_b=0.0125)
        initial = cg.initial_window(anchor, 8, None)
        first = cg.fixed_point_window(initial, 0.05, 4, 1e-8, 30, **args)
        sweeps = len(first.residual_history)
        assert sweeps > 1
        # the first window marches: one pass per later node, 4 per sweep
        assert nodes == [1] + [1] * (4 * sweeps)
        # a single-phase window has no indicator: its tally counts only the
        # forcing
        assert first.work == dict(dict.fromkeys(cg.WORK, 0), forcing_evaluations=4 * sweeps)
        nodes.clear()
        # no indicator rows: the start fits all of the first window's 5 nodes
        assert cg._start_nodes(first, 0.05) == cg.EXTRAPOLATION_DEGREE + 1 == 5
        second = cg.fixed_point_window(first, 0.05, 4, 1e-8, 30, **args)
        assert second.start == "extrapolated"
        assert nodes == [4] * len(second.residual_history)
        assert second.work["forcing_evaluations"] == sum(nodes)

    def test_node_0_is_handed_over(self, monkeypatch, basis_2d):
        # two phases at order 20 on a 16-gon: quadrature points between its
        # chords and the circle are in the band, where the window-start mesh
        # and a trace disagree.  Node 0 is data: the initial window gives the
        # first window its row, the initial region's, and N(anchor), computed
        # once; the second takes both from the first's last node.  Every
        # indicator call, a march's check under its iterate included, gives
        # node 0 that row, and no trace carries node 0's points to the window
        # start or through the history
        rng = np.random.default_rng(191)
        anchor = make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)),
                            params=self.PARAMS, resolution=16)
        args = dict(self.ARGS, order=20)
        points = basis_2d.quadrature(20).points
        assert not np.array_equal(ci.point_in_mesh(anchor.mesh, points),
                                  args["phase"].contains(points))
        real_n, real_call = cg._forcing, cg._WindowIndicator.__call__
        times, moving, first_rows = [], [], []

        def counted(states, *args, **kwargs):
            times.extend(state.t for state in states)
            return real_n(states, *args, **kwargs)

        def indicated(indicator, sampler):
            traces = indicator.work["indicator_traces"]
            chi = real_call(indicator, sampler)
            first_rows.append(chi[0])
            if indicator.work["indicator_traces"] > traces:
                moving.append(int(indicator.moving.sum()))
            return chi

        monkeypatch.setattr(cg, "_forcing", counted)
        monkeypatch.setattr(cg._WindowIndicator, "__call__", indicated)
        legs = _recording_legs(monkeypatch)
        initial = cg.initial_window(anchor, 20, args["phase"])
        history = _history(initial)
        first = cg.fixed_point_window(initial, 0.05, 4, 1e-8, 30, history=history, **args)
        assert first.start == "march" and len(first.residual_history) > 1
        assert first.states[0] is anchor
        assert times.count(anchor.t) == 1
        # no pull-back of every point at t = 0: each trace carries the moving
        # points of nodes 1..4 to the window start, and only those in the
        # band go on through the history
        assert first.work["indicator_traces"] == len(moving) > 0
        assert any(len(band) for band in _assert_history_takes_the_band(
            legs, history, anchor.mesh, [4 * count for count in moving]
        ))
        assert len(first_rows) > len(first.residual_history)
        for row in first_rows + [first.chi_cache[0]]:
            np.testing.assert_array_equal(row, args["phase"].contains(points))

        for record in (times, moving, legs, first_rows):
            record.clear()
        second_anchor = first.states[-1]
        history = _history(first)
        second = cg.fixed_point_window(first, 0.05, 4, 1e-8, 30, history=history, **args)
        assert times.count(second_anchor.t) == 0
        assert second.states[0] is second_anchor
        assert len(first_rows) >= len(second.residual_history)
        for row in first_rows + [second.chi_cache[0]]:
            np.testing.assert_array_equal(row, first.chi_cache[-1])
        assert second.work["indicator_traces"] == len(moving) > 0
        assert any(len(band) for band in _assert_history_takes_the_band(
            legs, history, second_anchor.mesh, [4 * count for count in moving]
        ))


def _assert_history_takes_the_band(legs, history, mesh, stack_sizes):
    """The traces carry ``stack_sizes`` points to the window start, and the
    history takes exactly those within INDICATOR_BAND plus its sagitta of
    ``mesh``.

    ``legs`` are the (sampler, positions, t1, result) of the indicator's
    ``integrate_positions`` calls in order, and ``mesh`` is the window-start
    mesh.  A window leg that ends at the window start returns a trace's
    stack; the leg right after it is a history leg that takes the stack's
    band points, in order, or, when there are none or the window starts at
    t = 0, where the band points are their own origins, no history leg.
    Returns each trace's band points.
    """
    sizes, bands = [], []
    band = cg.INDICATOR_BAND + ci.sagitta(mesh)
    for k, (sampler, _, t1, stack) in enumerate(legs):
        if sampler is history or t1 != mesh.t:
            continue
        sizes.append(len(stack))
        bands.append(stack[ci.mesh_distance(mesh, stack, band) <= band])
        after = legs[k + 1] if k + 1 < len(legs) else (None, None, None, None)
        if len(bands[-1]) and mesh.t > 0.0:
            assert after[0] is history and after[1].tobytes() == bands[-1].tobytes()
        else:
            assert after[0] is not history
    assert sizes == stack_sizes
    history_legs = sum(len(band) > 0 for band in bands) if mesh.t > 0.0 else 0
    assert sum(leg[0] is history for leg in legs) == history_legs
    return bands


class TestMarch:
    PARAMS = cg.FluidParams(0.2, 0.1, 1.0, 0.1)
    ARGS = dict(order=8, h_flow=0.01, dt_b=0.0125, phase=ci.disk(CENTER_2D, 1.0))

    def _initial(self, basis_2d):
        rng = np.random.default_rng(211)
        anchor = make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)),
                            params=self.PARAMS)
        return cg.initial_window(anchor, 8, self.ARGS["phase"])

    def test_accepted_march_certifies_its_own_forcing(self, basis_2d):
        # K recomputed from the window's own N values, each of them N at the
        # window's own state and row, is within tol of u; row 0 is the anchor
        initial = self._initial(basis_2d)
        anchor, tol = initial.states[-1], 1e-8
        window = cg.fixed_point_window(
            initial, 0.05, 4, tol, 30, history=_history(initial), **self.ARGS
        )
        assert window.start == "march" and len(window.residual_history) > 1
        for state, row, n_value in zip(window.states[1:], window.chi_cache[1:],
                                       window.N_values[1:]):
            assert n_value.tobytes() == cg.apply_N(state, 8, chi_values=row).tobytes()
        k_coeffs = cg._trapezoid(anchor.u.coefficients, window.t_grid, window.N_values)
        residual = np.max(np.linalg.norm(window.u_trajectory - k_coeffs, axis=1))
        assert residual == window.residual_history[-1] < tol
        assert window.u_trajectory[0].tobytes() == anchor.u.coefficients.tobytes()
        assert window.N_values[0].tobytes() == initial.N_values[-1].tobytes()
        for i, state in enumerate(window.states):
            assert state.u.coefficients.tobytes() == window.u_trajectory[i].tobytes()

    def test_rows_that_move_under_the_iterate_are_not_accepted(self, monkeypatch, basis_2d):
        # at tol 1e-3 the first sweep is below tol.  The indicator, asked
        # again under the marched iterate, is made to flip one point at
        # node 1: the sweep's N read other rows, so it is not accepted, and
        # the next sweep, whose rows the indicator gives again, is
        initial = self._initial(basis_2d)
        args = dict(self.ARGS, history=_history(initial))
        plain = cg.fixed_point_window(initial, 0.05, 4, 1e-3, 30, **args)
        assert len(plain.residual_history) == 1
        real = cg._WindowIndicator.__call__
        calls = []

        def flipped_once(indicator, sampler):
            chi = real(indicator, sampler)
            calls.append(1)
            if len(calls) == 2:
                chi = [row.copy() for row in chi]
                chi[1][0] = 1 - chi[1][0]
            return chi

        monkeypatch.setattr(cg._WindowIndicator, "__call__", flipped_once)
        window = cg.fixed_point_window(initial, 0.05, 4, 1e-3, 30, **args)
        assert len(window.residual_history) == 2 and len(calls) == 4
        assert window.residual_history[0] == plain.residual_history[0] < 1e-3
        for row, want in zip(window.chi_cache, plain.chi_cache):
            np.testing.assert_array_equal(row, want)

    BALL = {
        "dimension": 3, "kmax": 2, "T": 0.05,
        "initial_velocity": {"type": "taylor_green", "amplitude": 0.25},
        "initial_magnetic": {"type": "single_mode", "wavevector": [1, 0, 0],
                             "phase": "cos", "polarization": 0, "amplitude": 0.2},
        "phase": {"shape": "ball", "center": [np.pi, np.pi, np.pi], "radius": 1.0},
        "nu_plus": 0.2, "nu_minus": 0.1, "sigma": 1.0, "kappa": 0.1,
        "solver": {"delta": 0.1, "n_sub": 8, "tol": 1e-8, "mesh_resolution": 3},
    }

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_a_stacked_sweep_over_the_marched_iterate_reaches_the_same_nodes(
        self, monkeypatch, dimension
    ):
        # both sweep kinds take one node step: a stacked sweep over the
        # accepted iterate of a marched first window (the reference's, and
        # a 3D ball's) advects the same mesh and marches the same B to
        # every node, bit for bit
        config = reference_config(T=0.1) if dimension == 2 else RunConfig.from_dict(self.BALL)
        real, calls = cg.fixed_point_window, []

        def recorded(*args, **kwargs):
            calls.append((args, kwargs, real(*args, **kwargs)))
            return calls[-1][-1]

        monkeypatch.setattr(cg, "fixed_point_window", recorded)
        cg.run(config)
        (previous, delta, n_sub, _, _), kwargs, marched = calls[0]
        assert marched.start == "march" and len(marched.residual_history) > 1
        # the marched iterate as the start of a window swept from two nodes,
        # accepted after its one sweep
        monkeypatch.setattr(cg, "_start_nodes", lambda previous, delta: 2)
        monkeypatch.setattr(cg, "predictor", lambda *args: marched.u_trajectory)
        stacked = real(previous, delta, n_sub, 1.0, 1, **kwargs)
        assert stacked.start == "extrapolated" and len(stacked.residual_history) == 1
        assert len(stacked.states) == len(marched.states) == n_sub + 1
        for got, want in zip(stacked.states, marched.states):
            assert got.mesh.vertices.tobytes() == want.mesh.vertices.tobytes()
            assert got.B.coefficients.tobytes() == want.B.coefficients.tobytes()
        assert stacked.resistive_increments.tobytes() == marched.resistive_increments.tobytes()

    def test_nan_forcing_at_one_marched_node_halves_the_window(self, monkeypatch):
        # the reference's first window marches in 3 sweeps; the capillary
        # pairing at node 3 of its second sweep (the 11th in-window node) is
        # NaN, so that sweep breaks after 8 + 3 forcing evaluations with no
        # residual, the window fails naming NumericsError and halves, and the
        # run carries on to T
        faulty_forcing(monkeypatch, nodes={11})
        result = cg.run(reference_config(T=0.1))
        failed, halved = result.attempts[:2]
        assert (failed["start"], failed["accepted"], failed["error"]) == (
            "march", False, "NumericsError"
        )
        assert failed["sweeps"] == 1 and failed["forcing_evaluations"] == 11
        assert "during sweep 2" in failed["message"]
        assert halved["accepted"] and halved["delta"] == failed["delta"] / 2
        assert result.window_failures == 1
        assert result.final_state.t == pytest.approx(0.1)


class TestInitialWindow:
    PHASE = ci.disk(CENTER_2D, 1.0)

    @pytest.mark.parametrize("nu_minus", [0.1, 0.2])
    def test_one_node_at_t0_with_the_initial_row_and_forcing(self, basis_2d, nu_minus):
        rng = np.random.default_rng(193)
        params = cg.FluidParams(0.2, nu_minus, 1.0, 0.1)
        state = make_state(basis_2d, u_coeffs=0.3 * rng.standard_normal(len(basis_2d)),
                           params=params)
        initial = cg.initial_window(state, 8, self.PHASE)
        row = initial.chi_cache[0]
        if params.two_phase:
            np.testing.assert_array_equal(row, self.PHASE.contains(basis_2d.quadrature(8).points))
        else:
            assert row is None
        assert initial.N_values.tobytes() == cg.apply_N(state, 8, chi_values=row)[None].tobytes()
        assert initial.states == [state] and len(initial.chi_cache) == 1
        assert list(initial.t_grid) == [0.0] and initial.residual_history == []
        assert initial.u_trajectory.tobytes() == state.u.coefficients[None].tobytes()

    @pytest.mark.parametrize("delta", [1e-12, 0.05, 1.0, 1e6])
    def test_starts_the_next_window_from_one_node(self, basis_2d, delta):
        state = make_state(basis_2d, params=cg.FluidParams(0.2, 0.1, 1.0, 0.1))
        assert cg._start_nodes(cg.initial_window(state, 8, self.PHASE), delta) == 1

    def test_state_after_t0_is_rejected(self, basis_2d):
        state = dataclasses.replace(make_state(basis_2d), t=1e-9)
        with pytest.raises(ValueError, match="t = 0"):
            cg.initial_window(state, 8, self.PHASE)


class _TranslatingWindow:
    """A window of the flow u = s (1, 0) along y = pi, from t_m to t_m + 0.3.

    Its points lie ``offsets`` right of the unit disk's centre, by default
    1.2, 0 and 2; the first is within the window's reach of the band, and
    its origin is 1.2 - s (t - t_m) right of the centre.  Before t_m the
    history is still, so the 256-gon of the initial disk is the window-start
    mesh.  ``indicator`` is the window's indicator, and ``flow(s)`` the
    iterate.
    """

    def __init__(self, t_start=0.0, offsets=(1.2, 0.0, 2.0)):
        self.basis = cb.make_basis(2, 1)
        self.mode = self.basis.index((0, 1), "cos", 0)
        anchor = make_state(self.basis, params=cg.FluidParams(0.2, 0.1, 1.0, 0.0),
                            resolution=256)
        anchor.t = anchor.mesh.t = t_start
        points = np.asarray(CENTER_2D) + np.array([[x, 0.0] for x in offsets])
        t_grid = t_start + np.array([0.0, 0.15, 0.3])
        if t_start == 0.0:
            history = SpectralTrajectory(self.basis, [0.0], [self.coefficients(1.0)])
        else:
            still = np.zeros((2, len(self.basis)))
            history = SpectralTrajectory(self.basis, [0.0, t_start], still)
        phase = ci.disk(CENTER_2D, 1.0)
        self.indicator = cg._WindowIndicator(
            anchor, points, t_grid, history, phase, 0.01, phase.contains(points)
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

    def full_backtrace(self, flow):
        indicator = self.indicator
        return _full_backtrace_indicator(
            indicator.points, indicator.t_grid, flow, indicator.history, indicator.phase,
            indicator.h_flow,
        )


def _assert_banded_matches_full_backtrace_2d(monkeypatch, resolution):
    """The reference run to T = 0.3 on a ``resolution``-gon, every indicator
    row checked against the full back-trace."""
    config = reference_config(T=0.3)
    config.quadrature_order = 20  # puts quadrature points inside the band
    config.mesh_resolution = resolution
    result, counts = _run_checking_indicator(monkeypatch, config)
    assert len(result.windows) == 3
    assert counts["band"] > 0 and counts["mesh"] > 0
    assert counts["reused"] > 0
    assert counts["decided"] > 0 and counts["history_legs"] > 0


class TestWindowIndicator:
    def test_banded_matches_full_backtrace_2d(self, monkeypatch):
        _assert_banded_matches_full_backtrace_2d(monkeypatch, 256)

    def test_banded_matches_full_backtrace_on_a_16_gon(self, monkeypatch):
        # the 16-gon's chords lie up to 0.019 inside the circle, beyond
        # INDICATOR_BAND: the band must widen by the sagitta
        _assert_banded_matches_full_backtrace_2d(monkeypatch, 16)

    def test_band_points_follow_the_backtrace(self, basis_2d):
        # the chords of a 16-gon lie up to 0.019 inside the unit circle: a
        # point between a chord and the circle is in the region but outside
        # the polygon.  At radius 0.99 it lies 0.009 from the chord, within
        # INDICATOR_BAND; at radius 0.995, 0.014 from it, beyond
        # INDICATOR_BAND but within the band widened by the sagitta.  The
        # back-trace decides both
        anchor = make_state(basis_2d, params=cg.FluidParams(0.2, 0.1, 1.0, 0.0), resolution=16)
        anchor.t = anchor.mesh.t = 0.2
        angle = np.pi / 16
        offsets = [[0.0, 0.0], [2.0, 0.0]] + [
            [radius * np.cos(angle), radius * np.sin(angle)] for radius in (0.99, 0.995)
        ]
        points = np.asarray(CENTER_2D) + np.array(offsets)
        assert ci.point_in_mesh(anchor.mesh, points).tolist() == [1, 0, 0, 0]
        np.testing.assert_allclose(
            ci.mesh_distance(anchor.mesh, points[2:], np.inf),
            [0.99 - np.cos(angle), 0.995 - np.cos(angle)], atol=1e-14,
        )
        still = SpectralTrajectory(basis_2d, [0.0, 0.3], np.zeros((2, len(basis_2d))))
        phase = ci.disk(CENTER_2D, 1.0)
        indicator = cg._WindowIndicator(
            anchor, points, np.array([0.2, 0.3]), still, phase, 0.01, phase.contains(points)
        )
        assert indicator.band == pytest.approx(cg.INDICATOR_BAND + 1.0 - np.cos(angle))
        chi = indicator(still)
        assert indicator.moving.tolist() == [False, False, True, True]
        assert [node.tolist() for node in chi] == [[1, 0, 1, 1], [1, 0, 1, 1]]

    def test_points_the_window_carries_into_the_band_are_traced(self):
        # u = (1, 0) along y = pi: the point 1.2 right of the centre lies
        # 0.2 outside the unit disk, beyond the band but within the window's
        # reach, and is inside the region at the last node only
        window = _TranslatingWindow()
        chi = window.indicator(window.flow(1.0))
        assert [node.tolist() for node in chi] == [[0, 1, 0], [0, 1, 0], [1, 1, 0]]
        assert window.indicator.moving.tolist() == [True, False, False]
        assert window.indicator.work["indicator_traces"] == 1

    def test_points_the_mesh_decides_make_no_history_call(self, monkeypatch):
        # from t_m = 0.2 the point 1.2 right of the centre is carried to 0.05
        # outside and 0.1 inside the circle, beyond the band: the
        # window-start mesh decides both, and the history is not called
        window = _TranslatingWindow(t_start=0.2)
        flow = window.flow(1.0)
        legs = _recording_legs(monkeypatch)
        chi = window.indicator(flow)
        assert window.indicator.work["indicator_traces"] == 1 and len(legs) == 2
        assert all(sampler is flow for sampler, *_ in legs)
        bands = _assert_history_takes_the_band(
            legs, window.indicator.history, window.indicator.mesh, [2]
        )
        assert [len(band) for band in bands] == [0]
        assert [node.tolist() for node in chi] == [[0, 1, 0], [0, 1, 0], [1, 1, 0]]
        for got, want in zip(chi, window.full_backtrace(flow)):
            np.testing.assert_array_equal(got, want)

    def test_history_takes_exactly_the_band_points(self, monkeypatch):
        # the point 1.155 right of the centre is carried to 1.005 from node
        # 1, in the band, and to 0.855 from node 2; the point 1.2 to 1.05
        # and 0.9: of the four carried points only the first goes on
        # through the history
        window = _TranslatingWindow(t_start=0.2, offsets=(1.155, 1.2))
        flow = window.flow(1.0)
        legs = _recording_legs(monkeypatch)
        chi = window.indicator(flow)
        assert window.indicator.moving.tolist() == [True, True]
        bands = _assert_history_takes_the_band(
            legs, window.indicator.history, window.indicator.mesh, [4]
        )
        np.testing.assert_allclose(bands[0], [[CENTER_2D[0] + 1.005, CENTER_2D[1]]], atol=1e-12)
        assert [node.tolist() for node in chi] == [[0, 0], [0, 0], [1, 1]]
        for got, want in zip(chi, window.full_backtrace(flow)):
            np.testing.assert_array_equal(got, want)

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
        u = ref.synthesize(basis, coefficients, points)
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
        # the twelve grid points (2 pi / 8) sqrt(2) = 1.111 from the centre
        # lie 0.016 outside the ball, near its icosphere's band of 0.030:
        # the window carries them across it, so some go on through the
        # history and the window-start mesh decides others
        config = RunConfig.from_dict({
            "dimension": 3, "kmax": 1, "T": 0.04,
            "initial_velocity": {"type": "taylor_green", "amplitude": 0.25},
            "initial_magnetic": {"type": "single_mode", "wavevector": [0, 1, 0],
                                 "phase": "sin", "polarization": 1, "amplitude": 0.3},
            "phase": {"shape": "ball", "center": [np.pi, np.pi, np.pi], "radius": 1.095},
            "nu_plus": 0.2, "nu_minus": 0.1, "sigma": 1.0, "kappa": 0.05,
            "solver": {"delta": 0.02, "n_sub": 4, "mesh_resolution": 2, "tol": 1e-8,
                       "quadrature_order": 8},
        })
        result, counts = _run_checking_indicator(monkeypatch, config)
        assert len(result.windows) == 2
        assert counts["band"] > 0 and counts["mesh"] > 0
        assert counts["reused"] > 0
        assert counts["decided"] > 0


def _counting_traces(monkeypatch):
    """Count the window indicator's integrate_positions calls."""
    real = cg.integrate_positions
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(cg, "integrate_positions", counted)
    return calls


def _counting_queries(monkeypatch):
    """Record the window indicator's distance queries: the number of points
    in each and its radius, rounded to two decimals, below which the
    256-gon's sagitta (7.5e-5) in the band lies."""
    real = cg.mesh_distance
    queries = []

    def counted(mesh, points, radius):
        queries.append((len(points), round(radius, 2)))
        return real(mesh, points, radius)

    monkeypatch.setattr(cg, "mesh_distance", counted)
    return queries


def _assert_nearby_iterate_reuses(monkeypatch, t_start):
    """The points carried from nodes 1 and 2 lie 0.05 outside and 0.1 inside
    the circle, beyond the band, so the window-start mesh decides them, and
    they clear its band by their distance to the 256-gon less the band: the
    256-gon has a vertex on their ray, and the chord beside it lies
    cos(pi/256) from the centre, as much as the band is widened by.
    eps = 1e-3 moves no carried point by more than e^0.3 * 3e-4, so the
    trace is reused."""
    window = _TranslatingWindow(t_start)
    calls = _counting_traces(monkeypatch)
    window.indicator(window.flow(1.0))
    # the two window legs, and no history leg
    assert len(calls) == 2
    # one row per node after the first
    clearance = window.indicator.clearance
    band = cg.INDICATOR_BAND + 1.0 - np.cos(np.pi / 256)
    assert window.indicator.band == pytest.approx(band, abs=1e-15)
    np.testing.assert_allclose(
        clearance[:, 0], [0.05 - band, 0.1 * np.cos(np.pi / 256) - band], atol=1e-12
    )
    nearby = window.flow(1.001)
    fresh = _TranslatingWindow(t_start).indicator(nearby)
    calls.clear()
    chi = window.indicator(nearby)
    assert window.indicator.work["indicator_traces"] == 1 and calls == []
    for got, want in zip(chi, fresh):
        np.testing.assert_array_equal(got, want)


class TestIndicatorReuse:
    def test_unchanged_iterate_reuses_without_tracing(self, monkeypatch):
        window = _TranslatingWindow()
        flow = window.flow(1.0)
        chi = window.indicator(flow)
        calls = _counting_traces(monkeypatch)
        again = window.indicator(flow)
        assert window.indicator.work["indicator_traces"] == 1 and calls == []
        for got, want in zip(again, chi):
            np.testing.assert_array_equal(got, want)

    def test_nearby_iterate_reuses_the_flags_its_own_trace_gives(self, monkeypatch):
        _assert_nearby_iterate_reuses(monkeypatch, 0.0)

    def test_nearby_iterate_reuses_a_mesh_decided_trace_after_a_history(self, monkeypatch):
        # the same window from t_m = 0.2, after a still history
        _assert_nearby_iterate_reuses(monkeypatch, 0.2)

    def test_origin_inside_the_bound_forces_a_retrace(self, monkeypatch):
        # at speed 1.5 the reach at t = 0.15 is e^0.225 * 0.075 against a
        # clearance of 0.04, and the point does cross: 0.025 inside the disk
        window = _TranslatingWindow()
        window.indicator(window.flow(1.0))
        faster = window.flow(1.5)
        chi = window.indicator(faster)
        assert window.indicator.work["indicator_traces"] == 2
        assert [node.tolist() for node in chi] == [[0, 1, 0], [1, 1, 0], [1, 1, 0]]
        assert window.indicator.inside.tolist() == [[1], [1]]

    def test_changed_moving_mask_forces_a_retrace(self, monkeypatch):
        window = _TranslatingWindow()
        flow = window.flow(1.0)
        window.indicator(flow)
        queries = _counting_queries(monkeypatch)
        window.indicator.distance[2] = 0.0
        chi = window.indicator(flow)
        # the reach is the radius the points were asked at: no point is asked
        # again, and only the new trace's carried points are
        assert queries == [(4, 0.61)]
        assert window.indicator.work["indicator_traces"] == 2
        assert window.indicator.moving.tolist() == [True, False, True]
        assert [node.tolist() for node in chi] == [[0, 1, 0], [0, 1, 0], [1, 1, 0]]

    def test_each_point_is_measured_once_per_window(self, monkeypatch):
        # at speed 1 the reach, band + 0.3, holds only the point 0.2 outside
        # the disk; its trace's two carried points are asked at the reach
        # plus the window's travel.  At speed 4 the reach grows past the
        # radius, so the other two points are asked again, and the trace
        # carries all six.  Back at speed 1 no point is asked again
        queries = _counting_queries(monkeypatch)
        window = _TranslatingWindow()
        indicator = window.indicator
        indicator(window.flow(1.0))
        assert queries == [(3, 0.31), (2, 0.61)] and round(indicator.radius, 2) == 0.31
        assert np.isinf(indicator.distance).tolist() == [False, True, True]
        indicator(window.flow(4.0))
        assert queries[2:] == [(2, 1.21), (6, 2.41)] and round(indicator.radius, 2) == 1.21
        assert np.isfinite(indicator.distance).all()
        indicator(window.flow(1.0))
        assert queries[4:] == [(2, 0.61)] and round(indicator.radius, 2) == 1.21

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


def _nan_first_forcing(monkeypatch):
    """Make the first forcing pass inside a window give NaN N, past
    ``_forcing``'s own check.

    A march steps node 2 from node 1's N in the same sweep, so its iterate
    goes NaN in sweep 1; a stacked sweep builds the next iterate from K's
    image and N, so its iterate goes NaN at sweep 2.
    """
    real = cg._forcing
    calls = []

    def nan_once(states, *args, **kwargs):
        forcing, rates = real(states, *args, **kwargs)
        if states[0].t > 0.0:
            calls.append(1)
            if len(calls) == 1:
                return np.full_like(forcing, np.nan), rates
        return forcing, rates

    monkeypatch.setattr(cg, "_forcing", nan_once)


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

    def _check_one_connectivity(self, result):
        # every accepted mesh shares the initial mesh's elements and their
        # side pairing, so the sides are paired once per run
        initial = result.states[0].mesh
        meshes = [st.mesh for window in result.windows for st in window.states]
        assert len(meshes) > 1
        assert all(mesh.elements is initial.elements for mesh in meshes)
        assert all(mesh.across is initial.across for mesh in meshes)
        for array in (initial.elements, initial.across):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    def test_accepted_meshes_share_the_initial_connectivity(self):
        self._check_one_connectivity(cg.run(reference_config(T=0.2)))

    def test_accepted_3d_meshes_share_the_initial_connectivity(self):
        result = cg.run(RunConfig.from_dict({
            "dimension": 3, "kmax": 1, "T": 0.02,
            "initial_velocity": {"type": "taylor_green", "amplitude": 0.25},
            "initial_magnetic": {"type": "single_mode", "wavevector": [0, 1, 0],
                                 "phase": "sin", "polarization": 1, "amplitude": 0.3},
            "phase": {"shape": "ball", "center": [np.pi, np.pi, np.pi], "radius": 1.0},
            "nu_plus": 0.2, "nu_minus": 0.1, "sigma": 1.0, "kappa": 0.05,
            "solver": {"delta": 0.01, "n_sub": 4, "mesh_resolution": 1, "tol": 1e-8},
        }))
        assert len(result.windows) == 2
        self._check_one_connectivity(result)

    def test_window_failure_triggers_halving_then_success(self):
        # a sweep budget of 2 fails at the policy window, which marches from
        # the Euler start in 3 sweeps, and succeeds at its half, which
        # marches in 2; the three windows after it extrapolate and take 1
        config = reference_config(T=0.2)
        config.max_iter = 2
        result = cg.run(config)
        assert result.window_failures >= 1
        assert result.final_state.t == pytest.approx(0.2)
        # only delta halves, and the halved windows converge within the
        # budget; no attempt records a damping factor
        assert result.window_failures == 1
        assert [a["sweeps"] for a in result.attempts] == [2, 2, 1, 1, 1]
        assert len(result.windows) == 4
        assert result.window_failures == len(result.attempts) - len(result.windows)
        assert sum(not a["accepted"] for a in result.attempts) == result.window_failures
        assert not any("omega" in a for a in result.attempts)

    def test_non_finite_forcing_halves_the_window(self, monkeypatch):
        # the capillary term at the first in-window node (the second mesh
        # paired; the first is the initial one, at t = 0) comes back NaN: the
        # first window marches, so its forcing at node 1 raises before the
        # residual, and the window fails with no sweep counted but that one
        # forcing evaluation recorded, halves, and the run carries on to T
        real = cg.curvature_pairing_modes
        calls = []

        def nan_once(mesh, basis):
            calls.append(mesh.t)
            values = real(mesh, basis)
            return np.full_like(values, np.nan) if len(calls) == 2 else values

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
        assert failed["start"] == "march" and failed["forcing_evaluations"] == 1
        assert halved["accepted"] and halved["delta"] == failed["delta"] / 2

    @pytest.mark.parametrize("fault", [*sorted(MESH_FAULTS), "NaN B step"])
    def test_a_bad_advected_mesh_halves_the_window(self, monkeypatch, fault):
        # the first mesh sweep 1 advects is broken, and its geometry raises;
        # or B's first sub-step ends non-finite, and the next B step or the
        # forcing raises.  Both in the first window, which marches, and in
        # the one at t = 0.1, which sweeps from the first's last nodes: the
        # window fails with a typed cause and no sweep counted, and the
        # halved window is accepted
        causes = {**MESH_FAULTS, "NaN B step": "NumericsError"}
        for since, start in ((0.0, "march"), (0.1, "extrapolated")):
            with monkeypatch.context() as patch:
                if fault in MESH_FAULTS:
                    faulty_advection(patch, fault, calls=1, since=since)
                else:
                    faulty_B_step(patch, since=since)
                result = cg.run(reference_config(T=since + 0.1))
            assert result.window_failures == 1
            (index,) = [i for i, a in enumerate(result.attempts) if not a["accepted"]]
            failed, halved = result.attempts[index : index + 2]
            assert (failed["t"], failed["start"]) == (since, start)
            assert (failed["sweeps"], failed["error"]) == (0, causes[fault])
            assert "during sweep 1" in failed["message"]
            assert halved["accepted"] and halved["delta"] == failed["delta"] / 2
            assert result.final_state.t == pytest.approx(since + 0.1)

    def test_non_finite_forcing_at_t0_raises_at_once(self, monkeypatch):
        # no window size changes N at the initial state: the run stops
        # before any window attempt instead of halving to delta_min
        def nan_pairing(mesh, basis):
            return np.full(len(basis), np.nan)

        windows = []
        real = cg.fixed_point_window

        def counted(*args, **kwargs):
            windows.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cg, "curvature_pairing_modes", nan_pairing)
        monkeypatch.setattr(cg, "fixed_point_window", counted)
        with pytest.raises(NumericsError, match="non-finite"):
            cg.run(reference_config(T=0.1))
        assert windows == []

    def test_each_node_is_recorded_once(self, monkeypatch):
        # a window's node 0 is its predecessor's last node: its dissipation
        # rate is carried over, and neither it nor its forcing-bound sample
        # is taken again; the ledger's rates are those of the forcing pass
        # that the window accepted, and no gradient is synthesized for it:
        # one node's at t = 0, then one per forcing evaluation, whether a
        # sweep is stacked or marched
        real = cb.Quadrature.field_gradients
        synthesized = []

        def counted(quad, coefficients):
            synthesized.append(len(np.atleast_2d(coefficients)))
            return real(quad, coefficients)

        monkeypatch.setattr(cb.Quadrature, "field_gradients", counted)
        result = cg.run(reference_config(T=0.15))
        assert len(result.windows) > 1
        assert {a["start"] for a in result.attempts} == {"march", "extrapolated"}
        evaluated = sum(a["forcing_evaluations"] for a in result.attempts)
        assert sum(synthesized) == 1 + evaluated == 1 + 8 * result.sweeps
        for previous, window in zip(result.windows, result.windows[1:]):
            assert window.rates[:1].tobytes() == previous.rates[-1:].tobytes()
        viscous, cumulative = [0.0], 0.0
        rates = [result.windows[0].rates[0]]
        rates += [rate for window in result.windows for rate in window.rates[1:]]
        steps = np.concatenate([np.diff(window.t_grid) for window in result.windows])
        for dt, before, after in zip(steps, rates, rates[1:]):
            cumulative = cumulative + 0.5 * dt * (before + after)
            viscous.append(cumulative)
        assert np.array(viscous).tobytes() == result.ledger.column("viscous_cum").tobytes()
        assert len(result.n_bound_samples) == len(result.ledger) == len(result.states)
        times = [sample[0] for sample in result.n_bound_samples]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times == [state.t for state in result.states]

    def test_two_phase_window_needs_the_phase(self, basis_2d):
        anchor = make_state(basis_2d, params=cg.FluidParams(0.2, 0.1, 1.0, 0.0))
        initial = cg.initial_window(anchor, 8, ci.disk(CENTER_2D, 1.0))
        with pytest.raises(ValueError, match="phase region"):
            cg.fixed_point_window(
                initial, 0.05, 4, 1e-8, 5, order=8, h_flow=0.01, dt_b=0.0125
            )

    def test_later_two_phase_window_needs_the_history(self, basis_2d):
        # without the velocity before t_m the band points of a window at
        # t_m > 0 have no way back to t = 0
        phase = ci.disk(CENTER_2D, 1.0)
        anchor = make_state(basis_2d, params=cg.FluidParams(0.2, 0.1, 1.0, 0.0))
        initial = cg.initial_window(anchor, 8, phase)
        args = dict(order=8, h_flow=0.01, dt_b=0.0125, phase=phase)
        first = cg.fixed_point_window(
            initial, 0.05, 4, 1e-8, 5, history=_history(initial), **args
        )
        assert first.states[-1].t == pytest.approx(0.05)
        with pytest.raises(ValueError, match="history"):
            cg.fixed_point_window(first, 0.05, 4, 1e-8, 5, **args)

    def test_window_records_its_indicator_traces(self, basis_2d):
        # order 20 puts points in the band of the unit disk: the window
        # traces them once and reuses that trace in its later sweeps, and a
        # failed window reports its count as it reports its residuals
        anchor = make_state(basis_2d, u_coeffs=np.full(len(basis_2d), 0.05),
                            params=cg.FluidParams(0.2, 0.1, 1.0, 0.1))
        initial = cg.initial_window(anchor, 20, ci.disk(CENTER_2D, 1.0))
        args = dict(order=20, h_flow=0.01, dt_b=0.0125, phase=ci.disk(CENTER_2D, 1.0),
                    history=_history(initial))
        window = cg.fixed_point_window(initial, 0.05, 4, 1e-8, 20, **args)
        assert len(window.residual_history) > 1
        assert window.work["indicator_traces"] == 1
        with pytest.raises(WindowFailureError) as err:
            cg.fixed_point_window(initial, 0.05, 4, 1e-8, 2, **args)
        assert err.value.work["indicator_traces"] == 1
        assert len(err.value.residual_history) == 2

    def test_non_finite_iterate_is_a_numerics_failure(self, monkeypatch, basis_2d):
        anchor = make_state(basis_2d, u_coeffs=np.full(len(basis_2d), 0.1))
        args = dict(order=8, h_flow=0.01, dt_b=0.0125)
        initial = cg.initial_window(anchor, 8, None)
        previous = cg.fixed_point_window(initial, 0.05, 4, 1e-8, 5, **args)
        for window, start, sweep in ((initial, "march", 1), (previous, "extrapolated", 2)):
            monkeypatch.undo()
            _nan_first_forcing(monkeypatch)
            with pytest.raises(WindowFailureError, match=f"during sweep {sweep}") as err:
                cg.fixed_point_window(window, 0.05, 4, 1e-8, 5, **args)
            assert err.value.start == start
            assert isinstance(err.value.__cause__, NumericsError)
            assert "velocity iterate" in str(err.value.__cause__)

    def test_non_finite_iterate_halves_the_window(self, monkeypatch):
        _nan_first_forcing(monkeypatch)
        result = cg.run(reference_config(T=0.1))
        assert result.window_failures == 1
        assert result.attempts[0]["error"] == "NumericsError"
        first = result.windows[0].t_grid
        assert first[-1] - first[0] == pytest.approx(result.delta_initial / 2)
        assert result.final_state.t == pytest.approx(0.1)

    def test_predictor_takes_fewer_sweeps_than_the_tiled_start(self, monkeypatch):
        # the windows after the first start from several nodes and sweep from
        # the predictor's extrapolation; the anchor tiled over their nodes
        # starts each farther off and costs sweeps (the first window marches
        # from Euler either way).  Marching every window from Euler costs
        # more than the extrapolated start too
        config = reference_config(T=0.2)
        extrapolated = cg.run(config)
        real = cg.predictor

        def tiled_start(anchor, t_grid, t_nodes, n_nodes):
            if len(t_nodes) == 1:
                return real(anchor, t_grid, t_nodes, n_nodes)
            return np.tile(anchor.u.coefficients, (len(t_grid), 1))

        monkeypatch.setattr(cg, "predictor", tiled_start)
        tiled = cg.run(config)
        monkeypatch.undo()
        _euler_only(monkeypatch)
        euler = cg.run(config)
        assert extrapolated.window_failures == tiled.window_failures == 0
        assert euler.window_failures == 0
        assert len(extrapolated.windows) == len(tiled.windows) > 1
        for new, old in zip(extrapolated.windows[1:], tiled.windows[1:]):
            assert new.start == old.start == "extrapolated"
            assert len(new.residual_history) <= len(old.residual_history)
            assert new.residual_history[0] < old.residual_history[0]
        assert extrapolated.sweeps < tiled.sweeps
        assert extrapolated.sweeps < euler.sweeps

    def test_extrapolated_start_never_costs_a_sweep(self, monkeypatch):
        # the reference at T = 0.5: every window after the first extrapolates,
        # none takes more sweeps than from Euler, and the total falls
        config = reference_config()
        extrapolated = cg.run(config)
        _euler_only(monkeypatch)
        euler = cg.run(config)
        assert extrapolated.window_failures == euler.window_failures == 0
        starts = [a["start"] for a in extrapolated.attempts]
        assert starts == ["march"] + ["extrapolated"] * (len(starts) - 1)
        assert {a["start"] for a in euler.attempts} == {"march"}
        assert len(extrapolated.windows) == len(euler.windows)
        for new, old in zip(extrapolated.windows, euler.windows):
            assert len(new.residual_history) <= len(old.residual_history)
        assert extrapolated.sweeps < euler.sweeps

    def test_crossed_end_mesh_halves_the_window(self, monkeypatch):
        # the accepted end mesh is checked once per window; a crossing found
        # there fails the window like any other broken dependent, and the
        # failed attempt's record keeps the traces its sweeps made (order 20
        # puts quadrature points in the band, so the window traces)
        real = ci.check_simple
        calls = []

        def crossed_once(mesh):
            calls.append(mesh.t)
            if len(calls) == 1:
                raise MeshInvariantError("2D mesh crosses itself (edges 0 and 2)")
            return real(mesh)

        legs = _counting_traces(monkeypatch)
        real_call = cg._WindowIndicator.__call__
        traced = []

        def counted(indicator, sampler):
            before = len(legs)
            chi = real_call(indicator, sampler)
            if len(legs) > before:
                traced.append(indicator.t_grid[-1] - indicator.t_grid[0])
            return chi

        monkeypatch.setattr(cg, "check_simple", crossed_once)
        monkeypatch.setattr(cg._WindowIndicator, "__call__", counted)
        config = reference_config(T=0.1)
        config.quadrature_order = 20
        result = cg.run(config)
        assert result.window_failures == 1
        assert len(calls) == 1 + len(result.windows)
        assert result.final_state.t == pytest.approx(0.1)
        failed = result.attempts[0]
        assert not failed["accepted"]
        assert failed["indicator_traces"] == traced.count(failed["delta"]) > 0

    # Work of three fixed runs: sweeps, forcing evaluations (N at t = 0 and
    # the attempts' own), ledger rows and the attempts' summed indicator
    # tally, in WORK's order after "forcing_evaluations".
    PINNED_WORK = {
        "configs/reference_2d.json": (7, 57, 41, (0, 0, 0, 0, 0)),
        "bench/workloads/ref2d-long.json": (20, 161, 121, (4, 576, 2, 3000, 40)),
        "bench/workloads/ball3d.json": (2, 17, 9, (0, 0, 0, 0, 0)),
    }

    @pytest.mark.parametrize("path", sorted(PINNED_WORK))
    def test_attempt_records_pin_the_work(self, path, monkeypatch):
        # the attempt records count the run's work where it is done: the
        # forcing at n_sub nodes per sweep, besides N at t = 0, and the
        # indicator's tally; the ledger takes one rate per row from them.
        # The window-start mesh casts rays only for the carried points it
        # decides: node 0's row stands for the points the flow cannot reach
        cast = []
        real_cast = cg.point_in_mesh

        def counted(mesh, points):
            cast.append(np.array(points))
            return real_cast(mesh, points)

        monkeypatch.setattr(cg, "point_in_mesh", counted)
        sweeps, forcing, rates, tally = self.PINNED_WORK[path]
        config = RunConfig.from_json(ROOT / path)
        result = cg.run(config)
        assert result.window_failures == 0
        assert sum(attempt["sweeps"] for attempt in result.attempts) == sweeps
        work = {key: sum(attempt[key] for attempt in result.attempts) for key in cg.WORK}
        assert 1 + work.pop("forcing_evaluations") == 1 + config.n_sub * sweeps == forcing
        assert work == dict(zip(cg.WORK[1:], tally))
        assert len(result.ledger) == rates
        assert sum(len(points) for points in cast) == work["mesh_decided_points"]
        grid = result.final_state.u.basis.quadrature(config.quadrature_order).points
        assert not any(np.array_equal(points, grid) for points in cast)

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
