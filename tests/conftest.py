import numpy as np
import pytest
from hypothesis import settings

from capmhd import basis as cb
from capmhd import galerkin as cg
from capmhd import induction as cind
from capmhd import interface as ci
from capmhd.config import RunConfig

import reference as ref

# Property tests draw the same examples on every run and have no per-example
# deadline, so timing on a loaded machine cannot fail them.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

CENTER_2D = (np.pi, np.pi)
CENTER_3D = (np.pi, np.pi, np.pi)


def taylor_green_2d(amplitude=1.0):
    """Steady Taylor-Green velocity sampler with analytic gradient."""

    def velocity(t, p):
        x, y = p[..., 0], p[..., 1]
        return amplitude * np.stack(
            [np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)], axis=-1
        )

    def gradient(t, p):
        x, y = p[..., 0], p[..., 1]
        g = np.empty(p.shape[:-1] + (2, 2))
        g[..., 0, 0] = np.cos(x) * np.cos(y)
        g[..., 0, 1] = -np.sin(x) * np.sin(y)
        g[..., 1, 0] = np.sin(x) * np.sin(y)
        g[..., 1, 1] = -np.cos(x) * np.cos(y)
        return amplitude * g

    return ref.AnalyticField(velocity, gradient)


def rigid_rotation(center=CENTER_2D):
    """Counter-clockwise rigid rotation about ``center`` (rate 1)."""
    cx, cy = center

    def velocity(t, p):
        return np.stack([-(p[..., 1] - cy), p[..., 0] - cx], axis=-1)

    def gradient(t, p):
        return np.broadcast_to(
            np.array([[0.0, -1.0], [1.0, 0.0]]), p.shape[:-1] + (2, 2)
        ).copy()

    return ref.AnalyticField(velocity, gradient)


def rotate_about(points, center, angle):
    """Exact rigid rotation of points, the closed-form flow of the rotation field."""
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return np.asarray(center) + (np.asarray(points) - np.asarray(center)) @ rot.T


def phi_identity(points):
    """phi(x) = x with its gradient, in the (values, grads) convention."""
    points = np.atleast_2d(points)
    d = points.shape[1]
    return points, np.broadcast_to(np.eye(d), (len(points), d, d)).copy()


def smooth_phi_2d(points):
    """A fixed smooth 2D test field with analytic gradient."""
    x, y = points[:, 0], points[:, 1]
    vals = np.stack([np.sin(x) * np.cos(y), np.cos(x) * np.sin(y)], axis=-1)
    grads = np.empty((len(points), 2, 2))
    grads[:, 0, 0] = np.cos(x) * np.cos(y)
    grads[:, 0, 1] = -np.sin(x) * np.sin(y)
    grads[:, 1, 0] = -np.sin(x) * np.sin(y)
    grads[:, 1, 1] = np.cos(x) * np.cos(y)
    return vals, grads


def smooth_phi_3d(points):
    """A fixed smooth 3D test field with analytic gradient."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    vals = np.stack(
        [np.sin(x) * np.cos(y), np.cos(y) * np.sin(z), np.sin(x) * np.cos(z)], axis=-1
    )
    grads = np.zeros((len(points), 3, 3))
    grads[:, 0, 0] = np.cos(x) * np.cos(y)
    grads[:, 0, 1] = -np.sin(x) * np.sin(y)
    grads[:, 1, 1] = -np.sin(y) * np.sin(z)
    grads[:, 1, 2] = np.cos(y) * np.cos(z)
    grads[:, 2, 0] = np.cos(x) * np.cos(z)
    grads[:, 2, 2] = -np.sin(x) * np.sin(z)
    return vals, grads


def circle_first_variation(center, radius, phi, n_quad=200_000):
    """Dense closed-form curvature oracle on a circle.

    Evaluates the smooth-surface identity for the first variation,
    integral of (d-1)/R * (n . phi) over the circle with outward n (the
    orientation that returns +perimeter for phi = identity).
    """
    theta = (np.arange(n_quad) + 0.5) * (2.0 * np.pi / n_quad)
    n = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = np.asarray(center) + radius * n
    vals, _ = phi(pts)
    ds = 2.0 * np.pi * radius / n_quad
    return float(np.sum(np.einsum("ai,ai->a", n, vals)) * ds / radius)


def sphere_first_variation(center, radius, phi, n_theta=400, n_az=800):
    """Dense closed-form curvature oracle on a sphere (same orientation)."""
    theta = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    azim = (np.arange(n_az) + 0.5) * (2.0 * np.pi / n_az)
    tt, pp = np.meshgrid(theta, azim, indexing="ij")
    n = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)
    pts = np.asarray(center) + radius * n
    vals, _ = phi(pts)
    weights = (np.sin(tt) * (np.pi / n_theta) * (2.0 * np.pi / n_az)).reshape(-1)
    area_el = weights * radius**2
    return float(np.sum(area_el * np.einsum("ai,ai->a", n, vals)) * 2.0 / radius)


def reference_config(**overrides):
    """The reference two-phase configuration (d=2, kmax=2, disk, kappa=0.1)."""
    data = {
        "dimension": 2,
        "kmax": 2,
        "T": 0.5,
        "initial_velocity": {"type": "taylor_green", "amplitude": 0.25},
        "initial_magnetic": {
            "type": "single_mode",
            "wavevector": [1, 0],
            "phase": "cos",
            "polarization": 0,
            "amplitude": 0.2,
        },
        "phase": {"shape": "disk", "center": list(CENTER_2D), "radius": 1.0},
        "nu_plus": 0.2,
        "nu_minus": 0.1,
        "sigma": 1.0,
        "kappa": 0.1,
        "solver": {"delta": 0.1, "n_sub": 8, "tol": 1e-8, "omega": 1.0,
                   "h_flow": 0.01, "mesh_resolution": 256},
        "output": {"directory": "out", "cadence": 0.1},
    }
    data.update(overrides)
    return RunConfig.from_dict(data)


# Faults of an advected mesh's vertices, and the error the mesh raises.
MESH_FAULTS = {"NaN row": "MeshInvariantError", "+inf row": "MeshInvariantError",
               "collapsed edge": "MeshQualityError"}


def faulty_advection(monkeypatch, fault, calls=None, since=0.0):
    """Give the first ``calls`` results of the mesh advection's integrator
    (every one, for None) from a mesh at t >= ``since`` the ``MESH_FAULTS``
    entry ``fault``: vertex 0 NaN or +inf, or vertex 1 moved onto its
    neighbour vertex 0."""
    real = ci.integrate_positions
    made = []

    def faulty(positions, sampler, t0, t1, h):
        vertices = real(positions, sampler, t0, t1, h).copy()
        if t0 < since:
            return vertices
        made.append(1)
        if calls is None or len(made) <= calls:
            if fault == "collapsed edge":
                vertices[1] = vertices[0]
            else:
                vertices[0] = np.nan if fault == "NaN row" else np.inf
        return vertices

    monkeypatch.setattr(ci, "integrate_positions", faulty)


def faulty_B_step(monkeypatch, since=0.0):
    """Make B's first IMEX step from t >= ``since`` non-finite: the transport
    pairing of the first step of the first sub-step march from there comes
    back NaN, and the step raises its NumericsError."""
    real_solve, real_transport = cg.solve_B, cind.transport_pairing
    # [] before that march, [True] until its first step, then [False]
    armed = []

    def solve(u_values, span, *args):
        if span[0] >= since and not armed:
            armed.append(True)
        return real_solve(u_values, span, *args)

    def transport(*args):
        values = real_transport(*args)
        if armed == [True]:
            armed[0] = False
            return values * np.nan
        return values

    monkeypatch.setattr(cg, "solve_B", solve)
    monkeypatch.setattr(cind, "transport_pairing", transport)


def faulty_forcing(monkeypatch, nodes=None):
    """Give the capillary pairing NaN entries at the in-window nodes (t > 0)
    whose count from 1, in the order the solver pairs them, is in ``nodes``
    (every one, for None): the forcing there raises its NumericsError."""
    real = cg.curvature_pairing_modes
    paired = []

    def faulty(mesh, basis):
        values = real(mesh, basis)
        if mesh.t > 0.0:
            paired.append(1)
            if nodes is None or len(paired) in nodes:
                return np.full_like(values, np.nan)
        return values

    monkeypatch.setattr(cg, "curvature_pairing_modes", faulty)


def single_phase_decay_config(n_sub=8, **overrides):
    """Smooth single-phase configuration (equal viscosities, passive disk)."""
    data = {
        "dimension": 2,
        "kmax": 2,
        "T": 0.5,
        "initial_velocity": {"type": "taylor_green", "amplitude": 0.5},
        "initial_magnetic": {
            "type": "single_mode",
            "wavevector": [0, 1],
            "phase": "sin",
            "polarization": 0,
            "amplitude": 0.4,
        },
        "phase": {"shape": "disk", "center": list(CENTER_2D), "radius": 1.0},
        "nu_plus": 0.2,
        "nu_minus": 0.2,
        "sigma": 0.5,
        "kappa": 0.0,
        "solver": {"delta": 0.1, "n_sub": n_sub, "tol": 1e-10, "omega": 1.0,
                   "h_flow": 0.01, "mesh_resolution": 64},
        "output": {"directory": "out", "cadence": None},
    }
    data.update(overrides)
    return RunConfig.from_dict(data)


@pytest.fixture(scope="session")
def basis_2d():
    return cb.make_basis(2, 2)


@pytest.fixture(scope="session")
def circle_mesh():
    return ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 256)


@pytest.fixture(scope="session")
def sphere_mesh():
    return ci.mesh_initial(ci.ball(CENTER_3D, 1.0), 4)
