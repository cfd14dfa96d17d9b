"""Reference implementations the tests compare the solver against.

None of these is on the solver's path.  Each is the plain form of something
the solver does in a faster or narrower way: velocity samplers from one
field or from callables, the single-shot back-trace and the indicator it
gives, the curvature pairing against one test field, the quadrature
Gram matrix of the basis, the m x n trig-table forms of off-grid
synthesis and of the curvature pairing against every mode, the (m, n)
product-table forms of the grid pairings, the flow-map Jacobian from the
variational equation, the induction chain with every step kept, and the
basis modes enumerated one at a time.
"""

import itertools

import numpy as np

from capmhd.flowmap import integrate_positions, step_sizes
from capmhd.induction import step_B
from capmhd.interface import element_geometry


class SteadyField:
    """Time-independent sampler wrapping a single spectral field."""

    def __init__(self, field):
        self.field = field

    def coefficients_at(self, t):
        return self.field.coefficients

    def velocity(self, t, points):
        return self.field.evaluate(points)

    def gradient(self, t, points):
        return synthesize_gradient(self.field.basis, self.field.coefficients, points)


class AnalyticField:
    """Sampler built from callables, for analytic test velocities."""

    def __init__(self, velocity, gradient=None):
        self._velocity = velocity
        self._gradient = gradient

    def velocity(self, t, points):
        return np.asarray(self._velocity(t, points), dtype=np.float64)

    def gradient(self, t, points):
        if self._gradient is None:
            raise NotImplementedError("analytic field has no gradient callable")
        return np.asarray(self._gradient(t, points), dtype=np.float64)


def backtrace(x, sampler, t, h):
    """Preimage of x under the flow map: integrates the ODE from t back to 0."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    out = integrate_positions(np.atleast_2d(x), sampler, t, 0.0, h)
    return out[0] if single else out


def indicator(x, t, sampler, phase, h):
    """Phase indicator at time t by back-tracing to the initial region."""
    if t == 0.0:
        return phase.contains(x)
    return phase.contains(backtrace(x, sampler, t, h))


def curvature_pairing(mesh, grad_eta):
    """Weak mean-curvature pairing: sum of measure * (I - n n^T) : grad_eta.

    ``grad_eta`` maps (m, d) points to (m, d, d) Jacobians; the quadrature
    node is the segment midpoint (2D) or triangle centroid (3D).  With
    grad_eta = I this returns (d - 1) * perimeter identically.
    """
    centers, n, measures = element_geometry(mesh)
    grads = np.asarray(grad_eta(centers), dtype=np.float64)
    if not np.all(np.isfinite(grads)):
        raise ValueError("grad_eta returned non-finite values")
    trace = np.einsum("eii->e", grads)
    normal_part = np.einsum("ei,eij,ej->e", n, grads, n)
    return float(np.sum(measures * (trace - normal_part)))


def gram_matrix(basis, order):
    """Quadrature Gram matrix of the basis (identity for the default basis)."""
    quad = basis.quadrature(order)
    ph = quad.values * basis.normalizations
    return quad.weight * (ph.T @ ph) * (basis.polarizations @ basis.polarizations.T)


def synthesize(basis, coefficients, points):
    """Field values at ``points`` from the m x n ``phase_values`` table: (m, d)."""
    weights = (coefficients * basis.normalizations)[:, None] * basis.polarizations
    return basis.phase_values(points) @ weights


def synthesize_gradient(basis, coefficients, points):
    """Field Jacobians at ``points`` from the ``phase_derivatives`` table: (m, d, d)."""
    scaled = coefficients * basis.normalizations
    outer = (
        scaled[:, None, None]
        * basis.polarizations[:, :, None]
        * basis.wavevectors[:, None, :]
    )
    return np.tensordot(basis.phase_derivatives(points), outer, axes=([1], [0]))


def curvature_pairing_modes(mesh, basis):
    """Curvature pairing against every mode from the centroids' trig table."""
    centers, n, measures = element_geometry(mesh)
    dph = basis.phase_derivatives(centers)
    dph *= n @ basis.polarizations.T
    dph *= n @ basis.wavevectors.T
    return -basis.normalizations * (measures @ dph)


def convection_pairing(a_values, b_values, quad):
    """Convection pairing from (m, n) tables of (a . e_j) and (k_j . b)."""
    basis = quad.basis
    a_pol = a_values @ basis.polarizations.T
    b_wav = b_values @ basis.wavevectors.T
    return quad.weight * basis.normalizations * np.sum(quad.derivatives * a_pol * b_wav, axis=0)


def strain_pairing(du_values, nu_values, quad):
    """Strain pairing from the (m, n) table of e_j . Du_m . k_j."""
    basis = quad.basis
    contracted = np.einsum(
        "ni,mil,nl->mn", basis.polarizations, du_values, basis.wavevectors
    )
    nu_values = np.asarray(nu_values, dtype=np.float64)
    return (
        2.0
        * quad.weight
        * basis.normalizations
        * np.sum(nu_values[:, None] * quad.derivatives * contracted, axis=0)
    )


def jacobian(x0, sampler, t, h):
    """Flow-map Jacobian grad X_t(x0), integrating the variational equation.

    The matrix starts from the identity at time 0 and satisfies
    d(grad X)/dt = grad u(t, X) . grad X along the trajectory, stepped by RK4
    alongside the positions; for divergence-free u its determinant stays 1.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    single = x0.ndim == 1
    x = np.atleast_2d(x0).copy()
    m, d = x.shape
    jac = np.broadcast_to(np.eye(d), (m, d, d)).copy()

    def rhs(t, x, jac):
        return sampler.velocity(t, x), sampler.gradient(t, x) @ jac

    s = 0.0
    for dt in step_sizes(0.0, t, h):
        kx1, kj1 = rhs(s, x, jac)
        kx2, kj2 = rhs(s + dt / 2, x + (dt / 2) * kx1, jac + (dt / 2) * kj1)
        kx3, kj3 = rhs(s + dt / 2, x + (dt / 2) * kx2, jac + (dt / 2) * kj2)
        kx4, kj4 = rhs(s + dt, x + dt * kx3, jac + dt * kj3)
        x = x + (dt / 6) * (kx1 + 2 * kx2 + 2 * kx3 + kx4)
        jac = jac + (dt / 6) * (kj1 + 2 * kj2 + 2 * kj3 + kj4)
        s += dt
    return jac[0] if single else jac


def induction_steps(sampler, b0, t0, t1, dt, sigma, order):
    """The chain of ``step_B`` that ``solve_B`` takes, with every step kept.

    Same step times as ``solve_B`` (the last step shortened to land on t1).
    Returns (times, fields, resistive increments): fields[0] is b0 and
    increment i is sigma * ||grad B||^2 * dt at the end of step i.
    """
    sizes = step_sizes(t0, t1, dt)
    n_steps = len(sizes)
    times, fields, increments = [t0], [b0], []
    for step, dt_step in enumerate(sizes):
        fields.append(step_B(fields[-1], sampler, times[-1], sigma, dt_step, order))
        times.append(t0 + (step + 1) * dt if step + 1 < n_steps else t1)
        increments.append(sigma * fields[-1].grad_norm_sq() * dt_step)
    return np.array(times), fields, np.array(increments)


def subdivide(vertices, faces):
    """One icosphere subdivision, one edge midpoint at a time.

    The midpoints are numbered as the faces' edges (a, b), (b, c), (c, a) are
    first met, through a dict keyed by the sorted vertex pair.
    """
    verts = vertices.tolist()
    cache = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key in cache:
            return cache[key]
        v = np.asarray(verts[i]) + np.asarray(verts[j])
        v = v / np.linalg.norm(v)
        verts.append(v.tolist())
        cache[key] = len(verts) - 1
        return cache[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.array(verts), np.array(out, dtype=np.int64)


def enumerate_modes(dimension, kmax):
    """(wavevector, phase, polarization) of every basis mode, one at a time.

    The wavevectors are the integer vectors with 0 < max|k_i| <= kmax whose
    first nonzero entry is positive, sorted by (|k|^2, k); each carries
    (d-1) polarizations and, within each, the cos and then the sin phase.
    """
    wavevectors = [
        k
        for k in itertools.product(range(-kmax, kmax + 1), repeat=dimension)
        if any(k) and next(c for c in k if c) > 0
    ]
    wavevectors.sort(key=lambda k: (sum(c * c for c in k), k))
    return [
        (k, phase, polarization)
        for k in wavevectors
        for polarization in range(dimension - 1)
        for phase in ("cos", "sin")
    ]
