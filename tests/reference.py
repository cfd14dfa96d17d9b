"""Reference implementations the tests compare the solver against.

None of these is on the solver's path.  Each is the plain form of something
the solver does in a faster or narrower way: velocity samplers from one
field or from callables, the single-shot back-trace and the indicator it
gives, the curvature pairing against one test field, the m x n trig
tables from sin and cos of every phase angle and a quadrature grid that
holds them, the quadrature Gram matrix of the basis, the m x n trig-table
forms of off-grid synthesis and of the curvature pairing against every
mode, the (m, n) product-table forms of the grid pairings, the flow-map
Jacobian from the variational equation, the induction chain with every
step kept, the basis modes enumerated one at a time, the all-pairs
crossing test of a polygon, the distance to a polygon by one clamped
projection onto each edge, a mesh's element geometry computed afresh from
its corners by each measure's own formula, and the artifact writers that
format one row at a time.
"""

import itertools

import numpy as np

from capmhd.basis import quadrature_rule
from capmhd.flowmap import integrate_positions, step_sizes
from capmhd.induction import step_B
from capmhd.energy import COLUMNS
from capmhd.errors import MeshInvariantError
from capmhd.interface import _polygon_order


class SteadyField:
    """Time-independent sampler wrapping a single spectral field."""

    def __init__(self, field):
        self.field = field

    def coefficients_at(self, t):
        return self.field.coefficients

    def velocity(self, t, points):
        return synthesize(self.field.basis, self.field.coefficients, points)

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
    centers, n, measures, _ = mesh.geometry
    grads = np.asarray(grad_eta(centers), dtype=np.float64)
    if not np.all(np.isfinite(grads)):
        raise ValueError("grad_eta returned non-finite values")
    trace = np.einsum("eii->e", grads)
    normal_part = np.einsum("ei,eij,ej->e", n, grads, n)
    return float(np.sum(measures * (trace - normal_part)))


def _phase_table(basis, points, cos, sin):
    theta = points @ basis.wavevectors.T
    out = np.empty_like(theta)
    sine = basis.is_sine
    out[:, sine] = sin(theta[:, sine])
    out[:, ~sine] = cos(theta[:, ~sine])
    return out


def phase_values(basis, points):
    """trig(k_j . x_m) as an (m, n) array, from sin and cos of every angle."""
    return _phase_table(basis, points, np.cos, np.sin)


def phase_derivatives(basis, points):
    """d/dtheta trig(k_j . x_m) as an (m, n) array, from sin and cos of every angle."""
    return _phase_table(basis, points, lambda theta: -np.sin(theta), np.cos)


class Quadrature:
    """The grid of ``quadrature_rule`` with the direct trig tables at its nodes.

    It stands in for ``basis.Quadrature`` in the reference pairings; both
    tables are built at once.
    """

    def __init__(self, basis, order):
        self.basis = basis
        self.points, self.weight = quadrature_rule(basis.dimension, order)
        self.values = phase_values(basis, self.points)
        self.derivatives = phase_derivatives(basis, self.points)


def gram_matrix(basis, order):
    """Quadrature Gram matrix of the basis (identity for the default basis)."""
    quad = Quadrature(basis, order)
    ph = quad.values * basis.normalizations
    return quad.weight * (ph.T @ ph) * (basis.polarizations @ basis.polarizations.T)


def synthesize(basis, coefficients, points):
    """Field values at ``points`` from the m x n ``phase_values`` table: (m, d)."""
    weights = (coefficients * basis.normalizations)[:, None] * basis.polarizations
    return phase_values(basis, points) @ weights


def synthesize_gradient(basis, coefficients, points):
    """Field Jacobians at ``points`` from the ``phase_derivatives`` table: (m, d, d)."""
    scaled = coefficients * basis.normalizations
    outer = (
        scaled[:, None, None]
        * basis.polarizations[:, :, None]
        * basis.wavevectors[:, None, :]
    )
    return np.tensordot(phase_derivatives(basis, points), outer, axes=([1], [0]))


def curvature_pairing_modes(mesh, basis):
    """Curvature pairing against every mode from the centroids' trig table."""
    centers, n, measures, _ = mesh.geometry
    dph = phase_derivatives(basis, centers)
    dph *= n @ basis.polarizations.T
    dph *= n @ basis.wavevectors.T
    return -basis.normalizations * (measures @ dph)


def convection_pairing(a_values, b_values, quad):
    """Convection pairing from (m, n) tables of (a . e_j) and (k_j . b).

    ``quad`` is a reference ``Quadrature``, as in ``strain_pairing``.
    """
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
    """The chain of ``step_B`` that ``solve_B`` takes over one sub-step, with
    every step kept.

    Same step times as ``solve_B`` (the last step shortened to land on t1),
    but each step synthesizes u afresh from the sampler's coefficients at
    its start, and B from its own.  Returns (times, fields, resistive
    increments): fields[0] is b0 and increment i is sigma * ||grad B||^2 *
    dt at the end of step i.
    """
    quad = b0.basis.quadrature(order)
    sizes = step_sizes(t0, t1, dt)
    n_steps = len(sizes)
    times, fields, increments = [t0], [b0], []
    for step, dt_step in enumerate(sizes):
        u_values = quad.field_values(sampler.coefficients_at(times[-1]))
        b_values = quad.field_values(fields[-1].coefficients)
        fields.append(step_B(fields[-1], u_values, b_values, sigma, dt_step, quad))
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


def check_simple(mesh):
    """All-pairs crossing test of a 2D polygon, 32 rows of edges at a time.

    Every edge is tested against every edge by the exact sign test of
    ``interface.check_simple``; the first crossing pair in row-major order
    is reported.
    """
    if mesh.dimension != 2:
        return mesh
    corners = mesh.element_corners()
    a, span = corners[:, 0], corners[:, 1] - corners[:, 0]

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    for start in range(0, len(a), 32):
        rows = slice(start, start + 32)
        to_a = a[None, :, :] - a[rows, None, :]
        here, there = span[rows, None, :], span[None, :, :]
        apart = np.sign(cross(here, to_a)) * np.sign(cross(here, to_a + there))
        back = np.sign(cross(there, -to_a)) * np.sign(cross(there, here - to_a))
        crossing = (apart < 0.0) & (back < 0.0)
        if np.any(crossing):
            i, j = np.argwhere(crossing)[0]
            raise MeshInvariantError(f"2D mesh crosses itself (edges {start + i} and {j})")
    return mesh


def polygon_distance(mesh, points):
    """The exact distance of each point to a 2D mesh: to its nearest edge.

    Each point is projected onto every edge, the projection clamped to the
    edge, in blocks of 32 points.
    """
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    a = mesh.vertices[mesh.elements[:, 0]]
    span = mesh.vertices[mesh.elements[:, 1]] - a
    squared_length = mesh.geometry.measures ** 2
    out = np.empty(len(p))
    for start in range(0, len(p), 32):
        rows = slice(start, start + 32)
        dx = p[rows, None, 0] - a[None, :, 0]
        dy = p[rows, None, 1] - a[None, :, 1]
        s = np.clip((dx * span[:, 0] + dy * span[:, 1]) / squared_length, 0.0, 1.0)
        dx -= s * span[:, 0]
        dy -= s * span[:, 1]
        out[rows] = np.sqrt(np.min(dx * dx + dy * dy, axis=1))
    return out


def mesh_geometry(mesh):
    """(centres, unit normals, measures, signed volume), each computed afresh
    from the corners by its own formula, as the measures were before a mesh
    kept its geometry; the volume sums the corners' cross or triple products
    about vertex 0."""
    corners = mesh.element_corners()
    if mesh.dimension == 2:
        tangents = corners[:, 1] - corners[:, 0]
        raw = np.stack([tangents[:, 1], -tangents[:, 0]], axis=-1)
        measures = np.linalg.norm(tangents, axis=1)
        local = corners - mesh.vertices[0]
        cross = local[:, 0, 0] * local[:, 1, 1] - local[:, 0, 1] * local[:, 1, 0]
        volume = 0.5 * float(np.sum(cross))
    else:
        raw = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        measures = 0.5 * np.linalg.norm(raw, axis=1)
        local = corners - mesh.vertices[0]
        triple = np.einsum("ei,ei->e", local[:, 0], np.cross(local[:, 1], local[:, 2]))
        volume = float(np.sum(triple)) / 6.0
    normals = raw / np.linalg.norm(raw, axis=1)[:, None]
    return corners.mean(axis=1), normals, measures, volume


def _write_lines(path, lines):
    with open(str(path), "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_ledger(ledger, path):
    """The ledger CSV, one f-string per value."""
    lines = [",".join(COLUMNS)]
    for row in ledger.rows:
        lines.append(",".join(f"{v:.12g}" for v in row))
    _write_lines(path, lines)


def write_mesh(mesh, path):
    """The mesh's CSV polyline (2D) or Wavefront OBJ (3D), one row at a time."""
    if mesh.dimension == 2:
        lines = ["x,y"]
        for v in mesh.vertices[_polygon_order(mesh)]:
            lines.append(f"{v[0]:.12g},{v[1]:.12g}")
    else:
        lines = []
        for v in mesh.vertices:
            lines.append(f"v {v[0]:.12g} {v[1]:.12g} {v[2]:.12g}")
        for e in mesh.elements:
            lines.append(f"f {e[0] + 1} {e[1] + 1} {e[2] + 1}")
    _write_lines(path, lines)


def write_varifold(varifold, path):
    """The varifold CSV (x1..xd, s1..sd, w), one row at a time."""
    d = varifold.dimension
    lines = [",".join([f"x{i + 1}" for i in range(d)] + [f"s{i + 1}" for i in range(d)] + ["w"])]
    for xi, si, wi in zip(varifold.x, varifold.s, varifold.w):
        row = [f"{v:.12g}" for v in xi] + [f"{v:.12g}" for v in si] + [f"{wi:.12g}"]
        lines.append(",".join(row))
    _write_lines(path, lines)
