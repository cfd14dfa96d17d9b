"""Divergence-free trigonometric basis on the periodic cell [0, 2*pi)^d.

Fields live in the span of real Fourier modes

    eta(x) = norm * trig(k . x) * e,        trig in {cos, sin},

with integer wavevector k != 0 restricted to a canonical half-space (so the
cos/sin pair is not duplicated through k -> -k) and unit polarization e
orthogonal to k.  Every mode is mean-free, exactly divergence-free by
construction, and an eigenfunction of the periodic Stokes operator with
eigenvalue |k|^2.  The modes are orthonormal in L2, so coefficient vectors
carry the L2 geometry (Parseval) and the mass matrix is the identity.

A ``Basis`` is its arrays, one row per mode: the wavevectors, the
polarization indices and the cos/sin flags, from which it derives the unit
polarizations, the normalizations and the eigenvalues.  ``make_basis``
enumerates every mode up to a given max|k_i| in whole arrays, in a fixed
order, so a coefficient vector means the same modes from run to run, and
``Basis.index`` finds one mode's position.

Wavevectors are integers, so a field is u(x) = Re sum_k C_k e^{ik.x} over
the box of integer wavevectors its modes span (``Lattice``), and e^{ik.x} is
the product of one factor e^{i k_a x_a} per axis.  ``Lattice`` evaluates
per-axis tables of those factors, the only trig evaluation of the basis.
Off the grid (mesh vertices, traced points, element centroids) it contracts
the coefficients one axis at a time, and its adjoint sums samples at points
into every wavevector of the box; neither builds an m x n table.

Quadrature is a tensor-product uniform grid, which integrates periodic
trigonometric polynomials exactly once the grid resolves their highest
wavenumber (order per axis >= 2*kmax + 1 for quadratic forms of the basis).
Each basis builds the grid of one order once (``Basis.quadrature``), together
with the m x n trig tables at its nodes, gathered from the lattice's waves
e^{ik.x} over the box; every pairing and node-value consumer takes that
``Quadrature``.
"""

import functools
import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

_PHASES = ("cos", "sin")


def polarization_axes(wavevectors, indices):
    """Integer vectors orthogonal to the wavevectors: (n, d) int64.

    Row j belongs to wavevector k = ``wavevectors[j]`` and polarization
    ``indices[j]``.  The entries are integers, so each dot product with its
    wavevector vanishes in exact arithmetic.  In 2D the single polarization
    is the quarter-turn of k; in 3D the two polarizations are k x e_a and
    k x (k x e_a), where e_a is the coordinate axis of smallest |k_i|.
    """
    k = np.asarray(wavevectors, dtype=np.int64)
    if k.shape[1] == 2:
        return np.stack([-k[:, 1], k[:, 0]], axis=-1)
    unit = np.zeros_like(k)
    unit[np.arange(len(k)), np.argmin(np.abs(k), axis=1)] = 1
    first = np.cross(k, unit)
    second = np.asarray(indices) == 1
    return np.where(second[:, None], np.cross(k, first), first)


def polarization_vectors(wavevectors, indices):
    """Unit polarization vectors: ``polarization_axes`` rows over their norms.

    The axes have integer entries, so their squared norms are exact whatever
    the order of summation.
    """
    axes = polarization_axes(wavevectors, indices)
    return axes / np.sqrt(np.sum(axes * axes, axis=1))[:, None]


def make_basis(dimension, kmax):
    """The basis of every mode with 0 < max|k_i| <= kmax, canonically ordered.

    Wavevectors are restricted to the half-space whose first nonzero entry is
    positive; each carries (d-1) polarizations and both phases.  The ordering
    is lexicographic by (|k|^2, k, polarization, phase), so eigenvalues are
    nondecreasing along the basis.
    """
    if dimension not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dimension}")
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    axis = np.arange(-kmax, kmax + 1)
    box = np.stack(np.meshgrid(*([axis] * dimension), indexing="ij"), axis=-1)
    box = box.reshape(-1, dimension)
    first = box[np.arange(len(box)), np.argmax(box != 0, axis=1)]
    k = box[first > 0]
    k = k[np.lexsort((*k.T[::-1], np.sum(k * k, axis=1)))]
    return Basis(
        np.repeat(k, 2 * (dimension - 1), axis=0),
        np.tile(np.repeat(np.arange(dimension - 1), 2), len(k)),
        np.tile([False, True], len(k) * (dimension - 1)),
    )


class Basis:
    """Modes as packed arrays: mode j is norm * trig_j(k_j . x) * e_j.

    ``wavevectors`` (n, d) are nonzero integer vectors, ``polarization_indices``
    (n,) select e_j among the d - 1 unit vectors orthogonal to k_j
    (``polarization_vectors``), and ``is_sine`` (n,) picks sin over cos.
    The normalization is the one that makes every mode L2-unit on the cell.
    """

    def __init__(self, wavevectors, polarization_indices, is_sine):
        k = np.asarray(wavevectors, dtype=np.int64)
        indices = np.asarray(polarization_indices, dtype=np.int64)
        is_sine = np.asarray(is_sine, dtype=bool)
        if k.ndim != 2 or k.shape[1] not in (2, 3):
            raise ValueError(f"wavevectors must have dimension 2 or 3, got shape {k.shape}")
        if len(k) == 0:
            raise ValueError("basis must contain at least one mode")
        if indices.shape != (len(k),) or is_sine.shape != (len(k),):
            raise ValueError(
                f"{len(k)} wavevectors need as many polarization indices and phases, "
                f"got {indices.shape} and {is_sine.shape}"
            )
        if not np.all(np.any(k, axis=1)):
            raise ValueError("wavevectors must be nonzero (mean-free fields)")
        dimension = k.shape[1]
        if np.any((indices < 0) | (indices > dimension - 2)):
            raise ValueError(
                f"{dimension}D polarization indices must lie in 0..{dimension - 2}, "
                f"got {indices.min()}..{indices.max()}"
            )
        self.dimension = dimension
        self.wavevectors = k.astype(np.float64)
        self.polarization_indices = indices
        self.polarizations = polarization_vectors(k, indices)
        self.normalizations = np.full(len(k), math.sqrt(2.0 / TWO_PI**dimension))
        self.is_sine = is_sine
        self.eigenvalues = np.sum(self.wavevectors * self.wavevectors, axis=1)
        self._quadratures = {}

    def __len__(self):
        return len(self.wavevectors)

    def index(self, wavevector, phase, polarization):
        """Position of the mode (k, "cos" or "sin", polarization index), or None."""
        if len(wavevector) != self.dimension or phase not in _PHASES:
            return None
        match = (
            np.all(self.wavevectors == np.asarray(wavevector, dtype=np.float64), axis=1)
            & (self.is_sine == (phase == "sin"))
            & (self.polarization_indices == polarization)
        )
        hits = np.flatnonzero(match)
        return int(hits[0]) if len(hits) else None

    @property
    def kmax(self):
        return int(np.max(np.abs(self.wavevectors)))

    def _phase_table(self, points, derivative):
        """trig(k_j . x_m), or its derivative, from the lattice's waves: (m, n).

        cos is Re and sin is Im of e^{ik.x}, or of i e^{ik.x} for the
        derivative: one gather per row of the waves' (real, imag) pairs.
        """
        waves = np.ascontiguousarray(self.lattice.waves(points))
        if derivative:
            waves *= 1j
        return np.take(waves.view(np.float64), 2 * self.lattice.index + self.is_sine, axis=1)

    def phase_values(self, points):
        """trig(k_j . x_m) as an (m, n) array."""
        return self._phase_table(points, derivative=False)

    def phase_derivatives(self, points):
        """d/dtheta trig(k_j . x_m) as an (m, n) array."""
        return self._phase_table(points, derivative=True)

    @functools.cached_property
    def lattice(self):
        """The wavevector box of the modes, built with the first trig table."""
        return Lattice(self)

    def quadrature(self, order):
        """The quadrature grid of ``order`` points per axis, built once per basis."""
        quad = self._quadratures.get(order)
        if quad is None:
            points, weight = quadrature_rule(self.dimension, order)
            quad = self._quadratures[order] = Quadrature(self, points, weight)
        return quad


@dataclass
class SpectralField:
    """A field in the span of ``basis``, stored by its coefficient vector."""

    basis: Basis
    coefficients: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.coefficients is None:
            self.coefficients = np.zeros(len(self.basis))
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.shape != (len(self.basis),):
            raise ValueError(
                f"coefficient vector has length {self.coefficients.size}, "
                f"basis has {len(self.basis)} modes"
            )
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")

    @property
    def dimension(self):
        return self.basis.dimension

    def norm(self):
        """L2 norm of the field (= Euclidean norm of coefficients)."""
        return float(np.linalg.norm(self.coefficients))

    def grad_norm_sq(self):
        """Squared L2 norm of the gradient: sum_j |k_j|^2 c_j^2."""
        return float(np.sum(self.basis.eigenvalues * self.coefficients**2))

    def with_coefficients(self, coefficients):
        return SpectralField(self.basis, np.array(coefficients, dtype=np.float64))


def quadrature_rule(dimension, order):
    """Uniform tensor grid points (order^d, d) and the constant weight.

    The uniform (trapezoidal) rule is spectrally exact for periodic
    integrands resolved by the grid.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    axis = np.arange(order) * (TWO_PI / order)
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=-1)
    weight = (TWO_PI / order) ** dimension
    return points, weight


def _read_only(array):
    array.flags.writeable = False
    return array


class Quadrature:
    """The uniform grid of one basis and order, with the trig tables at its nodes.

    ``Basis.quadrature`` hands every caller the same object, so the tables are
    read-only; each is built on first use.  The back-reference to the basis
    is weak: the basis holds its quadratures, and a strong reference back
    would leave a dropped basis and its tables to the cyclic collector.
    """

    def __init__(self, basis, points, weight):
        self.basis = weakref.proxy(basis)
        self.points = _read_only(points)
        self.weight = weight

    @functools.cached_property
    def values(self):
        """``basis.phase_values`` at the nodes: (m, n)."""
        return _read_only(self.basis.phase_values(self.points))

    @functools.cached_property
    def derivatives(self):
        """``basis.phase_derivatives`` at the nodes: (m, n)."""
        return _read_only(self.basis.phase_derivatives(self.points))

    def field_values(self, coefficients):
        """Values at the nodes of the field with these coefficients: (m, d).

        Rows (..., n) give (..., m, d), each row's product as it is alone.
        """
        basis = self.basis
        weights = (coefficients * basis.normalizations)[..., None] * basis.polarizations
        return self.values @ weights

    def field_gradients(self, coefficients):
        """Jacobians at the nodes of the field with these coefficients:
        (m, d, d), or (..., m, d, d) for rows (..., n) as ``field_values``."""
        basis = self.basis
        scaled = coefficients * basis.normalizations
        outer = (
            scaled[..., None, None]
            * basis.polarizations[:, :, None]
            * basis.wavevectors[:, None, :]
        )
        grads = self.derivatives @ outer.reshape(*outer.shape[:-2], -1)
        return grads.reshape(*grads.shape[:-1], *outer.shape[-2:])


class Lattice:
    """The box of integer wavevectors spanned by a basis, and its waves e^{ik.x}.

    A field with coefficients c is u(x) = Re sum_k C_k e^{ik.x}, where C_k
    (a complex d-vector) gathers c_j norm_j p_j e_j over the modes j with
    k_j = k, and p_j is 1 for cos and -i for sin.  Each axis a spans the
    integers between the smallest and largest k_a of the modes, and C is
    stored over the box in C order, one row per wavevector, so the
    contraction over axis 0 is a plain matrix product and every later axis
    a batched one.  ``waves`` multiplies the per-axis tables out over the
    box; the quadrature tables are gathered from it.  It holds no reference
    to the basis, which caches it.
    """

    def __init__(self, basis):
        k = basis.wavevectors.astype(np.int64)
        low, high = k.min(axis=0), k.max(axis=0)
        self.low = low.tolist()
        self.shape = tuple((high - low + 1).tolist())
        self.reach = max(high.max(), -low.min()).item()
        self.index = np.ravel_multi_index(tuple((k - low).T), self.shape)
        phase = np.where(basis.is_sine, -1j, 1.0)
        self.weights = (basis.normalizations * phase)[:, None] * basis.polarizations

    def __len__(self):
        return math.prod(self.shape)

    def coefficients(self, coefficients):
        """C over the box for one or more coefficient rows: (..., L, d)."""
        coefficients = np.asarray(coefficients, dtype=np.float64)
        rows = coefficients.reshape(-1, coefficients.shape[-1])
        out = np.zeros((len(rows), len(self), self.weights.shape[1]), dtype=np.complex128)
        np.add.at(out, (slice(None), self.index), rows[:, :, None] * self.weights)
        return out.reshape(coefficients.shape[:-1] + out.shape[1:])

    def _tables(self, points):
        """Per-axis tables e^{i k x_a} over each axis's range of k: (m, n_a).

        e^{i x_a} is the only trig evaluation; the other powers follow by
        repeated multiplication, and the negative ones by conjugation.
        """
        reach = self.reach
        powers = np.empty((2 * reach + 1,) + points.T.shape, dtype=np.complex128)
        base = powers[reach + 1]
        base.real = np.cos(points.T)
        base.imag = np.sin(points.T)
        powers[reach] = 1.0
        for j in range(reach + 2, 2 * reach + 1):
            np.multiply(powers[j - 1], base, out=powers[j])
        np.conjugate(powers[:reach:-1], out=powers[:reach])
        return [
            powers[reach + lo : reach + lo + n, a].T
            for a, (lo, n) in enumerate(zip(self.low, self.shape))
        ]

    def values(self, lattice_coefficients, points):
        """Re sum_k C_k e^{ik.x} at ``points`` for box coefficients C (L, ...).

        With C from ``coefficients`` these are the field values (m, d).
        """
        tables = self._tables(points)
        m = len(points)
        acc = tables[0] @ lattice_coefficients.reshape(self.shape[0], -1)
        for table, n in zip(tables[1:], self.shape[1:]):
            acc = (table[:, None, :] @ acc.reshape(m, n, -1)).reshape(m, -1)
        return acc.real.reshape((m,) + lattice_coefficients.shape[1:])

    def waves(self, points):
        """e^{ik.x_m} at every box wavevector k: (m, L).

        The per-axis tables multiply out, one axis at a time, in the box's
        C order.
        """
        tables = self._tables(points)
        m = len(points)
        waves = tables[0]
        for table in tables[1:]:
            waves = (waves[:, :, None] * table[:, None, :]).reshape(m, -1)
        return waves

    def transform(self, points, samples):
        """sum_m samples_m e^{ik.x_m} at every box wavevector k: (L, ...).

        The adjoint of ``values``: one matrix product with ``waves``.
        """
        m = len(points)
        out = self.waves(points).T @ samples.reshape(m, -1)
        return out.reshape((len(self),) + samples.shape[1:])


def default_quadrature_order(kmax):
    """Default order per axis, 4*kmax (dealiases quadratic forms)."""
    return 4 * int(kmax)


def project_L2(sampler, basis, order):
    """L2 projection of ``sampler`` onto the span of ``basis``.

    coefficient_j = quadrature of integral sampler . eta_j dx.  Projecting a
    field already in the span is the identity up to quadrature error; with
    ``order`` below the Nyquist requirement of the basis a diagnostic warning
    is emitted (the projection is still computed).
    """
    if order < 2 * basis.kmax + 1:
        warnings.warn(
            f"quadrature order {order} is below the Nyquist requirement "
            f"{2 * basis.kmax + 1} for kmax={basis.kmax}; projection may alias",
            RuntimeWarning,
            stacklevel=2,
        )
    quad = basis.quadrature(order)
    values = np.asarray(sampler(quad.points), dtype=np.float64)
    if values.shape != quad.points.shape:
        raise ValueError(
            f"sampler returned shape {values.shape} for points of shape {quad.points.shape}"
        )
    pol_dot = values @ basis.polarizations.T
    coefficients = quad.weight * basis.normalizations * np.sum(quad.values * pol_dot, axis=0)
    return SpectralField(basis, coefficients)


def gradient_pairing(tensors, quad):
    """Integrals T : grad(eta_j) dx over all modes j, for node tensors T (m, d, d).

    grad(eta_j) = dtrig(k_j . x) e_j k_j^T, so the pairing is e_j . M_j k_j
    with the moments M_j = sum_m dtrig_mj T_m: one matrix product with the
    derivative table, then a d x d contraction per mode.  A stack (..., m, d,
    d) gives (..., n), each pairing as it is alone.
    """
    basis = quad.basis
    d = basis.dimension
    flat = np.swapaxes(tensors.reshape(*tensors.shape[:-2], d * d), -1, -2)
    moments = (flat @ quad.derivatives).reshape(*flat.shape[:-2], d, d, -1)
    pairing = np.einsum("ni,...iln,nl->...n", basis.polarizations, moments, basis.wavevectors)
    return quad.weight * basis.normalizations * pairing


# The forcing pairs one node tensor per node, not the next two terms, which
# bench/layers.py still times by name.
def convection_pairing(a_values, b_values, quad):
    """Integrals (a (x) b) : grad(eta_j) dx over all modes j, for (m, d) samples."""
    return gradient_pairing(a_values[:, :, None] * b_values[:, None, :], quad)


def strain_pairing(du_values, nu_values, quad):
    """Integrals 2 nu Du : D(eta_j) dx over all modes j (Du symmetric, so D may
    be grad), for samples Du (m, d, d) and nu (m,) or one constant."""
    nu_values = np.asarray(nu_values, dtype=np.float64)
    return gradient_pairing(2.0 * nu_values[..., None, None] * du_values, quad)
