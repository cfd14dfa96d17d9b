"""Divergence-free trigonometric basis on the periodic cell [0, 2*pi)^d.

Fields live in the span of real Fourier modes

    eta(x) = norm * trig(k . x) * e,        trig in {cos, sin},

with integer wavevector k != 0 restricted to a canonical half-space (so the
cos/sin pair is not duplicated through k -> -k) and unit polarization e
orthogonal to k.  Every mode is mean-free, exactly divergence-free by
construction, and an eigenfunction of the periodic Stokes operator with
eigenvalue |k|^2.  The modes are orthonormal in L2, so coefficient vectors
carry the L2 geometry (Parseval) and the mass matrix is the identity.

Quadrature is a tensor-product uniform grid, which integrates periodic
trigonometric polynomials exactly once the grid resolves their highest
wavenumber (order per axis >= 2*kmax + 1 for quadratic forms of the basis).
Each basis builds the grid of one order once (``Basis.quadrature``), together
with the m x n trig tables at its nodes, and every pairing and node-value
consumer takes that ``Quadrature``.

Off the grid (mesh vertices, traced points, element centroids) no m x n
table is built.  Wavevectors are integers, so a field is
u(x) = Re sum_k C_k e^{ik.x} over the box of integer wavevectors its modes
span (``Lattice``), and e^{ik.x} is the product of one factor e^{i k_a x_a}
per axis.  ``Lattice`` evaluates per-axis tables of those factors and
contracts the coefficients one axis at a time; its adjoint sums samples at
points into every wavevector of the box from the same tables.
"""

import functools
import itertools
import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

_PHASES = ("cos", "sin")


def _check_polarization(dimension, index):
    if dimension == 2 and index != 0:
        raise ValueError(f"2D modes have a single polarization, got index {index}")
    if dimension == 3 and index not in (0, 1):
        raise ValueError(f"3D modes have polarizations 0 and 1, got index {index}")


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


@dataclass(frozen=True)
class BasisMode:
    """One real trigonometric divergence-free mode.

    Attributes:
        wavevector: integer wavevector k, nonzero, in the canonical half-space.
        phase: "cos" or "sin".
        polarization: index 0..d-2 selecting the unit vector orthogonal to k.
        normalization: positive factor making the mode L2-unit on the cell.
    """

    wavevector: tuple
    phase: str
    polarization: int
    normalization: float

    def __post_init__(self):
        k = np.asarray(self.wavevector, dtype=np.int64)
        if k.size not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {k.size}")
        if not np.any(k):
            raise ValueError("wavevector must be nonzero (mean-free fields)")
        if self.phase not in _PHASES:
            raise ValueError(f"phase must be one of {_PHASES}, got {self.phase!r}")
        if self.normalization <= 0.0:
            raise ValueError("normalization must be positive")
        _check_polarization(k.size, self.polarization)

    @property
    def dimension(self):
        return len(self.wavevector)

    @property
    def eigenvalue(self):
        """Stokes eigenvalue |k|^2 of the mode."""
        k = np.asarray(self.wavevector, dtype=np.float64)
        return float(k @ k)


def _half_space(k):
    for entry in k:
        if entry > 0:
            return True
        if entry < 0:
            return False
    return False


def enumerate_modes(dimension, kmax):
    """All basis modes with 0 < max|k_i| <= kmax, canonically ordered.

    Wavevectors are restricted to the half-space whose first nonzero entry is
    positive; each carries (d-1) polarizations and both phases.  The ordering
    is lexicographic by (|k|^2, k, polarization, phase), so eigenvalues are
    nondecreasing along the list.
    """
    if dimension not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dimension}")
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    norm = math.sqrt(2.0 / TWO_PI**dimension)
    wavevectors = [
        k
        for k in itertools.product(range(-kmax, kmax + 1), repeat=dimension)
        if any(k) and _half_space(k)
    ]
    wavevectors.sort(key=lambda k: (sum(c * c for c in k), k))
    modes = []
    for k in wavevectors:
        for pol in range(dimension - 1):
            for phase in _PHASES:
                modes.append(BasisMode(k, phase, pol, norm))
    return modes


class Basis:
    """Ordered mode list with packed arrays for vectorized evaluation."""

    def __init__(self, modes, length=TWO_PI):
        modes = list(modes)
        if not modes:
            raise ValueError("basis must contain at least one mode")
        dims = {m.dimension for m in modes}
        if len(dims) != 1:
            raise ValueError("all modes must share one dimension")
        self.modes = modes
        self.dimension = dims.pop()
        self.length = float(length)
        self.wavevectors = np.array([m.wavevector for m in modes], dtype=np.float64)
        self.polarizations = polarization_vectors(
            self.wavevectors, [m.polarization for m in modes]
        )
        self.normalizations = np.array([m.normalization for m in modes])
        self.is_sine = np.array([m.phase == "sin" for m in modes])
        self.eigenvalues = np.array([m.eigenvalue for m in modes])
        self._quadratures = {}

    def __len__(self):
        return len(self.modes)

    @property
    def kmax(self):
        return int(np.max(np.abs(self.wavevectors)))

    def _phase_angles(self, points):
        return points @ self.wavevectors.T

    def phase_values(self, points):
        """trig(k_j . x_m) as an (m, n) array."""
        theta = self._phase_angles(points)
        out = np.empty_like(theta)
        sin = self.is_sine
        out[:, sin] = np.sin(theta[:, sin])
        out[:, ~sin] = np.cos(theta[:, ~sin])
        return out

    def phase_derivatives(self, points):
        """d/dtheta trig(k_j . x_m) as an (m, n) array."""
        theta = self._phase_angles(points)
        out = np.empty_like(theta)
        sin = self.is_sine
        out[:, sin] = np.cos(theta[:, sin])
        out[:, ~sin] = -np.sin(theta[:, ~sin])
        return out

    @functools.cached_property
    def lattice(self):
        """The wavevector box of the modes, built on the first off-grid call."""
        return Lattice(self)

    def synthesize(self, coefficients, points):
        """Field values at ``points`` for one coefficient vector: (m, d)."""
        lattice = self.lattice
        return lattice.values(lattice.coefficients(coefficients), points)

    def quadrature(self, order):
        """The quadrature grid of ``order`` points per axis, built once per basis."""
        quad = self._quadratures.get(order)
        if quad is None:
            points, weight = quadrature_rule(self.dimension, order, self.length)
            quad = self._quadratures[order] = Quadrature(self, points, weight)
        return quad


def make_basis(dimension, kmax, length=TWO_PI):
    return Basis(enumerate_modes(dimension, kmax), length=length)


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

    def evaluate(self, x):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        values = self.basis.synthesize(self.coefficients, np.atleast_2d(x))
        return values[0] if single else values

    def norm(self):
        """L2 norm of the field (= Euclidean norm of coefficients)."""
        return float(np.linalg.norm(self.coefficients))

    def grad_norm_sq(self):
        """Squared L2 norm of the gradient: sum_j |k_j|^2 c_j^2."""
        return float(np.sum(self.basis.eigenvalues * self.coefficients**2))

    def with_coefficients(self, coefficients):
        return SpectralField(self.basis, np.array(coefficients, dtype=np.float64))


def quadrature_rule(dimension, order, length=TWO_PI):
    """Uniform tensor grid points (order^d, d) and the constant weight.

    The uniform (trapezoidal) rule is spectrally exact for periodic
    integrands resolved by the grid.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    axis = np.arange(order) * (length / order)
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=-1)
    weight = (length / order) ** dimension
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
        """Values at the nodes of the field with these coefficients: (m, d)."""
        basis = self.basis
        weights = (coefficients * basis.normalizations)[:, None] * basis.polarizations
        return self.values @ weights

    def field_gradients(self, coefficients):
        """Jacobians at the nodes of the field with these coefficients: (m, d, d)."""
        basis = self.basis
        scaled = coefficients * basis.normalizations
        outer = (
            scaled[:, None, None]
            * basis.polarizations[:, :, None]
            * basis.wavevectors[:, None, :]
        )
        return np.tensordot(self.derivatives, outer, axes=([1], [0]))


class Lattice:
    """The box of integer wavevectors spanned by a basis, for off-grid sums.

    A field with coefficients c is u(x) = Re sum_k C_k e^{ik.x}, where C_k
    (a complex d-vector) gathers c_j norm_j p_j e_j over the modes j with
    k_j = k, and p_j is 1 for cos and -i for sin.  Each axis a spans the
    integers between the smallest and largest k_a of the modes, and C is
    stored over the box in C order, one row per wavevector, so the
    contraction over axis 0 is a plain matrix product and every later axis
    a batched one.  It holds no reference to the basis, which caches it.
    """

    def __init__(self, basis):
        k = basis.wavevectors.astype(np.int64)
        self.low = [int(lo) for lo in k.min(axis=0)]
        self.shape = tuple(int(n) for n in k.max(axis=0) - self.low + 1)
        self.reach = int(np.max(np.abs(k)))
        self.index = np.ravel_multi_index(tuple((k - self.low).T), self.shape)
        axes = [np.arange(lo, lo + n, dtype=np.float64) for lo, n in zip(self.low, self.shape)]
        grid = np.meshgrid(*axes, indexing="ij")
        self.wavevectors = np.stack([g.reshape(-1) for g in grid], axis=-1)
        phase = np.where(basis.is_sine, -1j, 1.0)
        self.weights = (basis.normalizations * phase)[:, None] * basis.polarizations

    def __len__(self):
        return len(self.wavevectors)

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

    def transform(self, points, samples):
        """sum_m samples_m e^{ik.x_m} at every box wavevector k: (L, ...).

        The adjoint of ``values``.  The per-axis tables multiply out, one
        axis at a time, into e^{ik.x_m} over the box, and the sum over the
        points is one matrix product.
        """
        tables = self._tables(points)
        m = len(points)
        waves = tables[0]
        for table in tables[1:]:
            waves = (waves[:, :, None] * table[:, None, :]).reshape(m, -1)
        return (waves.T @ samples.reshape(m, -1)).reshape((len(self),) + samples.shape[1:])


def default_quadrature_order(kmax):
    """Default order per axis, 4*kmax (dealiases quadratic forms)."""
    return 4 * int(kmax)


def _sample(sampler, points):
    values = np.asarray(sampler(points), dtype=np.float64)
    if values.shape != points.shape:
        values = np.array([sampler(p) for p in points], dtype=np.float64)
    return values


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
    values = _sample(sampler, quad.points)
    pol_dot = values @ basis.polarizations.T
    coefficients = quad.weight * basis.normalizations * np.sum(quad.values * pol_dot, axis=0)
    return SpectralField(basis, coefficients)


def gradient_pairing(tensors, quad):
    """Integrals T : grad(eta_j) dx over all modes j, for node tensors T (m, d, d).

    grad(eta_j) = dtrig(k_j . x) e_j k_j^T, so the pairing is e_j . M_j k_j
    with the moments M_j = sum_m dtrig_mj T_m: one matrix product with the
    derivative table, then a d x d contraction per mode.
    """
    basis = quad.basis
    d = basis.dimension
    moments = (tensors.reshape(-1, d * d).T @ quad.derivatives).reshape(d, d, -1)
    pairing = np.einsum("ni,iln,nl->n", basis.polarizations, moments, basis.wavevectors)
    return quad.weight * basis.normalizations * pairing


def convection_pairing(a_values, b_values, quad):
    """Vector of integrals a . ((b . grad) eta_j) dx over all modes j.

    ``a_values`` and ``b_values`` are (m, d) samples at the nodes of the
    quadrature ``quad``; a . (grad(eta_j) b) = (a (x) b) : grad(eta_j).
    """
    return gradient_pairing(a_values[:, :, None] * b_values[:, None, :], quad)


def strain_pairing(du_values, nu_values, quad):
    """Vector of integrals 2 nu Du : D(eta_j) dx over all modes j.

    ``du_values`` are symmetric strain-rate samples (m, d, d) at the nodes of
    ``quad`` and ``nu_values`` the viscosity there, (m,) or one constant;
    since Du is symmetric, Du : D(eta_j) = Du : grad(eta_j).
    """
    nu_values = np.asarray(nu_values, dtype=np.float64)
    return gradient_pairing(2.0 * nu_values[..., None, None] * du_values, quad)
