import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmhd import basis as cb
from capmhd import interface as ci

import reference as ref
from conftest import taylor_green_2d


def per_mode_polarization(wavevector, polarization):
    """The polarization vector of one mode, built on its own: the reference
    for the batched table."""
    k = np.asarray(wavevector, dtype=np.int64)
    if k.size == 2:
        axis = np.array([-k[1], k[0]], dtype=np.int64)
    else:
        unit = np.zeros(3, dtype=np.int64)
        unit[int(np.argmin(np.abs(k)))] = 1
        axis = np.cross(k, unit)
        if polarization == 1:
            axis = np.cross(k, axis)
    return axis / np.linalg.norm(axis)


def taylor_green_sampler(points):
    x, y = points[..., 0], points[..., 1]
    return np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)], axis=-1)


class TestEnumerateModes:
    """``make_basis``'s array enumeration against the per-mode one."""

    def test_rejects_zero_kmax(self):
        with pytest.raises(ValueError, match="kmax"):
            cb.make_basis(2, 0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            cb.make_basis(4, 1)

    @pytest.mark.parametrize("dimension,kmax,expected", [(2, 1, 8), (3, 1, 52)])
    def test_mode_counts(self, dimension, kmax, expected):
        # oracle: enumerate all integer vectors with max|k_i| <= kmax,
        # deduplicate +-k, then count phases x polarizations
        import itertools

        vectors = {
            k
            for k in itertools.product(range(-kmax, kmax + 1), repeat=dimension)
            if any(k)
        }
        half = {k for k in vectors if tuple(-c for c in k) not in vectors or k > tuple(-c for c in k)}
        assert len(half) == len(vectors) // 2
        assert len(cb.make_basis(dimension, kmax)) == expected
        assert expected == len(half) * 2 * (dimension - 1)

    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("kmax", [1, 2, 3, 4])
    def test_arrays_match_the_per_mode_enumeration(self, dimension, kmax):
        modes = ref.enumerate_modes(dimension, kmax)
        basis = cb.make_basis(dimension, kmax)
        wavevectors = np.array([k for k, _, _ in modes], dtype=np.float64)
        norm = np.sqrt(2.0 / cb.TWO_PI**dimension)
        assert basis.wavevectors.tobytes() == wavevectors.tobytes()
        assert basis.polarizations.tobytes() == np.array(
            [per_mode_polarization(k, pol) for k, _, pol in modes]
        ).tobytes()
        assert basis.is_sine.tobytes() == np.array([p == "sin" for _, p, _ in modes]).tobytes()
        assert basis.eigenvalues.tobytes() == np.array([k @ k for k in wavevectors]).tobytes()
        assert basis.normalizations.tobytes() == np.array([norm] * len(modes)).tobytes()

    def test_eigenvalues_nondecreasing(self):
        eigs = cb.make_basis(3, 3).eigenvalues
        assert np.all(np.diff(eigs) >= 0.0)

    def test_ordering_deterministic(self):
        a = cb.make_basis(2, 3)
        b = cb.make_basis(2, 3)
        for name in ("wavevectors", "is_sine", "polarization_indices"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_polarization_orthogonal_exactly(self):
        # integer construction: the dot product vanishes in exact arithmetic
        basis = cb.make_basis(3, 2)
        k = basis.wavevectors.astype(np.int64)
        axes = cb.polarization_axes(k, basis.polarization_indices)
        assert axes.dtype == np.int64
        assert not np.any(np.sum(axes * k, axis=1))

    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_polarization_table_matches_modes_bitwise(self, dimension, kmax):
        basis = cb.make_basis(dimension, kmax)
        per_mode = np.array(
            [per_mode_polarization(k, pol) for k, _, pol in ref.enumerate_modes(dimension, kmax)]
        )
        assert basis.polarizations.tobytes() == per_mode.tobytes()

    @pytest.mark.parametrize(
        "wavevector,index", [((1, 0), 1), ((1, 0), -1), ((1, 0, 0), 2), ((1, 0, 0), -1)]
    )
    def test_bad_polarization_index_rejected(self, wavevector, index):
        with pytest.raises(ValueError, match="polarization"):
            cb.Basis([wavevector], [index], [False])

    @pytest.mark.parametrize(
        "wavevectors,indices,is_sine,message",
        [
            ([(1, 0, 0, 0)], [0], [False], "dimension"),
            ([(0, 0)], [0], [False], "nonzero"),
            ([(1, 0), (0, 1)], [0], [False, True], "polarization indices and phases"),
            ([(1, 0), (0, 1)], [0, 0], [False], "polarization indices and phases"),
            (np.zeros((0, 2)), [], [], "at least one mode"),
        ],
    )
    def test_bad_arrays_rejected(self, wavevectors, indices, is_sine, message):
        with pytest.raises(ValueError, match=message):
            cb.Basis(wavevectors, indices, is_sine)

    def test_index_finds_each_mode_and_nothing_else(self):
        basis = cb.make_basis(3, 2)
        for j, (k, phase, pol) in enumerate(ref.enumerate_modes(3, 2)):
            assert basis.index(k, phase, pol) == j
        for absent in (((-1, 0, 0), "cos", 0), ((3, 0, 0), "cos", 0),
                       ((1, 0, 0), "tan", 0), ((1, 0, 0), "cos", 2), ((1, 0), "cos", 0)):
            assert basis.index(*absent) is None

    def test_mode_is_l2_unit(self):
        basis = cb.make_basis(2, 1)
        points, weight = cb.quadrature_rule(2, 8)
        for j in range(len(basis)):
            coeffs = np.zeros(len(basis))
            coeffs[j] = 1.0
            values = basis.synthesize(coeffs, points)
            norm_sq = weight * np.sum(values**2)
            assert norm_sq == pytest.approx(1.0, abs=1e-10)


class TestEvaluate:
    def test_zero_field(self, basis_2d):
        field = cb.SpectralField(basis_2d, np.zeros(len(basis_2d)))
        assert np.all(field.evaluate(np.array([1.0, 2.0])) == 0.0)

    def test_single_cosine_mode_at_origin(self):
        basis = cb.make_basis(2, 1)
        j = basis.index((1, 0), "cos", 0)
        coeffs = np.zeros(len(basis))
        coeffs[j] = 1.0
        field = cb.SpectralField(basis, coeffs)
        value = field.evaluate(np.zeros(2))
        expected = basis.normalizations[j] * per_mode_polarization((1, 0), 0)
        np.testing.assert_allclose(value, expected, rtol=0, atol=1e-15)

    def test_taylor_green_pointwise(self):
        basis = cb.make_basis(2, 1)
        field = cb.project_L2(taylor_green_sampler, basis, 8)
        value = field.evaluate(np.array([np.pi / 2, 0.0]))
        np.testing.assert_allclose(value, [1.0, 0.0], atol=1e-12)

    def test_linearity(self, basis_2d):
        rng = np.random.default_rng(11)
        c1 = rng.standard_normal(len(basis_2d))
        c2 = rng.standard_normal(len(basis_2d))
        x = rng.uniform(0, 2 * np.pi, (5, 2))
        f1 = cb.SpectralField(basis_2d, c1)
        f2 = cb.SpectralField(basis_2d, c2)
        f12 = cb.SpectralField(basis_2d, 2.0 * c1 - 3.0 * c2)
        np.testing.assert_allclose(
            f12.evaluate(x), 2.0 * f1.evaluate(x) - 3.0 * f2.evaluate(x), atol=1e-13
        )


class TestGradient:
    def test_zero_field(self, basis_2d):
        grads = ref.synthesize_gradient(basis_2d, np.zeros(len(basis_2d)), np.ones((1, 2)))
        assert np.all(grads == 0.0)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_matches_finite_differences(self, dimension):
        basis = cb.make_basis(dimension, 2)
        rng = np.random.default_rng(7)
        field = cb.SpectralField(basis, rng.standard_normal(len(basis)))
        x = rng.uniform(0, 2 * np.pi, dimension)
        grad = ref.synthesize_gradient(basis, field.coefficients, x[None])[0]
        step = 1e-5
        fd = np.empty_like(grad)
        for l in range(dimension):
            offset = np.zeros(dimension)
            offset[l] = step
            fd[:, l] = (field.evaluate(x + offset) - field.evaluate(x - offset)) / (2 * step)
        np.testing.assert_allclose(grad, fd, atol=1e-8 * (1 + np.abs(grad).max()))

    def test_trace_free(self):
        rng = np.random.default_rng(13)
        for dimension in (2, 3):
            basis = cb.make_basis(dimension, 2)
            coeffs = rng.standard_normal(len(basis))
            field = cb.SpectralField(basis, coeffs)
            points = rng.uniform(0, 2 * np.pi, (100, dimension))
            grads = ref.synthesize_gradient(basis, coeffs, points)
            traces = np.trace(grads, axis1=1, axis2=2)
            assert np.max(np.abs(traces)) <= 1e-12 * max(1.0, np.abs(coeffs).sum())

    def test_divergence_random_fields(self):
        rng = np.random.default_rng(17)
        basis = cb.make_basis(2, 3)
        for _ in range(100):
            coeffs = rng.standard_normal(len(basis))
            field = cb.SpectralField(basis, coeffs)
            points = rng.uniform(0, 2 * np.pi, (100, 2))
            grads = ref.synthesize_gradient(basis, coeffs, points)
            traces = np.trace(grads, axis1=1, axis2=2)
            assert np.max(np.abs(traces)) <= 1e-10 * np.abs(coeffs).sum()


class TestProjection:
    def test_projecting_basis_mode_is_unit_vector(self, basis_2d):
        j = 2
        coeffs = np.zeros(len(basis_2d))
        coeffs[j] = 1.0
        mode_field = cb.SpectralField(basis_2d, coeffs)
        projected = cb.project_L2(mode_field.evaluate, basis_2d, 8)
        np.testing.assert_allclose(projected.coefficients, coeffs, atol=1e-10)

    def test_zero_sampler(self, basis_2d):
        projected = cb.project_L2(lambda p: np.zeros_like(p), basis_2d, 8)
        assert np.all(projected.coefficients == 0.0)

    def test_taylor_green_two_modes(self):
        # symbolic expansion: sin x cos y = (sin(x+y) + sin(x-y)) / 2, so the
        # field decomposes into the two sine modes k = (1, 1) and (1, -1)
        # with coefficient magnitude pi under unit normalization
        basis = cb.make_basis(2, 1)
        field = cb.project_L2(taylor_green_sampler, basis, 8)
        nonzero = np.flatnonzero(np.abs(field.coefficients) > 1e-10)
        assert len(nonzero) == 2
        magnitudes = np.abs(field.coefficients[nonzero])
        np.testing.assert_allclose(magnitudes, np.pi, atol=1e-12)
        for j in nonzero:
            assert basis.is_sine[j]
            assert abs(basis.wavevectors[j, 0]) == 1
            assert abs(basis.wavevectors[j, 1]) == 1

    def test_projection_idempotent_on_span(self, basis_2d):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(len(basis_2d))
        field = cb.SpectralField(basis_2d, coeffs)
        projected = cb.project_L2(field.evaluate, basis_2d, cb.default_quadrature_order(2))
        np.testing.assert_allclose(projected.coefficients, coeffs, atol=1e-10)

    def test_sub_nyquist_order_warns(self, basis_2d):
        with pytest.warns(RuntimeWarning, match="Nyquist"):
            cb.project_L2(lambda p: np.zeros_like(p), basis_2d, 3)

    def test_parseval(self, basis_2d):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(len(basis_2d))
        field = cb.SpectralField(basis_2d, coeffs)
        points, weight = cb.quadrature_rule(2, cb.default_quadrature_order(2))
        values = field.evaluate(points)
        quad_norm = np.sqrt(weight * np.sum(values**2))
        assert quad_norm == pytest.approx(np.linalg.norm(coeffs), abs=1e-8)


class TestGramMatrix:
    @pytest.mark.parametrize("dimension,kmax", [(2, 1), (2, 2), (2, 3), (2, 4),
                                                (3, 1), (3, 2), (3, 3), (3, 4)])
    def test_orthonormal(self, dimension, kmax):
        basis = cb.make_basis(dimension, kmax)
        gram = ref.gram_matrix(basis, cb.default_quadrature_order(kmax))
        assert np.max(np.abs(gram - np.eye(len(basis)))) <= 1e-10

    def test_symmetry(self):
        basis = cb.make_basis(2, 3)
        gram = ref.gram_matrix(basis, 8)
        assert np.max(np.abs(gram - gram.T)) <= 1e-14

    def test_single_mode(self):
        basis = cb.Basis([(1, 0)], [0], [False])
        gram = ref.gram_matrix(basis, 8)
        assert gram.shape == (1, 1)
        assert gram[0, 0] == pytest.approx(1.0, abs=1e-12)



def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestQuadrature:
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_tables_match_the_phase_tables_on_the_rule_grid(self, dimension):
        basis = cb.make_basis(dimension, 2)
        order = cb.default_quadrature_order(2)
        points, weight = cb.quadrature_rule(dimension, order)
        quad = basis.quadrature(order)
        assert_bitwise(quad.points, points)
        assert quad.weight == weight
        assert_bitwise(quad.values, basis.phase_values(points))
        assert_bitwise(quad.derivatives, basis.phase_derivatives(points))

    def test_one_object_per_basis_and_order(self):
        basis = cb.make_basis(2, 2)
        assert basis.quadrature(8) is basis.quadrature(8)
        assert basis.quadrature(12) is not basis.quadrature(8)
        assert cb.make_basis(2, 2).quadrature(8) is not basis.quadrature(8)

    def test_shared_tables_are_read_only(self):
        basis = cb.make_basis(2, 1)
        quad = basis.quadrature(4)
        for table in (quad.points, quad.values, quad.derivatives):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0

    def test_dropping_the_basis_frees_its_quadrature(self):
        # no reference cycle: the tables go with the basis, not at the next
        # run of the cyclic collector
        basis = cb.make_basis(2, 1)
        quad = weakref.ref(basis.quadrature(4))
        del basis
        assert quad() is None

def random_sub_basis(rng, dimension, kmax, size):
    """A few modes with random wavevectors, each with a negative component."""
    wavevectors, polarizations, is_sine = [], [], []
    while len(wavevectors) < size:
        k = rng.integers(-kmax, kmax + 1, dimension)
        if not np.any(k < 0):
            continue
        wavevectors.append(k)
        is_sine.append(str(rng.choice(["cos", "sin"])) == "sin")
        polarizations.append(int(rng.integers(dimension - 1)))
    return cb.Basis(wavevectors, polarizations, is_sine)


class TestSeparableSynthesis:
    """The lattice forms against the m x n trig tables they replace."""

    @settings(max_examples=24)
    @given(
        st.sampled_from([2, 3]),
        st.integers(1, 4),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_table_form(self, dimension, kmax, sub, seed):
        rng = np.random.default_rng(seed)
        if sub:
            basis = random_sub_basis(rng, dimension, kmax, int(rng.integers(1, 6)))
        else:
            basis = cb.make_basis(dimension, kmax)
        coefficients = rng.standard_normal(len(basis))
        # mesh vertices are never wrapped into the cell
        points = rng.uniform(-4 * np.pi, 6 * np.pi, (40, dimension))
        speed = np.abs(coefficients) @ basis.normalizations
        reach = np.max(np.linalg.norm(basis.wavevectors, axis=1))
        got = basis.synthesize(coefficients, points)
        want = ref.synthesize(basis, coefficients, points)
        assert np.max(np.abs(got - want)) <= 1e-12 * speed

        middle = np.full(dimension, np.pi)
        shape = ci.disk(middle, 1.0) if dimension == 2 else ci.ball(middle, 1.0)
        cell_mesh = ci.mesh_initial(shape, 32 if dimension == 2 else 1)
        shift = rng.uniform(-3 * np.pi, 3 * np.pi, dimension)
        mesh = ci.InterfaceMesh(cell_mesh.vertices + shift, cell_mesh.elements)
        got = ci.curvature_pairing_modes(mesh, basis)
        want = ref.curvature_pairing_modes(mesh, basis)
        scale = ci.perimeter(mesh) * np.max(basis.normalizations) * reach
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_lattice_is_built_on_the_first_off_grid_call(self):
        basis = cb.make_basis(3, 2)
        basis.quadrature(8).values
        assert "lattice" not in vars(basis)
        basis.synthesize(np.zeros(len(basis)), np.zeros((1, 3)))
        assert vars(basis)["lattice"] is basis.lattice


class TestGridPairings:
    """The moment forms of the grid pairings against the (m, n) tables they replace."""

    @settings(max_examples=24)
    @given(
        st.sampled_from([2, 3]),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_table_form(self, dimension, kmax, sub, seed):
        rng = np.random.default_rng(seed)
        if sub:
            basis = random_sub_basis(rng, dimension, kmax, int(rng.integers(1, 6)))
        else:
            basis = cb.make_basis(dimension, kmax)
        quad = basis.quadrature(int(rng.integers(2 * kmax + 1, 4 * kmax + 1)))
        m = len(quad.points)
        a, b = rng.standard_normal((2, m, dimension))
        grads = rng.standard_normal((m, dimension, dimension))
        du = 0.5 * (grads + np.swapaxes(grads, 1, 2))
        nu = rng.uniform(0.05, 0.5, m)
        # |T : grad(eta_j)| <= norm_j |k_j| |T|_F at every node
        scale = quad.weight * basis.normalizations * np.linalg.norm(basis.wavevectors, axis=1)
        # a (x) b is not symmetric; a (x) a is
        for left, right in ((a, b), (b, a), (a, a)):
            bound = scale * np.sum(np.linalg.norm(left, axis=1) * np.linalg.norm(right, axis=1))
            got = cb.convection_pairing(left, right, quad)
            want = ref.convection_pairing(left, right, quad)
            assert np.all(np.abs(got - want) <= 1e-12 * bound)
        bound = scale * np.sum(2.0 * nu * np.linalg.norm(du, axis=(1, 2)))
        got = cb.strain_pairing(du, nu, quad)
        want = ref.strain_pairing(du, nu, quad)
        assert np.all(np.abs(got - want) <= 1e-12 * bound)

    def test_no_call_allocates_a_mode_by_node_table(self):
        basis = cb.make_basis(3, 2)
        quad = basis.quadrature(8)
        table = quad.derivatives.nbytes
        assert table == 512 * 248 * 8
        rng = np.random.default_rng(31)
        a, b = rng.standard_normal((2, 512, 3))
        grads = rng.standard_normal((512, 3, 3))
        du = 0.5 * (grads + np.swapaxes(grads, 1, 2))
        nu = rng.uniform(0.05, 0.5, 512)
        for call in (
            lambda: cb.convection_pairing(a, b, quad),
            lambda: cb.strain_pairing(du, nu, quad),
        ):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < table


class TestSpectralField:
    def test_length_mismatch_rejected(self, basis_2d):
        with pytest.raises(ValueError, match="length"):
            cb.SpectralField(basis_2d, np.zeros(3))

    def test_non_finite_rejected(self, basis_2d):
        coeffs = np.zeros(len(basis_2d))
        coeffs[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            cb.SpectralField(basis_2d, coeffs)

    def test_grad_norm_matches_quadrature(self, basis_2d):
        rng = np.random.default_rng(23)
        field = cb.SpectralField(basis_2d, rng.standard_normal(len(basis_2d)))
        points, weight = cb.quadrature_rule(2, cb.default_quadrature_order(2))
        grads = ref.synthesize_gradient(basis_2d, field.coefficients, points)
        quad = weight * np.sum(grads**2)
        assert quad == pytest.approx(field.grad_norm_sq(), rel=1e-10)


def test_sampler_matches_projected_taylor_green():
    # the analytic sampler and its projection agree pointwise on the cell
    basis = cb.make_basis(2, 2)
    field = cb.project_L2(taylor_green_sampler, basis, 8)
    sampler = taylor_green_2d()
    rng = np.random.default_rng(29)
    points = rng.uniform(0, 2 * np.pi, (50, 2))
    np.testing.assert_allclose(
        field.evaluate(points), sampler.velocity(0.0, points), atol=1e-10
    )
