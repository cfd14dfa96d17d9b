import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmhd import basis as cb
from capmhd import interface as ci
from capmhd import varifold as cv
from capmhd.errors import MeshInvariantError, MeshQualityError
from capmhd.galerkin import INDICATOR_BAND

import reference as ref
from conftest import (
    CENTER_2D,
    CENTER_3D,
    circle_first_variation,
    rigid_rotation,
    rotate_about,
    smooth_phi_2d,
    taylor_green_2d,
)


class TestInitialPhase:
    def test_shape_touching_cell_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            ci.disk((1.0, np.pi), 1.0)

    def test_margin_rule(self):
        # margin is max(radius)/10: center 1.2 with radius 1.0 leaves 0.2 > 0.1
        ci.disk((1.2, np.pi), 1.0)
        with pytest.raises(ValueError, match="margin"):
            ci.disk((1.05, np.pi), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["disk", "ellipse", "ball", "ellipsoid"]), st.integers(0, 2**32 - 1))
    def test_boundary_distance_is_a_lower_bound(self, shape, seed):
        # never above the distance to a dense sampling of the boundary, and
        # exact for the disk and the ball
        rng = np.random.default_rng(seed)
        dimension = 2 if shape in ("disk", "ellipse") else 3
        radii = rng.uniform(0.3, 1.5, 1 if shape in ("disk", "ball") else dimension)
        radii = np.broadcast_to(radii, dimension)
        center = np.pi + rng.uniform(-0.5, 0.5, dimension)
        phase = ci.InitialPhase(shape, tuple(center), tuple(radii))
        if dimension == 2:
            angle = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
            unit = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        else:
            # a Fibonacci sphere of 8192 points
            i = np.arange(8192) + 0.5
            polar = np.arccos(1.0 - 2.0 * i / 8192)
            azimuth = np.pi * (1.0 + 5**0.5) * i
            unit = np.stack([np.cos(azimuth) * np.sin(polar),
                             np.sin(azimuth) * np.sin(polar), np.cos(polar)], axis=1)
        boundary = center + radii * unit
        points = np.concatenate([
            center + rng.uniform(-2.0, 2.0, (24, dimension)),
            boundary[rng.integers(0, len(boundary), 8)] + rng.normal(0.0, 1e-3, (8, dimension)),
        ])
        sampled = np.array([np.min(np.linalg.norm(boundary - p, axis=1)) for p in points])
        bound = phase.boundary_distance(points)
        assert np.all(bound >= 0.0)
        assert np.all(bound <= sampled + 1e-12)
        if shape in ("disk", "ball"):
            exact = np.abs(np.linalg.norm(points - center, axis=1) - radii[0])
            np.testing.assert_allclose(bound, exact, atol=1e-12)

    def test_contains(self):
        phase = ci.ellipse(CENTER_2D, (1.0, 0.5))
        assert phase.contains(np.array(CENTER_2D)) == 1
        assert phase.contains(np.array([np.pi + 0.9, np.pi])) == 1
        assert phase.contains(np.array([np.pi, np.pi + 0.9])) == 0


class TestMeshInitial:
    def test_circle_perimeter(self, circle_mesh):
        assert ci.perimeter(circle_mesh) == pytest.approx(2 * np.pi, abs=1e-3)

    def test_sphere_area(self, sphere_mesh):
        assert ci.perimeter(sphere_mesh) == pytest.approx(4 * np.pi, abs=1e-2 * 4 * np.pi)

    def test_vertices_on_analytic_boundary(self):
        phase = ci.ellipse(CENTER_2D, (1.0, 0.6))
        mesh = ci.mesh_initial(phase, 64)
        scaled = (mesh.vertices - np.array(CENTER_2D)) / np.array([1.0, 0.6])
        np.testing.assert_allclose(np.linalg.norm(scaled, axis=1), 1.0, atol=1e-12)

    def test_resolution_floor_2d(self):
        with pytest.raises(ValueError, match=">= 8"):
            ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 4)

    def test_resolution_floor_3d(self):
        with pytest.raises(ValueError, match=">= 1"):
            ci.mesh_initial(ci.ball(CENTER_3D, 1.0), 0)

    def test_icosphere_matches_the_midpoint_loop_bit_for_bit(self):
        vertices, faces = ci._icosahedron()
        expected = (vertices, faces)
        for level in range(1, 5):
            vertices, faces = ci._subdivide(vertices, faces)
            expected = ref.subdivide(*expected)
            assert vertices.tobytes() == expected[0].tobytes(), level
            np.testing.assert_array_equal(faces, expected[1])
            assert faces.dtype == expected[1].dtype


def _rows_moved_by(shift):
    """A sampler whose velocity at row i is shift[i] wherever the row is.

    One RK4 step of length 1 moves each row by shift, up to rounding.
    """
    return ref.AnalyticField(lambda t, p: shift)


class TestAdvect:
    def test_zero_velocity_identity(self, circle_mesh):
        zero = taylor_green_2d(amplitude=0.0)
        out = ci.advect(circle_mesh, zero, 1.0, 0.1)
        np.testing.assert_array_equal(out.vertices, circle_mesh.vertices)
        np.testing.assert_array_equal(out.elements, circle_mesh.elements)
        assert out.t == 1.0

    def test_rigid_rotation_full_turn(self, circle_mesh):
        out = ci.advect(circle_mesh, rigid_rotation(), 2 * np.pi, 1e-3)
        assert np.max(np.linalg.norm(out.vertices - circle_mesh.vertices, axis=1)) <= 1e-5

    def test_volume_conserved_divergence_free(self, circle_mesh):
        out = ci.advect(circle_mesh, taylor_green_2d(), 0.5, 0.01)
        drift = abs(ci.enclosed_volume(out) - np.pi) / np.pi
        assert drift <= 1e-3

    @settings(max_examples=20)
    @given(st.lists(st.floats(-0.5, 0.5), min_size=8, max_size=8))
    def test_random_divergence_free_fields_keep_the_volume(self, coefficients):
        # criterion 2's bound for any field of the kmax = 1 basis
        basis = cb.make_basis(2, 1)
        flow = ref.SteadyField(cb.SpectralField(basis, np.array(coefficients)))
        out = ci.advect(ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 256), flow, 0.5, 0.01)
        drift = abs(ci.enclosed_volume(out) - np.pi) / np.pi
        assert drift <= 1e-3

    def test_volume_drift_order(self):
        # halving both the edge length and the flow step reduces drift >= 2x
        tg = taylor_green_2d()
        coarse = ci.advect(ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 256), tg, 0.5, 0.01)
        fine = ci.advect(ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 512), tg, 0.5, 0.005)
        drift_coarse = abs(ci.enclosed_volume(coarse) - np.pi) / np.pi
        drift_fine = abs(ci.enclosed_volume(fine) - np.pi) / np.pi
        assert drift_coarse <= 1e-3
        assert drift_fine <= 1e-4
        assert drift_coarse / drift_fine >= 2.0

    def test_perimeter_bounded_by_gradient_exponential(self):
        # discrete form of the BV transport estimate: perimeter growth is
        # controlled by exp of the time-integrated velocity-gradient norm
        tg = taylor_green_2d()
        mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 256)
        t_final, n_checks = 0.5, 10
        lip_integral = 0.0
        current = mesh
        for i in range(n_checks):
            t0, t1 = i * t_final / n_checks, (i + 1) * t_final / n_checks
            grads = tg.gradient(t0, current.vertices)
            op_norm = np.max(np.linalg.norm(grads, ord=2, axis=(1, 2)))
            lip_integral += op_norm * (t1 - t0)
            current = ci.advect(current, tg, t1, 0.01)
        bound = np.exp(lip_integral) * ci.perimeter(mesh)
        assert ci.perimeter(current) <= bound

    def test_shares_the_read_only_connectivity(self, circle_mesh, sphere_mesh):
        zero = ref.AnalyticField(lambda t, p: np.zeros_like(p))
        for mesh in (circle_mesh, sphere_mesh):
            out = ci.advect(mesh, zero, 0.1, 0.01)
            assert out.elements is mesh.elements
            with pytest.raises(ValueError, match="read-only"):
                out.elements[0, 0] = 1

    def test_rejects_non_finite_vertices(self):
        # every RK4 stage is finite, their weighted sum overflows
        mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 16)
        shift = np.zeros_like(mesh.vertices)
        shift[0] = 1e308
        with np.errstate(over="ignore"), pytest.raises(MeshInvariantError, match="non-finite"):
            ci.advect(mesh, _rows_moved_by(shift), 1.0, 1.0)

    def test_rejects_a_collapsed_element(self):
        mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 16)
        shift = np.zeros_like(mesh.vertices)
        shift[1] = mesh.vertices[0] - mesh.vertices[1]
        with pytest.raises(MeshQualityError) as err:
            ci.advect(mesh, _rows_moved_by(shift), 1.0, 1.0)
        assert err.value.element_id == 0

    def test_rejects_a_flipped_orientation(self, circle_mesh):
        mirrored = circle_mesh.vertices * [-1.0, 1.0] + [2 * CENTER_2D[0], 0.0]
        with pytest.raises(MeshInvariantError, match="orientation"):
            ci.advect(circle_mesh, _rows_moved_by(mirrored - circle_mesh.vertices), 1.0, 1.0)

    def test_rejects_backward_target(self, circle_mesh):
        later = ci.advect(circle_mesh, rigid_rotation(), 0.5, 0.1)
        with pytest.raises(ValueError, match="precede"):
            ci.advect(later, rigid_rotation(), 0.25, 0.1)


class TestIndicator:
    def test_initial_time(self):
        phase = ci.disk(CENTER_2D, 1.0)
        zero = taylor_green_2d(amplitude=0.0)
        assert ref.indicator(np.array(CENTER_2D), 0.0, zero, phase, 0.1) == 1
        assert ref.indicator(np.array([0.5, 0.5]), 0.0, zero, phase, 0.1) == 0

    def test_rotated_inside_point(self):
        phase = ci.disk(CENTER_2D, 1.0)
        inside = np.array([np.pi + 0.7, np.pi])
        rotated = rotate_about(inside, CENTER_2D, 1.3)
        assert ref.indicator(rotated, 1.3, rigid_rotation(), phase, 1e-3) == 1

    def test_consistent_with_mesh_test(self):
        # back-trace pathway vs the geometric cross-check, away from the interface
        phase = ci.disk(CENTER_2D, 1.0)
        mesh = ci.mesh_initial(phase, 256)
        tg = taylor_green_2d()
        t = 0.4
        advected = ci.advect(mesh, tg, t, 0.01)
        edge = 2 * np.pi / 256
        rng = np.random.default_rng(67)
        points = rng.uniform(0.5, 2 * np.pi - 0.5, (400, 2))
        distances = np.min(
            np.linalg.norm(points[:, None, :] - advected.vertices[None, :, :], axis=2),
            axis=1,
        )
        far = points[distances >= 2 * edge]
        assert len(far) >= 100
        by_trace = ref.indicator(far, t, tg, phase, 0.01)
        by_mesh = ci.point_in_mesh(advected, far)
        np.testing.assert_array_equal(by_trace, by_mesh)


    @settings(max_examples=20)
    @given(st.lists(st.floats(-0.5, 0.5), min_size=8, max_size=8))
    def test_agrees_with_mesh_off_the_band(self, coefficients):
        # any divergence-free field of the kmax = 1 basis: outside the band
        # the window driver trusts the mesh, so the two pathways must agree
        basis = cb.make_basis(2, 1)
        flow = ref.SteadyField(cb.SpectralField(basis, np.array(coefficients)))
        phase = ci.disk(CENTER_2D, 1.0)
        t = 0.5
        advected = ci.advect(ci.mesh_initial(phase, 128), flow, t, 0.01)
        points, _ = cb.quadrature_rule(2, 16)
        far = points[ci.mesh_distance(advected, points, INDICATOR_BAND) > INDICATOR_BAND]
        np.testing.assert_array_equal(
            ref.indicator(far, t, flow, phase, 0.01), ci.point_in_mesh(advected, far)
        )


def _point_in_mesh_loop(mesh, points):
    """Reference ray cast, one point at a time against every element."""
    corners = mesh.element_corners()
    inside = np.zeros(len(points), dtype=np.int64)
    if mesh.dimension == 2:
        a, b = corners[:, 0], corners[:, 1]
        for i, pt in enumerate(points):
            ay, by = a[:, 1] - pt[1], b[:, 1] - pt[1]
            with np.errstate(divide="ignore", invalid="ignore"):
                x_cross = a[:, 0] + ay / (ay - by) * (b[:, 0] - a[:, 0])
            inside[i] = int(np.sum(((ay > 0.0) != (by > 0.0)) & (x_cross > pt[0]))) % 2
        return inside
    # the side of edge (a, b) as d . (a x b) - p . (d x (a - b)), and the
    # height p . n, summed in the solver's order: on the mesh itself the
    # answer is decided by their rounding
    direction = np.array([0.57735026918962580, 0.57735026918962562, 0.57735026918962551])
    a, b = corners, np.roll(corners, -1, axis=1)
    offset = ci._dot3(direction, np.cross(a, b))
    slope = np.cross(direction, a - b)
    normal = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    height = ci._dot3(corners[:, 0], normal)
    tie = np.where(mesh.elements < np.roll(mesh.elements, -1, axis=1), 1.0, -1.0)
    for i, pt in enumerate(points):
        side = offset - ci._dot3(pt, slope)
        side = np.where(side == 0.0, tie, np.sign(side))
        ahead = np.sign(height - ci._dot3(pt, normal))
        hit = (side[:, 0] == side[:, 1]) & (side[:, 1] == side[:, 2]) & (side[:, 0] == ahead)
        inside[i] = int(np.sum(hit)) % 2
    return inside


def _perturbed(mesh, seed, amplitude):
    """The mesh with each vertex moved radially by up to ``amplitude``."""
    rng = np.random.default_rng(seed)
    center = np.mean(mesh.vertices, axis=0)
    scale = 1.0 + rng.uniform(-amplitude, amplitude, (len(mesh.vertices), 1))
    return ci.InterfaceMesh(center + scale * (mesh.vertices - center), mesh.elements)


def _probe_points(mesh, seed):
    """Vertices, edge midpoints, centroids, and random points around the mesh."""
    rng = np.random.default_rng(seed)
    corners = mesh.element_corners()
    midpoints = 0.5 * (corners + np.roll(corners, -1, axis=1))
    lo, hi = np.min(mesh.vertices, axis=0), np.max(mesh.vertices, axis=0)
    scattered = rng.uniform(lo - 0.2, hi + 0.2, (200, mesh.dimension))
    return np.concatenate(
        [mesh.vertices, midpoints.reshape(-1, mesh.dimension), corners.mean(axis=1), scattered]
    )


def _shared_edge_points(mesh):
    """Points set back along the ray direction from every edge midpoint."""
    d = np.array([0.57735026918962580, 0.57735026918962562, 0.57735026918962551])
    corners = mesh.element_corners()
    midpoints = 0.5 * (corners + np.roll(corners, -1, axis=1))
    return midpoints.reshape(-1, 3) - 0.3 * d


class TestPointInMesh:
    def test_vectorised_ray_cast_matches_point_loop(self):
        rng = np.random.default_rng(71)
        coarse = ci.mesh_initial(ci.ball(CENTER_3D, 1.0), 1)
        edge_points = _shared_edge_points(coarse)
        assert len(edge_points) == 240
        np.testing.assert_array_equal(
            ci.point_in_mesh(coarse, edge_points), _point_in_mesh_loop(coarse, edge_points)
        )
        fine = ci.mesh_initial(ci.ellipsoid(CENTER_3D, (1.2, 1.0, 0.8)), 3)
        points = np.asarray(CENTER_3D) + rng.uniform(-1.4, 1.4, (500, 3))
        inside = ci.point_in_mesh(fine, points)
        assert 0 < inside.sum() < len(points)
        np.testing.assert_array_equal(inside, _point_in_mesh_loop(fine, points))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 2), st.floats(0.0, 0.2), st.integers(0, 2**32 - 1))
    def test_broad_phase_matches_every_element_on_icospheres(self, level, amplitude, seed):
        # the broad phase pairs each point only with the triangles whose
        # padded box holds it; the answer must be the all-elements one, also
        # for points on vertices, edges and faces, and for rays through them
        mesh = _perturbed(ci.mesh_initial(ci.ball(CENTER_3D, 1.0), level), seed, amplitude)
        points = np.concatenate([_probe_points(mesh, seed), _shared_edge_points(mesh)])
        np.testing.assert_array_equal(
            ci.point_in_mesh(mesh, points), _point_in_mesh_loop(mesh, points)
        )

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([8, 64, 256]), st.floats(0.0, 0.2), st.integers(0, 2**32 - 1))
    def test_broad_phase_matches_every_edge_on_polygons(self, vertices, amplitude, seed):
        mesh = _perturbed(ci.mesh_initial(ci.disk(CENTER_2D, 1.0), vertices), seed, amplitude)
        points = _probe_points(mesh, seed)
        np.testing.assert_array_equal(
            ci.point_in_mesh(mesh, points), _point_in_mesh_loop(mesh, points)
        )

    def test_single_point(self, sphere_mesh):
        assert ci.point_in_mesh(sphere_mesh, np.array(CENTER_3D)) == 1
        assert ci.point_in_mesh(sphere_mesh, np.array([0.5, 0.5, 0.5])) == 0

    def test_ray_through_shared_edge_counts_once(self):
        # the 3D ray cast fires along d; a point set back from an edge
        # midpoint along d sends its ray through the edge shared by two
        # triangles.  The icosphere is convex, so its face planes decide
        # membership exactly.
        mesh = ci.mesh_initial(ci.ball(CENTER_3D, 1.0), 1)
        corners = mesh.element_corners()
        points = _shared_edge_points(mesh)
        normal = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        heights = np.einsum("med,ed->me", points[:, None, :] - corners[None, :, 0], normal)
        inside = np.all(heights < 0.0, axis=1).astype(np.int64)
        assert 0 < inside.sum() < len(points)
        np.testing.assert_array_equal(ci.point_in_mesh(mesh, points), inside)


class TestMeshDistance:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
    def test_no_point_of_an_element_is_beyond_the_reach_of_its_corners(self, dimension, seed):
        # dense samples of random segments and triangles, flat and slivered
        # ones included: each lies within half the longest edge (2D) or the
        # longest edge / sqrt(3) (3D) of its element's nearest corner
        rng = np.random.default_rng(seed)
        corners = rng.standard_normal((64, dimension, dimension))
        corners[:16, -1] = corners[:16, 0] + 1e-3 * rng.standard_normal((16, dimension))
        samples = _element_samples(corners, 48)
        nearest = np.min(np.linalg.norm(samples[:, :, None] - corners[:, None], axis=-1), axis=2)
        longest = np.max(np.linalg.norm(np.roll(corners, 1, axis=1) - corners, axis=-1), axis=1)
        reach = longest / (2.0 if dimension == 2 else np.sqrt(3.0))
        assert np.all(np.max(nearest, axis=1) <= reach * (1.0 + 1e-12))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_exact_against_dense_samples(self, dimension, perturbed, seed):
        # never above the distance to dense samples of the elements, and
        # below it by no more than the samples' own reach: every point of
        # an element lies within that of a sample, by the corner reach above
        # applied to the cells of the sample grid
        mesh = _random_shape_mesh(dimension, seed, levels=(1,))
        if perturbed:
            mesh = _perturbed(mesh, seed, 0.3)
        points = _near_points(mesh, seed)
        n = 257 if dimension == 2 else 25
        samples = _element_samples(mesh.element_corners(), n).reshape(-1, dimension)
        sampled = np.array([np.min(np.linalg.norm(samples - p, axis=1)) for p in points])
        corners = mesh.element_corners()
        longest = np.max(np.linalg.norm(np.roll(corners, 1, axis=1) - corners, axis=-1))
        spacing = longest / (n - 1) / (2.0 if dimension == 2 else np.sqrt(3.0))
        exact = ci.mesh_distance(mesh, points, np.inf)
        assert np.all(exact <= sampled + 1e-12)
        assert np.all(exact >= sampled - spacing - 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
    def test_zero_on_vertices_and_element_centres(self, dimension, seed):
        # up to rounding: a centre's height over its own triangle rounds in
        # three coordinates
        mesh = _random_shape_mesh(dimension, seed)
        on_mesh = np.concatenate([mesh.vertices, mesh.geometry.centers])
        assert np.max(ci.mesh_distance(mesh, on_mesh, np.inf)) <= (
            1e-15 if dimension == 2 else 4e-15
        )

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
    def test_between_the_vertex_bound_and_the_nearest_vertex(self, dimension, seed):
        mesh = _random_shape_mesh(dimension, seed)
        points = _near_points(mesh, seed)
        # the vertex bound: the nearest vertex less the corner reach above
        exact = ci.mesh_distance(mesh, points, np.inf)
        nearest = np.min(np.linalg.norm(points[:, None] - mesh.vertices[None], axis=-1), axis=1)
        corners = mesh.element_corners()
        longest = np.max(np.linalg.norm(np.roll(corners, 1, axis=1) - corners, axis=-1))
        reach = longest / (2.0 if dimension == 2 else np.sqrt(3.0))
        assert np.all(nearest - reach <= exact + 1e-12)
        assert np.all(exact <= nearest + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.booleans(), st.integers(0, 2**32 - 1))
    def test_the_polygon_reference_bit_for_bit(self, perturbed, seed):
        mesh = _random_shape_mesh(2, seed)
        if perturbed:
            mesh = _perturbed(mesh, seed, 0.3)
        points = np.concatenate([_near_points(mesh, seed), mesh.vertices])
        assert ci.mesh_distance(mesh, points, np.inf).tobytes() == (
            ref.polygon_distance(mesh, points).tobytes()
        )

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_exact_within_the_radius_and_inf_beyond(self, dimension, quantile, seed):
        # the radius is one of the points' own distances, so some points lie
        # at exactly the radius; the box sweep must keep their elements
        mesh = _random_mesh(dimension, seed)
        points = np.concatenate([_near_points(mesh, seed), mesh.vertices])
        exact = ci.mesh_distance(mesh, points, np.inf)
        for radius in (0.0, float(np.quantile(exact, quantile, method="nearest")), 0.1):
            within = exact <= radius
            got = ci.mesh_distance(mesh, points, radius)
            assert got[within].tobytes() == exact[within].tobytes()
            assert np.all(got[~within] == np.inf)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_edges_once_each_and_only_when_asked(self, dimension):
        # advecting a mesh leaves its edges uncomputed; asked, each element's
        # rows are its own sides, and no side is kept twice
        mesh = ci.advect(_random_mesh(dimension, 7), _still_flow(dimension), 0.1, 0.05)
        assert "edges" not in mesh.__dict__
        edges, sides = mesh.edges
        own = np.stack([mesh.elements, np.roll(mesh.elements, -1, axis=1)], axis=-1)
        np.testing.assert_array_equal(
            np.sort(edges[sides], axis=-1), np.sort(own, axis=-1)[:, : sides.shape[1]]
        )
        assert len(np.unique(np.sort(edges, axis=1), axis=0)) == len(edges)


class TestSagitta:
    @pytest.mark.parametrize("n", [8, 16, 256])
    def test_exact_on_a_regular_polygon_of_a_circle(self, n):
        mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), n)
        assert ci.sagitta(mesh) == pytest.approx(1.0 - np.cos(np.pi / n), rel=1e-9)

    @pytest.mark.parametrize("phase, resolutions", [
        (ci.disk(CENTER_2D, 1.0), (8, 16, 256)),
        (ci.ellipse(CENTER_2D, (1.5, 0.6)), (8, 16, 64, 256)),
        (ci.ellipse(CENTER_2D, (2.5, 0.4)), (8, 16, 64, 256)),
        (ci.ball(CENTER_3D, 1.0), (1, 2, 3)),
        (ci.ellipsoid(CENTER_3D, (1.5, 1.0, 0.6)), (1, 2, 3)),
        (ci.ellipsoid(CENTER_3D, (2.0, 0.7, 0.5)), (1, 2, 3)),
    ])
    def test_never_below_the_gap_to_the_shape(self, phase, resolutions):
        # a point between the mesh and the boundary lies on the ray from the
        # centre through a point of the mesh, no farther from that point
        # than the boundary is: the longest such step over dense samples of
        # the elements measures the gap the estimate must cover
        center, radii = np.asarray(phase.center), np.asarray(phase.radii)
        for resolution in resolutions:
            mesh = ci.mesh_initial(phase, resolution)
            offsets = _element_samples(mesh.element_corners(), 21).reshape(-1, phase.dimension)
            offsets -= center
            scale = 1.0 / np.sqrt(np.sum((offsets / radii) ** 2, axis=1))
            gap = np.max((scale - 1.0) * np.linalg.norm(offsets, axis=1))
            assert gap > 0.0
            # on a circle the two agree, up to rounding
            assert ci.sagitta(mesh) >= gap - 1e-14, resolution


def _element_samples(corners, n):
    """Points of each element: (elements, samples, d).

    A segment takes n evenly spaced points; a triangle the barycentric grid
    of step 1/(n - 1), corners and edges included.
    """
    steps = np.linspace(0.0, 1.0, n)
    if corners.shape[1] == 2:
        weights = np.stack([1.0 - steps, steps], axis=1)
    else:
        u, v = np.meshgrid(steps, steps, indexing="ij")
        keep = u + v <= 1.0 + 1e-12
        u, v = u[keep], v[keep]
        weights = np.stack([np.maximum(1.0 - u - v, 0.0), u, v], axis=1)
    return np.einsum("sc,ecd->esd", weights, corners)


def _random_mesh(dimension, seed):
    """A radially perturbed polygon of 8-40 vertices, or level-1 icosphere."""
    rng = np.random.default_rng(seed)
    if dimension == 2:
        base = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), int(rng.integers(8, 41)))
    else:
        base = ci.mesh_initial(ci.ball(CENTER_3D, 1.0), 1)
    return _perturbed(base, seed, 0.3)


def _random_shape_mesh(dimension, seed, levels=(1, 2)):
    """A polygon of 8-64 vertices of a random ellipse, or an icosphere at one
    of ``levels`` of a random ellipsoid."""
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.3, 2.0, dimension)
    if dimension == 2:
        return ci.mesh_initial(ci.ellipse(CENTER_2D, radii), int(rng.integers(8, 65)))
    return ci.mesh_initial(ci.ellipsoid(CENTER_3D, radii), int(rng.choice(levels)))


def _near_points(mesh, seed):
    """Vertices and element centres moved a little, and points around the mesh."""
    rng = np.random.default_rng(seed)
    d = mesh.dimension
    on_mesh = np.concatenate([mesh.vertices, mesh.geometry.centers])
    lo, hi = np.min(mesh.vertices, axis=0), np.max(mesh.vertices, axis=0)
    return np.concatenate([
        on_mesh + rng.normal(0.0, 0.05, on_mesh.shape),
        rng.uniform(lo - 0.5, hi + 0.5, (40, d)),
    ])


class TestCheckSimple:
    def test_crossed_pentagon_rejected(self):
        # positive signed area, so validate() and enclosed_volume accept it
        vertices = [(3, 3), (5, 3), (5, 5), (4, 2), (3, 5)]
        mesh = ci.InterfaceMesh(vertices, [(i, (i + 1) % 5) for i in range(5)])
        assert ci.enclosed_volume(mesh.validate()) == pytest.approx(1.0)
        with pytest.raises(MeshInvariantError, match="crosses itself"):
            ci.check_simple(mesh)

    def test_simple_polygons_accepted(self, circle_mesh, sphere_mesh):
        assert ci.check_simple(circle_mesh) is circle_mesh
        # collinear non-adjacent edges of a resampled square do not count
        square = ci.InterfaceMesh(
            [(1, 1), (2, 1), (3, 1), (3, 3), (2, 3), (1, 3)],
            [(i, (i + 1) % 6) for i in range(6)],
        )
        ci.check_simple(square.validate())
        assert ci.check_simple(sphere_mesh) is sphere_mesh


def _polygon(vertices):
    n = len(vertices)
    return ci.InterfaceMesh(vertices, [(i, (i + 1) % n) for i in range(n)])


def _verdict(check, mesh):
    """The crossing check's message, or None when the mesh passes."""
    try:
        assert check(mesh) is mesh
    except MeshInvariantError as exc:
        return str(exc)
    return None


def _star(points, step):
    """The star polygon {points/step} on the unit circle around the centre."""
    angles = 2 * np.pi * step * np.arange(points) / points
    return _polygon(np.asarray(CENTER_2D) + np.stack([np.cos(angles), np.sin(angles)], axis=-1))


class TestBroadPhase:
    """``check_simple`` gives the all-pairs scan's verdict and edge pair."""

    # small integers keep every cross product exact, so the sign test is
    # exact and a crossing pair's boxes overlap; the 7 x 7 grid makes
    # collinear edges, repeated vertices and equal x-extents common
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=14))
    def test_matches_all_pairs_on_grid_polygons(self, vertices):
        mesh = _polygon(vertices)
        assert _verdict(ci.check_simple, mesh) == _verdict(ref.check_simple, mesh)

    @pytest.mark.parametrize("vertices, crosses", [
        ([(3, 3), (5, 3), (5, 5), (4, 2), (3, 5)], True),  # the crossed pentagon
        ([(0, 0), (2, 2), (2, 0), (0, 2)], True),  # crossing edges with equal x-extents
        ([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)], False),  # a shared vertex
        ([(0, 0), (4, 0), (2, 0), (2, 2)], False),  # overlapping collinear edges
        ([(1, 1), (1, 2), (1, 3), (2, 3), (2, 1)], False),  # vertical edges, one x
    ])
    def test_matches_all_pairs_on_named_polygons(self, vertices, crosses):
        mesh = _polygon(vertices)
        verdict = _verdict(ci.check_simple, mesh)
        assert verdict == _verdict(ref.check_simple, mesh)
        assert (verdict is not None) == crosses

    @pytest.mark.parametrize("points, step", [(5, 2), (7, 2), (7, 3), (8, 3), (64, 31)])
    def test_matches_all_pairs_on_stars(self, points, step):
        mesh = _star(points, step)
        verdict = _verdict(ci.check_simple, mesh)
        assert verdict is not None and verdict == _verdict(ref.check_simple, mesh)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_all_pairs_on_random_polygons(self, seed, circle_mesh):
        rng = np.random.default_rng(seed)
        mesh = _polygon(rng.uniform(0.0, 2 * np.pi, (rng.integers(4, 40), 2)))
        assert _verdict(ci.check_simple, mesh) == _verdict(ref.check_simple, mesh)
        # a jittered circle is simple, and both scans say so
        jitter = 1e-3 * rng.standard_normal(circle_mesh.vertices.shape)
        wobbly = ci.InterfaceMesh(circle_mesh.vertices + jitter, circle_mesh.elements)
        assert _verdict(ci.check_simple, wobbly) is None
        assert _verdict(ref.check_simple, wobbly) is None

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1))
    def test_box_pairs_are_the_overlapping_pairs(self, dimension, seed):
        rng = np.random.default_rng(seed)
        corners = rng.integers(0, 8, (2, rng.integers(1, 30), dimension))
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        i, j = ci.box_pairs(lo, hi)
        n = len(lo)
        want = {
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if np.all(lo[a] <= hi[b]) and np.all(lo[b] <= hi[a])
        }
        assert np.all(i < j)
        assert sorted(zip(i.tolist(), j.tolist())) == sorted(want)


def _closed_by_edge_count(elements):
    """Reference closedness test: every directed edge and its reverse once."""
    edges = {}
    for tri in elements:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges[(int(a), int(b))] = edges.get((int(a), int(b)), 0) + 1
    return all(count == 1 and edges.get((b, a), 0) == 1 for (a, b), count in edges.items())


def _closed_by_vertex_count(elements, n):
    """Reference 2D closedness test: every vertex starts one segment and ends one."""
    starts, ends = [0] * n, [0] * n
    for a, b in elements.tolist():
        starts[a] += 1
        ends[b] += 1
    return all(count == 1 for count in starts + ends)


_TETRAHEDRON = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
_CLOSED_3D = (_TETRAHEDRON, np.concatenate([_TETRAHEDRON, _TETRAHEDRON + 4]), ci._icosahedron()[1])
_DEFECTS = ("none", "removed", "duplicated", "reversed", "unused vertex", "random")


def _connectivity(dimension, defect, seed):
    """Vertices and elements of a small closed connectivity, relabelled and
    reordered at random, then given ``defect``: an element removed,
    duplicated or reversed, an unused vertex, or random indices throughout.

    2D: one or more cycles of 3-9 vertices (a vertex may be its own cycle);
    3D: a tetrahedron, two of them, or an icosahedron.
    """
    rng = np.random.default_rng(seed)
    if dimension == 2:
        n = int(rng.integers(3, 10))
        elements = np.stack([np.arange(n), rng.permutation(n)], axis=1)
    else:
        faces = _CLOSED_3D[rng.integers(len(_CLOSED_3D))]
        n = int(faces.max()) + 1
        # relabelled, and each face started at a random corner: the same directed edges
        turns = (np.arange(3) + rng.integers(0, 3, (len(faces), 1))) % 3
        elements = np.take_along_axis(rng.permutation(n)[faces], turns, axis=1)
    elements = elements[rng.permutation(len(elements))]
    pick = int(rng.integers(len(elements)))
    if defect == "removed":
        elements = np.delete(elements, pick, axis=0)
    elif defect == "duplicated":
        elements = np.concatenate([elements, elements[pick:pick + 1]])
    elif defect == "reversed":
        elements[pick] = elements[pick, ::-1]
    elif defect == "unused vertex":
        n += 1
    elif defect == "random":
        elements = rng.integers(0, n, (int(rng.integers(1, 2 * n)), dimension))
    return np.zeros((n, dimension)), elements


def _still_flow(dimension):
    basis = cb.make_basis(dimension, 1)
    return ref.SteadyField(cb.SpectralField(basis, np.zeros(len(basis))))


# Every reader of a mesh's sides; the 2D mesh file and the 2D distance read
# only the corners, and the 3D mesh file writes the elements as they are.
_SIDE_READERS = {
    "validate": lambda mesh, path: mesh.validate(),
    "enclosed_volume": lambda mesh, path: ci.enclosed_volume(mesh),
    "sagitta": lambda mesh, path: ci.sagitta(mesh),
    "advect": lambda mesh, path: ci.advect(mesh, _still_flow(mesh.dimension), 0.1, 0.05),
    "write_mesh": ci.write_mesh,
    "mesh_distance": lambda mesh, path: ci.mesh_distance(mesh, np.ones((1, 3)), np.inf),
    # in 2D the point that the 16-gon less segment 5 would put inside
    "point_in_mesh": lambda mesh, path: ci.point_in_mesh(
        mesh, np.pi + np.array([-0.9, 0.8, 0.0][: mesh.dimension])
    ),
}


class TestClosedness:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3]), st.sampled_from(_DEFECTS), st.integers(0, 2**32 - 1))
    def test_across_matches_a_brute_force_reference(self, dimension, defect, seed):
        vertices, elements = _connectivity(dimension, defect, seed)
        mesh = ci.InterfaceMesh(vertices, elements)
        if dimension == 2:
            closed = _closed_by_vertex_count(elements, len(vertices))
        else:
            closed = _closed_by_edge_count(elements)
        if not closed:
            with pytest.raises(MeshInvariantError, match="closed"):
                mesh.across
            return
        across = mesh.across.ravel()
        assert mesh.across.shape == elements.shape
        np.testing.assert_array_equal(across[across], np.arange(elements.size))
        if dimension == 2:
            # a segment's start meets a segment's end, at the same vertex
            vertex, end = elements.ravel(), np.arange(elements.size) % 2
            assert np.all(vertex[across] == vertex) and np.all(end[across] != end)
        else:
            # the directed edge (a, b) meets (b, a)
            start, stop = elements.ravel(), np.roll(elements, -1, axis=1).ravel()
            assert np.all(start[across] == stop) and np.all(stop[across] == start)
        with pytest.raises(ValueError, match="read-only"):
            mesh.across[0, 0] = 0

    def test_3d_matches_edge_count_reference(self, sphere_mesh):
        elements = sphere_mesh.elements
        flipped = elements.copy()
        flipped[7] = flipped[7, ::-1]
        cases = {
            "closed": elements,
            "open": elements[1:],
            "flipped face": flipped,
            "duplicate face": np.vstack([elements, elements[:1]]),
        }
        for name, faces in cases.items():
            mesh = ci.InterfaceMesh(sphere_mesh.vertices, faces, t=0.0)
            if _closed_by_edge_count(faces):
                assert name == "closed"
                mesh.validate()
                assert ci.enclosed_volume(mesh) > 0.0
            else:
                with pytest.raises(MeshInvariantError, match="closed"):
                    mesh.validate()
                with pytest.raises(MeshInvariantError, match="closed"):
                    ci.enclosed_volume(mesh)

    @pytest.mark.parametrize("reader, dimension", [
        (reader, dimension)
        for reader in _SIDE_READERS
        for dimension in (2, 3)
        if (reader, dimension) not in (("write_mesh", 3), ("mesh_distance", 2))
    ])
    def test_every_reader_of_the_sides_refuses_an_open_mesh(self, reader, dimension, tmp_path):
        # the 16-gon less segment 5, or the level-1 icosphere less face 5:
        # its geometry is computed, but nothing that assumes a closed mesh is
        shape = ci.disk(CENTER_2D, 1.0) if dimension == 2 else ci.ball(CENTER_3D, 1.0)
        closed = ci.mesh_initial(shape, 16 if dimension == 2 else 1)
        mesh = ci.InterfaceMesh(closed.vertices, np.delete(closed.elements, 5, axis=0))
        assert ci.perimeter(mesh) > 0.0
        with pytest.raises(MeshInvariantError, match="closed"):
            _SIDE_READERS[reader](mesh, tmp_path / "mesh")
        assert not (tmp_path / "mesh").exists()

    def test_2d_reversed_segment_rejected(self, circle_mesh):
        # every vertex keeps degree 2, but one segment runs against the others
        elements = circle_mesh.elements.copy()
        elements[5] = elements[5, ::-1]
        mesh = ci.InterfaceMesh(circle_mesh.vertices, elements, t=0.0)
        with pytest.raises(MeshInvariantError, match="closed"):
            mesh.validate()
        with pytest.raises(MeshInvariantError, match="closed"):
            ci.enclosed_volume(mesh)


class TestPerimeter:
    def test_circle(self, circle_mesh):
        assert ci.perimeter(circle_mesh) == pytest.approx(2 * np.pi, abs=1e-3)

    def test_sphere(self, sphere_mesh):
        assert ci.perimeter(sphere_mesh) == pytest.approx(4 * np.pi, rel=1e-2)

    def test_isometry_invariance(self, circle_mesh):
        rotated = ci.advect(circle_mesh, rigid_rotation(), 1.0, 1e-3)
        assert abs(ci.perimeter(rotated) - ci.perimeter(circle_mesh)) <= 1e-6


class TestNormals:
    def test_circle_outward(self, circle_mesh):
        centers, n, _, _ = circle_mesh.geometry
        radial = centers - np.array(CENTER_2D)
        radial /= np.linalg.norm(radial, axis=1)[:, None]
        assert np.max(np.linalg.norm(n - radial, axis=1)) <= 1e-2
        np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)

    def test_sphere_radial_and_north_pole(self, sphere_mesh):
        # facet normals approximate the sphere normal at each centroid; the
        # element nearest the pole points along +z up to its centroid offset
        centers, n, _, _ = sphere_mesh.geometry
        radial = centers - np.array(CENTER_3D)
        radial /= np.linalg.norm(radial, axis=1)[:, None]
        assert np.max(np.linalg.norm(n - radial, axis=1)) <= 1e-2
        top = np.argmax(centers[:, 2])
        assert n[top] @ np.array([0.0, 0.0, 1.0]) >= 0.995

    def test_flipped_orientation_rejected(self, circle_mesh):
        flipped = ci.InterfaceMesh(circle_mesh.vertices, circle_mesh.elements[:, ::-1], t=0.0)
        with pytest.raises(MeshInvariantError, match="orientation"):
            flipped.validate()

    def test_degenerate_element_rejected(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        elements = np.array([[0, 1], [1, 2], [2, 0]])
        mesh = ci.InterfaceMesh(vertices, elements, t=0.0)
        with pytest.raises(MeshQualityError) as err:
            mesh.validate()
        assert err.value.element_id == 1


class TestElementGeometry:
    @pytest.mark.parametrize(
        "shape, resolution",
        [(ci.disk(CENTER_2D, 1.0), 256), (ci.ball(CENTER_3D, 1.0), 3)],
        ids=["256-gon", "icosphere-3"],
    )
    def test_matches_the_separate_helpers_bitwise(self, shape, resolution):
        mesh = ci.mesh_initial(shape, resolution)
        centers, n, measures, _ = mesh.geometry
        # the unit normals as formed from their own corner gather
        corners = mesh.element_corners()
        if mesh.dimension == 2:
            tangents = corners[:, 1] - corners[:, 0]
            raw = np.stack([tangents[:, 1], -tangents[:, 0]], axis=-1)
        else:
            raw = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        for got, want in (
            (centers, corners.mean(axis=1)),
            (n, raw / np.linalg.norm(raw, axis=1)[:, None]),
            (measures, ref.mesh_geometry(mesh)[2]),
        ):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_degenerate_element_raises(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        mesh = ci.InterfaceMesh(vertices, np.array([[0, 1], [1, 2], [2, 0]]), t=0.0)
        with pytest.raises(MeshQualityError) as err:
            mesh.geometry
        assert err.value.element_id == 1
        with pytest.raises(MeshQualityError):
            ci.curvature_pairing_modes(mesh, cb.make_basis(2, 1))
        ball = ci.mesh_initial(ci.ball(CENTER_3D, 1.0), 1)
        collapsed = ball.vertices.copy()
        collapsed[ball.elements[0, 1]] = collapsed[ball.elements[0, 0]]
        mesh = ci.InterfaceMesh(collapsed, ball.elements)
        with pytest.raises(MeshQualityError):
            ci.curvature_pairing_modes(mesh, cb.make_basis(3, 1))


def _invalid_mesh(dimension, defect):
    """A 16-gon or a level-1 icosphere, inverted, with one edge collapsed
    or with one NaN vertex."""
    shape = ci.disk(CENTER_2D, 1.0) if dimension == 2 else ci.ball(CENTER_3D, 1.0)
    mesh = ci.mesh_initial(shape, 16 if dimension == 2 else 1)
    vertices, elements = mesh.vertices.copy(), mesh.elements
    if defect == "inverted":
        elements = elements[:, ::-1]
    elif defect == "collapsed edge":
        vertices[elements[0, 1]] = vertices[elements[0, 0]]
    else:
        vertices[elements[0, 0]] = np.nan
    return ci.InterfaceMesh(vertices, elements)


def _one_atom(dimension):
    return cv.Varifold(np.ones((1, dimension)), np.eye(dimension)[:1], [1.0])


# Every reader of a mesh's geometry; the 2D distance reads only the corners.
_GEOMETRY_READERS = {
    "perimeter": ci.perimeter,
    "enclosed_volume": ci.enclosed_volume,
    "sagitta": ci.sagitta,
    "mesh_distance": lambda mesh: ci.mesh_distance(mesh, np.ones((1, 3)), np.inf),
    "curvature_pairing_modes": lambda mesh: ci.curvature_pairing_modes(
        mesh, cb.make_basis(mesh.dimension, 1)
    ),
    "lift": cv.lift,
    "coupling_residual": lambda mesh: cv.coupling_residual(
        _one_atom(mesh.dimension), mesh, lambda x: np.ones_like(x)
    ),
}
_INVALID_GEOMETRY = {
    "inverted": (MeshInvariantError, "orientation"),
    "collapsed edge": (MeshQualityError, r"degenerate element 0 \("),
    "NaN vertex": (MeshInvariantError, "non-finite"),
}


class TestMeshGeometry:
    """The geometry a mesh keeps is the one its corners give."""

    def _advected(self, dimension):
        if dimension == 2:
            mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 256)
            return ci.advect(mesh, taylor_green_2d(), 0.3, 0.01)
        basis = cb.make_basis(3, 1)
        coefficients = np.random.default_rng(83).uniform(-0.5, 0.5, len(basis))
        flow = ref.SteadyField(cb.SpectralField(basis, coefficients))
        return ci.advect(ci.mesh_initial(ci.ball(CENTER_3D, 1.0), 2), flow, 0.3, 0.05)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_stored_geometry_equals_a_fresh_computation(self, dimension):
        mesh = self._advected(dimension)
        stored = mesh.geometry
        fresh = ref.mesh_geometry(mesh)
        for got, want in zip(stored[:3], fresh[:3]):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert stored.volume == fresh[3]
        assert ci.perimeter(mesh) == float(np.sum(fresh[2]))
        assert ci.enclosed_volume(mesh) == fresh[3]

    @pytest.mark.parametrize("dimension, radius, resolution", [
        (2, 1e-10, 16), (2, 1e-4, 16), (3, 1e-5, 1), (3, 1e-3, 2),
    ])
    def test_a_tiny_region_far_from_the_origin_has_its_volume(self, dimension, radius,
                                                              resolution):
        # the vertices lie at (pi, ...) + radius * unit, rounded at ulp(pi):
        # each offset is off by a relative 2.2e-16 * pi / radius at most, and
        # the volume by a few times that, where a sum about the origin
        # cancels (a 1e-10 16-gon read 0.0, a 1e-5 ball 51% off)
        shape, center = (ci.disk, CENTER_2D) if dimension == 2 else (ci.ball, CENTER_3D)
        unit = ci.mesh_initial(shape(center, 1.0), resolution).geometry.volume
        volume = ci.enclosed_volume(ci.mesh_initial(shape(center, radius), resolution))
        tolerance = 64 * np.finfo(float).eps * np.pi / radius
        assert volume == pytest.approx(unit * radius**dimension, rel=tolerance, abs=0.0)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_vertices_and_geometry_are_read_only(self, dimension):
        mesh = self._advected(dimension)
        with pytest.raises(ValueError, match="read-only"):
            mesh.vertices[0, 0] = 0.0
        for array in mesh.geometry[:3]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        # a mesh built from the caller's array copies it, and leaves it writeable
        vertices = mesh.vertices.copy()
        copy = ci.InterfaceMesh(vertices, mesh.elements)
        vertices[0, 0] = 0.0
        assert copy.vertices[0, 0] == mesh.vertices[0, 0]

    @pytest.mark.parametrize("defect", sorted(_INVALID_GEOMETRY))
    @pytest.mark.parametrize("reader, dimension", [
        (reader, dimension)
        for reader in _GEOMETRY_READERS
        for dimension in (2, 3)
        if (reader, dimension) != ("mesh_distance", 2)
    ])
    def test_no_reader_gets_an_invalid_geometry(self, reader, dimension, defect):
        error, message = _INVALID_GEOMETRY[defect]
        with pytest.raises(error, match=message):
            _GEOMETRY_READERS[reader](_invalid_mesh(dimension, defect))

    def test_enclosed_volume_still_checks_the_mesh(self, circle_mesh, sphere_mesh):
        for mesh in (circle_mesh, sphere_mesh):
            open_mesh = ci.InterfaceMesh(mesh.vertices, mesh.elements[:-1])
            assert ci.perimeter(open_mesh) > 0.0  # its geometry is computed
            with pytest.raises(MeshInvariantError, match="closed"):
                ci.enclosed_volume(open_mesh)
            inverted = ci.InterfaceMesh(mesh.vertices, mesh.elements[:, ::-1])
            with pytest.raises(MeshInvariantError, match="orientation"):
                inverted.geometry
            with pytest.raises(MeshInvariantError, match="orientation"):
                ci.enclosed_volume(inverted)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_lift_gives_the_same_varifold(self, dimension):
        mesh = self._advected(dimension)
        varifold = cv.lift(mesh)
        for got, want in zip((varifold.x, varifold.s, varifold.w), ref.mesh_geometry(mesh)):
            assert got.tobytes() == want.tobytes()
        # the varifold owns its atoms: writing to them leaves the mesh as it was
        varifold.w[0] = 5.0
        assert mesh.geometry.measures[0] != 5.0


class TestCurvaturePairing:
    def test_identity_gradient_circle(self, circle_mesh):
        value = ref.curvature_pairing(
            circle_mesh, lambda p: np.broadcast_to(np.eye(2), (len(p), 2, 2))
        )
        assert value == ci.perimeter(circle_mesh)

    def test_identity_gradient_sphere(self, sphere_mesh):
        value = ref.curvature_pairing(
            sphere_mesh, lambda p: np.broadcast_to(np.eye(3), (len(p), 3, 3))
        )
        assert value == pytest.approx(2.0 * ci.perimeter(sphere_mesh), rel=1e-14)

    def test_against_circle_curvature_oracle(self):
        mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 256)
        got = ref.curvature_pairing(mesh, lambda p: smooth_phi_2d(p)[1])
        exact = circle_first_variation(CENTER_2D, 1.0, smooth_phi_2d)
        assert got == pytest.approx(exact, rel=1e-3)

    def test_modes_variant_matches_generic(self, circle_mesh, sphere_mesh):
        for mesh in (circle_mesh, sphere_mesh):
            basis = cb.make_basis(mesh.dimension, 2)
            stacked = ci.curvature_pairing_modes(mesh, basis)
            for j in [0, 3, len(basis) // 2, len(basis) - 1]:
                coeffs = np.zeros(len(basis))
                coeffs[j] = 1.0
                direct = ref.curvature_pairing(
                    mesh, lambda points, c=coeffs: ref.synthesize_gradient(basis, c, points)
                )
                assert stacked[j] == pytest.approx(direct, abs=1e-14)


class TestEnclosedVolume:
    def test_circle(self, circle_mesh):
        assert ci.enclosed_volume(circle_mesh) == pytest.approx(np.pi, abs=1e-3)

    def test_sphere(self, sphere_mesh):
        assert ci.enclosed_volume(sphere_mesh) == pytest.approx(4 * np.pi / 3, rel=1e-2)

    def test_taylor_green_advection(self, circle_mesh):
        out = ci.advect(circle_mesh, taylor_green_2d(), 0.5, 0.005)
        assert ci.enclosed_volume(out) == pytest.approx(np.pi, rel=1e-3)

    def test_open_mesh_rejected(self, circle_mesh):
        open_mesh = ci.InterfaceMesh(circle_mesh.vertices, circle_mesh.elements[:-1], t=0.0)
        with pytest.raises(MeshInvariantError, match="closed"):
            ci.enclosed_volume(open_mesh)


class TestMeshIO:
    def test_csv_polyline_round_shape(self, tmp_path, circle_mesh):
        path = tmp_path / ci.mesh_filename(circle_mesh, 0.25)
        assert path.name == "interface_t0.250000.csv"
        ci.write_mesh(circle_mesh, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 1 + len(circle_mesh.vertices)

    def test_obj_output(self, tmp_path, sphere_mesh):
        path = tmp_path / ci.mesh_filename(sphere_mesh, 0.0)
        assert path.suffix == ".obj"
        ci.write_mesh(sphere_mesh, path)
        text = path.read_text().splitlines()
        n_v = sum(1 for line in text if line.startswith("v "))
        n_f = sum(1 for line in text if line.startswith("f "))
        assert n_v == len(sphere_mesh.vertices)
        assert n_f == len(sphere_mesh.elements)

    def test_polyline_matches_the_row_formatter(self, tmp_path, circle_mesh):
        vertices = circle_mesh.vertices.copy()
        vertices[:6] = [[-0.0, 5e-324], [1e300, 1e-7], [3.0, -2.0], [0.0, 1e-300],
                        [-1e300, 2.5], [np.pi, 1.0 / 3.0]]
        mesh = ci.InterfaceMesh(vertices, circle_mesh.elements[::-1].copy())
        ci.write_mesh(mesh, tmp_path / "new.csv")
        ref.write_mesh(mesh, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_obj_matches_the_row_formatter(self, tmp_path, sphere_mesh):
        vertices = sphere_mesh.vertices.copy()
        vertices[:4] = [[-0.0, 5e-324, 1e300], [1e-7, 2.0, -7.0], [0.0, -1e-300, 12.0],
                        [1.0 / 3.0, 1e15, 123456789012.5]]
        mesh = ci.InterfaceMesh(vertices, sphere_mesh.elements)
        ci.write_mesh(mesh, tmp_path / "new.obj")
        ref.write_mesh(mesh, tmp_path / "old.obj")
        assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "old.obj").read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=40))
    def test_format_rows_matches_the_row_formatter(self, values):
        table = np.array(values[: len(values) // 2 * 2]).reshape(-1, 2)
        want = "".join(f"{a:.12g},{b:.12g}\n" for a, b in table)
        assert ci.format_rows("%.12g,%.12g", table) == want
