import numpy as np
import pytest

from capmhd import interface as ci
from capmhd import varifold as cv

import reference as ref
from conftest import (
    CENTER_2D,
    CENTER_3D,
    circle_first_variation,
    phi_identity,
    smooth_phi_2d,
    smooth_phi_3d,
    sphere_first_variation,
)


class TestVarifoldInvariants:
    def test_weights_positive(self):
        with pytest.raises(ValueError, match="positive"):
            cv.Varifold(np.zeros((1, 2)), np.array([[1.0, 0.0]]), np.array([0.0]))

    def test_directions_unit(self):
        with pytest.raises(ValueError, match="unit"):
            cv.Varifold(np.zeros((1, 2)), np.array([[2.0, 0.0]]), np.array([1.0]))

    def test_mass_is_total_weight(self):
        v = cv.Varifold(
            np.zeros((3, 2)),
            np.array([[1.0, 0.0]] * 3),
            np.array([1.0, 2.0, 3.0]),
        )
        assert v.mass() == 6.0


class TestLift:
    def test_circle_mass(self, circle_mesh):
        assert cv.lift(circle_mesh).mass() == pytest.approx(2 * np.pi, abs=1e-3)

    def test_sphere_mass(self, sphere_mesh):
        assert cv.lift(sphere_mesh).mass() == pytest.approx(4 * np.pi, rel=1e-2)

    def test_mass_equals_perimeter_exactly(self, circle_mesh, sphere_mesh):
        for mesh in (circle_mesh, sphere_mesh):
            assert cv.lift(mesh).mass() - ci.perimeter(mesh) == 0.0

    def test_mass_converges_from_below(self):
        # inscribed polygons: mass increases to the analytic perimeter with
        # an O(resolution^-2) deficit
        deficits = []
        for resolution in (128, 256):
            mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), resolution)
            deficit = 2 * np.pi - cv.lift(mesh).mass()
            assert deficit > 0.0
            deficits.append(deficit)
        assert 3.5 <= deficits[0] / deficits[1] <= 4.5


class TestFirstVariation:
    def test_identity_circle(self):
        for radius in (0.5, 1.0):
            mesh = ci.mesh_initial(ci.disk(CENTER_2D, radius), 256)
            value = cv.first_variation(cv.lift(mesh), phi_identity)
            assert value == pytest.approx(2 * np.pi * radius, rel=1e-3)

    def test_identity_sphere(self):
        mesh = ci.mesh_initial(ci.ball(CENTER_3D, 1.0), 5)
        value = cv.first_variation(cv.lift(mesh), phi_identity)
        assert value == pytest.approx(8 * np.pi, rel=1e-3)

    def test_constant_phi_vanishes(self, circle_mesh):
        def constant(points):
            return np.ones_like(points), np.zeros((len(points), 2, 2))

        assert cv.first_variation(cv.lift(circle_mesh), constant) == 0.0

    def test_linearity(self, circle_mesh):
        rng = np.random.default_rng(71)
        v = cv.lift(circle_mesh)

        def random_linear_phi(matrix):
            def phi(points):
                return points @ matrix.T, np.broadcast_to(matrix, (len(points), 2, 2)).copy()

            return phi

        m1 = rng.standard_normal((2, 2))
        m2 = rng.standard_normal((2, 2))
        a, b = 2.5, -1.25
        combined = cv.first_variation(v, random_linear_phi(a * m1 + b * m2))
        split = a * cv.first_variation(v, random_linear_phi(m1)) + b * cv.first_variation(
            v, random_linear_phi(m2)
        )
        assert abs(combined - split) <= 1e-12 * max(1.0, abs(split))

    def test_weight_linearity(self, circle_mesh):
        v = cv.lift(circle_mesh)
        doubled = cv.Varifold(v.x, v.s, 2.0 * v.w)
        a = cv.first_variation(v, smooth_phi_2d)
        b = cv.first_variation(doubled, smooth_phi_2d)
        assert abs(b - 2.0 * a) <= 1e-12 * max(1.0, abs(a))

    def test_matches_curvature_pairing_on_lift(self, circle_mesh):
        via_varifold = cv.first_variation(cv.lift(circle_mesh), smooth_phi_2d)
        via_mesh = ref.curvature_pairing(circle_mesh, lambda p: smooth_phi_2d(p)[1])
        assert via_varifold == pytest.approx(via_mesh, abs=1e-12)

    def test_smooth_phi_against_circle_oracle(self):
        mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), 256)
        got = cv.first_variation(cv.lift(mesh), smooth_phi_2d)
        exact = circle_first_variation(CENTER_2D, 1.0, smooth_phi_2d)
        assert got == pytest.approx(exact, rel=1e-2)

    def test_smooth_phi_against_sphere_oracle(self):
        mesh = ci.mesh_initial(ci.ball(CENTER_3D, 1.0), 4)
        got = cv.first_variation(cv.lift(mesh), smooth_phi_3d)
        exact = sphere_first_variation(CENTER_3D, 1.0, smooth_phi_3d)
        assert got == pytest.approx(exact, rel=1e-2)

    def test_convergence_order(self):
        exact = circle_first_variation(CENTER_2D, 1.0, smooth_phi_2d)
        errors = []
        for resolution in (128, 256):
            mesh = ci.mesh_initial(ci.disk(CENTER_2D, 1.0), resolution)
            got = cv.first_variation(cv.lift(mesh), smooth_phi_2d)
            errors.append(abs(got - exact))
        order = np.log2(errors[0] / errors[1])
        assert order >= 1.8


class TestCouplingResidual:
    def test_lift_is_exact(self, circle_mesh):
        rng = np.random.default_rng(73)
        v = cv.lift(circle_mesh)
        for _ in range(5):
            matrix = rng.standard_normal((2, 2))
            offset = rng.standard_normal(2)
            psi = lambda p, m=matrix, c=offset: p @ m.T + c
            assert cv.coupling_residual(v, circle_mesh, psi) == 0.0

    def test_doubled_weights_on_symmetric_boundary(self, circle_mesh):
        # the circle's boundary-measure pairing with a constant field vanishes
        # by symmetry, so doubling every weight keeps zero residual
        lifted = cv.lift(circle_mesh)
        v = cv.Varifold(lifted.x, lifted.s, 2.0 * lifted.w)
        psi = lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=-1)
        assert cv.coupling_residual(v, circle_mesh, psi) <= 1e-12

    def test_single_foreign_atom(self, circle_mesh):
        atom = cv.Varifold(
            np.array([[np.pi, np.pi]]), np.array([[1.0, 0.0]]), np.array([1.0])
        )
        psi = lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=-1)
        assert cv.coupling_residual(atom, circle_mesh, psi) == pytest.approx(1.0, abs=1e-12)


class TestVarifoldIO:
    def test_csv_columns(self, tmp_path, circle_mesh):
        v = cv.lift(circle_mesh)
        path = tmp_path / cv.varifold_filename(0.5)
        assert path.name == "varifold_t0.500000.csv"
        cv.write_varifold(v, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,s1,s2,w"
        assert len(lines) == 1 + len(v.w)

    @pytest.mark.parametrize("mesh_name", ["circle_mesh", "sphere_mesh"])
    def test_csv_matches_the_row_formatter(self, tmp_path, request, mesh_name):
        v = cv.lift(request.getfixturevalue(mesh_name))
        d = v.dimension
        v.x[:3] = [-0.0, 1e300, 3.0][:d], [5e-324, 1e-7, -2.0][:d], [0.0, 1.0 / 3.0, 1e15][:d]
        v.s[0] = np.eye(d)[0] * -1.0
        v.s[1, :] = 0.0
        v.s[1, -1] = 1.0
        v.w[:4] = [5e-324, 1e300, 1e-7, 4.0]
        cv.write_varifold(v, tmp_path / "new.csv")
        ref.write_varifold(v, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
