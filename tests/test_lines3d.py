"""Oriented lines of 3-space, the torus congruences, mesh export."""

import math

import numpy as np
import pytest

from neutralkahler import (
    AnnulusGrid,
    SurfaceClass,
    TangentPoint,
    TorusFamily,
    el_residual,
    export_congruence,
    signature_profile,
    to_oriented_line,
    torus_profile,
    torus_section,
)
from neutralkahler.errors import AdmissibilityError, DomainError
from neutralkahler.lines3d import _ddirection, direction_of
from neutralkahler.numerics import ComplexField


class TestTorusFamily:
    def test_admissibility(self):
        TorusFamily(1.0, 0.0)
        TorusFamily(1.0, -2.0)
        with pytest.raises(AdmissibilityError):
            TorusFamily(1.0, -3.0)
        with pytest.raises(AdmissibilityError):
            TorusFamily(-0.5, 0.0)
        with pytest.raises(AdmissibilityError, match="branch must be"):
            TorusFamily(1.0, 0.0, branch=2)

    @pytest.mark.parametrize("b2, c2", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan),
                                        (1.0, math.inf)])
    def test_non_finite_constants_rejected(self, b2, c2):
        # a comparison that NaN fails would let the constant through
        with pytest.raises(AdmissibilityError, match="need finite B2 and C2"):
            TorusFamily(b2, c2)

    def test_quartic_profile_values(self):
        section = torus_section(TorusFamily(1.0, 0.0))
        xi = 1.5 * np.exp(0.3j)
        expected = 1j * math.sqrt(1.0 + 1.5**4) * np.exp(0.3j)
        assert section.F(xi) == pytest.approx(expected)

    def test_degenerate_torus_values(self):
        section = torus_section(TorusFamily(1.0, 2.0))
        xi = 0.7 * np.exp(1.2j)
        expected = 1j * (1.0 + 0.49) * np.exp(1.2j)
        assert section.F(xi) == pytest.approx(expected)

    def test_branches_double_cover(self):
        up = torus_section(TorusFamily(1.0, 0.0, branch=1))
        down = torus_section(TorusFamily(1.0, 0.0, branch=-1))
        for r in (0.4, 1.0, 2.5):
            xi = r * np.exp(0.9j)
            assert up.F(xi) == pytest.approx(-down.F(xi))
            if r != 1.0:
                assert abs(up.F(xi)) > 0.0

    def test_section_is_the_profile_section(self):
        for fam in (TorusFamily(1.0, 0.0), TorusFamily(2.0, 1.0, branch=-1),
                    TorusFamily(0.5, 3.0)):
            a, b = torus_section(fam).F, torus_profile(fam).section().F
            for r in (0.3, 0.9, 1.7, 2.6):
                xi = r * np.exp(0.7j)
                assert (a(xi), *a.jet(xi)) == (b(xi), *b.jet(xi))

    def test_stationarity_away_from_null_circle(self):
        section = torus_section(TorusFamily(2.0, 1.0))
        for r in (0.4, 0.8, 1.3, 2.2):
            assert abs(el_residual(section, r * np.exp(0.5j))) <= 1e-6


class TestSignatureProfile:
    def test_null_meridian(self):
        samples = signature_profile(TorusFamily(1.0, 0.0), [1.0])
        assert samples[0].classification is SurfaceClass.TOTALLY_NULL

    def test_supercritical_definite_with_sign_flip(self):
        # C2 > 2 B2: definite, opposite signs across the null circle
        samples = signature_profile(TorusFamily(1.0, 5.0), [0.3, 0.6, 1.7, 3.0])
        assert all(s.classification is SurfaceClass.RIEMANNIAN for s in samples)
        inner = {s.definite_sign for s in samples if s.r < 1.0}
        outer = {s.definite_sign for s in samples if s.r > 1.0}
        assert inner == {-1} and outer == {1}

    def test_subcritical_is_lorentz_off_the_null_circle(self):
        # C2 < 2 B2: the quartic-profile determinant (C2 - 2 B2)(1-R^2)^2/(1+R^2)^2
        # is negative on both sides of R = 1
        for fam in (TorusFamily(1.0, 0.0), TorusFamily(2.0, 1.0)):
            samples = signature_profile(fam, [0.5, 2.0])
            assert all(s.classification is SurfaceClass.LORENTZ for s in samples)
            assert all(s.definite_sign is None for s in samples)

    def test_degenerate_torus(self):
        samples = signature_profile(TorusFamily(1.0, 2.0), [0.5, 1.5, 3.0])
        assert all(s.classification is SurfaceClass.DEGENERATE for s in samples)

    def test_branch_swaps_definite_sides(self):
        plus = signature_profile(TorusFamily(1.0, 5.0, branch=1), [0.5, 2.0])
        minus = signature_profile(TorusFamily(1.0, 5.0, branch=-1), [0.5, 2.0])
        assert [s.definite_sign for s in plus] == [-s.definite_sign for s in minus]


class TestOrientedLines:
    def test_axis_anchor(self):
        line = to_oriented_line(TangentPoint(0.0, 0.0))
        assert np.allclose(line.direction, [0.0, 0.0, 1.0])
        assert np.allclose(line.foot, [0.0, 0.0, 0.0])

    def test_unit_fibre_pushforward(self):
        line = to_oriented_line(TangentPoint(0.0, 1.0))
        assert np.allclose(line.direction, [0.0, 0.0, 1.0])
        assert abs(line.foot @ line.direction) <= 1e-12
        # the foot is the image of d/dx under the FD Jacobian of the
        # direction parametrisation
        h = 1e-7
        jac_col = (direction_of(h) - direction_of(-h)) / (2.0 * h)
        assert np.allclose(line.foot, jac_col, atol=1e-6)
        assert np.linalg.norm(line.foot) == pytest.approx(2.0, abs=1e-12)

    def test_fd_jacobian_pushforward_general(self):
        xi, eta = 0.6 - 0.8j, 1.2 + 0.4j
        line = to_oriented_line(TangentPoint(xi, eta))
        h = 1e-7
        jx = (direction_of(xi + h) - direction_of(xi - h)) / (2.0 * h)
        jy = (direction_of(xi + 1j * h) - direction_of(xi - 1j * h)) / (2.0 * h)
        assert np.allclose(line.foot, eta.real * jx + eta.imag * jy, atol=1e-6)

    @pytest.mark.parametrize("angle", [math.pi / 2.0, 0.7, -1.3])
    def test_rotation_equivariance(self, angle):
        xi, eta = 0.8 + 0.2j, -0.5 + 1.1j
        phase = complex(math.cos(angle), math.sin(angle))
        rotated = to_oriented_line(TangentPoint(xi * phase, eta * phase))
        base = to_oriented_line(TangentPoint(xi, eta))
        rz = np.array(
            [
                [math.cos(angle), -math.sin(angle), 0.0],
                [math.sin(angle), math.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(rotated.direction, rz @ base.direction, atol=1e-10)
        assert np.allclose(rotated.foot, rz @ base.foot, atol=1e-10)

    def test_line_invariants_enforced(self):
        from neutralkahler import OrientedLine

        with pytest.raises(DomainError):
            OrientedLine(direction=np.array([0.0, 0.0, 2.0]), foot=np.zeros(3))
        with pytest.raises(DomainError):
            OrientedLine(direction=np.array([0.0, 0.0, 1.0]), foot=np.array([0.0, 0.0, 1.0]))


class TestExport:
    def grid16(self):
        return AnnulusGrid(0.3, 3.0, 16, 16)

    def test_obj_counts(self, tmp_path):
        section = torus_section(TorusFamily(1.0, 0.0))
        path = tmp_path / "torus.obj"
        segments = export_congruence(section, self.grid16(), 2.0, "obj", path)
        text = path.read_text().strip().split("\n")
        vertices = [l for l in text if l.startswith("v ")]
        faces = [l for l in text if l.startswith("f ")]
        assert segments == 256
        assert len(vertices) == 512
        assert len(faces) == 240
        for face in faces:
            ids = [int(tok) for tok in face.split()[1:]]
            assert len(ids) == 4
            assert all(1 <= i <= len(vertices) for i in ids)

    def test_csv_rows_and_orthogonality(self, tmp_path):
        section = torus_section(TorusFamily(1.0, 0.0))
        path = tmp_path / "torus.csv"
        grid = self.grid16()
        segments = export_congruence(section, grid, 2.0, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "R,theta,dx,dy,dz,fx,fy,fz"
        assert segments == grid._lattice()[0].size == len(lines) - 1
        for row in lines[1:]:
            vals = [float(tok) for tok in row.split(",")]
            d, f = np.array(vals[2:5]), np.array(vals[5:8])
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
            assert abs(d @ f) <= 1e-10

    def test_degenerate_torus_exports(self, tmp_path):
        section = torus_section(TorusFamily(1.0, 2.0))
        path = tmp_path / "degenerate.obj"
        assert export_congruence(section, self.grid16(), 1.0, "obj", path) == 256

    def test_bad_format_rejected(self, tmp_path):
        section = torus_section(TorusFamily(1.0, 0.0))
        with pytest.raises(DomainError):
            export_congruence(section, self.grid16(), 1.0, "stl", tmp_path / "x")

    @pytest.mark.parametrize("half_length", [0.0, np.nan, np.inf])
    def test_bad_half_length_rejected(self, tmp_path, half_length):
        section = torus_section(TorusFamily(1.0, 5.0))
        with pytest.raises(DomainError, match="positive and finite"):
            export_congruence(section, self.grid16(), half_length, "obj", tmp_path / "x.obj")

    def test_non_sphere_section_rejected(self, tmp_path, flat):
        from neutralkahler import polynomial_section

        section = polynomial_section(flat, {(1, 0): 1j})
        with pytest.raises(DomainError, match="round sphere"):
            export_congruence(section, self.grid16(), 1.0, "obj", tmp_path / "x.obj")

    def test_only_the_round_sphere_and_its_reflection_export(self, tmp_path):
        # the rule reads the geometry's e^{-2u}, not its name: a bump is not the round
        # sphere, whatever it is named
        from neutralkahler import GraphSection, RadialFunction, conjugate_section
        from neutralkahler.ambient import radial_geometry

        torus = torus_section(TorusFamily(1.0, 5.0))
        for name in ("sphere-bump", "sphere"):
            bump = radial_geometry(name, RadialFunction(lambda r: 0.3 * np.exp(-r * r),
                                                        lambda r: -0.6 * r * np.exp(-r * r)))
            with pytest.raises(DomainError, match=f"'{name}'"):
                export_congruence(GraphSection(torus.F, bump), self.grid16(), 1.0, "obj",
                                  tmp_path / "bump.obj")
            assert not (tmp_path / "bump.obj").exists()
        mirrored = conjugate_section(torus)
        assert mirrored.geometry.name == "sphere~"
        assert export_congruence(mirrored, self.grid16(), 1.0, "obj", tmp_path / "m.obj") == 256


class TestLineArrays:
    """``direction_of`` and ``_ddirection`` are elementwise with the last axis
    xyz, and the export builds its lines and faces from lattice arrays."""

    def test_maps_on_arrays_match_points(self):
        xi = np.array([[0.0, 0.3 - 0.2j, 1.0], [-2.5 + 1.5j, 1e-3j, 7.0 - 4.0j]])
        for fn in (direction_of, _ddirection):
            stacked = fn(xi)
            assert stacked.shape == (2, 3, 3)
            points = np.array([[fn(complex(z)) for z in row] for row in xi])
            assert points.shape == (2, 3, 3)
            scale = max(1.0, float(np.max(np.abs(points))))
            assert np.max(np.abs(stacked - points)) <= 1e-13 * scale
        assert direction_of(0.5j).shape == _ddirection(0.5j).shape == (3,)

    def test_obj_faces_follow_the_rings(self, tmp_path):
        # the bands remove two whole rings; quads join angular neighbours within
        # each kept ring, as in a construction that groups the nodes by radius
        grid = AnnulusGrid(0.3, 3.0, 10, 6, ((1.2, 0.2), (2.4, 0.1)))
        path = tmp_path / "banded.obj"
        segments = export_congruence(torus_section(TorusFamily(1.0, 5.0)), grid, 1.0, "obj", path)
        radii = grid._lattice()[0].tolist()
        rings = {}
        for k, r in enumerate(radii):
            rings.setdefault(r, []).append(k)
        assert segments == len(radii) == 6 * len(rings) and len(rings) < 10
        expected = [f"f {2 * i + 1} {2 * j + 1} {2 * j + 2} {2 * i + 2}"
                    for ring in rings.values() for i, j in zip(ring[:-1], ring[1:])]
        lines = path.read_text().splitlines()
        assert [line for line in lines if line.startswith("f ")] == expected

    def test_vertices_are_the_segment_ends(self, tmp_path):
        grid = AnnulusGrid(0.3, 3.0, 5, 8)
        section = torus_section(TorusFamily(2.0, 1.0, branch=-1))
        path = tmp_path / "ends.obj"
        export_congruence(section, grid, 1.5, "obj", path)
        vertices = np.array([[float(tok) for tok in line.split()[1:]]
                             for line in path.read_text().splitlines() if line.startswith("v ")])
        for k, (r, t) in enumerate(zip(*(c.tolist() for c in grid._lattice()))):
            xi = r * complex(math.cos(t), math.sin(t))
            line = to_oriented_line(TangentPoint(xi, section.F(xi)))
            assert np.allclose(vertices[2 * k], line.point(-1.5), rtol=0.0, atol=1e-13)
            assert np.allclose(vertices[2 * k + 1], line.point(1.5), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("fmt", ["obj", "csv"])
    def test_nan_section_names_the_node(self, tmp_path, sphere, fmt):
        from neutralkahler import GraphSection

        def F(xi):
            return np.where(np.abs(xi - 2.0) < 1e-9, np.nan, xi)

        section = GraphSection(ComplexField(F, lambda xi: (F(xi), 1.0, 0.0)), sphere)
        grid = AnnulusGrid(1.0, 2.0, 3, 4)  # the node R = 2, theta = 0 is xi = 2
        with pytest.raises(DomainError, match=r"R=2, theta=0\b"):
            export_congruence(section, grid, 1.0, fmt, tmp_path / f"nan.{fmt}")

    def test_non_unit_direction_names_its_norm_as_a_plain_number(self):
        from neutralkahler import OrientedLine

        # the shortest repr of the norm, not numpy's np.float64(...) spelling
        with pytest.raises(DomainError) as info:
            OrientedLine(direction=np.array([1.0, 1.0, 0.0]), foot=np.zeros(3))
        assert str(info.value) == ("not a unit direction with a perpendicular foot: "
                                   "|d| = 1.4142135623730951, d.f = 0.000e+00")

    def test_oriented_line_rejects_non_finite(self):
        from neutralkahler import OrientedLine

        with pytest.raises(DomainError):
            OrientedLine(direction=np.array([0.0, 0.0, 1.0]), foot=np.array([np.nan, 0.0, 0.0]))
