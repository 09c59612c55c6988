"""The ambient triple (G, Omega, J): identities, signature, calibration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neutralkahler import (
    AmbientFrame,
    TangentPoint,
    ambient_frame,
    ambient_signature,
    calibration_gap,
    theta_form,
)
from neutralkahler.ambient import J4_MATRIX
from neutralkahler.errors import AmbiguousSignatureError, DegeneratePlaneError, DomainError
from neutralkahler.sampling import random_tangent_coords, rng_from_seed


def random_point(rng):
    xi, eta = random_tangent_coords(rng)
    return TangentPoint(xi, eta)


class TestGeometry:
    def test_conformal_factor_positive(self, flat, sphere):
        rng = rng_from_seed(11)
        for _ in range(50):
            xi, _ = random_tangent_coords(rng)
            assert flat.conformal_factor(xi) > 0.0
            assert sphere.conformal_factor(xi) > 0.0

    def test_radial_profile_consistent(self, sphere):
        rng = rng_from_seed(12)
        for _ in range(50):
            xi, _ = random_tangent_coords(rng)
            assert sphere.u(xi) == pytest.approx(sphere.radial_u(abs(xi)), abs=1e-14)

    def test_sphere_du_matches_radial(self, sphere):
        xi = 0.8 - 0.3j
        r = abs(xi)
        expected = sphere.radial_du(r) * xi.conjugate() / (2.0 * r)
        assert sphere.du_at(xi) == pytest.approx(expected, abs=1e-14)

    def test_tangent_point_finiteness(self):
        with pytest.raises(DomainError):
            TangentPoint(complex("inf"), 0.0)

    def test_broken_conformal_derivative_propagates(self):
        from neutralkahler.ambient import ConformalGeometry, ambient_frame
        from neutralkahler.errors import DerivativeUnavailableError

        def bad_du(xi):
            raise ValueError("no derivative here")

        geom = ConformalGeometry("broken", u=lambda xi: 0.0, du=bad_du)
        with pytest.raises(DerivativeUnavailableError):
            ambient_frame(geom, TangentPoint(0.0, 1.0))


class TestFrameIdentities:
    def test_j_squares_to_minus_identity(self):
        assert np.allclose(J4_MATRIX @ J4_MATRIX, -np.eye(4))

    def test_symmetries(self, sphere):
        rng = rng_from_seed(1)
        for _ in range(20):
            fr = ambient_frame(sphere, random_point(rng))
            assert np.array_equal(fr.G4, fr.G4.T)
            assert np.array_equal(fr.O4, -fr.O4.T)

    @pytest.mark.parametrize("geometry", ["flat", "sphere"])
    def test_compatibility_identities(self, geometry, flat, sphere):
        geom = {"flat": flat, "sphere": sphere}[geometry]
        rng = rng_from_seed(2)
        for _ in range(500):
            fr = ambient_frame(geom, random_point(rng))
            a, b = rng.normal(size=4), rng.normal(size=4)
            scale = max(1.0, float(np.max(np.abs(fr.G4))))
            ja, jb = fr.J4 @ a, fr.J4 @ b
            assert abs(fr.metric(ja, jb) - fr.metric(a, b)) <= 1e-9 * scale
            assert abs(fr.metric(a, b) - fr.symplectic(ja, b)) <= 1e-9 * scale

    def test_basis_vector_compatibility_flat(self, flat):
        # for u = 0 both sides vanish on the first basis vector
        fr = ambient_frame(flat, TangentPoint(0.3 + 0.2j, 1.0 - 0.5j))
        v1 = np.array([1.0, 0.0, 0.0, 0.0])
        assert fr.symplectic(v1, fr.J4 @ v1) == pytest.approx(fr.metric(v1, v1), abs=1e-12)

    def test_closedness_by_finite_differences(self, sphere):
        rng = rng_from_seed(3)
        h = 1e-5
        for _ in range(10):
            p = random_point(rng)
            c0 = np.array([p.xi.real, p.xi.imag, p.eta.real, p.eta.imag])

            def omega(c):
                return ambient_frame(
                    sphere, TangentPoint(complex(c[0], c[1]), complex(c[2], c[3]))
                ).O4

            grads = []
            for i in range(4):
                cp, cm = c0.copy(), c0.copy()
                cp[i] += h
                cm[i] -= h
                grads.append((omega(cp) - omega(cm)) / (2.0 * h))
            for a in range(4):
                for b in range(a + 1, 4):
                    for c in range(b + 1, 4):
                        cyc = grads[a][b, c] + grads[b][c, a] + grads[c][a, b]
                        assert abs(cyc) <= 1e-6


class TestSignature:
    def test_flat_neutral(self, flat):
        rng = rng_from_seed(4)
        for _ in range(100):
            assert ambient_signature(ambient_frame(flat, random_point(rng))) == (2, 2)

    def test_sphere_neutral(self, sphere):
        rng = rng_from_seed(5)
        for _ in range(100):
            xi, eta = random_tangent_coords(rng, xi_scale=3.0, eta_scale=9.0)
            assert ambient_signature(ambient_frame(sphere, TangentPoint(xi, eta))) == (2, 2)

    def test_scaling_preserves_counts(self, sphere):
        fr = ambient_frame(sphere, TangentPoint(0.4 + 0.7j, 2.0 - 1.0j))
        doubled = AmbientFrame(G4=2.0 * fr.G4, O4=2.0 * fr.O4, J4=fr.J4)
        assert ambient_signature(doubled) == ambient_signature(fr)

    def test_near_zero_eigenvalue_is_an_error(self):
        g = np.diag([1.0, 1.0, -1.0, 0.0])
        frame = AmbientFrame(G4=g, O4=np.zeros((4, 4)), J4=J4_MATRIX)
        with pytest.raises(AmbiguousSignatureError) as err:
            ambient_signature(frame)
        assert err.value.eigenvalue == pytest.approx(0.0, abs=1e-12)


class TestCalibration:
    def test_complex_planes_have_zero_gap(self, sphere):
        rng = rng_from_seed(6)
        for _ in range(200):
            fr = ambient_frame(sphere, random_point(rng))
            v1 = rng.normal(size=4)
            v1 /= np.linalg.norm(v1)
            assert abs(calibration_gap(fr, v1, fr.J4 @ v1)) <= 1e-10

    def test_gap_nonnegative_on_random_planes(self, flat, sphere):
        rng = rng_from_seed(7)
        for geom in (flat, sphere):
            for _ in range(500):
                fr = ambient_frame(geom, random_point(rng))
                v1, v2 = rng.normal(size=4), rng.normal(size=4)
                v1 /= np.linalg.norm(v1)
                v2 /= np.linalg.norm(v2)
                assert calibration_gap(fr, v1, v2) >= -1e-10

    def test_quartic_scaling(self, sphere):
        fr = ambient_frame(sphere, TangentPoint(0.5 + 0.1j, 1.0 + 1.0j))
        rng = rng_from_seed(8)
        v1, v2 = rng.normal(size=4), rng.normal(size=4)
        base = calibration_gap(fr, v1, v2)
        assert calibration_gap(fr, 2.0 * v1, 3.0 * v2) == pytest.approx(
            36.0 * base, rel=1e-10
        )

    @given(
        a=st.floats(0.1, 5.0),
        b=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_property(self, sphere, a, b, seed):
        # bilinearity: gap(a v1, b v2) = a^2 b^2 gap(v1, v2)
        rng = rng_from_seed(seed)
        xi, eta = rng.normal(size=2)
        fr = ambient_frame(sphere, TangentPoint(complex(xi), complex(eta)))
        v1, v2 = rng.normal(size=4), rng.normal(size=4)
        base = calibration_gap(fr, v1, v2)
        scaled = calibration_gap(fr, a * v1, b * v2)
        assert scaled == pytest.approx(a * a * b * b * base, rel=1e-9, abs=1e-12)

    def test_dependent_vectors_rejected(self, flat):
        fr = ambient_frame(flat, TangentPoint(0.0, 1.0))
        v = np.array([1.0, 2.0, 0.0, -1.0])
        with pytest.raises(DegeneratePlaneError):
            calibration_gap(fr, v, -3.0 * v)


class TestThetaForm:
    def test_vanishes_on_zero_fibre(self, sphere):
        th = theta_form(sphere, TangentPoint(0.7 + 0.1j, 0.0))
        assert np.allclose(th.components, 0.0)

    def test_flat_unit_fibre_is_two_dx(self, flat):
        th = theta_form(flat, TangentPoint(1.5 - 2.0j, 1.0))
        assert np.allclose(th.components, [2.0, 0.0, 0.0, 0.0])

    def test_components_real(self, sphere):
        th = theta_form(sphere, TangentPoint(0.2 + 0.9j, 1.0 - 3.0j))
        assert th.components.dtype.kind == "f"

    def test_exterior_derivative_recovers_omega(self, sphere):
        rng = rng_from_seed(9)
        h = 1e-6
        for _ in range(10):
            p = random_point(rng)
            c0 = np.array([p.xi.real, p.xi.imag, p.eta.real, p.eta.imag])

            def theta(c):
                return theta_form(
                    sphere, TangentPoint(complex(c[0], c[1]), complex(c[2], c[3]))
                ).components

            grads = []
            for i in range(4):
                cp, cm = c0.copy(), c0.copy()
                cp[i] += h
                cm[i] -= h
                grads.append((theta(cp) - theta(cm)) / (2.0 * h))
            O4 = ambient_frame(sphere, p).O4
            for a in range(4):
                for b in range(4):
                    assert abs(grads[a][b] - grads[b][a] - O4[a, b]) <= 1e-6
